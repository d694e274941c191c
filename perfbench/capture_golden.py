"""Record the cli-paper golden outputs from the package under src/.

Usage (from the repository root): python3 perfbench/capture_golden.py <label>

Run it on the commit whose output is the reference; <label> (for example
the commit id) is stored with the goldens.  Sampled requests are captured
with --seed 0, and their exact values (win probability, exact success rate)
are stored beside them so that the benchmark can check Monte Carlo fields
without depending on how the package draws its random numbers.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def _reference(argv: list[str]) -> dict:
    """The exact values a sampled request's Monte Carlo fields are checked against."""
    keys = {"chsh": ("win_probability",), "vandam": ("success_rate", "n_inputs")}
    if argv[0] not in keys:
        return {}
    if "--format" in argv:
        i = argv.index("--format")
        argv = argv[:i] + argv[i + 2:]
    _, stdout, _ = workloads.run_cli(argv + ["--format", "json"])
    payload = json.loads(stdout)
    return {key: payload[key] for key in keys[argv[0]]}


def main() -> None:
    label = sys.argv[1]
    requests = []
    for kind, argv in workloads.cli_mix():
        run_argv = argv + ["--seed", "0"] if kind == "sampled" else argv
        code, stdout, _ = workloads.run_cli(run_argv)
        entry = {"kind": kind, "argv": argv, "code": code, "stdout": stdout}
        if kind == "sampled":
            entry["reference"] = _reference(run_argv)
        requests.append(entry)
    out = HERE / "golden" / "cli_paper.json"
    out.write_text(json.dumps({"captured_from": label, "requests": requests}, indent=1) + "\n",
                   encoding="utf-8")
    print(f"wrote {len(requests)} requests to {out}")


if __name__ == "__main__":
    main()
