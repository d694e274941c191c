#!/usr/bin/env python3
"""Run the test suite against hand-picked single-token mutants of src/quatbox.

Each mutant is a (file, old, new) triple: `old` must occur exactly once in
the file, and is replaced by `new` in a temporary copy of the checkout.  The
copy then runs `python -m pytest -x -q` with its own src/ on PYTHONPATH.  A
mutant is killed when the suite fails, and survives when it passes.  Some
mutants cannot change any output; EQUIVALENT names them with the reason.

    python3 scripts/mutation_sweep.py            # every mutant, about 5 minutes
    python3 scripts/mutation_sweep.py boxes.py   # only mutants of files matching a name

Exits 1 if a mutant outside EQUIVALENT survives, or if its `old` is no longer
found exactly once.  The sweep is slow, so it is kept out of the tier-1 tests.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: mutants that cannot change any output, with the reason
EQUIVALENT = {
    ("cli.py", "fh.read(_MAX_TABLE_CHARS + 1)", "fh.read(_MAX_TABLE_CHARS + 2)"):
        "one character past the cap is refused just as two are",
    ("vandam.py", "if cells > VERIFY_CELL_BUDGET:", "if cells > VERIFY_CELL_BUDGET + 1:"):
        "the cell count is a multiple of 2**n, so it never equals the budget plus one",
    ("register.py", "np.add(a * v0, b * v1,", "np.add(b * v1, a * v0,"):
        "IEEE addition is commutative, so the readout's columns add in either order",
}

MUTANTS = [
    ("boxes.py", "x ^ y == a & b", "x ^ y != a & b"),
    ("boxes.py", "arr.min() < -1e-12", "arr.min() < -1e-11"),
    ("boxes.py", "arr.min() < -1e-12", "arr.min() <= -1e-12"),
    ("boxes.py", "> NON_SIGNALLING_TOL", ">= NON_SIGNALLING_TOL"),
    ("qlinalg.py", "SUBFIELD_TOL = 1e-14", "SUBFIELD_TOL = 1e-12"),
    ("qlinalg.py", "<= SUBFIELD_TOL", "< SUBFIELD_TOL"),
    ("qlinalg.py", "<= UNITARY_TOL", "< UNITARY_TOL"),
    ("qlinalg.py", "return 0.0 + np.add.accumulate", "return np.add.accumulate"),
    ("qlinalg.py", "out += t[:, 1] * q[:, ::-1]\n    out += t[:, 2] * q[::-1]",
     "out += t[:, 2] * q[::-1]\n    out += t[:, 1] * q[:, ::-1]"),
    ("register.py", "if m.data[..., 1:].any():", "if not m.is_real:"),
    ("qlinalg.py", "q.norm() - 1.0) <= 1e-12", "q.norm() - 1.0) <= 1e-9"),
    ("register.py", "q.norm() - 1.0) <= 1e-12", "q.norm() - 1.0) <= 1e-9"),
    ("cli.py", "<= CELL_TOL", "< CELL_TOL"),
    ("cli.py", "ip.norm() <= ORTHO_TOL", "ip.norm() < ORTHO_TOL"),
    ("cli.py", "report.success_rate >= 1.0", "report.success_rate >= 1.0 - 1e-12"),
    ("vandam.py", "min(max(win, 0.0), 1.0)", "min(win, 1.0)"),
    ("vandam.py", "min(max(win, 0.0), 1.0)", "max(win, 0.0)"),
    *EQUIVALENT,
]


def copy_checkout(dest: Path) -> None:
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                    ".benchmarks", "out")
    for name in ("src", "tests", "scripts", "schemas", "perfbench", "pyproject.toml"):
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=ignore)
        else:
            shutil.copy2(source, dest / name)


def run_mutant(copy: Path, file: str, old: str, new: str) -> str:
    path = copy / "src" / "quatbox" / file
    original = path.read_text(encoding="utf-8")
    if original.count(old) != 1:
        return f"stale: {old!r} occurs {original.count(old)} times"
    path.write_text(original.replace(old, new), encoding="utf-8")
    try:
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        result = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
    finally:
        path.write_text(original, encoding="utf-8")
    if result.returncode == 0:
        return "survived"
    failed = [line.split()[1] for line in result.stdout.splitlines()
              if line.startswith(("FAILED", "ERROR"))]
    return "killed" + (f" by {failed[0]}" if failed else f", exit code {result.returncode}")


def main(argv: list[str]) -> int:
    mutants = [m for m in MUTANTS if not argv or any(name in m[0] for name in argv)]
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        copy_checkout(copy)
        for mutant in mutants:
            verdict = run_mutant(copy, *mutant)
            if verdict == "survived" and mutant in EQUIVALENT:
                verdict += f", equivalent: {EQUIVALENT[mutant]}"
            elif not verdict.startswith("killed"):
                bad += 1
            file, old, new = mutant
            print(f"{file}: {old!r} -> {new!r}: {verdict}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
