"""Replay the recorded cli-paper outputs through quatbox.cli.main.

perfbench/golden/cli_paper.json holds the exit code and stdout of every
request in the benchmark's cli-paper mix: each subcommand x strategy x
format, a few --samples runs (recorded with --seed 0) and invalid requests.
The CLI must reproduce them byte for byte.
"""

import json
from pathlib import Path

import pytest

from quatbox import cli

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "cli_paper.json"
REQUESTS = json.loads(GOLDEN.read_text(encoding="utf-8"))["requests"]


@pytest.mark.parametrize("entry", REQUESTS, ids=[" ".join(e["argv"]) for e in REQUESTS])
def test_cli_reproduces_golden_output(capsys, monkeypatch, entry):
    argv = entry["argv"] + (["--seed", "0"] if entry["kind"] == "sampled" else [])
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code
    out, err = capsys.readouterr()
    assert code == entry["code"]
    assert out == entry["stdout"]
    if entry["kind"] == "invalid":
        assert (code, out) == (2, "")
        assert "Traceback" not in err
