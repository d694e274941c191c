"""The mutants of scripts/mutation_sweep.py still point at source text: each `old`
occurs exactly once in its file, and each equivalent mutant is one the sweep runs.
The sweep itself takes about 15 minutes, so it stays out of these tests; this
finds a stale mutant as soon as the line it names changes.  The sweep leaves
this file out of its mutant runs, where it would fail on every mutant."""

import pathlib
import runpy

ROOT = pathlib.Path(__file__).resolve().parent.parent
SWEEP = runpy.run_path(str(ROOT / "scripts" / "mutation_sweep.py"))


def test_every_mutant_anchor_occurs_once_in_its_file():
    mutants = SWEEP["MUTANTS"]
    sources = {file: (ROOT / "src" / "quatbox" / file).read_text(encoding="utf-8")
               for file, _, _ in mutants}
    counts = [(file, old, sources[file].count(old)) for file, old, _ in mutants]
    assert [count for count in counts if count[2] != 1] == []


def test_every_equivalent_mutant_is_swept():
    assert [key for key in SWEEP["EQUIVALENT"] if key not in SWEEP["MUTANTS"]] == []
