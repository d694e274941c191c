#!/usr/bin/env python3
"""Run the test suite against hand-picked single-token mutants of src/quatbox.

Each mutant is a (file, old, new) triple: `old` must occur exactly once in
the file, and is replaced by `new` in a temporary copy of the checkout.  The
copy then runs `python -m pytest -x -q` with its own src/ on PYTHONPATH,
leaving out tests/test_mutation_anchors.py, which checks every `old` against
the unmutated source within the tier-1 tests.  A mutant is killed when the
suite fails, and survives when it passes.  Some mutants cannot change any
output; EQUIVALENT names them with the reason.

    python3 scripts/mutation_sweep.py            # every mutant, about 15 minutes
    python3 scripts/mutation_sweep.py boxes.py   # only mutants of files matching a name

Exits 1 if a mutant outside EQUIVALENT survives, or if its `old` is no longer
found exactly once.  The sweep is slow, so it is kept out of the tier-1 tests.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: a failed or erroring test's whole id in pytest's short summary, brackets and spaces included
SUMMARY = re.compile(r"(?:FAILED|ERROR) (\S+?(?:\[.*?\])?)(?: - |$)")

#: mutants that cannot change any output, with the reason
EQUIVALENT = {
    ("cli.py", "fh.read(_MAX_TABLE_CHARS + 1)", "fh.read(_MAX_TABLE_CHARS + 2)"):
        "one character past the cap is refused just as two are",
    ("vandam.py", "if cells > VERIFY_CELL_BUDGET:", "if cells > VERIFY_CELL_BUDGET + 1:"):
        "the cell count is a multiple of 2**n, so it never equals the budget plus one",
    ("register.py", "np.add(a * v0, b * v1,", "np.add(b * v1, a * v0,"):
        "IEEE addition is commutative, so a w-only gate's columns add in either order",
}

MUTANTS = [
    ("boxes.py", "x ^ y == a & b", "x ^ y != a & b"),
    ("boxes.py", "min(entries) < -1e-12", "min(entries) < -1e-11"),
    ("boxes.py", "min(entries) < -1e-12", "min(entries) <= -1e-12"),
    ("boxes.py", "rows[0] + rows[1] + rows[2] + rows[3]", "rows[0] + rows[1] + rows[2]"),
    ("boxes.py", "> NON_SIGNALLING_TOL", ">= NON_SIGNALLING_TOL"),
    # the cell sums: an entry left out, and no absolute value
    ("boxes.py", "abs(p0 + p1 + p2 + p3 - 1.0)", "abs(p0 + p1 + p2 - 1.0)"),
    ("boxes.py", "abs(p0 + p1 + p2 + p3 - 1.0)", "(p0 + p1 + p2 + p3 - 1.0)"),
    # the marginal pairs: Bob's left out, pairs crossed, single entries for marginals
    ("boxes.py", "((0, 2), (1, 3)))", "((0, 1), (2, 3)))"),
    ("boxes.py", "((0, 2), (1, 3)))", "((0, 3), (1, 2)))"),
    ("boxes.py", "rows[c][i] + rows[c][j] - (rows[d][i] + rows[d][j])",
     "rows[c][i] - rows[d][i]"),
    ("boxes.py", "(rows[d][i] + rows[d][j])) <= NON_SIGNALLING_TOL",
     "(rows[d][i] + rows[d][j])) < NON_SIGNALLING_TOL"),
    # the time-order key: the tags' order ignored, and one readout for every cell
    ("boxes.py", "for op in sorted(ops, key=attrgetter(\"time\"))", "for op in ops"),
    ("boxes.py", "if order not in readouts:", "if not readouts:"),
    # the draw: a running sum that r equals at each compare, a wrong fallback cell, the sums
    # shifted by one, a list that takes -1 as cell 3, and a float or a bool taken as a cell
    ("boxes.py", "if r < t[0] else", "if r <= t[0] else"),
    ("boxes.py", "if r < t[1] else", "if r <= t[1] else"),
    ("boxes.py", "if r < t[2] else", "if r <= t[2] else"),
    ("boxes.py", "r < t[2] else 3", "r < t[2] else 2"),
    ("boxes.py", "tuple(accumulate(cell))[:3]", "tuple(accumulate(cell))[1:]"),
    ("boxes.py", "dict(enumerate(sums))", "sums"),
    ("boxes.py", "cell if type(cell) is int else int_or_none(cell)", "cell"),
    # the scan: a running sum that a double equals, a NaN taken as below every sum, a step's
    # `&=` dropped or made `=`, threshold rows swapped or shifted, each bound of the cell
    # range check moved by one, the empty case sent to min(), cells that are not integers
    # let through to indexing, and doubles of another shape let through to broadcasting
    ("boxes.py", "past &= ~(doubles < t[1])", "past &= ~(doubles <= t[1])"),
    ("boxes.py", "past = ~(doubles < t[0])", "past = ~(doubles <= t[0])"),
    ("boxes.py", "past = ~(doubles < t[0])", "past = doubles >= t[0]"),
    ("boxes.py", "        past &= ~(doubles < t[1])\n", ""),
    ("boxes.py", "past &= ~(doubles < t[2])", "past = ~(doubles < t[2])"),
    ("boxes.py", "past &= ~(doubles < t[1])\n        out += past\n        past &= ~(doubles < t[2])",
     "past &= ~(doubles < t[2])\n        out += past\n        past &= ~(doubles < t[1])"),
    ("boxes.py", "scan = np.array(sums).T", "scan = np.roll(np.array(sums).T, 1, axis=0)"),
    ("boxes.py", "0 <= cells.min()", "-1 <= cells.min()"),
    ("boxes.py", "0 <= cells.min()", "1 <= cells.min()"),
    ("boxes.py", "cells.max() <= 3", "cells.max() <= 4"),
    ("boxes.py", "cells.max() <= 3", "cells.max() <= 2"),
    ("boxes.py", "if cells.size and not", "if not"),
    ("boxes.py", 'if cells.dtype.kind not in "iu":', "if False:"),
    ("boxes.py", "if np.shape(doubles) != cells.shape:", "if False:"),
    # the noise parameter let through unchecked to the range compare
    ("boxes.py", "not is_real_number(p) or ", ""),
    ("qlinalg.py", "<= UNITARY_TOL", "< UNITARY_TOL"),
    ("qlinalg.py", "np.s_[:, ::-1], np.s_[::-1],", "np.s_[::-1], np.s_[:, ::-1],"),
    ("qlinalg.py", "for k in planes[1:]:", "for k in planes[:0:-1]:"),  # two kept planes swapped
    ("qlinalg.py", "nonzero = self.data.any(axis=(0, 1)).tolist()",
     "nonzero = (np.abs(self.data) > 1e-14).any(axis=(0, 1)).tolist()"),
    # the scalar fold: a term's sign flipped, a -0.0 start, the conjugate dropped, the
    # identity taken off every entry, and the non-finite guard dropped
    ("qlinalg.py", "px * qw + py * qz - pz * qy", "px * qw - py * qz - pz * qy"),
    ("qlinalg.py", "w = x = y = z = 0.0", "w = x = y = z = -0.0"),
    ("qlinalg.py", "conjugates = (m.data * _CONJUGATE).tolist()", "conjugates = m.data.tolist()"),
    ("qlinalg.py", "w -= r == c", "w -= 1"),
    ("qlinalg.py", "if np.count_nonzero(np.isfinite(m.data)) != m.data.size:", "if False:"),
    ("qlinalg.py", " or not math.isfinite(theta)", ""),
    ("qlinalg.py", "not is_real_number(theta) or ", ""),  # True taken as 1 radian
    ("qlinalg.py", "data[..., 0] = rows", "data[..., 0] = np.transpose(rows)"),
    # a float or a nested row in place of a Quaternion, let through to _pack
    ("qlinalg.py", "if not all(isinstance(q, Quaternion) for q in data):", "if False:"),
    # the gates written in place: a -0.0 part turned into +0.0
    ("qlinalg.py", "return diag(1.0, q)", "return diag(q, 1.0)"),
    ("qlinalg.py", "data[i, i] = _COMPONENTS(as_quaternion(value))",
     "data[i, i] = np.add(_COMPONENTS(as_quaternion(value)), 0.0)"),
    # the two scalar checks: a bool taken as a count, index or width, or as a real; a float
    # taken as an integer, or a string as a real
    ("quaternion.py", "(value, (int, numbers.Integral)) and not isinstance(value, bool)",
     "(value, (int, numbers.Integral))"),
    ("quaternion.py", "(value, (int, float, numbers.Real)) and not isinstance(value, bool)",
     "(value, (int, float, numbers.Real))"),
    ("quaternion.py", "(value, (int, numbers.Integral))",
     "(value, (int, numbers.Integral, float))"),
    ("quaternion.py", "(value, (int, float, numbers.Real))", "(value, (numbers.Real, object))"),
    # a real that no float holds let through, to raise OverflowError at the site
    ("quaternion.py",
     "    try:\n        float(value)\n    except OverflowError:\n        return False\n", ""),
    # a scalar factor and a phase taken unchecked, and a factor's own type kept in the parts
    ("quaternion.py", "if is_real_number(other):", "if True:"),
    ("quaternion.py", "if is_real_number(value):", "if True:"),
    ("quaternion.py", "other = float(other)", "other = other"),
    # a quaternion's parts taken unchecked, a bool let through as a part, and a non-float
    # last part let past the fast path
    ("quaternion.py", "if not is_real_number(part):", "if False:"),
    ("quaternion.py", "if not is_real_number(part):",
     "if not (is_real_number(part) or isinstance(part, bool)):"),
    ("quaternion.py", "type(self.y) is type(self.z) is float", "type(self.y) is float"),
    # the gate step: a w-only gate sent to the kernel, or a near-real one taken as real
    ("register.py", "if reduced and op.gate.planes == (0,):", "if False:"),
    ("register.py", "if reduced and op.gate.planes == (0,):",
     "if reduced and (np.abs(op.gate.data[..., 1:]) <= 1e-14).all():"),
    # the readout: a change with only an i plane taken as real, so two of them commute
    ("register.py", "op.gate.planes != (0,)", "op.gate.planes != (0, 1)"),
    # the zero guard: the input count forced True, the rerun dropped, planes kept in the rerun
    ("register.py", "reduced = _no_zero(source)", "reduced = True"),
    ("register.py", "if reduced and not _no_zero(state):", "if False:"),
    ("register.py", "op.gate.planes if reduced else _ALL_PLANES", "op.gate.planes"),
    # the layout: a turn past the width, the lead left on the gate's party, no rotation back
    ("register.py", "turn = (op.party - lead) % n", "turn = op.party - lead"),
    ("register.py", "lead = (op.party + 1) % n", "lead = op.party"),
    ("register.py", "return _rotate(source, -lead % n) if lead else source", "return source"),
    ("register.py", "_rotate(source, -lead % n)", "_rotate(source, lead)"),
    ("register.py", "swapaxes(1, 2).copy()", "copy()"),
    ("register.py", "v = source.reshape(4, 2, -1)", "v = source.reshape(4, -1, 2)"),
    ("register.py", "out=new[..., 0])\n            np.add(c * v0, d * v1, out=new[..., 1])",
     "out=new[..., 1])\n            np.add(c * v0, d * v1, out=new[..., 0])"),
    ("register.py", "out=new.transpose(2, 0, 1)", "out=new[..., ::-1].transpose(2, 0, 1)"),
    # each gate, party and party count checked once, where it enters, and kept as an int
    ("register.py", "party = int_or_none(self.party)", "party = self.party"),
    ("register.py", "n = int_or_none(self.n_parties)", "n = self.n_parties"),
    ("register.py", "op.party >= n", "op.party > n"),
    ("register.py", 'object.__setattr__(self, "party", party)', "None"),
    ("register.py", "if not isinstance(self.gate, QMatrix):", "if False:"),
    ("register.py", "if not isinstance(self.state, QVector):", "if False:"),
    ("register.py", "if self.gate.shape != (2, 2):", "if False:"),
    ("register.py", "if not self.gate.unitary:", "if False:"),
    ("register.py", "not is_real_number(self.time) or ", ""),
    ("register.py", "if not all(isinstance(op, ScheduledOp) for op in ordered):", "if False:"),
    ("register.py", "if largest > 1.0:", "if largest >= 1.0:"),
    ("register.py", "if largest > 1.0:", "if largest > 1.0 + 1e-15:"),
    ("register.py", '"labels": list(_labels(reg.n_parties))', '"labels": _labels(reg.n_parties)'),
    # arguments with no length, or not iterable, let through to len() and list()
    ("register.py", "(basis_changes, Sized)", "(basis_changes, (Sized, object))"),
    ("register.py", "(ops, Iterable)", "(ops, (Iterable, object))"),
    ("qlinalg.py", "q.norm() - 1.0) <= 1e-12", "q.norm() - 1.0) <= 1e-9"),
    ("cli.py", "<= CELL_TOL", "< CELL_TOL"),
    ("cli.py", "ip.norm() <= ORTHO_TOL", "ip.norm() < ORTHO_TOL"),
    ("cli.py", "report.success_rate >= 1.0", "report.success_rate >= 1.0 - 1e-12"),
    ("cli.py", "return 141", "return 1"),
    # a boxed command's echoed seed not the one that ran
    ("cli.py", '"seed": args.seed}', '"seed": 0}'),
    ("vandam.py", "min(max(win, 0.0), 1.0)", "min(win, 1.0)"),
    ("vandam.py", "min(max(win, 0.0), 1.0)", "max(win, 0.0)"),
    ("vandam.py", "np.bitwise_count(idx >> width & idx)", "np.bitwise_count(idx >> width | idx)"),
    # the widths, checked once in _table_size: taken unchecked, and numpy widths added and
    # kept as numpy
    ("vandam.py", "widths = int_or_none(n_alice), int_or_none(n_bob)", "widths = n_alice, n_bob"),
    ("vandam.py", "width = sum(widths)", "width = n_alice + n_bob"),
    ("vandam.py", 'object.__setattr__(self, "n_alice", int(self.n_alice))', "None"),
    # the built-in AND and XOR tables, each with one entry flipped
    ("vandam.py", "BooleanFunction(1, 1, (0, 0, 0, 1))", "BooleanFunction(1, 1, (0, 0, 1, 1))"),
    ("vandam.py", "BooleanFunction(1, 1, (0, 1, 1, 0))", "BooleanFunction(1, 1, (1, 1, 1, 0))"),
    # the protocol's inputs: taken unchecked, numpy inputs kept as numpy, and x and y
    # swapped in the index
    ("vandam.py", "if int_or_none(value) is None:", "if False:"),
    ("vandam.py", "(int(x) << f.n_bob) | int(y)", "(x << f.n_bob) | y"),
    ("vandam.py", "(int(x) << f.n_bob) | int(y)", "(int(y) << f.n_bob) | int(x)"),
    # a truth-table file that is not an object, or lacks a key, let through
    ("vandam.py", "if not isinstance(obj, dict):", "if False:"),
    ("vandam.py", "if key not in obj:", "if False:"),
    # the protocol's draws: u taken for u ^ v, bit 1 of the fold kept, and the cells drawn
    # monomial-major instead of in x, y, monomial order
    ("vandam.py", "out ^ out >> 1", "out >> 1"),
    ("vandam.py", "axis=-1) & 1", "axis=-1)"),
    ("vandam.py", "cells.ravel().tolist()", "cells.T.ravel().tolist()"),
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
        # the anchor check reads the mutated file, so it would kill every mutant
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--ignore", "tests/test_mutation_anchors.py"]
        result = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
    finally:
        path.write_text(original, encoding="utf-8")
    if result.returncode == 0:
        return "survived"
    # a summary line is "FAILED <id>" or "FAILED <id> - <message>", and a parametrized id
    # may hold spaces and " - " within its brackets
    failed = [m[1] for m in map(SUMMARY.match, result.stdout.splitlines()) if m]
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
