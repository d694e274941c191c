"""Bipartite boxes: exact joint output distributions for each input pair.

A box takes one input bit per party (a for Alice, b for Bob) and emits one
output bit per party (x, y).  Behaviors store the full conditional table
P(x, y | a, b); every behavior constructed here is validated to be
normalized and non-signalling.  Sampling is layered on top of the exact
tables, never the other way around.

Measurement-backed boxes use the output convention + -> 0, - -> 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, compress, starmap
from operator import attrgetter
from types import SimpleNamespace
from typing import Callable, Iterable, Sequence

import numpy as np

from .qlinalg import hadamard, phase_gate, rotation
from .quaternion import I, J, K
from .register import ScheduledOp, bell_state, measure_product_basis, run_schedule

#: tolerance for cell normalization and for marginals matching across inputs
NON_SIGNALLING_TOL = 1e-10

#: every pair of bits, in table order: the input cells (a, b), and the outputs (x, y) of a cell
CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))
#: each pair's index in CELLS, 2a + b for an input cell and 2x + y for an output pair
_CELL_INDEX = {cell: index for index, cell in enumerate(CELLS)}
#: the PR-box rule as a mask, WINS[2a + b][2x + y]: whether output (x, y) wins input cell (a, b)
WINS = tuple(tuple(x ^ y == a & b for x, y in CELLS) for a, b in CELLS)


@dataclass(frozen=True, eq=False)
class BoxBehavior:
    """Conditional output table, indexed probs[a, b, x, y].

    `wins` lists Pr[x ^ y = a*b] for each input cell (a, b) in CELLS order.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=float)
        if arr.shape != (2, 2, 2, 2):
            raise ValueError(f"behavior table must have shape (2,2,2,2), got {arr.shape}")
        # the 16 entries as Python floats, one row per cell: a Python float sum that
        # overflows is inf, with no warning, and inf fails the cell-sum check
        rows = arr.reshape(4, 4).tolist()
        entries = rows[0] + rows[1] + rows[2] + rows[3]
        if not all(map(math.isfinite, entries)):
            raise ValueError("non-finite probability in behavior table")
        if min(entries) < -1e-12:
            raise ValueError("negative probability in behavior table")
        # added left to right, as numpy adds a cell's four contiguous entries
        if any(abs(p0 + p1 + p2 + p3 - 1.0) > NON_SIGNALLING_TOL for p0, p1, p2, p3 in rows):
            raise ValueError("each input cell must sum to 1")
        if not _non_signalling(rows, NON_SIGNALLING_TOL):
            raise ValueError("behavior table is signalling")
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)
        # each cell's running sums p0, p0 + p1, ..., added once here instead of on every
        # draw; entries down to -1e-12 pass the checks above, so they need not increase
        thresholds = [tuple(accumulate(cell)) for cell in rows]
        object.__setattr__(self, "_thresholds", dict(zip(CELLS, thresholds)))
        # each cell's CHSH win, summed once here for scoring and the protocol's exact rates
        object.__setattr__(self, "wins", tuple(map(math.fsum, map(compress, rows, WINS))))

    def sample(self, a: int, b: int, rng) -> tuple[int, int]:
        """Draw one output pair for inputs (a, b); deterministic under a seeded rng."""
        r = rng.random()
        for idx, threshold in enumerate(self._thresholds[(a, b)]):
            if r < threshold:  # the first one above r, not a bisection
                return CELLS[idx]
        return CELLS[-1]  # cumulative sum fell short of 1 by float dust

    def sample_cells(self, cells: np.ndarray, doubles: np.ndarray) -> np.ndarray:
        """Each draw's output cell 2x + y, as uint8: one `sample` draw per input cell
        c = 2a + b of `cells`, in order, each taking the next of `doubles` as the
        `rng.random()` it would call."""
        src = SimpleNamespace(random=iter(doubles.tolist()).__next__)
        args = [(a, b, src) for a, b in CELLS]
        draws = starmap(self.sample, map(args.__getitem__, cells.tolist()))
        return np.fromiter(map(_CELL_INDEX.__getitem__, draws), np.uint8, len(cells))

    def to_json_obj(self) -> dict:
        """Serialize as {"a,b": [{"x":..,"y":..,"p":..}, ...], ...}."""
        return {
            f"{a},{b}": [{"x": x, "y": y, "p": p} for (x, y), p in zip(CELLS, cell)]
            for (a, b), cell in zip(CELLS, self.probs.reshape(4, 4).tolist())
        }


def is_non_signalling(box: BoxBehavior, tol: float = NON_SIGNALLING_TOL) -> bool:
    """Check that each party's output marginal ignores the other party's input."""
    return _non_signalling(box.probs.reshape(4, 4).tolist(), tol)


#: index pairs 2u + v that differ only in v, then only in u.  Alice's marginal P(x) adds
#: outputs 2x + y over y, and must agree across cells 2a + b that differ only in b; Bob's
#: adds over x, across cells that differ only in a
_PAIRS = (((0, 1), (2, 3)), ((0, 2), (1, 3)))


def _non_signalling(rows: list[list[float]], tol: float) -> bool:
    """Every output marginal of each party, from table rows in CELLS order, within tol
    in the two input cells that differ only in the other party's input (NaN fails)."""
    return all(abs(rows[c][i] + rows[c][j] - (rows[d][i] + rows[d][j])) <= tol
               for pairs in _PAIRS for c, d in pairs for i, j in pairs)


def _box(cell: Callable[[int, int], Iterable[float]]) -> BoxBehavior:
    """Box whose input cell (a, b) is cell(a, b): P(x, y | a, b) for (x, y) in CELLS order."""
    return BoxBehavior(np.reshape([list(cell(a, b)) for a, b in CELLS], (2, 2, 2, 2)))


def ideal_pr_box() -> BoxBehavior:
    """The perfect nonlocal box: x uniform and x ^ y = a*b always."""
    return BoxBehavior(0.5 * np.reshape(WINS, (2, 2, 2, 2)))


def quaternionic_box() -> BoxBehavior:
    """Perfect nonlocal box from timing-dependent local phase gates.

    The parties share (|00> + k|11>)/sqrt(2) and clock ticks t1 < ... < t5,
    here 1 to 5.  Alice applies diag(1, i) at t1 when a = 0 and at t3 when
    a = 1; Bob applies diag(1, j) at t4 when b = 0 and at t2 when b = 1.
    Unless a = b = 1, Alice acts first and the |11> amplitude picks up
    (j*i)*k = +1; when both inputs are 1 Bob acts first and it picks up
    (i*j)*k = -1.  Measuring both halves in the +/- basis (+ -> 0, - -> 1)
    at t5 converts that sign into perfectly correlated or anti-correlated
    outputs, so x ^ y = a*b in every cell.

    A cell's outputs depend only on which party acts first, so each distinct
    time order is evolved and read out once per call, and the cells that share
    it (here the three with Alice first) read the same table.
    """
    gate_alice = phase_gate(I)
    gate_bob = phase_gate(J)
    shared = bell_state(K)
    measurement = [hadamard()] * 2
    readouts = {}  # each time order's readout, keyed by the parties in the order they act

    def cell(a: int, b: int) -> Iterable[float]:
        ops = [
            ScheduledOp(1 if a == 0 else 3, 0, gate_alice),
            ScheduledOp(4 if b == 0 else 2, 1, gate_bob),
        ]
        order = tuple(op.party for op in sorted(ops, key=attrgetter("time")))
        if order not in readouts:
            readouts[order] = measure_product_basis(run_schedule(shared, ops), measurement)
        return readouts[order].values()

    return _box(cell)


def classical_box(f_alice: Sequence[int], f_bob: Sequence[int]) -> BoxBehavior:
    """Deterministic local strategy: x = f_alice[a], y = f_bob[b]."""
    return _box(
        lambda a, b: [float((x, y) == (f_alice[a] & 1, f_bob[b] & 1)) for x, y in CELLS]
    )


def complex_quantum_box() -> BoxBehavior:
    """Optimal strategy available with complex amplitudes: wins at cos^2(pi/8).

    Shared state (|00> + |11>)/sqrt(2); Alice measures in the basis rotated
    by 0 (a = 0) or pi/4 (a = 1), Bob by pi/8 (b = 0) or -pi/8 (b = 1).  All
    rotations are real matrices, so no time ordering is needed.
    """
    shared = bell_state(1.0)
    alice_basis = {0: rotation(0.0), 1: rotation(math.pi / 4)}
    bob_basis = {0: rotation(math.pi / 8), 1: rotation(-math.pi / 8)}
    return _box(
        lambda a, b: measure_product_basis(shared, [alice_basis[a], bob_basis[b]]).values()
    )


def noisy_box(inner: BoxBehavior, p: float) -> BoxBehavior:
    """Emit the inner box's output pair with probability p, else flip y.

    Flipping only y is the minimal corruption that keeps the behavior
    non-signalling for any non-signalling inner box.
    """
    if not 0.5 <= p <= 1.0:
        raise ValueError(f"noise parameter must lie in [0.5, 1], got {p!r}")
    flipped = inner.probs[:, :, :, ::-1]
    return BoxBehavior(p * inner.probs + (1.0 - p) * flipped)
