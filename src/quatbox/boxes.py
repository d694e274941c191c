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
from typing import Callable, Iterable, Sequence

import numpy as np

from .qlinalg import hadamard, phase_gate, rotation
from .quaternion import I, J, K
from .register import ScheduledOp, bell_state, measure_product_basis, run_schedule

#: tolerance for cell normalization and for marginals matching across inputs
NON_SIGNALLING_TOL = 1e-10

BITS = (0, 1)
#: every pair of bits, in table order: the input cells (a, b), and the outputs (x, y) of a cell
CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True, eq=False)
class BoxBehavior:
    """Conditional output table, indexed probs[a, b, x, y]."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=float)
        if arr.shape != (2, 2, 2, 2):
            raise ValueError(f"behavior table must have shape (2,2,2,2), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("non-finite probability in behavior table")
        if arr.min() < -1e-12:
            raise ValueError("negative probability in behavior table")
        cell_sums = arr.sum(axis=(2, 3))
        if np.max(np.abs(cell_sums - 1.0)) > NON_SIGNALLING_TOL:
            raise ValueError("each input cell must sum to 1")
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)
        if not is_non_signalling(self):
            raise ValueError("behavior table is signalling")
        # plain-float copy of each cell so sampling avoids numpy scalar overhead
        object.__setattr__(self, "_cells", dict(zip(CELLS, arr.reshape(4, 4).tolist())))

    def prob(self, a: int, b: int, x: int, y: int) -> float:
        return float(self.probs[a, b, x, y])

    def sample(self, a: int, b: int, rng) -> tuple[int, int]:
        """Draw one output pair for inputs (a, b); deterministic under a seeded rng."""
        r = rng.random()
        acc = 0.0
        for idx, p in enumerate(self._cells[(a, b)]):
            acc += p
            if r < acc:
                return CELLS[idx]
        return CELLS[-1]  # cumulative sum fell short of 1 by float dust

    def to_json_obj(self) -> dict:
        """Serialize as {"a,b": [{"x":..,"y":..,"p":..}, ...], ...}."""
        return {
            f"{a},{b}": [{"x": x, "y": y, "p": p} for (x, y), p in zip(CELLS, cell)]
            for (a, b), cell in self._cells.items()
        }


def is_non_signalling(box: BoxBehavior, tol: float = NON_SIGNALLING_TOL) -> bool:
    """Check that each party's output marginal ignores the other party's input."""
    mx = box.probs.sum(axis=3)  # [a, b, x]
    my = box.probs.sum(axis=2)  # [a, b, y]
    x_leak = np.max(np.abs(mx[:, 0, :] - mx[:, 1, :]))
    y_leak = np.max(np.abs(my[0, :, :] - my[1, :, :]))
    return bool(max(x_leak, y_leak) <= tol)


def _box(cell: Callable[[int, int], Iterable[float]]) -> BoxBehavior:
    """Box whose input cell (a, b) is cell(a, b): P(x, y | a, b) for (x, y) in CELLS order."""
    return BoxBehavior(np.reshape([list(cell(a, b)) for a, b in CELLS], (2, 2, 2, 2)))


def ideal_pr_box() -> BoxBehavior:
    """The perfect nonlocal box: x uniform and x ^ y = a*b always."""
    return _box(lambda a, b: [0.5 * (x ^ y == a & b) for x, y in CELLS])


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
    """
    gate_alice = phase_gate(I)
    gate_bob = phase_gate(J)
    measurement = [hadamard(), hadamard()]

    def cell(a: int, b: int) -> Iterable[float]:
        ops = [
            ScheduledOp(1 if a == 0 else 3, 0, gate_alice),
            ScheduledOp(4 if b == 0 else 2, 1, gate_bob),
        ]
        return measure_product_basis(run_schedule(bell_state(K), ops), measurement).values()

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
