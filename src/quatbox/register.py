"""Qubit registers with quaternion amplitudes and time-ordered local gates.

Local gates on different parties need not commute here, so "apply these
gates" is not a set operation: a multi-gate experiment is a schedule, each
operation carrying a distinct time tag, folded in increasing time order.
Every gate reaches a register as a `ScheduledOp`, which checks its party and
gate once: `apply_local` wraps its one gate in one, and a schedule hands on
its sorted ops.  One step runs them all; it holds one work copy of the state
and the kernel's buffers for all the gates of a call, and writes each gate's
result into the one (4, dim) state that the returned register owns.  A gate
adds only the Hamilton planes it has (see `QMatrix.planes`) when no amplitude
component it reads or writes is exactly zero, and otherwise all four, so each
result is the same bytes as the full kernel's.

Outcome probabilities follow the norm-squared rule.  A readout changes the
basis of the leading bit on each pass, reading the two halves of each
component row and writing that bit last, so after n passes the bits are back
in index order.  It applies its real basis changes with real arithmetic
only, skipping the Hamilton kernel's signed-zero terms; the probabilities are
the same bytes either way.  Basis labels are built once per register width.

Basis indexing: bit strings with party 0 as the most significant bit, so a
two-party register lists amplitudes for 00, 01, 10, 11 in that order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .qlinalg import INV_SQRT2, QMatrix, QVector, hamilton, norm_sq
from .quaternion import Quaternion, ZERO, as_quaternion


@cache
def _labels(n_parties: int) -> tuple[str, ...]:
    return tuple(map("".join, product("01", repeat=n_parties)))


def basis_labels(n_parties: int) -> list[str]:
    """'00...0' to '11...1' in index order, as a new list on each call."""
    return list(_labels(n_parties))


@dataclass(frozen=True)
class Register:
    """An n-party state vector, normalized within NORM_TOL.  Caller amplitudes are
    checked here; `apply_local` results, unitary images of checked ones, are not."""

    n_parties: int
    state: QVector

    def __post_init__(self):
        n = self.n_parties  # a bool is an int to Python; a float would fail only at 1 << n
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"n_parties must be an integer of at least 1, got {n!r}")
        if self.state.dim != 2**n:
            raise ValueError(f"state dimension {self.state.dim} does not match {n} parties")
        # a normalized state has no component outside [-1, 1], and a larger one could
        # overflow when squared; NaN passes here and fails the norm check
        largest = float(np.abs(self.state.data).max())
        if largest > 1.0:
            raise ValueError(f"state is not normalized: a component has magnitude {largest!r}")
        if not self.state.is_normalized():
            raise ValueError(f"state is not normalized: |psi|^2 = {self.state.norm_sq()!r}")

    @classmethod
    def _evolved(cls, n_parties: int, state: QVector) -> Register:
        """A unitary image of a checked register: dimension and norm hold, unchecked."""
        reg = object.__new__(cls)
        object.__setattr__(reg, "n_parties", n_parties)
        object.__setattr__(reg, "state", state)
        return reg


def _check_gate(gate: QMatrix) -> None:
    if not isinstance(gate, QMatrix):
        raise ValueError(f"a local gate must be a QMatrix, not {type(gate).__name__}")
    if gate.shape != (2, 2):
        raise ValueError("local gates must be 2x2")
    if not gate.unitary:
        raise ValueError("local gate is not unitary")


@dataclass(frozen=True)
class ScheduledOp:
    """A single-party 2x2 unitary tagged with the time it acts at: how every gate enters."""

    time: float
    party: int
    gate: QMatrix

    def __post_init__(self):
        # NaN compares false with every tag, so it would leave the order to the list;
        # int and float come first, found without numbers.Real's slower check
        if not isinstance(self.time, (int, float, numbers.Real)) or not math.isfinite(self.time):
            raise ValueError(f"time tag must be a finite real number, got {self.time!r}")
        if isinstance(self.party, bool) or not isinstance(self.party, (int, np.integer)):
            raise ValueError(f"party index must be an integer, not {type(self.party).__name__}")
        if self.party < 0:
            raise ValueError("party index must be non-negative")
        _check_gate(self.gate)


def bell_state(phase=1.0) -> Register:
    """(|00> + q|11>)/sqrt(2) for a unit-norm quaternion phase q."""
    q = as_quaternion(phase)
    if not abs(q.norm() - 1.0) <= 1e-12:  # NaN fails too
        raise ValueError("relative phase must have unit norm")
    amps = [Quaternion(INV_SQRT2), ZERO, ZERO, q * INV_SQRT2]
    return Register(2, QVector(tuple(amps)))


#: every Hamilton plane, k = w, x, y, z
_ALL_PLANES = (0, 1, 2, 3)


def _no_zero(a: np.ndarray) -> bool:
    return np.count_nonzero(a) == a.size


def _evolve(reg: Register, ops: Sequence[ScheduledOp]) -> Register:
    """Apply each op's gate in the order given: the one gate path.  Each op checked
    its party and gate when it was built; only each party < n, which depends on the
    register, is checked here, before any array is built.

    The call holds, for all its gates, one buffer for a work copy of the state and
    the kernel's products and scratch, and the (4, dim) state that the returned
    register owns, so it keeps no scratch alive.  Each gate copies the state into
    `work`, ordered (wxyz, this party's bit, higher parties, lower parties) so that
    the products and sums run along rows of dim / 2 amplitudes, and writes the sum
    of its two columns into the state.

    A gate with fewer than four planes leaves its all-zero ones out when no input
    component is exactly zero.  A left-out term is a signed zero, and adding one
    leaves a nonzero sum as it is, so the full and the reduced sums are equal or
    both zero at every step: an output with no exact zero is the same bytes as the
    full kernel's, and any other is worked out again with all four planes.  An
    output found free of zeros is the next gate's input, so a gate counts zeros
    once, twice only when its input was not counted, and never with all four planes.
    """
    n = reg.n_parties
    for op in ops:
        if op.party >= n:
            raise ValueError(f"party {op.party} out of range for {n} parties")
    dim = 1 << n
    # five slabs of 4 * dim: the work copy, then the kernel's (row, c0, c1, col, dim / 2)
    # products and scratch, two slabs each
    buffers = np.empty((5, 2, 2, 2, dim // 2))
    work, kernel_out = buffers[0], (buffers[1:3], buffers[3:])
    state = np.empty((4, dim))
    source = reg.state.data.T  # (wxyz, dim)
    dense = None  # `source` holds no exact zero: True, False, or not counted
    for op in ops:
        higher = 1 << int(op.party)  # a numpy party would shift in its own, maybe narrow, type
        amps = work.reshape(4, 2, higher, -1)
        np.copyto(amps, source.reshape(4, higher, 2, -1).swapaxes(1, 2))
        new = state.reshape(4, higher, 2, -1).transpose(2, 0, 1, 3)
        planes = op.gate.planes
        reduced = planes != _ALL_PLANES and (dense if dense is not None else _no_zero(work))
        products = hamilton(op.gate.table, amps, planes if reduced else _ALL_PLANES, kernel_out)
        np.add(products[:, :, 0], products[:, :, 1], out=new)  # (row, wxyz, col, ...) summed
        dense = _no_zero(state) if reduced else None
        if reduced and not dense:
            products = hamilton(op.gate.table, amps, _ALL_PLANES, kernel_out)
            np.add(products[:, :, 0], products[:, :, 1], out=new)
        source = state
    # a (dim, 4) view of (4, dim) storage: past one party, the next gate's data.T is contiguous
    return Register._evolved(n, QVector(state.T))


def apply_local(reg: Register, party: int, gate: QMatrix) -> Register:
    """Left-multiply one party's amplitude pairs by a 2x2 unitary: a one-op schedule."""
    return _evolve(reg, (ScheduledOp(0.0, party, gate),))


def run_schedule(reg: Register, ops: Iterable[ScheduledOp]) -> Register:
    """Fold the operations over the register in increasing time order.

    Duplicate time tags are rejected rather than broken arbitrarily: the
    result genuinely depends on the order, and this module refuses to guess
    simultaneity semantics.  An empty schedule returns the register itself.
    """
    ordered = list(ops)
    if not all(isinstance(op, ScheduledOp) for op in ordered):
        raise ValueError("a schedule must hold ScheduledOps only")
    ordered.sort(key=lambda op: op.time)
    times = [op.time for op in ordered]
    if len(set(times)) != len(times):
        raise ValueError("schedule contains duplicate time tags; a total order is required")
    if not ordered:
        return reg
    return _evolve(reg, ordered)


def measure_product_basis(
    reg: Register, basis_changes: Sequence[QMatrix]
) -> dict[str, float]:
    """Apply one local basis change per party, then read out probabilities.

    At most one party may carry a basis change with non-real entries: real
    matrices commute with everything, so their application order is
    irrelevant, but two non-real changes on distinct parties would need an
    explicit time order (use run_schedule for that).

    Each pass changes the basis of the leading bit, whose two values split
    each component row into halves, contiguous in (4, dim) storage, and writes
    that bit last: the next party's bit then leads, and after n passes party 0
    is the most significant bit again.
    """
    if len(basis_changes) != reg.n_parties:
        raise ValueError("need exactly one basis change per party")
    for m in basis_changes:
        _check_gate(m)
    nonreal = [p for p, m in enumerate(basis_changes) if not m.is_real]
    if len(nonreal) > 1:
        raise ValueError(
            f"non-real basis changes on parties {nonreal} do not commute; "
            "schedule them explicitly via run_schedule"
        )
    # A real change takes only the Hamilton kernel's nonzero terms, m[r][col].w * amp[col],
    # in its order.  Its other terms are signed zeros: leaving them out can flip the sign
    # of a zero amplitude, which later sums and products carry only as zero signs, and a
    # zero of either sign squares to +0.0, so the probabilities come out the same bytes.
    amps = reg.state.data.T  # (wxyz, dim)
    for m in basis_changes:
        v = amps.reshape(4, 2, -1)  # (wxyz, leading bit, the other bits)
        new = np.empty((4, v.shape[-1], 2))  # (wxyz, the other bits, this bit)
        if m.planes != (0,):
            products = hamilton(m.table, v)  # m[r][col] * v[col]: (row, wxyz, col, others)
            np.add(products[:, :, 0], products[:, :, 1], out=new.transpose(2, 0, 1))
        else:
            (a, b), (c, d) = m.data[..., 0].tolist()
            v0, v1 = v[:, 0], v[:, 1]
            np.add(a * v0, b * v1, out=new[..., 0])
            np.add(c * v0, d * v1, out=new[..., 1])
        amps = new.reshape(4, -1)
    return dict(zip(_labels(reg.n_parties), norm_sq(amps.T).tolist()))


def state_dump(reg: Register) -> dict:
    """JSON-friendly dump: basis labels plus [w, x, y, z] amplitude quadruples."""
    return {
        "labels": basis_labels(reg.n_parties),
        "amplitudes": reg.state.data.tolist(),
    }
