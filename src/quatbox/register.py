"""Qubit registers with quaternion amplitudes and time-ordered local gates.

Local gates on different parties need not commute here, so "apply these
gates" is not a set operation: a multi-gate experiment is a schedule, each
operation carrying a distinct time tag, folded in increasing time order.
Every gate reaches a register as a `ScheduledOp`, which checks its party and
gate once: `apply_local` wraps its one gate in one, a schedule hands on its
sorted ops, and a readout's basis changes are one op per party, in party
order, before the norm-squared rule.  One step runs them all.  A gate acts on
the leading bit, whose two values split each (4, dim) component row into
contiguous halves, and writes that bit last, so the next party's bit leads;
an op on any other party first rotates its bit to the front, and the result
is rotated back to index order, so parties in index order need no copy.  A
gate whose only plane is w (see `QMatrix.planes`) may take real arithmetic,
and any other the Hamilton kernel with only its planes: both leave out terms
that are signed zeros, and adding one changes no nonzero sum, so at every
gate each component equals the full kernel's or both are zero.  A result
with no exact zero is then the same bytes as the full kernel's, and zeros of
either sign square to +0.0, so a readout's probabilities always are; a gate
call whose input or result holds an exact zero runs with all four planes.

Basis indexing: bit strings with party 0 as the most significant bit, so a
two-party register lists amplitudes for 00, 01, 10, 11 in that order.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence, Sized
from dataclasses import dataclass
from functools import cache
from itertools import product

import numpy as np

from .qlinalg import INV_SQRT2, QMatrix, QVector, hamilton, norm_sq, phase_gate
from .quaternion import int_or_none, is_real_number


@cache
def _labels(n_parties: int) -> tuple[str, ...]:
    """'00...0' to '11...1' in index order."""
    return tuple(map("".join, product("01", repeat=n_parties)))


@dataclass(frozen=True)
class Register:
    """An n-party state vector, normalized within NORM_TOL.  Caller amplitudes are
    checked here; `apply_local` results, unitary images of checked ones, are not."""

    n_parties: int
    state: QVector

    def __post_init__(self):
        if not isinstance(self.state, QVector):
            raise ValueError(f"state must be a QVector, not {type(self.state).__name__}")
        n = int_or_none(self.n_parties)  # numpy would take 2**n in its own, maybe narrow, type
        if n is None or n < 1:
            raise ValueError(f"n_parties must be an integer of at least 1, got {self.n_parties!r}")
        object.__setattr__(self, "n_parties", n)
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


@dataclass(frozen=True)
class ScheduledOp:
    """A single-party 2x2 unitary tagged with the time it acts at: how every gate enters."""

    time: float
    party: int
    gate: QMatrix

    def __post_init__(self):
        # NaN compares false with every tag, so it would leave the order to the list
        if not is_real_number(self.time) or not math.isfinite(self.time):
            raise ValueError(f"time tag must be a finite real number, got {self.time!r}")
        party = int_or_none(self.party)  # a numpy party would shift in its own, maybe narrow, type
        if party is None:
            raise ValueError(f"party index must be an integer, not {type(self.party).__name__}")
        if party < 0:
            raise ValueError("party index must be non-negative")
        object.__setattr__(self, "party", party)
        if not isinstance(self.gate, QMatrix):
            raise ValueError(f"a local gate must be a QMatrix, not {type(self.gate).__name__}")
        if self.gate.shape != (2, 2):
            raise ValueError("local gates must be 2x2")
        if not self.gate.unitary:
            raise ValueError("local gate is not unitary")


def bell_state(phase=1.0) -> Register:
    """(|00> + q|11>)/sqrt(2) for a unit-norm quaternion phase q, checked as `phase_gate`
    checks it."""
    amps = np.zeros((4, 4))
    amps[0, 0] = INV_SQRT2
    amps[3] = phase_gate(phase).data[1, 1] * INV_SQRT2
    return Register(2, QVector(amps))


#: every Hamilton plane, k = w, x, y, z
_ALL_PLANES = (0, 1, 2, 3)


def _no_zero(a: np.ndarray) -> bool:
    return np.count_nonzero(a) == a.size


def _rotate(amps: np.ndarray, turn: int) -> np.ndarray:
    """(4, dim) amplitudes with their leading `turn` bits moved last, in a new array."""
    return amps.reshape(4, 1 << turn, -1).swapaxes(1, 2).copy().reshape(4, -1)


def _run(source: np.ndarray, n: int, ops: Sequence[ScheduledOp], reduced: bool) -> np.ndarray:
    """Each op's gate applied to (4, dim) amplitudes in the order given, as a new
    (4, dim) array in index order; with `reduced`, each gate adds only its planes."""
    kernel_out = np.empty((2, 2, 2, 2, 2, (1 << n) // 2))  # hamilton's products and scratch
    lead = 0  # the party whose bit is the most significant one of `source`
    for op in ops:
        turn = (op.party - lead) % n
        if turn:
            source = _rotate(source, turn)
        v = source.reshape(4, 2, -1)  # (wxyz, this party's bit, the other bits)
        new = np.empty((4, v.shape[-1], 2))  # (wxyz, the other bits, this bit)
        # kept on measurement: through `hamilton` with planes (0,), a fresh gate first builds
        # its `table`, and a schedule of eight fresh real rotations on 12 parties took a median
        # 0.66-0.93 ms against 0.49-0.50 ms with this fork (three runs of 300, 2-core Xeon)
        if reduced and op.gate.planes == (0,):
            (a, b), (c, d) = op.gate.data[..., 0].tolist()
            v0, v1 = v[:, 0], v[:, 1]
            np.add(a * v0, b * v1, out=new[..., 0])
            np.add(c * v0, d * v1, out=new[..., 1])
        else:
            planes = op.gate.planes if reduced else _ALL_PLANES
            products = hamilton(op.gate.table, v, planes, kernel_out)  # (row, wxyz, col, others)
            np.add(products[:, :, 0], products[:, :, 1], out=new.transpose(2, 0, 1))
        source = new.reshape(4, -1)
        lead = (op.party + 1) % n
    return _rotate(source, -lead % n) if lead else source


def _evolve(reg: Register, ops: Sequence[ScheduledOp]) -> Register:
    """Apply each op's gate in the order given: the one gate path.  Each op checked
    its party and gate when it was built; only each party < n, which depends on the
    register, is checked here, before any array is built.  A run with each gate's
    planes is kept when neither its input nor its output holds an exact zero;
    otherwise the call runs with all four planes."""
    n = reg.n_parties
    for op in ops:
        if op.party >= n:
            raise ValueError(f"party {op.party} out of range for {n} parties")
    source = reg.state.data.T  # (wxyz, dim)
    reduced = _no_zero(source)
    state = _run(source, n, ops, reduced)
    if reduced and not _no_zero(state):
        state = _run(source, n, ops, reduced=False)
    # a (dim, 4) view of (4, dim) storage: past one party, the next call's data.T is contiguous
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
    if not isinstance(ops, Iterable):
        raise ValueError("a schedule must hold ScheduledOps only")
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
    explicit time order (use run_schedule for that).  A change is real when its
    `planes` are `(0,)`, as the gate step reads them: any nonzero imaginary
    component makes it non-real.  Each change is checked as a gate is, and all
    take the gate step in party order, with no zero guard.
    """
    if not isinstance(basis_changes, Sized) or len(basis_changes) != reg.n_parties:
        raise ValueError("need exactly one basis change per party")
    ops = [ScheduledOp(p, p, m) for p, m in enumerate(basis_changes)]
    nonreal = [op.party for op in ops if op.gate.planes != (0,)]
    if len(nonreal) > 1:
        raise ValueError(
            f"non-real basis changes on parties {nonreal} do not commute; "
            "schedule them explicitly via run_schedule"
        )
    amps = _run(reg.state.data.T, reg.n_parties, ops, reduced=True)
    return dict(zip(_labels(reg.n_parties), norm_sq(amps.T).tolist()))


def state_dump(reg: Register) -> dict:
    """JSON-friendly dump: basis labels plus [w, x, y, z] amplitude quadruples."""
    return {
        "labels": list(_labels(reg.n_parties)),
        "amplitudes": reg.state.data.tolist(),
    }
