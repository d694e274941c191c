"""Qubit registers with quaternion amplitudes and time-ordered local gates.

Local gates on different parties need not commute here, so "apply these
gates" is not a set operation: a multi-gate experiment is a schedule, each
operation carrying a distinct time tag, folded in increasing time order.
Outcome probabilities follow the norm-squared rule.

Basis indexing: bit strings with party 0 as the most significant bit, so a
two-party register lists amplitudes for 00, 01, 10, 11 in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .qlinalg import INV_SQRT2, QMatrix, QVector, SUBFIELD_TOL, hamilton, norm_sq
from .quaternion import Quaternion, ZERO, as_quaternion

#: tolerance on sum of squared amplitude norms for a valid state
NORM_TOL = 1e-10


def basis_labels(n_parties: int) -> list[str]:
    return [format(idx, f"0{n_parties}b") for idx in range(2**n_parties)]


@dataclass(frozen=True)
class Register:
    """An n-party state vector, normalized within NORM_TOL.  Caller amplitudes are
    checked here; `apply_local` results, unitary images of checked ones, are not."""

    n_parties: int
    state: QVector

    def __post_init__(self):
        if self.n_parties < 1:
            raise ValueError("need at least one party")
        if self.state.dim != 2**self.n_parties:
            raise ValueError(
                f"state dimension {self.state.dim} does not match {self.n_parties} parties"
            )
        if not self.state.is_normalized(NORM_TOL):
            raise ValueError(f"state is not normalized: |psi|^2 = {self.state.norm_sq()!r}")

    @classmethod
    def _evolved(cls, n_parties: int, state: QVector) -> Register:
        """A unitary image of a checked register: dimension and norm hold, unchecked."""
        reg = object.__new__(cls)
        object.__setattr__(reg, "n_parties", n_parties)
        object.__setattr__(reg, "state", state)
        return reg

    def amplitude(self, label: str) -> Quaternion:
        return Quaternion(*self.state.data[int(label, 2)].tolist())


@dataclass(frozen=True)
class ScheduledOp:
    """A single-party 2x2 unitary tagged with the time at which it acts."""

    time: float
    party: int
    gate: QMatrix

    def __post_init__(self):
        if self.party < 0:
            raise ValueError("party index must be non-negative")
        if self.gate.shape != (2, 2):
            raise ValueError("scheduled gates act on one qubit and must be 2x2")
        if not self.gate.unitary:
            raise ValueError("scheduled gate is not unitary")


def computational_state(n_parties: int, label: str) -> Register:
    """Register in a single computational basis state, e.g. '01'."""
    amps = np.zeros((2**n_parties, 4))
    amps[int(label, 2), 0] = 1.0
    return Register(n_parties, QVector(amps))


def bell_state(phase=1.0) -> Register:
    """(|00> + q|11>)/sqrt(2) for a unit-norm quaternion phase q."""
    q = as_quaternion(phase)
    if abs(q.norm() - 1.0) > 1e-12:
        raise ValueError("relative phase must have unit norm")
    amps = [Quaternion(INV_SQRT2), ZERO, ZERO, q * INV_SQRT2]
    return Register(2, QVector(tuple(amps)))


def apply_local(reg: Register, party: int, gate: QMatrix) -> Register:
    """Left-multiply the amplitude pair along one party's bit by a 2x2 unitary."""
    if not 0 <= party < reg.n_parties:
        raise ValueError(f"party {party} out of range for {reg.n_parties} parties")
    if gate.shape != (2, 2):
        raise ValueError("local gates must be 2x2")
    if not gate.unitary:
        raise ValueError("local gate is not unitary")
    # axes (higher parties, gate row, gate column = this party's bit, lower parties, wxyz)
    amps = reg.state.data.reshape(1 << party, 1, 2, -1, 4)
    terms = hamilton(gate.data[:, :, None], amps)
    # the pair sum gate[r][0] * a0 + gate[r][1] * a1, added as the scalar algebra adds it
    new = terms[:, :, 0] + terms[:, :, 1]
    return Register._evolved(reg.n_parties, QVector(new.reshape(-1, 4)))


def run_schedule(reg: Register, ops: Iterable[ScheduledOp]) -> Register:
    """Fold the operations over the register in increasing time order.

    Duplicate time tags are rejected rather than broken arbitrarily: the
    result genuinely depends on the order, and this module refuses to guess
    simultaneity semantics.
    """
    ordered = sorted(ops, key=lambda op: op.time)
    times = [op.time for op in ordered]
    if len(set(times)) != len(times):
        raise ValueError("schedule contains duplicate time tags; a total order is required")
    for op in ordered:
        reg = apply_local(reg, op.party, op.gate)
    return reg


def measure_product_basis(
    reg: Register, basis_changes: Sequence[QMatrix]
) -> dict[str, float]:
    """Apply one local basis change per party, then read out probabilities.

    At most one party may carry a basis change with non-real entries: real
    matrices commute with everything, so their application order is
    irrelevant, but two non-real changes on distinct parties would need an
    explicit time order (use run_schedule for that).
    """
    if len(basis_changes) != reg.n_parties:
        raise ValueError("need exactly one basis change per party")
    nonreal = [p for p, m in enumerate(basis_changes) if not m.is_real(SUBFIELD_TOL)]
    if len(nonreal) > 1:
        raise ValueError(
            f"non-real basis changes on parties {nonreal} do not commute; "
            "schedule them explicitly via run_schedule"
        )
    out = reg
    for party, m in enumerate(basis_changes):
        out = apply_local(out, party, m)
    return dict(zip(basis_labels(reg.n_parties), norm_sq(out.state.data).tolist()))


def state_dump(reg: Register) -> dict:
    """JSON-friendly dump: basis labels plus [w, x, y, z] amplitude quadruples."""
    return {
        "labels": basis_labels(reg.n_parties),
        "amplitudes": reg.state.data.tolist(),
    }
