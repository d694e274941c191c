"""Qubit registers with quaternion amplitudes and time-ordered local gates.

Local gates on different parties need not commute here, so "apply these
gates" is not a set operation: a multi-gate experiment is a schedule, each
operation carrying a distinct time tag, folded in increasing time order.
Outcome probabilities follow the norm-squared rule.  A readout applies its
real basis changes with real arithmetic only, skipping the Hamilton kernel's
signed-zero terms; the probabilities are the same bytes either way.

Basis indexing: bit strings with party 0 as the most significant bit, so a
two-party register lists amplitudes for 00, 01, 10, 11 in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .qlinalg import INV_SQRT2, QMatrix, QVector, hamilton, norm_sq
from .quaternion import Quaternion, ZERO, as_quaternion


def basis_labels(n_parties: int) -> list[str]:
    """'00...0' to '11...1' in index order."""
    return list(map("".join, product("01", repeat=n_parties)))


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
    """A single-party 2x2 unitary tagged with the time at which it acts."""

    time: float
    party: int
    gate: QMatrix

    def __post_init__(self):
        # NaN compares false with every tag, so it would leave the order to the list
        if not math.isfinite(self.time):
            raise ValueError(f"time tag must be finite, got {self.time!r}")
        if self.party < 0:
            raise ValueError("party index must be non-negative")
        if self.gate.shape != (2, 2):
            raise ValueError("scheduled gates act on one qubit and must be 2x2")
        if not self.gate.unitary:
            raise ValueError("scheduled gate is not unitary")


def bell_state(phase=1.0) -> Register:
    """(|00> + q|11>)/sqrt(2) for a unit-norm quaternion phase q."""
    q = as_quaternion(phase)
    if not abs(q.norm() - 1.0) <= 1e-12:  # NaN fails too
        raise ValueError("relative phase must have unit norm")
    amps = [Quaternion(INV_SQRT2), ZERO, ZERO, q * INV_SQRT2]
    return Register(2, QVector(tuple(amps)))


def _check_gate(gate: QMatrix) -> None:
    if gate.shape != (2, 2):
        raise ValueError("local gates must be 2x2")
    if not gate.unitary:
        raise ValueError("local gate is not unitary")


def apply_local(reg: Register, party: int, gate: QMatrix) -> Register:
    """Left-multiply the amplitude pair along one party's bit by a 2x2 unitary."""
    if not 0 <= party < reg.n_parties:
        raise ValueError(f"party {party} out of range for {reg.n_parties} parties")
    _check_gate(gate)
    # component rows, axes (wxyz, this party's bit, higher parties, lower parties), copied
    # contiguous so that the products and sums below run along rows of dim / 2 amplitudes
    amps = np.ascontiguousarray(reg.state.data.T.reshape(4, 1 << party, 2, -1).swapaxes(1, 2))
    products = hamilton(gate.table, amps)  # gate[r][col] * amp[col]: (row, wxyz, col, ...)
    new = np.empty((4, 1 << party, 2, amps.shape[-1]))
    np.add(products[:, :, 0], products[:, :, 1], out=new.transpose(2, 0, 1, 3))
    # a (dim, 4) view of (4, dim) storage: past one party, the next gate's data.T is contiguous
    return Register._evolved(reg.n_parties, QVector(new.reshape(4, -1).T))


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
    for party, m in enumerate(basis_changes):
        if m.data[..., 1:].any():  # exact zeros only: within SUBFIELD_TOL is not enough
            evolved = apply_local(Register._evolved(reg.n_parties, QVector(amps.T)), party, m)
            amps = evolved.state.data.T
        else:
            _check_gate(m)
            (a, b), (c, d) = m.data[..., 0].tolist()
            v = amps.reshape(4, 1 << party, 2, -1)  # (wxyz, higher, this party's bit, lower)
            v0, v1 = v[:, :, 0], v[:, :, 1]
            new = np.empty(v.shape)
            np.add(a * v0, b * v1, out=new[:, :, 0])
            np.add(c * v0, d * v1, out=new[:, :, 1])
            amps = new.reshape(4, -1)
    return dict(zip(basis_labels(reg.n_parties), norm_sq(amps.T).tolist()))


def state_dump(reg: Register) -> dict:
    """JSON-friendly dump: basis labels plus [w, x, y, z] amplitude quadruples."""
    return {
        "labels": basis_labels(reg.n_parties),
        "amplitudes": reg.state.data.tolist(),
    }
