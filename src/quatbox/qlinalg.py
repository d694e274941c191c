"""Dense vectors and matrices over the quaternions.

The scalars do not commute, so a module convention is load-bearing: state
vectors form a right module over the quaternions, and operators (and scalar
phases) act by multiplying amplitudes from the LEFT.  Every entry product
below keeps strict left-to-right order -- A[r][k] * B[k][c] for matrix
products, gate[r][c] * amp[c] for actions -- because reordering factors
changes answers.  Under this convention the *later* of two operations
contributes the left factor of an accumulated phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import starmap
from operator import attrgetter
from typing import Iterable

import numpy as np

from .quaternion import ONE, Quaternion, as_quaternion

#: entry-wise tolerance for accepting a matrix as unitary
UNITARY_TOL = 1e-10

#: component tolerance below which an entry counts as real / complex
SUBFIELD_TOL = 1e-14

INV_SQRT2 = math.sqrt(0.5)

_CONJUGATE = np.array([1.0, -1.0, -1.0, -1.0])
#: term k of component c of a Hamilton product is p[k] * _SIGN[k][c] * q[k ^ c]
_PERM = np.arange(4)[:, None] ^ np.arange(4)
_SIGN = np.array([[1.0, 1.0, 1.0, 1.0], [-1.0, 1.0, -1.0, 1.0], [-1.0, 1.0, 1.0, -1.0],
                  [-1.0, -1.0, 1.0, 1.0]])


def hamilton(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product p * q of (..., 4) arrays, broadcast over the leading axes.

    Each component adds its terms for k = w, x, y, z in the order
    `Quaternion.__mul__` does; a sign flip is exact and a + (-b) is a - b,
    so the result matches the scalar product bit for bit.
    """
    terms = p[..., :, None] * (q[..., _PERM] * _SIGN)
    return terms[..., 0, :] + terms[..., 1, :] + terms[..., 2, :] + terms[..., 3, :]


def norm_sq(a: np.ndarray) -> np.ndarray:
    """w*w + x*x + y*y + z*z of each quaternion in a (..., 4) array."""
    squares = a * a
    return squares[..., 0] + squares[..., 1] + squares[..., 2] + squares[..., 3]


def _fold_sum(terms: np.ndarray, axis: int) -> np.ndarray:
    """ZERO + t0 + t1 + ... along an axis.  A left-to-right sum is -0.0 only
    when every term is, and adding +0.0 afterwards changes exactly that case."""
    return 0.0 + np.add.accumulate(terms, axis=axis).take(-1, axis=axis)


def _pack(quaternions: Iterable[Quaternion]) -> np.ndarray:
    return np.array(list(map(attrgetter("w", "x", "y", "z"), quaternions))).reshape(-1, 4)


@dataclass(frozen=True, eq=False)
class _QuaternionArray:
    """Read-only float array `data` of NDIM axes, the last holding (w, x, y, z)."""

    data: np.ndarray

    def __post_init__(self):
        data = self.data if isinstance(self.data, np.ndarray) else _pack(self.data)
        data = np.asarray(data, dtype=float).view()
        if data.ndim != self.NDIM or data.shape[-1] != 4:
            raise ValueError(f"{type(self).__name__} data needs {self.NDIM} axes, the last of 4")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.data.shape == other.data.shape and bool((self.data == other.data).all())

    def approx_eq(self, other, tol: float = 1e-12) -> bool:
        return self.data.shape == other.data.shape and bool(
            (np.abs(self.data - other.data) <= tol).all()
        )


class QVector(_QuaternionArray):
    """Column vector of quaternion amplitudes: `data` of shape (dim, 4) or a Quaternion tuple."""

    NDIM = 2

    @property
    def amps(self) -> tuple[Quaternion, ...]:
        return tuple(starmap(Quaternion, self.data.tolist()))

    @property
    def dim(self) -> int:
        return len(self.data)

    def norm_sq(self) -> float:
        return math.fsum(norm_sq(self.data).tolist())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def is_normalized(self, tol: float = 1e-10) -> bool:
        return abs(self.norm_sq() - 1.0) <= tol


class QMatrix(_QuaternionArray):
    """Matrix of quaternion entries; `data` has shape (rows, cols, 4)."""

    NDIM = 3

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape[:2]

    @cached_property
    def unitary(self) -> bool:
        """`is_unitary(self)` at the default tolerance, worked out once per matrix."""
        return is_unitary(self)

    def dagger(self) -> QMatrix:
        """Transpose followed by entry-wise quaternionic conjugation."""
        return QMatrix(self.data.transpose(1, 0, 2) * _CONJUGATE)

    def is_real(self, tol: float = SUBFIELD_TOL) -> bool:
        return bool((np.abs(self.data[..., 1:]) <= tol).all())

    def in_complex_subfield(self, tol: float = SUBFIELD_TOL) -> bool:
        return bool((np.abs(self.data[..., 2:]) <= tol).all())


def qvec(values: Iterable) -> QVector:
    return QVector(map(as_quaternion, values))


def qmat(rows: Iterable[Iterable]) -> QMatrix:
    return QMatrix(np.array([_pack(map(as_quaternion, row)) for row in rows]))


def identity(n: int) -> QMatrix:
    return diag(*[ONE] * n)


def diag(*values) -> QMatrix:
    n = len(values)
    data = np.zeros((n, n, 4))
    data[range(n), range(n)] = _pack(map(as_quaternion, values))
    return QMatrix(data)


def matmul(a: QMatrix, b: QMatrix) -> QMatrix:
    """Matrix product with entry factors kept in left-to-right order."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    return QMatrix(_fold_sum(hamilton(a.data[:, :, None], b.data[None]), axis=1))


def matvec(m: QMatrix, v: QVector) -> QVector:
    """Left action: out[r] = sum_c M[r][c] * v[c], products in that order."""
    if m.shape[1] != v.dim:
        raise ValueError(f"shape mismatch: {m.shape} @ vector of dim {v.dim}")
    return QVector(_fold_sum(hamilton(m.data, v.data[None]), axis=1))


def inner(u: QVector, v: QVector) -> Quaternion:
    """<u|v> = sum_i conj(u_i) * v_i; conjugate-linear in the left slot."""
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: {u.dim} vs {v.dim}")
    return Quaternion(*_fold_sum(hamilton(u.data * _CONJUGATE, v.data), axis=0).tolist())


def is_unitary(m: QMatrix, tol: float = UNITARY_TOL) -> bool:
    """True iff M * dagger(M) deviates from the identity by at most tol per entry."""
    rows, cols = m.shape
    if rows != cols:
        raise ValueError("unitarity is only defined for square matrices")
    deviation = matmul(m, m.dagger()).data - identity(rows).data
    return bool((np.sqrt(norm_sq(deviation)) <= tol).all())


def hadamard() -> QMatrix:
    """Real Hadamard; maps the computational basis to the +/- basis."""
    s = INV_SQRT2
    return qmat([[s, s], [s, -s]])


def phase_gate(phase) -> QMatrix:
    """diag(1, q) for a unit-norm quaternion q."""
    q = as_quaternion(phase)
    if abs(q.norm() - 1.0) > 1e-12:
        raise ValueError(f"phase must have unit norm, got |q| = {q.norm()!r}")
    return diag(ONE, q)


def rotation(theta: float) -> QMatrix:
    """Real rotation [[cos t, sin t], [-sin t, cos t]]; a basis change by angle t."""
    c, s = math.cos(theta), math.sin(theta)
    return qmat([[c, s], [-s, c]])
