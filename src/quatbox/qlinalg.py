"""Dense vectors and matrices over the quaternions.

The scalars do not commute, so a module convention is load-bearing: state
vectors form a right module over the quaternions, and operators (and scalar
phases) act by multiplying amplitudes from the LEFT.  Every entry product
below keeps strict left-to-right order -- A[r][k] * B[k][c] for matrix
products, gate[r][c] * amp[c] for actions -- because reordering factors
changes answers.  Under this convention the *later* of two operations
contributes the left factor of an accumulated phase.

Every matrix-quaternion product goes through one kernel, `hamilton`, which
reads the left factors from a `signed_table` (built once per `QMatrix`, as
`QMatrix.table`) and adds a product's four terms k by k in the order
`Quaternion.__mul__` does, so array results match the scalar ones bit for bit.
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

#: tolerance on the sum of squared amplitude norms of a normalized vector
NORM_TOL = 1e-10

#: component tolerance below which an entry counts as real
SUBFIELD_TOL = 1e-14

INV_SQRT2 = math.sqrt(0.5)

_CONJUGATE = np.array([1.0, -1.0, -1.0, -1.0])
#: term k of component c of a Hamilton product is p[k] * _SIGN[k][c] * q[k ^ c]
_SIGN = np.array([[1.0, 1.0, 1.0, 1.0], [-1.0, 1.0, -1.0, 1.0], [-1.0, 1.0, 1.0, -1.0],
                  [-1.0, -1.0, 1.0, 1.0]])


def signed_table(m: np.ndarray) -> np.ndarray:
    """m[r][col][k] * _SIGN[k][c] of a (rows, cols, 4) matrix, as a contiguous
    (rows, k, c, cols) array: the left factors of `hamilton`'s terms."""
    return np.ascontiguousarray((m[..., None] * _SIGN).transpose(0, 2, 3, 1))


def hamilton(table: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m[r][col] * v[col] for the `signed_table` of a (rows, cols, 4) matrix m and
    component-major (4, cols, ...) quaternions v, as (rows, 4, cols, ...): the
    caller adds columns.

    Each component adds its terms for k = w, x, y, z in the order
    `Quaternion.__mul__` does, k by k into one buffer; a sign flip is exact and
    a + (-b) is a - b, so each product matches the scalar one bit for bit.  The
    signs sit in the table, on the left factor, since an IEEE product's sign is
    the XOR of its factors' signs.  Term k of component c reads v[k ^ c]: with
    c = 2 c0 + c1, k's low bit reverses c1 and its high bit c0, so each term
    reads v through a strided view.
    """
    rows, cols = len(table), v.shape[1]
    t = table.reshape(rows, 4, 2, 2, cols, 1)
    q = v.reshape(2, 2, cols, -1)  # the trailing axes as one: fewer axes for each ufunc to walk
    out = t[:, 0] * q
    out += t[:, 1] * q[:, ::-1]
    out += t[:, 2] * q[::-1]
    out += t[:, 3] * q[::-1, ::-1]
    return out.reshape(rows, 4, *v.shape[1:])


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
    """Column vector of quaternion amplitudes: `data` of shape (dim, 4) or a Quaternion tuple.

    `data` may be a transposed view of (4, dim) component-major storage, as
    `apply_local` returns it."""

    NDIM = 2

    @property
    def amps(self) -> tuple[Quaternion, ...]:
        return tuple(starmap(Quaternion, self.data.tolist()))

    @property
    def dim(self) -> int:
        return len(self.data)

    def norm_sq(self) -> float:
        return math.fsum(norm_sq(self.data).tolist())

    def is_normalized(self) -> bool:
        return abs(self.norm_sq() - 1.0) <= NORM_TOL


class QMatrix(_QuaternionArray):
    """Matrix of quaternion entries; `data` has shape (rows, cols, 4)."""

    NDIM = 3

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape[:2]

    @cached_property
    def unitary(self) -> bool:
        """`is_unitary(self)`, worked out once per matrix."""
        return is_unitary(self)

    @cached_property
    def table(self) -> np.ndarray:
        """`signed_table(self.data)`, built once per matrix."""
        return signed_table(self.data)

    def dagger(self) -> QMatrix:
        """Transpose followed by entry-wise quaternionic conjugation."""
        return QMatrix(self.data.transpose(1, 0, 2) * _CONJUGATE)

    @cached_property
    def is_real(self) -> bool:
        """Every imaginary component within SUBFIELD_TOL of 0, worked out once per matrix."""
        return bool((np.abs(self.data[..., 1:]) <= SUBFIELD_TOL).all())


def qmat(rows: Iterable[Iterable]) -> QMatrix:
    return QMatrix(np.array([_pack(map(as_quaternion, row)) for row in rows]))


def diag(*values) -> QMatrix:
    n = len(values)
    data = np.zeros((n, n, 4))
    data[range(n), range(n)] = _pack(map(as_quaternion, values))
    return QMatrix(data)


def matmul(a: QMatrix, b: QMatrix) -> QMatrix:
    """Matrix product with entry factors kept in left-to-right order."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    products = hamilton(a.table, b.data.transpose(2, 0, 1))  # (row, wxyz, k, col)
    return QMatrix(_fold_sum(products.transpose(0, 3, 1, 2), axis=3))  # comes out C-ordered


def inner(u: QVector, v: QVector) -> Quaternion:
    """<u|v> = sum_i conj(u_i) * v_i; antilinear in the left slot."""
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: {u.dim} vs {v.dim}")
    products = hamilton(signed_table((u.data * _CONJUGATE)[None]), v.data.T)[0]  # (4, dim)
    return Quaternion(*_fold_sum(products, axis=1).tolist())


def is_unitary(m: QMatrix) -> bool:
    """True iff M * dagger(M) deviates from the identity by at most UNITARY_TOL per entry."""
    rows, cols = m.shape
    if rows != cols:
        raise ValueError("unitarity is only defined for square matrices")
    deviation = matmul(m, m.dagger()).data - np.eye(rows)[..., None] * [1.0, 0.0, 0.0, 0.0]
    return bool((np.sqrt(norm_sq(deviation)) <= UNITARY_TOL).all())


def hadamard() -> QMatrix:
    """Real Hadamard; maps the computational basis to the +/- basis."""
    s = INV_SQRT2
    return qmat([[s, s], [s, -s]])


def phase_gate(phase) -> QMatrix:
    """diag(1, q) for a unit-norm quaternion q."""
    q = as_quaternion(phase)
    if not abs(q.norm() - 1.0) <= 1e-12:  # NaN fails too
        raise ValueError(f"phase must have unit norm, got |q| = {q.norm()!r}")
    return diag(ONE, q)


def rotation(theta: float) -> QMatrix:
    """Real rotation [[cos t, sin t], [-sin t, cos t]]; a basis change by angle t."""
    c, s = math.cos(theta), math.sin(theta)
    return qmat([[c, s], [-s, c]])
