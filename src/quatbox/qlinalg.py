"""Dense vectors and matrices over the quaternions.

The scalars do not commute, so a module convention is load-bearing: state
vectors form a right module over the quaternions, and operators (and scalar
phases) act by multiplying amplitudes from the LEFT.  Every entry product
below keeps strict left-to-right order -- A[r][k] * B[k][c] for matrix
products, gate[r][c] * amp[c] for actions -- because reordering factors
changes answers.  Under this convention the *later* of two operations
contributes the left factor of an accumulated phase.

The gate step on 2^n amplitudes goes through one kernel, `hamilton`, which
reads the left factors from `QMatrix.table` (built once per matrix) and adds
a product's four terms k by k in the order `Quaternion.__mul__` does, so
array results match the scalar ones bit for bit.
Its caller names the planes k to add (`QMatrix.planes`, the components that
are not exactly zero somewhere in the matrix); a left-out term is a signed
zero, which changes no nonzero sum.  `matmul`, `inner` and `is_unitary` are one
scalar fold, `_fold`, of the same terms in the same order over Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import starmap
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .quaternion import Quaternion, as_quaternion, is_real_number

#: entry-wise tolerance for accepting a matrix as unitary
UNITARY_TOL = 1e-10

#: tolerance on the sum of squared amplitude norms of a normalized vector
NORM_TOL = 1e-10

INV_SQRT2 = math.sqrt(0.5)

_CONJUGATE = np.array([1.0, -1.0, -1.0, -1.0])
#: term k of component c of a Hamilton product is p[k] * _SIGN[k][c] * q[k ^ c]
_SIGN = np.array([[1.0, 1.0, 1.0, 1.0], [-1.0, 1.0, -1.0, 1.0], [-1.0, 1.0, 1.0, -1.0],
                  [-1.0, -1.0, 1.0, 1.0]])
#: the view of (c0, c1, ...)-shaped quaternions that term k reads: v[k ^ c] at component c
_READS = (np.s_[:], np.s_[:, ::-1], np.s_[::-1], np.s_[::-1, ::-1])


def hamilton(table: np.ndarray, v: np.ndarray, planes: Sequence[int],
             out: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """m[r][col] * v[col] for the `QMatrix.table` of a (rows, cols, 4) matrix m and
    component-major (4, cols, ...) quaternions v, as (rows, 4, cols, ...): the
    caller adds columns.

    Each component adds its terms for k = w, then each k of `planes[1:]` (`planes`
    lists w first, as `QMatrix.planes` does), in the order `Quaternion.__mul__`
    does, k by k into one buffer; a sign flip is exact and a + (-b) is a - b, so
    with all four planes each product matches the scalar one bit for bit.  A plane
    of m that is all zeros gives terms that are signed zeros, so leaving it out can
    change only the sign of a zero.  The signs sit in the table, on the left factor,
    since an IEEE product's sign is the XOR of its factors' signs.  Term k of
    component c reads v[k ^ c]: with c = 2 c0 + c1, k's low bit reverses c1 and its
    high bit c0, so each term reads v through a strided view.

    `out` is a C-ordered (rows, 2, 2, cols, n) product buffer and a scratch buffer of
    the same shape, with n the size of v's trailing axes; the result is a view of the
    product buffer.
    """
    q = v.reshape(2, 2, v.shape[1], -1)  # the trailing axes as one: fewer for each ufunc to walk
    result, scratch = out
    np.multiply(table[0], q, result)  # out as a positional argument: a cheaper call
    for k in planes[1:]:
        result += np.multiply(table[k], q[_READS[k]], scratch)
    return result.reshape(table.shape[1], 4, *v.shape[1:])


def norm_sq(a: np.ndarray) -> np.ndarray:
    """w*w + x*x + y*y + z*z of each quaternion in a (..., 4) array."""
    squares = a * a
    return squares[..., 0] + squares[..., 1] + squares[..., 2] + squares[..., 3]


def _fold(ps: Iterable[Sequence[float]], qs: Iterable[Sequence[float]]) -> tuple[float, ...]:
    """+0.0 + p0 * q0 + p1 * q1 + ... of (w, x, y, z) float sequences, left to right and
    each product's terms in `Quaternion.__mul__`'s order; the +0.0 makes a -0.0 sum +0.0."""
    w = x = y = z = 0.0
    for (pw, px, py, pz), (qw, qx, qy, qz) in zip(ps, qs):
        w += pw * qw - px * qx - py * qy - pz * qz
        x += pw * qx + px * qw + py * qz - pz * qy
        y += pw * qy - px * qz + py * qw + pz * qx
        z += pw * qz + px * qy - py * qx + pz * qw
    return w, x, y, z


#: a quaternion's (w, x, y, z)
_COMPONENTS = attrgetter("w", "x", "y", "z")


def _pack(quaternions: Iterable[Quaternion]) -> np.ndarray:
    return np.array(list(map(_COMPONENTS, quaternions))).reshape(-1, 4)


@dataclass(frozen=True, eq=False)
class _QuaternionArray:
    """Read-only float array `data` of NDIM axes, the last holding (w, x, y, z)."""

    data: np.ndarray

    def __post_init__(self):
        data = self.data
        if not isinstance(data, np.ndarray):
            data = tuple(data)
            # _pack reads .w from each item: a float or a nested row has none
            if not all(isinstance(q, Quaternion) for q in data):
                raise ValueError(
                    f"{type(self).__name__} data must be an array or a sequence of Quaternions")
            data = _pack(data)
        data = np.asarray(data, dtype=float).view()
        if data.ndim != self.NDIM or data.shape[-1] != 4:
            raise ValueError(f"{type(self).__name__} data needs {self.NDIM} axes, the last of 4")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.data.shape == other.data.shape and bool((self.data == other.data).all())

    def approx_eq(self, other, tol: float) -> bool:
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
        """m[r][col][k] * _SIGN[k][c] of the entries m, built once per matrix, as a contiguous
        (k, rows, c0, c1, cols, 1) array with c = 2 c0 + c1: the left factors of `hamilton`'s
        term k in one block, shaped to broadcast against the quaternions."""
        rows, cols = self.shape
        table = np.ascontiguousarray((self.data[..., None] * _SIGN).transpose(2, 0, 3, 1))
        return table.reshape(4, rows, 2, 2, cols, 1)

    @cached_property
    def planes(self) -> tuple[int, ...]:
        """0, then each k in 1..3 whose component is not exactly 0 somewhere in the matrix
        (NaN counts, -0.0 does not), worked out once per matrix: the Hamilton terms a
        product with it needs, since every other term is a signed zero.  `(0,)` is the
        package's one test of a real matrix."""
        nonzero = self.data.any(axis=(0, 1)).tolist()
        return (0, *(k for k in (1, 2, 3) if nonzero[k]))


def qmat(rows: Iterable[Iterable]) -> QMatrix:
    return QMatrix(np.array([_pack(map(as_quaternion, row)) for row in rows]))


def diag(*values) -> QMatrix:
    """Diagonal matrix of these quaternions or reals, written entry by entry into a
    zeroed array."""
    n = len(values)
    data = np.zeros((n, n, 4))
    for i, value in enumerate(values):
        data[i, i] = _COMPONENTS(as_quaternion(value))
    return QMatrix(data)


def matmul(a: QMatrix, b: QMatrix) -> QMatrix:
    """Matrix product with entry factors kept in left-to-right order."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    columns = b.data.transpose(1, 0, 2).tolist()
    entries = [[_fold(row, col) for col in columns] for row in a.data.tolist()]
    return QMatrix(np.reshape(entries, (a.shape[0], b.shape[1], 4)))  # keeps empty shapes


def inner(u: QVector, v: QVector) -> Quaternion:
    """<u|v> = sum_i conj(u_i) * v_i; antilinear in the left slot."""
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: {u.dim} vs {v.dim}")
    return Quaternion(*_fold((u.data * _CONJUGATE).tolist(), v.data.tolist()))


def is_unitary(m: QMatrix) -> bool:
    """True iff M * dagger(M) deviates from the identity by at most UNITARY_TOL per entry.

    A matrix with a non-finite entry is not unitary, and is refused before any
    product.  Entry (r, c) of M * dagger(M) is the fold of row r of M with the
    conjugate of row c, as `matmul` would add it.
    """
    rows, cols = m.shape
    if rows != cols:
        raise ValueError("unitarity is only defined for square matrices")
    if np.count_nonzero(np.isfinite(m.data)) != m.data.size:
        return False
    conjugates = (m.data * _CONJUGATE).tolist()
    for r, row in enumerate(m.data.tolist()):
        for c, other in enumerate(conjugates):
            w, x, y, z = _fold(row, other)
            w -= r == c  # the identity's entry
            # * and not **: a float's ** raises OverflowError where * gives inf
            if not math.sqrt(w * w + x * x + y * y + z * z) <= UNITARY_TOL:
                return False
    return True


def _real_2x2(rows: list[list[float]]) -> QMatrix:
    """The 2x2 matrix with these real entries: `qmat(rows)`, without a Quaternion per entry."""
    data = np.zeros((2, 2, 4))
    data[..., 0] = rows
    return QMatrix(data)


def hadamard() -> QMatrix:
    """Real Hadamard; maps the computational basis to the +/- basis."""
    s = INV_SQRT2
    return _real_2x2([[s, s], [s, -s]])


def phase_gate(phase) -> QMatrix:
    """diag(1, q) for a unit-norm quaternion q."""
    q = as_quaternion(phase)
    if not abs(q.norm() - 1.0) <= 1e-12:  # NaN fails too
        raise ValueError(f"relative phase must have unit norm, got |q| = {q.norm()!r}")
    return diag(1.0, q)


def rotation(theta: float) -> QMatrix:
    """Real rotation [[cos t, sin t], [-sin t, cos t]]; a basis change by angle t, which
    must be finite."""
    # a string or None would raise TypeError in math.isfinite
    if not is_real_number(theta) or not math.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta!r}")
    c, s = math.cos(theta), math.sin(theta)
    return _real_2x2([[c, s], [-s, c]])
