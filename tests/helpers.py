"""Shared random generators for property tests, all taking an explicit rng, one
hand-built box, scalar views of the package's conjugation and left action, and a
call counter."""

import math

import numpy as np

from quatbox import (
    ONE,
    I,
    J,
    K,
    QMatrix,
    QVector,
    Quaternion,
    Register,
    apply_local,
    is_unitary,
    matmul,
    qmat,
    rotation,
)
from quatbox.boxes import BoxBehavior, classical_box, ideal_pr_box
from quatbox.qlinalg import SUBFIELD_TOL

#: the eight unit elements {+-1, +-i, +-j, +-k}; exhaustive algebra checks run over these
UNIT_GROUP = (ONE, -ONE, I, -I, J, -J, K, -K)


def approx_eq(p: Quaternion, q: Quaternion, tol: float = 1e-12) -> bool:
    """Every component of p within tol of q's."""
    return all(abs(a - b) <= tol for a, b in zip((p.w, p.x, p.y, p.z), (q.w, q.x, q.y, q.z)))


def conj(q: Quaternion) -> Quaternion:
    """q's conjugate as the package takes it: the dagger of the 1x1 matrix [[q]]."""
    return Quaternion(*qmat([[q]]).dagger().data[0, 0].tolist())


def left_action(u: QMatrix, v: QVector) -> QVector:
    """u v for a 2x2 gate and a normalized 2-vector, through the package's apply_local."""
    return apply_local(Register(1, v), 0, u).state


def random_quaternion(rng, scale=2.0) -> Quaternion:
    return Quaternion(*(scale * rng.uniform(-1.0, 1.0, size=4)))


def random_unit_quaternion(rng) -> Quaternion:
    q = Quaternion(*rng.normal(size=4))
    return q * (1.0 / q.norm())


def random_unit_complex(rng) -> Quaternion:
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return Quaternion(math.cos(theta), math.sin(theta), 0.0, 0.0)


def _phase_diag(p: Quaternion, q: Quaternion) -> QMatrix:
    return qmat([[p, 0], [0, q]])


def random_unitary(rng) -> QMatrix:
    """Random 2x2 quaternionic unitary: unit-phase diagonals around a rotation."""
    u = _phase_diag(random_unit_quaternion(rng), random_unit_quaternion(rng))
    v = _phase_diag(random_unit_quaternion(rng), random_unit_quaternion(rng))
    m = matmul(matmul(u, rotation(rng.uniform(0.0, 2.0 * math.pi))), v)
    assert is_unitary(m)
    return m


def random_complex_unitary(rng) -> QMatrix:
    """Random 2x2 unitary with all entries in the complex subfield."""
    u = _phase_diag(random_unit_complex(rng), random_unit_complex(rng))
    v = _phase_diag(random_unit_complex(rng), random_unit_complex(rng))
    m = matmul(matmul(u, rotation(rng.uniform(0.0, 2.0 * math.pi))), v)
    assert is_unitary(m) and (np.abs(m.data[..., 2:]) <= SUBFIELD_TOL).all()
    return m


def random_state(rng, dim: int) -> QVector:
    amps = [Quaternion(*rng.normal(size=4)) for _ in range(dim)]
    norm = math.sqrt(math.fsum(a.norm_sq() for a in amps))
    return QVector(tuple(a * (1.0 / norm) for a in amps))


def random_register(rng, n_parties: int) -> Register:
    return Register(n_parties, random_state(rng, 2**n_parties))


def negative_entry_box() -> BoxBehavior:
    """A valid box with one entry of -1e-13, inside the validation tolerance:
    0.8 PR box + 0.1 (x, y) = (1, 0) + 0.1 (x, y) = (a, 0), with 1e-13 moved
    from P(0, 1 | 0, 0) to P(0, 0 | 0, 0).  The running sums of cell (0, 0) are then
    0.5 + 1e-13, 0.5, 0.6, 1, not monotone, and a bisection at r = 0.5 draws
    (1, 0) where the linear scan draws (0, 0).  Its cells win 0.9, 0.9, 0.8
    and 1, so a product of its gains depends on the order of the factors."""
    probs = (0.8 * ideal_pr_box().probs + 0.1 * classical_box((1, 1), (0, 0)).probs
             + 0.1 * classical_box((0, 1), (0, 0)).probs)
    probs[0, 0, 0, 0] += 1e-13
    probs[0, 0, 0, 1] = -1e-13
    return BoxBehavior(probs)


def count_calls(monkeypatch, owner, name: str) -> list[int]:
    """Replace owner.name by a wrapper that counts its calls in the returned one-item list."""
    count = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return count
