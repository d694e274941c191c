import math

import numpy as np
import pytest

from quatbox.qlinalg import (
    INV_SQRT2,
    diag,
    hadamard,
    hamilton,
    identity,
    inner,
    is_unitary,
    matmul,
    matvec,
    phase_gate,
    qmat,
    qvec,
    rotation,
)
from quatbox.quaternion import I, J, K, ONE, UNIT_GROUP, Quaternion

from helpers import random_quaternion, random_state, random_unitary

R_I = phase_gate(I)
R_J = phase_gate(J)


def rand_matrix(rng, rows=2, cols=2):
    return qmat([[random_quaternion(rng) for _ in range(cols)] for _ in range(rows)])


def test_hamilton_matches_scalar_product_bit_for_bit():
    rng = np.random.default_rng(4)
    signed_zeros = [Quaternion(*rng.choice([0.0, -0.0, 1.0, -2.5], size=4)) for _ in range(20)]
    qs = list(UNIT_GROUP) + signed_zeros + [random_quaternion(rng) for _ in range(20)]
    arr = np.array([[q.w, q.x, q.y, q.z] for q in qs])
    want = np.array([[[(p * q).w, (p * q).x, (p * q).y, (p * q).z] for q in qs] for p in qs])
    # tobytes tells -0.0 from 0.0, which == does not
    assert hamilton(arr[:, None], arr[None]).tobytes() == want.tobytes()


def test_dagger_of_phase_gate():
    assert R_I.dagger() == diag(ONE, -I)
    assert R_J.dagger() == diag(ONE, -J)


def test_dagger_identity_fixed_point():
    assert identity(3).dagger() == identity(3)


def test_dagger_involution():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = rand_matrix(rng, 3, 2)
        assert m.dagger().dagger() == m


def test_dagger_antihomomorphism():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b = rand_matrix(rng), rand_matrix(rng)
        assert matmul(a, b).dagger().approx_eq(matmul(b.dagger(), a.dagger()), 1e-12)


def test_is_unitary_examples():
    assert is_unitary(R_I)
    assert is_unitary(R_J)
    assert not is_unitary(diag(1, 2))
    assert is_unitary(hadamard())


def test_hadamard_unitary_by_direct_multiplication():
    # independent of is_unitary: H has real entries, so check H H^T = I with floats
    s = INV_SQRT2
    h = [[s, s], [s, -s]]
    prod = [[sum(h[r][k] * h[c][k] for k in range(2)) for c in range(2)] for r in range(2)]
    for r in range(2):
        for c in range(2):
            assert abs(prod[r][c] - (1.0 if r == c else 0.0)) <= 1e-15


def test_is_unitary_rejects_non_square():
    with pytest.raises(ValueError):
        is_unitary(qmat([[1, 0]]))


def test_matvec_phase_gate_examples():
    s = INV_SQRT2
    plus = qvec([s, s])
    assert matvec(R_I, plus).approx_eq(qvec([Quaternion(s), I * s]), 0.0)
    assert matvec(identity(2), plus) == plus
    # j * i = -k shows up when the second gate hits an i-phased amplitude
    assert matvec(R_J, qvec([Quaternion(s), I * s])).approx_eq(
        qvec([Quaternion(s), -K * s]), 0.0
    )


def test_matvec_dimension_mismatch():
    with pytest.raises(ValueError):
        matvec(identity(2), qvec([1, 0, 0]))


def test_inner_examples():
    s = INV_SQRT2
    v = qvec([Quaternion(0.5, 0.5), Quaternion(0, 0, 0.5, -0.5)])
    self_inner = inner(v, v)
    assert abs(self_inner.w - v.norm_sq()) <= 1e-15
    assert self_inner.approx_eq(Quaternion(v.norm_sq()), 1e-15)
    # the two order-dependent states are orthogonal
    minus_k = qvec([Quaternion(s), 0, 0, -K * s])
    plus_k = qvec([Quaternion(s), 0, 0, K * s])
    assert inner(minus_k, plus_k) == Quaternion()
    # distinct basis kets
    assert inner(qvec([1, 0, 0, 0]), qvec([0, 0, 0, 1])) == Quaternion()


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        inner(qvec([1]), qvec([1, 0]))


def test_unitary_preserves_norm():
    rng = np.random.default_rng(2)
    for _ in range(100):
        u = random_unitary(rng)
        v = random_state(rng, 2)
        assert abs(matvec(u, v).norm() - v.norm()) <= 1e-10


def test_left_action_composes():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = random_unitary(rng), random_unitary(rng)
        v = random_state(rng, 2)
        assert matvec(a, matvec(b, v)).approx_eq(matvec(matmul(a, b), v), 1e-12)


def test_matmul_respects_entry_order():
    # diag products over the quaternions: order of the factors matters
    assert matmul(R_I, R_J) == diag(ONE, I * J) == diag(ONE, K)
    assert matmul(R_J, R_I) == diag(ONE, -K)


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        matmul(qmat([[1, 0]]), qmat([[1, 0]]))


def test_qmat_rejects_ragged_rows():
    with pytest.raises(ValueError):
        qmat([[1, 0], [1]])


def test_phase_gate_requires_unit_phase():
    with pytest.raises(ValueError):
        phase_gate(Quaternion(0, 2))


def test_rotation_is_real_and_unitary():
    m = rotation(0.7)
    assert m.is_real()
    assert is_unitary(m)
    assert rotation(0.0) == identity(2)


def test_subfield_detection_on_matrices():
    assert hadamard().is_real()
    assert phase_gate(I).in_complex_subfield()
    assert not phase_gate(I).is_real()
    assert not phase_gate(J).in_complex_subfield()


def test_vector_norm_and_normalization():
    v = qvec([Quaternion(0.6), Quaternion(0, 0.8)])
    assert abs(v.norm() - 1.0) <= 1e-15
    assert v.is_normalized()
    assert not qvec([1, 1]).is_normalized()
