import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quatbox.qlinalg import QVector, diag, inner, phase_gate
from quatbox.quaternion import I, J, K, ONE, ZERO, Quaternion, as_quaternion
from quatbox.register import bell_state

from helpers import UNIT_GROUP, conj, random_quaternion

# exact-arithmetic quaternions: integer components keep float products exact
int_quaternions = st.builds(
    Quaternion,
    *(st.integers(min_value=-5, max_value=5).map(float) for _ in range(4)),
)


def test_multiplication_table():
    assert I * J == K
    assert J * I == -K
    assert J * K == I
    assert K * J == -I
    assert K * I == J
    assert I * K == -J
    assert I * I == -ONE
    assert J * J == -ONE
    assert K * K == -ONE
    assert I * J * K == -ONE


def test_a_bool_is_not_a_scalar_factor():
    # a bool is an int to Python, and I * True would be i; it is refused as I * "x" is
    for flag in (True, False):
        with pytest.raises(TypeError):
            I * flag
    assert I * np.float64(0.5) == Quaternion(0.0, 0.5)
    assert I * 2 == Quaternion(0.0, 2.0)


def test_one_is_the_unit_element():
    q = Quaternion(1.5, -2.0, 3.25, 0.5)
    assert ONE * q == q
    assert q * ONE == q


def test_real_scalars_commute():
    q = Quaternion(1, 2, 3, 4)
    assert q * 2 == Quaternion(2) * q == q * Quaternion(2) == Quaternion(2, 4, 6, 8)


def test_conjugate_examples():
    assert conj(Quaternion(1, 1, 1, 1)) == Quaternion(1, -1, -1, -1)
    assert conj(Quaternion(5)) == Quaternion(5)
    assert conj(I * J) == conj(J) * conj(I)


def test_conjugate_antiautomorphism_exhaustive():
    for p, q in itertools.product(UNIT_GROUP, repeat=2):
        assert conj(p * q) == conj(q) * conj(p)


def test_associativity_exhaustive_on_units():
    for p, q, r in itertools.product(UNIT_GROUP, repeat=3):
        assert (p * q) * r == p * (q * r)


def test_noncommutativity_witness():
    assert I * J == -(J * I)
    assert I * J != J * I


def test_norm_examples():
    assert K.norm() == 1.0
    assert Quaternion(1, 1, 1, 1).norm() == 2.0  # sqrt(1+1+1+1)
    assert ZERO.norm() == 0.0
    assert Quaternion(3, 4).norm() == 5.0


def test_norm_multiplicative():
    rng = np.random.default_rng(42)
    for _ in range(200):
        p, q = random_quaternion(rng), random_quaternion(rng)
        assert abs((p * q).norm() - p.norm() * q.norm()) <= 1e-12


def test_conjugate_times_q_is_real_norm_squared():
    rng = np.random.default_rng(43)
    for _ in range(200):
        q = random_quaternion(rng)
        prod = inner(QVector((q,)), QVector((q,)))  # conj(q) * q
        assert abs(prod.w - q.norm_sq()) <= 1e-12
        assert max(abs(prod.x), abs(prod.y), abs(prod.z)) <= 1e-12


@given(int_quaternions)
def test_conjugate_involution(q):
    assert conj(conj(q)) == q


@given(int_quaternions, int_quaternions)
def test_conjugate_antiautomorphism(p, q):
    assert conj(p * q) == conj(q) * conj(p)


@given(int_quaternions, int_quaternions, int_quaternions)
def test_associativity(p, q, r):
    assert (p * q) * r == p * (q * r)


def test_subfield_predicates():
    # the predicate lives on QMatrix; a 1x1 matrix classifies a single scalar
    assert diag(Quaternion(2.0)).planes == (0,)
    assert diag(I).planes != (0,)


@pytest.mark.parametrize(
    "q, text",
    [
        (Quaternion(1, 1, 1, 1), "1+i+j+k"),
        (Quaternion(1, -1, 1, -1), "1-i+j-k"),
        (Quaternion(0, 0, 0, -1), "-k"),
        (Quaternion(0, 2.5), "2.5i"),
        (ZERO, "0"),
        (Quaternion(-1.5), "-1.5"),
    ],
)
def test_str_rendering(q, text):
    assert str(q) == text


def test_as_quaternion():
    assert as_quaternion(2) == Quaternion(2.0)
    assert as_quaternion(I) is I
    with pytest.raises(TypeError):
        as_quaternion("1+i")
    # a bool is an int to Python, but True is not the phase 1: phase_gate(True) would be
    # the identity gate and bell_state(True) |Phi+>, where widths and parties refuse bools
    for make in (as_quaternion, phase_gate, bell_state, diag):
        for flag in (True, False):
            with pytest.raises(TypeError) as err:
                make(flag)
            assert str(err.value) == "cannot interpret bool as a quaternion"
