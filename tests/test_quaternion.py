import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quatbox.qlinalg import diag
from quatbox.quaternion import I, J, K, ONE, UNIT_GROUP, ZERO, Quaternion, as_quaternion

from helpers import random_quaternion

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


def test_one_is_the_unit_element():
    q = Quaternion(1.5, -2.0, 3.25, 0.5)
    assert ONE * q == q
    assert q * ONE == q


def test_addition_examples():
    assert Quaternion(1) + I + (J + K) == Quaternion(1, 1, 1, 1)
    q = Quaternion(2, -3, 4, -5)
    assert q + ZERO == q
    assert I + (-I) == ZERO


def test_real_scalars_commute():
    q = Quaternion(1, 2, 3, 4)
    assert 2 * q == q * 2 == Quaternion(2, 4, 6, 8)
    assert q + 1 == 1 + q == Quaternion(2, 2, 3, 4)


def test_conjugate_examples():
    assert Quaternion(1, 1, 1, 1).conjugate() == Quaternion(1, -1, -1, -1)
    assert Quaternion(5).conjugate() == Quaternion(5)
    assert (I * J).conjugate() == J.conjugate() * I.conjugate()


def test_conjugate_antiautomorphism_exhaustive():
    for p, q in itertools.product(UNIT_GROUP, repeat=2):
        assert (p * q).conjugate() == q.conjugate() * p.conjugate()


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
    assert abs(Quaternion(3, 4)) == 5.0


def test_norm_multiplicative():
    rng = np.random.default_rng(42)
    for _ in range(200):
        p, q = random_quaternion(rng), random_quaternion(rng)
        assert abs((p * q).norm() - p.norm() * q.norm()) <= 1e-12


def test_q_times_conjugate_is_real_norm_squared():
    rng = np.random.default_rng(43)
    for _ in range(200):
        q = random_quaternion(rng)
        prod = q * q.conjugate()
        assert abs(prod.w - q.norm_sq()) <= 1e-12
        assert max(abs(prod.x), abs(prod.y), abs(prod.z)) <= 1e-12


@given(int_quaternions)
def test_conjugate_involution(q):
    assert q.conjugate().conjugate() == q


@given(int_quaternions, int_quaternions)
def test_conjugate_antiautomorphism(p, q):
    assert (p * q).conjugate() == q.conjugate() * p.conjugate()


@given(int_quaternions, int_quaternions, int_quaternions)
def test_associativity(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(int_quaternions, int_quaternions, int_quaternions)
def test_left_distributivity(p, q, r):
    assert p * (q + r) == p * q + p * r


def test_subfield_predicates():
    # the predicates live on QMatrix; a 1x1 matrix classifies a single scalar
    assert diag(Quaternion(2.0)).is_real()
    assert not diag(I).is_real()
    assert diag(Quaternion(1, 2)).in_complex_subfield()
    assert not diag(J).in_complex_subfield()
    assert not diag(K).in_complex_subfield()


def test_approx_eq_tolerance():
    assert Quaternion(1).approx_eq(Quaternion(1 + 1e-13))
    assert not Quaternion(1).approx_eq(Quaternion(1 + 1e-9))


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


@pytest.mark.parametrize(
    "text, q",
    [
        ("1+i+j+k", Quaternion(1, 1, 1, 1)),
        ("-k", -K),
        ("2", Quaternion(2)),
        ("0.5 + 0.5i", Quaternion(0.5, 0.5)),
        ("1e-3k", Quaternion(0, 0, 0, 1e-3)),
        ("-2.5j+1", Quaternion(1, 0, -2.5, 0)),
    ],
)
def test_parse(text, q):
    assert Quaternion.parse(text) == q


def test_parse_str_roundtrip():
    rng = np.random.default_rng(44)
    for _ in range(50):
        q = Quaternion(*(rng.integers(-9, 10, size=4).astype(float) / 4.0))
        assert Quaternion.parse(str(q)).approx_eq(q, 1e-12)


@pytest.mark.parametrize("bad", ["", "q", "1+", "+-1", "++1", "i j k +"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        Quaternion.parse(bad)


def test_as_quaternion():
    assert as_quaternion(2) == Quaternion(2.0)
    assert as_quaternion(I) is I
    with pytest.raises(TypeError):
        as_quaternion("1+i")
