import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quatbox import qlinalg, register
from quatbox.boxes import complex_quantum_box
from quatbox.qlinalg import (
    INV_SQRT2,
    QMatrix,
    QVector,
    diag,
    hadamard,
    hamilton,
    inner,
    is_unitary,
    matmul,
    phase_gate,
    qmat,
    rotation,
)
from quatbox.quaternion import I, J, K, ONE, ZERO, Quaternion
from quatbox.register import apply_local, bell_state

from helpers import (
    UNIT_GROUP,
    approx_eq,
    conj,
    count_calls,
    dagger,
    left_action,
    random_quaternion,
    random_state,
    random_unit_quaternion,
    random_unitary,
    reference_is_unitary,
    scalar_fold,
)

R_I = phase_gate(I)
R_J = phase_gate(J)


def rand_matrix(rng, rows=2, cols=2):
    return qmat([[random_quaternion(rng) for _ in range(cols)] for _ in range(rows)])


def test_planes_list_the_components_that_are_not_exactly_zero():
    rng = np.random.default_rng(7)
    nan = float("nan")
    assert hadamard().planes == (0,)
    assert phase_gate(I).planes == (0, 1)
    assert phase_gate(J).planes == (0, 2)
    assert phase_gate(K).planes == (0, 3)
    assert random_unitary(rng).planes == (0, 1, 2, 3)
    # -0.0 is a zero, NaN is not, and the w plane is always listed
    assert QMatrix(np.where(np.arange(4) == 0, 1.0, -0.0) * np.ones((2, 2, 1))).planes == (0,)
    assert qmat([[1, Quaternion(0, 0, nan)], [0, 1]]).planes == (0, 2)
    assert qmat([[Quaternion(0, 1e-300), 0], [0, J]]).planes == (0, 1, 2)
    assert qmat([[I, 0], [0, J]]).planes == (0, 1, 2)


def test_hamilton_adds_only_the_listed_planes_into_the_given_buffers():
    rng = np.random.default_rng(8)
    m = rand_matrix(rng)
    v = rng.normal(size=(4, 2, 3, 5))
    buffers = np.empty((2, 2, 2, 2, 2, 15))
    out = (buffers[0], buffers[1])
    fresh = lambda: (np.empty(buffers.shape[1:]), np.empty(buffers.shape[1:]))
    for planes in ((0,), (0, 1), (0, 2), (0, 3), (0, 1, 3), (0, 1, 2, 3)):
        got = hamilton(m.table, v, planes, out)
        assert np.shares_memory(got, buffers[0]) and not np.shares_memory(got, buffers[1])
        assert got.tobytes() == hamilton(m.table, v, planes, fresh()).tobytes()
        # a left-out plane adds signed zeros only, which change no nonzero sum
        listed = QMatrix(m.data * np.isin(np.arange(4), planes))
        assert np.count_nonzero(got) == got.size
        assert got.tobytes() == hamilton(listed.table, v, (0, 1, 2, 3), fresh()).tobytes()


def test_hamilton_matches_scalar_product_bit_for_bit():
    rng = np.random.default_rng(4)
    signed_zeros = [Quaternion(*rng.choice([0.0, -0.0, 1.0, -2.5], size=4)) for _ in range(20)]
    qs = list(UNIT_GROUP) + signed_zeros + [random_quaternion(rng) for _ in range(20)]
    arr = np.array([[q.w, q.x, q.y, q.z] for q in qs])
    want = np.array([[[(p * q).w, (p * q).x, (p * q).y, (p * q).z] for q in qs] for p in qs])
    # tobytes tells -0.0 from 0.0, which == does not
    out = np.empty((len(qs), 2, 2, 1, len(qs))), np.empty((len(qs), 2, 2, 1, len(qs)))
    got = hamilton(QMatrix(arr[:, None]).table, arr.T[:, None], (0, 1, 2, 3), out)
    got = got.transpose(0, 2, 3, 1)[:, 0]
    assert got.tobytes() == want.tobytes()


#: normal floats and the components where IEEE arithmetic has edges: signed zeros,
#: subnormals, values whose products overflow, infinities and NaN
_COMPONENTS = st.one_of(
    st.floats(-4.0, 4.0, allow_subnormal=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300,
                     math.inf, -math.inf, math.nan]),
)


def quaternion_arrays(*shape):
    """(*shape, 4) float arrays of `_COMPONENTS`, empty shapes included."""
    return arrays(float, (*shape, 4), elements=_COMPONENTS, fill=st.nothing())


@st.composite
def matrix_pairs(draw):
    rows, inner_dim, cols = draw(st.tuples(*[st.integers(0, 4)] * 3))
    return (QMatrix(draw(quaternion_arrays(rows, inner_dim))),
            QMatrix(draw(quaternion_arrays(inner_dim, cols))))


@st.composite
def vector_pairs(draw):
    dim = draw(st.integers(0, 16))
    return QVector(draw(quaternion_arrays(dim))), QVector(draw(quaternion_arrays(dim)))


@st.composite
def edited_unitaries(draw):
    """A signed permutation matrix of sizes 0-4 with a unit of {1, i, j, k} in each row, an
    exact unitary, with up to three components replaced by ones near UNITARY_TOL or drawn
    from `_COMPONENTS`: either verdict is common."""
    n = draw(st.integers(0, 4))
    data = np.zeros((n, n, 4))
    for r, c in enumerate(draw(st.permutations(range(n)))):
        data[r, c, draw(st.integers(0, 3))] = draw(st.sampled_from([1.0, -1.0]))
    if n:
        places = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 3))
        values = st.one_of(st.floats(-2e-10, 2e-10), _COMPONENTS)
        for place, value in draw(st.lists(st.tuples(places, values), max_size=3)):
            data[place] = value
    return QMatrix(data)


def quaternions(data: np.ndarray) -> list:
    """The nested lists of Quaternions a (..., 4) array holds."""
    if data.ndim > 2:
        return [quaternions(part) for part in data]
    return [Quaternion(*parts) for parts in data.tolist()]


def nan_blind_bytes(a: np.ndarray) -> bytes:
    """a's bytes with each NaN written as one quiet NaN.  Where two NaNs meet, CPython's
    float + gives the sign of either, by whether the interpreter has specialized the
    instruction yet, so a NaN's sign bit is not reproducible even in scalar code."""
    return np.where(np.isnan(a), math.nan, a).tobytes()


_ZERO_ROWS = np.zeros((2, 3, 4))
_MINUS_ZERO_W = np.zeros((3, 2, 4)) * [-1.0, 1.0, 1.0, 1.0]


# 0 * Quaternion(-0.0) has w = 0 * -0.0 - 0 * 0 - 0 * 0 - 0 * 0 = -0.0, and so has
# conj(0) * (-0.0, -0.0, -0.0, -0.0): each term of w is -0.0, and only the 0.0 + in
# front of the fold turns the sum into +0.0
@example((QMatrix(_ZERO_ROWS), QMatrix(_MINUS_ZERO_W)),
         (QVector(np.zeros((4, 4))), QVector(np.full((4, 4), -0.0))), diag(1, 1, 1))
@given(matrix_pairs(), vector_pairs(), edited_unitaries())
@settings(max_examples=150, deadline=None)
def test_matmul_and_inner_match_the_scalar_fold_bit_for_bit(pair, vectors, square):
    # the suite turns warnings into errors, so none of the three may warn on any input
    a, b = pair
    rows, columns = quaternions(a.data), quaternions(b.data.transpose(1, 0, 2))
    want = [[scalar_fold(map(Quaternion.__mul__, row, col)) for col in columns] for row in rows]
    want = np.reshape(want, (a.shape[0], b.shape[1], 4))
    assert nan_blind_bytes(matmul(a, b).data) == nan_blind_bytes(want)
    u, v = vectors
    want = scalar_fold(map(Quaternion.__mul__, map(conj, u.amps), v.amps))
    assert nan_blind_bytes(np.array(astuple(inner(u, v)))) == nan_blind_bytes(want)
    assert is_unitary(square) is reference_is_unitary(square)


def test_dagger_of_phase_gate():
    assert dagger(R_I) == diag(ONE, -I)
    assert dagger(R_J) == diag(ONE, -J)


def test_dagger_identity_fixed_point():
    assert dagger(diag(1, 1, 1)) == diag(1, 1, 1)


def test_dagger_involution():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = rand_matrix(rng, 3, 2)
        assert dagger(dagger(m)) == m


def test_dagger_antihomomorphism():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b = rand_matrix(rng), rand_matrix(rng)
        assert dagger(matmul(a, b)).approx_eq(matmul(dagger(b), dagger(a)), 1e-12)


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


def test_is_unitary_tolerance_edge():
    # M M^dagger = diag(1, 1 + d) and [[1 + e^2, e j], [-e j, 1]]: one entry off by about d or e
    for off, verdict in ((0.5e-10, True), (2e-10, False)):
        assert is_unitary(diag(1, math.sqrt(1.0 + off))) is verdict
        assert is_unitary(qmat([[1, J * off], [0, 1]])) is verdict


def test_is_unitary_accepts_a_deviation_of_exactly_its_tolerance():
    # M M^dagger = [[1 + e^2, e], [e, 1]], 1 + e^2 rounds to 1, and sqrt(e * e) is e again,
    # so e = 1e-10, UNITARY_TOL, sits on the bound
    assert is_unitary(qmat([[1, 1e-10], [0, 1]]))
    assert not is_unitary(qmat([[1, math.nextafter(1e-10, 1.0)], [0, 1]]))


def near_unitaries(rng, count):
    """Real, near-real and quaternionic matrices of sizes 1-4, each a unitary whose
    entries are moved by 1e-12 to 1e-9: about as far as UNITARY_TOL from either verdict."""
    for i in range(count):
        n = 1 + i % 4
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        data = np.zeros((n, n, 4))
        data[..., 0] = q
        if i % 3 == 2:  # quaternionic: unit phases on either side of the orthogonal matrix
            left, right = (diag(*[random_unit_quaternion(rng) for _ in range(n)]) for _ in range(2))
            data = matmul(matmul(left, QMatrix(data)), right).data.copy()
            data += rng.normal(size=data.shape) * 10.0 ** rng.uniform(-12, -9)
        else:
            data[..., 0] += rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-12, -9)
            if i % 3 == 1:  # near-real: imaginary parts of 1e-18 to 1e-15
                data[..., 1:] = rng.normal(size=(n, n, 3)) * 10.0 ** rng.uniform(-18, -15)
        yield QMatrix(data)


def fold_order_edge() -> QMatrix:
    """An 8x8 real matrix whose first row's norm lands on UNITARY_TOL's accepting side
    only when its squares are added left to right, 1 + b^2 + b^2 + ...; numpy's
    pairwise sum of the same row lands two ulps past it."""
    b = 3.7796480336418856e-06
    w = np.eye(8)
    w[0, 1:], w[1:, 0] = b, -b
    return qmat(w.tolist())


def test_is_unitary_matches_the_scalar_reference():
    rng = np.random.default_rng(6)
    nan, inf = float("nan"), float("inf")
    minus_zero = np.where(np.eye(2, dtype=bool)[..., None], [1.0, -0.0, -0.0, -0.0], -0.0)
    edges = [
        QMatrix(minus_zero),
        qmat([[-0.0, -1.0], [1.0, -0.0]]),
        diag(1, 1, 1),
        fold_order_edge(),
        *(qmat([[1, bad], [0, 1]])
          for bad in (nan, inf, Quaternion(0, nan), Quaternion(0, 0, inf))),
        qmat([[inf, 0], [0, 1]]),
        qmat([[1, Quaternion(1e-10, 1e-15)], [0, 1]]),
    ]
    # the suite turns warnings into errors, so is_unitary itself must warn nothing
    verdicts = [is_unitary(m) for m in edges]
    assert verdicts == [reference_is_unitary(m) for m in edges]
    assert verdicts == [True, True, True, True, False, False, False, False, False, False]
    counts = {True: 0, False: 0}
    for m in near_unitaries(rng, 1200):
        verdict = is_unitary(m)
        assert verdict is reference_is_unitary(m)
        counts[verdict] += 1
    assert min(counts.values()) >= 300


def test_a_real_unitarity_check_makes_no_hamilton_product(monkeypatch):
    # no unitarity check reaches the kernel, real or not; the gate step still does
    def refuse(*args):
        raise AssertionError("Hamilton kernel called")

    monkeypatch.setattr(qlinalg, "hamilton", refuse)
    monkeypatch.setattr(register, "hamilton", refuse)
    for m in (rotation(0.3), hadamard(), diag(1, 1, 1), phase_gate(J), diag(I, K)):
        assert is_unitary(m)
    complex_quantum_box()
    with pytest.raises(AssertionError, match="Hamilton kernel called"):
        apply_local(bell_state(K), 0, phase_gate(J))


def test_is_unitary_builds_no_matrix_product(monkeypatch):
    # the check folds m[r][k] * conj(m[c][k]) itself: no dagger, no matmul; and a matrix
    # with a non-finite entry is refused before any fold
    gates = [phase_gate(J), random_unitary(np.random.default_rng(3)), qmat([[1, I], [0, 1]])]
    products = count_calls(monkeypatch, qlinalg, "matmul")
    assert [is_unitary(m) for m in gates] == [True, True, False]
    assert products[0] == 0
    folds = count_calls(monkeypatch, qlinalg, "_fold")
    for bad in (float("nan"), float("inf"), Quaternion(0, 0, 0, -float("inf"))):
        assert not is_unitary(qmat([[1, bad], [0, 1]]))
    assert folds[0] == 0


def test_is_unitary_rejects_non_square():
    with pytest.raises(ValueError):
        is_unitary(qmat([[1, 0]]))


def test_left_action_phase_gate_examples():
    s = INV_SQRT2
    plus = QVector((Quaternion(s), Quaternion(s)))
    assert left_action(R_I, plus).approx_eq(QVector((Quaternion(s), I * s)), 0.0)
    assert left_action(diag(1, 1), plus) == plus
    # j * i = -k shows up when the second gate hits an i-phased amplitude
    assert left_action(R_J, QVector((Quaternion(s), I * s))).approx_eq(
        QVector((Quaternion(s), -K * s)), 0.0
    )


def test_inner_examples():
    s = INV_SQRT2
    v = QVector((Quaternion(0.5, 0.5), Quaternion(0, 0, 0.5, -0.5)))
    self_inner = inner(v, v)
    assert abs(self_inner.w - v.norm_sq()) <= 1e-15
    assert approx_eq(self_inner, Quaternion(v.norm_sq()), 1e-15)
    # the two order-dependent states are orthogonal
    minus_k = QVector((Quaternion(s), ZERO, ZERO, -K * s))
    plus_k = QVector((Quaternion(s), ZERO, ZERO, K * s))
    assert inner(minus_k, plus_k) == Quaternion()
    # distinct basis kets
    ket00, ket11 = QVector((ONE, ZERO, ZERO, ZERO)), QVector((ZERO, ZERO, ZERO, ONE))
    assert inner(ket00, ket11) == Quaternion()


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        inner(QVector((ONE,)), QVector((ONE, ZERO)))


def test_unitary_preserves_norm():
    rng = np.random.default_rng(2)
    for _ in range(100):
        u = random_unitary(rng)
        v = random_state(rng, 2)
        assert abs(math.sqrt(left_action(u, v).norm_sq()) - math.sqrt(v.norm_sq())) <= 1e-10


def test_left_action_composes():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = random_unitary(rng), random_unitary(rng)
        v = random_state(rng, 2)
        assert left_action(a, left_action(b, v)).approx_eq(left_action(matmul(a, b), v), 1e-12)


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
    for nan in (float("nan"), Quaternion(0, float("nan"))):
        with pytest.raises(ValueError, match="phase must have unit norm"):
            phase_gate(nan)


def test_phase_gate_names_the_relative_phase_and_its_norm():
    with pytest.raises(ValueError) as err:
        phase_gate(Quaternion(0, 2))
    assert str(err.value) == "relative phase must have unit norm, got |q| = 2.0"


def test_phase_gate_unit_tolerance_edge():
    # |q| within 1e-12 of 1 is a unit phase, and 2e-12 away is not, on either side
    for unit in (ONE, K):
        for off in (9e-13, -9e-13):
            q = unit * (1.0 + off)
            assert phase_gate(q) == diag(ONE, q)
        for off in (2e-12, -2e-12):
            with pytest.raises(ValueError, match="phase must have unit norm"):
                phase_gate(unit * (1.0 + off))


def test_rotation_is_real_and_unitary():
    m = rotation(0.7)
    assert m.planes == (0,)
    assert is_unitary(m)
    assert rotation(0.0) == diag(1, 1)


def test_real_gates_are_the_bytes_qmat_builds():
    # each entry's imaginary parts are +0.0, and a negated zero sine stays -0.0
    for theta in (0.0, -0.0, 0.7, math.pi / 8, -math.pi / 8, math.pi, 2.0 * math.pi):
        c, s = math.cos(theta), math.sin(theta)
        assert rotation(theta).data.tobytes() == qmat([[c, s], [-s, c]]).data.tobytes()
    s = INV_SQRT2
    assert hadamard().data.tobytes() == qmat([[s, s], [s, -s]]).data.tobytes()


def test_phase_gates_and_diagonals_are_the_bytes_qmat_builds():
    rng = np.random.default_rng(13)
    phases = [I, J, K, Quaternion(-0.0, -0.0, -0.0, -1.0)]
    for _ in range(20):
        # a random unit quaternion with some parts -0.0, which the array must keep
        zeros = rng.integers(0, 2, 4).astype(bool)
        zeros[rng.integers(4)] = False
        parts = np.where(zeros, -0.0, rng.normal(size=4))
        phases.append(Quaternion(*(parts / np.linalg.norm(parts)).tolist()))
    for q in phases:
        want = qmat([[1, 0], [0, q]]).data.tobytes()
        assert phase_gate(q).data.tobytes() == want
        assert diag(1, q).data.tobytes() == want
    assert diag(-0.0, ONE).data.tobytes() == qmat([[-0.0, 0], [0, 1]]).data.tobytes()
    assert diag(1, 1, 1).data.tobytes() == qmat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).data.tobytes()


def test_rotation_refuses_a_non_finite_angle():
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        # a string, None or a complex number too, not with math.isfinite's TypeError
        for theta in (float("nan"), float("inf"), float("-inf"), "a", None, 1j):
            with pytest.raises(ValueError) as err:
                rotation(theta)
            assert str(err.value) == f"rotation angle must be finite, got {theta!r}"


def test_rotation_refuses_a_bool_angle():
    # a bool is an int to Python, and True would be a rotation by 1 radian
    for flag in (True, False):
        with pytest.raises(ValueError) as err:
            rotation(flag)
        assert str(err.value) == f"rotation angle must be finite, got {flag!r}"
    for theta in (np.int64(1), np.float64(1.0), np.float32(1.0)):
        assert rotation(theta) == rotation(1.0)


@pytest.mark.parametrize("make, shape", [
    (QVector, (4,)), (QVector, (2, 3)), (QMatrix, (2, 2)), (QMatrix, (2, 2, 3)),
])
def test_quaternion_arrays_refuse_a_wrong_shape(make, shape):
    with pytest.raises(ValueError) as err:
        make(np.zeros(shape))
    assert str(err.value) == f"{make.__name__} data needs {make.NDIM} axes, the last of 4"


def test_quaternion_types_give_way_to_other_operands():
    # __eq__ and __mul__ return NotImplemented, so Python decides: unequal, and no product
    assert not QVector(np.zeros((2, 4))) == "x"
    with pytest.raises(TypeError):
        Quaternion(1.0) * "x"


@pytest.mark.parametrize("make, data", [
    (QVector, [1.0, 0.0]), (QVector, (ONE, 1.0)), (QMatrix, ((1,),)), (QMatrix, [[ONE]]),
])
def test_quaternion_arrays_refuse_items_that_are_not_quaternions(make, data):
    # floats or nested rows, each without the .w a Quaternion has
    with pytest.raises(ValueError) as err:
        make(data)
    assert str(err.value) == f"{make.__name__} data must be an array or a sequence of Quaternions"


def test_subfield_detection_on_matrices():
    assert hadamard().planes == (0,)
    assert phase_gate(I).planes == (0, 1)


def test_vector_norm_and_normalization():
    v = QVector((Quaternion(0.6), Quaternion(0, 0.8)))
    assert abs(math.sqrt(v.norm_sq()) - 1.0) <= 1e-15
    assert v.is_normalized()
    assert not QVector((ONE, ONE)).is_normalized()
