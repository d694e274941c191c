import math
from dataclasses import astuple
from types import SimpleNamespace

import numpy as np
import pytest

from quatbox import qlinalg, register
from quatbox.qlinalg import (
    INV_SQRT2, QVector, diag, hadamard, hamilton, inner, phase_gate, qmat, rotation,
)
from quatbox.quaternion import I, J, K, ONE, ZERO, Quaternion
from quatbox.register import (
    Register,
    ScheduledOp,
    apply_local,
    bell_state,
    measure_product_basis,
    run_schedule,
    state_dump,
)

from helpers import count_calls, random_complex_unitary, random_register, random_unitary

S = INV_SQRT2
#: a two-party readout's labels, party 0 first
LABELS = ["00", "01", "10", "11"]
R_I = phase_gate(I)
R_J = phase_gate(J)


def kron_probs(real_amps, mats):
    """Oracle: probabilities via numpy for registers with REAL amplitudes and
    real basis changes, using a plain kron-matrix product."""
    op = np.kron(np.array(mats[0], dtype=float), np.array(mats[1], dtype=float))
    out = op @ np.asarray(real_amps, dtype=float)
    return out**2


def test_bell_state_phases():
    phi_plus = bell_state(1.0)
    assert phi_plus.state.amps[0b00] == Quaternion(S)
    assert phi_plus.state.amps[0b11] == Quaternion(S)
    assert bell_state(-1.0).state.amps[0b11] == Quaternion(-S)
    shared = bell_state(K)
    assert shared.state.amps[0b11] == K * S
    assert shared.state.amps[0b01] == Quaternion()


def test_bell_state_rejects_non_unit_phase():
    with pytest.raises(ValueError):
        bell_state(Quaternion(0, 0, 0, 2))
    for nan in (float("nan"), Quaternion(0, 0, 0, float("nan"))):
        with pytest.raises(ValueError, match="relative phase must have unit norm"):
            bell_state(nan)


def test_bell_state_is_the_bytes_of_its_quaternion_amplitudes():
    # written into an array, q * INV_SQRT2 keeps each part's bytes, a -0.0 included
    for q in (ONE, -ONE, K, Quaternion(-0.0, -0.0, -0.0, -1.0), Quaternion(0.6, -0.0, 0.8)):
        want = QVector((Quaternion(S), ZERO, ZERO, q * S)).data.tobytes()
        assert bell_state(q).state.data.tobytes() == want


def test_bell_state_unit_tolerance_edge():
    # |q| within 1e-12 of 1 is a unit phase, and 2e-12 away is not, on either side
    for unit in (ONE, K):
        for off in (9e-13, -9e-13):
            q = unit * (1.0 + off)
            assert bell_state(q).state.amps[0b11] == q * S
        for off in (2e-12, -2e-12):
            with pytest.raises(ValueError, match="relative phase must have unit norm"):
                bell_state(unit * (1.0 + off))


def test_apply_local_reproduces_order_dependent_states():
    start = bell_state(1.0)
    step1 = apply_local(start, 0, R_I)
    assert step1.state.amps[0b11] == I * S
    both = apply_local(step1, 1, R_J)
    # j * i = -k
    assert both.state.amps[0b11] == -K * S
    assert both.state.amps[0b00] == Quaternion(S)
    reverse = apply_local(apply_local(start, 1, R_J), 0, R_I)
    # i * j = +k
    assert reverse.state.amps[0b11] == K * S
    assert inner(both.state, reverse.state) == Quaternion()


def test_apply_identity_is_noop():
    reg = bell_state(K)
    assert apply_local(reg, 0, diag(1, 1)).state == reg.state


def scalar_apply_local(reg, party, gate):
    """Reference: the per-amplitude fold new[r] = gate[r][0] * a0 + gate[r][1] * a1,
    each product by `Quaternion.__mul__`, the two added component by component."""
    g = [[Quaternion(*gate.data[r, c].tolist()) for c in range(2)] for r in range(2)]
    old = reg.state.amps
    new = reg.state.data.copy()
    mask = 1 << (reg.n_parties - 1 - party)
    for idx in range(len(old)):
        if not idx & mask:
            a0, a1 = old[idx], old[idx | mask]
            new[idx] = np.add(astuple(g[0][0] * a0), astuple(g[0][1] * a1))
            new[idx | mask] = np.add(astuple(g[1][0] * a0), astuple(g[1][1] * a1))
    return new


def signed_zero_register(rng, n):
    """Normalized register whose components are mostly +0.0 and -0.0."""
    amps = rng.choice([0.0, -0.0, -0.0, 1.0, -1.0], size=(2**n, 4))
    amps[0, 0] = 1.0
    return Register(n, QVector(amps / np.sqrt((amps * amps).sum())))


@pytest.mark.parametrize("n", [*range(1, 7), 10, 12])
def test_apply_local_matches_scalar_fold(n):
    rng = np.random.default_rng(30 + n)
    gates = [
        random_unitary(rng),
        random_complex_unitary(rng),
        rotation(rng.uniform(0.0, 2.0 * math.pi)),
        phase_gate(-K),
        hadamard(),
    ]
    # past n = 6, the first, middle and last party: 2**party = 1 and rest = 1 in the reshape
    parties = range(n) if n <= 6 else (0, n // 2, n - 1)
    for reg in (random_register(rng, n), signed_zero_register(rng, n)):
        for party in parties:
            for gate in gates:
                got = apply_local(reg, party, gate).state.data
                # tobytes tells -0.0 from 0.0, which == does not
                assert got.tobytes() == scalar_apply_local(reg, party, gate).tobytes()


@pytest.mark.parametrize("n", [*range(1, 7), 10, 12])
def test_schedule_matches_scalar_fold_gate_by_gate(n):
    # from the second gate on, apply_local reads the component-major storage it wrote
    rng = np.random.default_rng(40 + n)
    kinds = (random_unitary, random_complex_unitary, lambda rng: rotation(rng.uniform(0.0, 6.0)))
    for start in (random_register(rng, n), signed_zero_register(rng, n)):
        ops = [ScheduledOp(t, int(rng.integers(n)), kinds[t % 3](rng)) for t in range(8)]
        reg = start
        for k, op in enumerate(ops):
            want = scalar_apply_local(reg, op.party, op.gate)
            reg = run_schedule(reg, ops[k:k + 1])
            assert reg.state.data.tobytes() == want.tobytes()
        assert run_schedule(start, ops[::-1]).state.data.tobytes() == reg.state.data.tobytes()
        # one non-real basis change is allowed; the rest are real rotations
        bases = [random_unitary(rng)] + [rotation(rng.uniform(0.0, 6.0)) for _ in range(n - 1)]
        probs = measure_product_basis(reg, bases)
        for party, basis in enumerate(bases):
            reg = Register(n, QVector(scalar_apply_local(reg, party, basis)))
        want = [amp.norm_sq() for amp in reg.state.amps]
        assert np.array(list(probs.values())).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("n", [*range(1, 7), 10, 12])
def test_readout_matches_norm_sq_after_apply_local_bit_for_bit(n):
    # real basis changes skip the Hamilton kernel's signed-zero terms, which may flip
    # the sign of a zero amplitude but never a probability's bytes
    rng = np.random.default_rng(60 + n)
    real = [rotation(0.0), hadamard(), rotation(rng.uniform(0.0, 2.0 * math.pi))]
    # its 1e-15 term is not a zero, so the change is not real: the gate step adds its i plane
    near_real = qmat([[S, Quaternion(S, 1e-15)], [S, -S]])
    bases = [real[party % 3] for party in range(n)]
    cases = [bases, [near_real] + bases[1:]]
    # the one non-real change at every party up to 6, past that the first, middle and last
    for party in range(n) if n <= 6 else sorted({0, n // 2, n - 1}):
        cases.append(bases[:party] + [random_unitary(rng)] + bases[party + 1:])
    for start in (random_register(rng, n), signed_zero_register(rng, n)):
        # a caller's (dim, 4) C-order state, and the (4, dim) storage apply_local returns
        evolved = apply_local(start, n - 1, random_unitary(rng))
        assert start.state.data.flags.c_contiguous and evolved.state.data.T.flags.c_contiguous
        for reg in (start, evolved):
            for case in cases:
                out = reg
                for party, basis in enumerate(case):
                    out = apply_local(out, party, basis)
                probs = np.array(list(measure_product_basis(reg, case).values()))
                assert probs.tobytes() == qlinalg.norm_sq(out.state.data).tobytes()
    if n > 1:  # and two such changes do not commute
        with pytest.raises(ValueError, match="do not commute"):
            measure_product_basis(start, [near_real, near_real] + bases[2:])


def spy_planes(monkeypatch) -> list[tuple[int, ...]]:
    """Record the planes of every Hamilton kernel call a gate makes."""
    calls = []
    kernel = register.hamilton

    def spy(table, v, planes=(0, 1, 2, 3), out=None):
        calls.append(tuple(planes))
        return kernel(table, v, planes, out)

    monkeypatch.setattr(register, "hamilton", spy)
    return calls


def pair_register(rng, n, party, pair) -> Register:
    """A random register whose amplitudes at one index pair along `party`'s bit are
    replaced by `pair`, with no exact zero elsewhere."""
    amps = np.array([astuple(q) for q in random_register(rng, n).state.amps])
    mask = 1 << (n - 1 - party)
    amps[0], amps[mask] = pair
    return Register(n, QVector(amps / math.sqrt(float((amps * amps).sum()))))


def test_guard_keeps_cancellation_to_an_exact_zero_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(70)
    a = rng.normal(size=4)
    reg = pair_register(rng, 3, 1, (a, a))  # a0 == a1: the Hadamard's row 1 cancels to +0
    calls = spy_planes(monkeypatch)
    got = apply_local(reg, 1, hadamard()).state.data
    assert np.count_nonzero(got) < got.size
    assert got.tobytes() == scalar_apply_local(reg, 1, hadamard()).tobytes()
    # the real first pass calls no kernel; the zero sends the call back to all four planes
    assert calls == [(0, 1, 2, 3)]


def test_guard_judges_a_schedule_by_its_final_state(monkeypatch):
    rng = np.random.default_rng(76)
    a = rng.normal(size=4)
    reg = pair_register(rng, 3, 1, (a, a))  # dense, but the Hadamard on party 1 cancels to +0
    mix_j = qmat([[S, J * S], [J * S, S]])
    cases = [
        # a later mixing gate on party 1 fills the zero: one reduced run, no rerun
        ([(1, hadamard()), (1, mix_j), (0, hadamard()), (2, R_I)], [(0, 2), (0, 1)]),
        # the zero survives to the end: the whole call runs again with all four planes
        ([(1, hadamard()), (0, R_I), (2, R_J)], [(0, 1), (0, 2)] + [(0, 1, 2, 3)] * 3),
    ]
    calls = spy_planes(monkeypatch)
    zero_counts = count_calls(monkeypatch, np, "count_nonzero")
    for steps, planes in cases:
        ops = [ScheduledOp(t, *step) for t, step in enumerate(steps)]
        want = reg
        for op in ops:
            want = Register(3, QVector(scalar_apply_local(want, op.party, op.gate)))
            if op.time == 0:
                assert not want.state.data.all()
        assert want.state.data.all() == (len(planes) == 2)  # a zero at the end: a rerun
        calls.clear()
        zero_counts[0] = 0
        got = run_schedule(reg, ops).state.data
        assert got.tobytes() == want.state.data.tobytes()
        assert calls == planes
        assert zero_counts == [2]  # the input once and the first run's result once


def test_guard_on_a_gate_with_negative_zero_imaginary_parts():
    rng = np.random.default_rng(71)
    data = np.where(np.arange(4) == 0, hadamard().data, -0.0)
    gate = qlinalg.QMatrix(data)
    assert gate.planes == (0,)
    for reg in (random_register(rng, 3), signed_zero_register(rng, 3)):
        for party in range(3):
            got = apply_local(reg, party, gate).state.data
            assert got.tobytes() == scalar_apply_local(reg, party, gate).tobytes()


def test_guard_on_products_that_underflow(monkeypatch):
    rng = np.random.default_rng(72)
    tiny = 5e-324  # the least subnormal double: times a factor of at most 0.5, a signed zero
    # a 1e-300 imaginary part on tiny amplitudes: its products underflow to signed zeros
    near_one = phase_gate(Quaternion(1.0, 1e-300))
    reg = pair_register(rng, 2, 0, rng.choice([-1e-30, 1e-30, tiny], size=(2, 4)))
    got = apply_local(reg, 0, near_one).state.data
    assert got.tobytes() == scalar_apply_local(reg, 0, near_one).tobytes()
    # entries of exactly 0.5 halve the least subnormal to a tie, which rounds to a signed
    # zero: every term of the pair's outputs is a zero, and the left-out ones set their signs
    p = Quaternion(0.5, 0.5)
    gate = qmat([[p, p], [p, -p]])
    assert gate.planes == (0, 1)
    signs = np.array([[1.0, -1.0, -1.0, -1.0], [-1.0, -1.0, -1.0, -1.0]])
    reg = pair_register(rng, 2, 0, signs * tiny)
    calls = spy_planes(monkeypatch)
    got = apply_local(reg, 0, gate).state.data
    assert got.tobytes() == scalar_apply_local(reg, 0, gate).tobytes()
    assert calls == [(0, 1), (0, 1, 2, 3)]
    # without the second pass, the reduced sum's signs differ from the scalar fold's
    v = reg.state.data.T.reshape(4, 2, 1, 2)
    buffers = lambda: (np.empty((2, 2, 2, 2, 2)), np.empty((2, 2, 2, 2, 2)))
    reduced = hamilton(gate.table, v, gate.planes, buffers())
    full = hamilton(gate.table, v, (0, 1, 2, 3), buffers())
    assert (reduced[:, :, 0] + reduced[:, :, 1]).tobytes() != (full[:, :, 0] + full[:, :, 1]).tobytes()


def test_a_gate_adds_only_its_planes_where_no_zero_can_tell(monkeypatch):
    rng = np.random.default_rng(73)
    dense = random_register(rng, 4)
    cases = [
        # the paper's Bell states hold zeros, so their gates go straight to four planes,
        # after one zero count on the input
        (bell_state(K), [(0, R_I), (1, R_J)], [(0, 1, 2, 3), (0, 1, 2, 3)], 1),
        (dense, [(1, R_J)], [(0, 2)], 2),
        # the input and the result are counted once each, whatever the gates; a gate
        # whose only plane is w takes real arithmetic and no kernel call
        (dense, [(0, random_unitary(rng)), (1, R_I), (2, hadamard()), (3, R_J)],
         [(0, 1, 2, 3), (0, 1), (0, 2)], 2),
    ]
    # each gate's unitarity is checked here, once, before anything is counted
    cases = [(reg, [ScheduledOp(t, *step) for t, step in enumerate(steps)], planes, counts)
             for reg, steps, planes, counts in cases]
    calls = spy_planes(monkeypatch)
    zero_counts = count_calls(monkeypatch, np, "count_nonzero")
    for reg, ops, planes, counts in cases:
        calls.clear()
        zero_counts[0] = 0
        run_schedule(reg, ops)
        assert calls == planes
        assert zero_counts == [counts]


@pytest.mark.parametrize("party", [True, False, 0.0, 1.0, 0.5, np.float64(1.0), np.bool_(True), "1", None])
def test_party_index_must_be_an_integer(monkeypatch, party):
    kernel_calls = count_calls(monkeypatch, register, "hamilton")
    reg = bell_state(K)
    refusals = [lambda: ScheduledOp(0.0, party, hadamard()), lambda: apply_local(reg, party, R_I)]
    for refused in refusals:
        with pytest.raises(ValueError, match="party index must be an integer") as err:
            refused()
        assert "\n" not in str(err.value)
    assert kernel_calls == [0]


def test_gate_path_refuses_bad_input_where_it_enters(monkeypatch):
    kernel_calls = count_calls(monkeypatch, register, "hamilton")
    reg = bell_state(K)
    one_party = QVector(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]))
    unchecked = SimpleNamespace(time=1.0, party=0, gate=diag(1, 2))
    refusals = [
        (lambda: ScheduledOp(1.0, 0, np.eye(2)), "local gate must be a QMatrix, not ndarray"),
        (lambda: apply_local(reg, 0, np.eye(2)), "local gate must be a QMatrix"),
        (lambda: measure_product_basis(reg, [hadamard(), np.eye(2)]), "must be a QMatrix"),
        # every basis change is checked before the first pass, a non-real one included
        (lambda: measure_product_basis(reg, [R_I, diag(1, 2)]), "local gate is not unitary"),
        (lambda: ScheduledOp("1", 0, R_I), "time tag must be a finite real number, got '1'"),
        (lambda: ScheduledOp(1j, 0, R_I), "time tag must be a finite real number"),
        (lambda: Register(1.0, one_party), "n_parties must be an integer of at least 1"),
        (lambda: Register(True, one_party), "n_parties must be an integer of at least 1"),
        (lambda: apply_local(reg, -1, R_I), "party index must be non-negative"),
        # a schedule hands its ops on unchecked, so it takes nothing but ScheduledOps
        (lambda: run_schedule(reg, [unchecked]), "a schedule must hold ScheduledOps only"),
        (lambda: run_schedule(reg, [(0, R_I)]), "a schedule must hold ScheduledOps only"),
        # and a schedule that is not iterable, a lone op included, gets the same error
        (lambda: run_schedule(reg, None), "a schedule must hold ScheduledOps only"),
        (lambda: run_schedule(reg, ScheduledOp(1.0, 0, R_I)), "must hold ScheduledOps only"),
    ]
    for refused, message in refusals:
        with np.errstate(all="raise"), pytest.raises(ValueError, match=message) as err:
            refused()
        assert "\n" not in str(err.value)
    assert kernel_calls == [0]


def test_numpy_integer_parties_act_as_ints():
    rng = np.random.default_rng(74)
    reg, gate = random_register(rng, 9), random_unitary(rng)
    want = apply_local(reg, 8, gate).state.data.tobytes()
    # 1 << np.uint8(8) would overflow in uint8 arithmetic
    for party in (np.int64(8), np.int32(8), np.uint8(8)):
        assert apply_local(reg, party, gate).state.data.tobytes() == want
        assert run_schedule(reg, [ScheduledOp(1.0, party, gate)]).state.data.tobytes() == want


def test_a_schedule_is_checked_before_any_gate_runs(monkeypatch):
    kernel_calls = count_calls(monkeypatch, register, "hamilton")
    ops = [ScheduledOp(1, 0, R_I), ScheduledOp(2, 2, R_J)]
    with pytest.raises(ValueError, match="party 2 out of range for 2 parties"):
        run_schedule(bell_state(K), ops)
    assert kernel_calls == [0]


def test_a_schedule_result_owns_only_its_state():
    rng = np.random.default_rng(75)
    n = 5
    start = random_register(rng, n)
    before = start.state.data.tobytes()
    ops = [ScheduledOp(t, t % n, (random_unitary, random_complex_unitary)[t % 2](rng))
           for t in range(6)]
    first = run_schedule(start, ops)
    kept = first.state.data.tobytes()
    second = run_schedule(first, ops)
    third = apply_local(second, 1, hadamard())
    assert start.state.data.tobytes() == before and first.state.data.tobytes() == kept
    results = [start, first, second, third]
    for k, result in enumerate(results[1:], 1):
        # the (4, dim) state alone: no work copy or kernel buffer stays alive with it
        assert result.state.data.base.nbytes == 32 * 2**n
        for earlier in results[:k]:
            assert not np.shares_memory(result.state.data, earlier.state.data)


def test_readout_checks_real_basis_changes_as_apply_local_does():
    reg = bell_state(K)
    with pytest.raises(ValueError, match="local gate is not unitary"):
        measure_product_basis(reg, [hadamard(), diag(1, 2)])
    with pytest.raises(ValueError, match="local gates must be 2x2"):
        measure_product_basis(reg, [diag(1, 1, 1), hadamard()])


def test_gate_unitarity_is_computed_once(monkeypatch):
    calls = []
    check = qlinalg.is_unitary
    monkeypatch.setattr(qlinalg, "is_unitary", lambda m, *args: calls.append(m) or check(m, *args))
    gate = phase_gate(J)
    reg = bell_state(1.0)
    for k in range(6):
        reg = apply_local(reg, k % 2, gate)
    run_schedule(reg, [ScheduledOp(t, t % 2, gate) for t in range(6)])
    assert calls == [gate]


def test_evolved_register_norm_is_not_rechecked(monkeypatch):
    rng = np.random.default_rng(31)
    reg = random_register(rng, 6)
    ops = [ScheduledOp(t, int(rng.integers(6)), random_unitary(rng)) for t in range(8)]
    calls = []
    for name in ("norm_sq", "is_normalized"):
        check = getattr(QVector, name)
        monkeypatch.setattr(
            QVector, name, lambda v, *args, check=check: calls.append(v) or check(v, *args)
        )
    final = run_schedule(reg, ops)
    probs = measure_product_basis(final, [hadamard()] * 6)
    assert calls == []
    assert abs(math.fsum(probs.values()) - 1.0) <= 1e-12


def test_apply_local_validates_inputs():
    from quatbox.qlinalg import diag

    reg = bell_state(1.0)
    with pytest.raises(ValueError):
        apply_local(reg, 2, R_I)
    with pytest.raises(ValueError):
        apply_local(reg, 0, diag(1, 1, 1, 1))
    with pytest.raises(ValueError):
        apply_local(reg, 0, diag(1, 2))


def test_run_schedule_protocol_cases():
    shared = bell_state(K)
    # Alice (party 0) acts first: relative phase (j*i)*k = +1
    to_plus = run_schedule(shared, [ScheduledOp(1, 0, R_I), ScheduledOp(4, 1, R_J)])
    assert to_plus.state.approx_eq(bell_state(1.0).state, 0.0)
    # Bob acts first: relative phase (i*j)*k = -1
    to_minus = run_schedule(shared, [ScheduledOp(2, 1, R_J), ScheduledOp(3, 0, R_I)])
    assert to_minus.state.approx_eq(bell_state(-1.0).state, 0.0)


def test_run_schedule_sorts_by_time():
    shared = bell_state(K)
    ops = [ScheduledOp(4, 1, R_J), ScheduledOp(1, 0, R_I)]  # listed out of order
    assert run_schedule(shared, ops).state.approx_eq(bell_state(1.0).state, 0.0)


def test_empty_schedule_is_noop():
    reg = bell_state(K)
    assert run_schedule(reg, []).state == reg.state


def test_duplicate_time_tags_rejected():
    with pytest.raises(ValueError):
        run_schedule(bell_state(K), [ScheduledOp(1, 0, R_I), ScheduledOp(1, 1, R_J)])


@pytest.mark.parametrize(
    "tags", [(float("nan"), float("nan")), (1.0, math.inf), (-math.inf, 1.0)],
    ids=["two-nans", "inf", "minus-inf"],
)
def test_non_finite_time_tags_rejected(tags):
    # two NaN tags are unordered, so the list order alone would pick the result
    for first, second in (tags, tags[::-1]):
        with pytest.raises(ValueError, match="finite"):
            run_schedule(bell_state(K), [ScheduledOp(first, 0, R_I), ScheduledOp(second, 1, R_J)])


def test_scheduled_op_refuses_a_bool_time_tag():
    # a bool is an int to Python, but True is no time; numpy numbers are still tags
    for flag in (True, False):
        with pytest.raises(ValueError) as err:
            ScheduledOp(flag, 0, hadamard())
        assert str(err.value) == f"time tag must be a finite real number, got {flag!r}"
    for tag in (np.int64(2), np.float64(0.5), np.float32(1.5)):
        assert ScheduledOp(tag, 0, hadamard()).time == tag


def test_scheduled_op_validates_gate():
    from quatbox.qlinalg import diag

    with pytest.raises(ValueError):
        ScheduledOp(1, 0, diag(1, 2))
    with pytest.raises(ValueError):
        ScheduledOp(1, -1, R_I)
    with pytest.raises(ValueError):
        ScheduledOp(1, 0, diag(1, 1, 1, 1))


def test_complex_gates_commute_across_parties():
    rng = np.random.default_rng(10)
    for _ in range(50):
        reg = random_register(rng, 2)
        a, b = random_complex_unitary(rng), random_complex_unitary(rng)
        one = run_schedule(reg, [ScheduledOp(1, 0, a), ScheduledOp(2, 1, b)])
        two = run_schedule(reg, [ScheduledOp(1, 1, b), ScheduledOp(2, 0, a)])
        assert one.state.approx_eq(two.state, 1e-12)


def test_quaternionic_gates_do_not_commute_across_parties():
    reg = bell_state(1.0)
    one = run_schedule(reg, [ScheduledOp(1, 0, R_I), ScheduledOp(2, 1, R_J)])
    two = run_schedule(reg, [ScheduledOp(1, 1, R_J), ScheduledOp(2, 0, R_I)])
    assert inner(one.state, two.state).norm() <= 1e-15  # orthogonal, not equal


def test_normalization_preserved_along_schedules():
    rng = np.random.default_rng(11)
    for _ in range(20):
        reg = random_register(rng, 3)
        ops = [
            ScheduledOp(t, int(rng.integers(3)), random_unitary(rng)) for t in range(5)
        ]
        out = run_schedule(reg, ops)
        assert abs(out.state.norm_sq() - 1.0) <= 1e-10


def test_measure_computational_basis():
    probs = measure_product_basis(bell_state(K), [diag(1, 1), diag(1, 1)])
    assert abs(probs["00"] - 0.5) <= 1e-12
    assert abs(probs["11"] - 0.5) <= 1e-12
    assert probs["01"] == probs["10"] == 0.0


def test_measure_plus_minus_correlations():
    h = hadamard()
    agree = measure_product_basis(bell_state(1.0), [h, h])
    assert abs(agree["00"] - 0.5) <= 1e-12 and abs(agree["11"] - 0.5) <= 1e-12
    assert agree["01"] <= 1e-15 and agree["10"] <= 1e-15
    differ = measure_product_basis(bell_state(-1.0), [h, h])
    assert abs(differ["01"] - 0.5) <= 1e-12 and abs(differ["10"] - 0.5) <= 1e-12
    assert differ["00"] <= 1e-15 and differ["11"] <= 1e-15


def test_measure_matches_numpy_kron_oracle():
    # real amplitudes + real basis changes: an independent numpy path agrees
    rng = np.random.default_rng(12)
    for _ in range(20):
        raw = rng.normal(size=4)
        raw /= np.linalg.norm(raw)
        reg = Register(2, QVector(raw[:, None] * [1.0, 0.0, 0.0, 0.0]))
        theta0, theta1 = rng.uniform(0, 2 * math.pi, size=2)
        mats = [rotation(theta0), rotation(theta1)]
        got = measure_product_basis(reg, mats)
        mat_lists = [
            [[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]]
            for t in (theta0, theta1)
        ]
        expected = kron_probs(raw, mat_lists)
        for idx, label in enumerate(LABELS):
            assert abs(got[label] - expected[idx]) <= 1e-12


def test_measure_probabilities_sum_to_one():
    rng = np.random.default_rng(13)
    for _ in range(20):
        reg = random_register(rng, 2)
        probs = measure_product_basis(reg, [hadamard(), hadamard()])
        assert all(p >= 0.0 for p in probs.values())
        assert abs(math.fsum(probs.values()) - 1.0) <= 1e-10


def test_measure_rejects_two_nonreal_basis_changes():
    with pytest.raises(ValueError):
        measure_product_basis(bell_state(K), [R_I, R_J])


def test_measure_subfield_tolerance_edge():
    # realness is exact, as the gate step reads it: imaginary parts of +0.0 or -0.0 are
    # real, so two such gates commute, and the smallest subnormal in any plane is not
    reg = bell_state(K)
    for zero in (0.0, -0.0):
        gate = phase_gate(Quaternion(1.0, zero, zero, zero))
        assert list(measure_product_basis(reg, [gate, gate])) == LABELS
    tiny = math.nextafter(0.0, 1.0)
    for plane in (1, 2, 3):
        parts = [1.0, 0.0, 0.0, 0.0]
        parts[plane] = tiny
        gate = phase_gate(Quaternion(*parts))
        with pytest.raises(ValueError, match="do not commute"):
            measure_product_basis(reg, [gate, gate])


def test_measure_allows_single_nonreal_basis_change():
    reg = bell_state(K)
    got = measure_product_basis(reg, [R_I, diag(1, 1)])
    direct = apply_local(reg, 0, R_I)
    for label, amp in zip(LABELS, direct.state.amps):
        assert abs(got[label] - amp.norm_sq()) <= 1e-15


def test_measure_requires_one_basis_change_per_party(monkeypatch):
    # a lone gate, an iterator and None have no length: the same one-line error, not
    # len()'s TypeError, before the gate step builds an array
    steps = count_calls(monkeypatch, register, "_run")
    for changes in ([hadamard()], hadamard(), iter([hadamard()] * 2), None):
        with pytest.raises(ValueError) as err:
            measure_product_basis(bell_state(K), changes)
        assert str(err.value) == "need exactly one basis change per party"
    assert steps == [0]


def test_register_validation():
    with pytest.raises(ValueError):
        Register(1, QVector((ONE, ZERO, ZERO, ZERO)))  # wrong dimension
    with pytest.raises(ValueError):
        Register(2, QVector((ONE, ONE, ZERO, ZERO)))  # not normalized
    with pytest.raises(ValueError):
        Register(0, QVector((ONE,)))


def test_register_refuses_a_state_that_is_not_a_qvector():
    # before its other checks: even a bad party count is not reached
    for n, state in ((2, np.zeros((4, 4))), (2, [ONE, ZERO, ZERO, ZERO]), (0, None)):
        with pytest.raises(ValueError) as err:
            Register(n, state)
        assert str(err.value) == f"state must be a QVector, not {type(state).__name__}"


def test_register_refuses_a_component_outside_the_unit_interval():
    # before any square, so no overflow warning, even under a raising errstate
    with np.errstate(all="raise"):
        for big in (1e200, -1e200, float("inf"), 1.0 + 2**-52):
            amps = np.array([[big, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
            with pytest.raises(ValueError) as err:
                Register(1, QVector(amps))
            message = f"state is not normalized: a component has magnitude {abs(big)!r}"
            assert str(err.value) == message
        for unit in (1.0, -1.0):
            Register(1, QVector(np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, unit, 0.0]])))
    # NaN is not outside the interval, and is refused by the norm check as before
    with pytest.raises(ValueError, match=r"\|psi\|\^2 = nan"):
        Register(1, QVector(np.array([[float("nan"), 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])))
    # an evolved register, a unitary image of a checked one, is not checked again
    assert Register._evolved(1, QVector(np.full((2, 4), 2.0))).state.dim == 2


def test_readout_and_dump_labels_list_indices_in_binary():
    for n in range(1, 13):
        amps = np.zeros((2**n, 4))
        amps[0, 0] = 1.0
        reg = Register(n, QVector(amps))
        want = [format(i, f"0{n}b") for i in range(2**n)]
        assert state_dump(reg)["labels"] == want
        assert list(measure_product_basis(reg, [hadamard()] * n)) == want


def test_dump_labels_are_a_new_list_on_each_call():
    reg = bell_state(K)
    labels = state_dump(reg)["labels"]
    assert state_dump(reg)["labels"] is not labels
    labels[0] = "mutated"
    labels.append("extra")
    assert state_dump(reg)["labels"] == LABELS
    state_dump(reg)["labels"].clear()
    assert state_dump(reg)["labels"] == LABELS
    assert list(measure_product_basis(reg, [hadamard()] * 2)) == LABELS


def test_computational_state_and_dump():
    reg = Register(2, QVector((ZERO, ZERO, ONE, ZERO)))
    assert reg.state.amps[0b10] == Quaternion(1.0)
    assert state_dump(reg)["amplitudes"][0b10] == [1.0, 0.0, 0.0, 0.0]
    dump = state_dump(bell_state(K))
    assert dump["labels"] == LABELS
    assert dump["amplitudes"][3] == [0.0, 0.0, 0.0, S]
    assert dump["amplitudes"][0] == [S, 0.0, 0.0, 0.0]
