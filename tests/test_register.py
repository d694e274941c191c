import math

import numpy as np
import pytest

from quatbox import qlinalg
from quatbox.qlinalg import (
    INV_SQRT2, QVector, hadamard, identity, inner, phase_gate, qvec, rotation,
)
from quatbox.quaternion import I, J, K, Quaternion
from quatbox.register import (
    Register,
    ScheduledOp,
    apply_local,
    basis_labels,
    bell_state,
    computational_state,
    measure_product_basis,
    run_schedule,
    state_dump,
)

from helpers import random_complex_unitary, random_register, random_unitary

S = INV_SQRT2
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
    assert phi_plus.amplitude("00") == Quaternion(S)
    assert phi_plus.amplitude("11") == Quaternion(S)
    assert bell_state(-1.0).amplitude("11") == Quaternion(-S)
    shared = bell_state(K)
    assert shared.amplitude("11") == K * S
    assert shared.amplitude("01") == Quaternion()


def test_bell_state_rejects_non_unit_phase():
    with pytest.raises(ValueError):
        bell_state(Quaternion(0, 0, 0, 2))


def test_apply_local_reproduces_order_dependent_states():
    start = bell_state(1.0)
    step1 = apply_local(start, 0, R_I)
    assert step1.amplitude("11") == I * S
    both = apply_local(step1, 1, R_J)
    # j * i = -k
    assert both.amplitude("11") == -K * S
    assert both.amplitude("00") == Quaternion(S)
    reverse = apply_local(apply_local(start, 1, R_J), 0, R_I)
    # i * j = +k
    assert reverse.amplitude("11") == K * S
    assert inner(both.state, reverse.state) == Quaternion()


def test_apply_identity_is_noop():
    reg = bell_state(K)
    assert apply_local(reg, 0, identity(2)).state == reg.state


def scalar_apply_local(reg, party, gate):
    """Reference: the per-amplitude fold new[r] = gate[r][0] * a0 + gate[r][1] * a1."""
    g = [[Quaternion(*gate.data[r, c].tolist()) for c in range(2)] for r in range(2)]
    old = reg.state.amps
    new = list(old)
    mask = 1 << (reg.n_parties - 1 - party)
    for idx in range(len(old)):
        if not idx & mask:
            a0, a1 = old[idx], old[idx | mask]
            new[idx] = g[0][0] * a0 + g[0][1] * a1
            new[idx | mask] = g[1][0] * a0 + g[1][1] * a1
    return np.array([[a.w, a.x, a.y, a.z] for a in new])


def signed_zero_register(rng, n):
    """Normalized register whose components are mostly +0.0 and -0.0."""
    amps = rng.choice([0.0, -0.0, -0.0, 1.0, -1.0], size=(2**n, 4))
    amps[0, 0] = 1.0
    return Register(n, QVector(amps / np.sqrt((amps * amps).sum())))


@pytest.mark.parametrize("n", range(1, 7))
def test_apply_local_matches_scalar_fold(n):
    rng = np.random.default_rng(30 + n)
    gates = [
        random_unitary(rng),
        random_complex_unitary(rng),
        rotation(rng.uniform(0.0, 2.0 * math.pi)),
        phase_gate(-K),
        hadamard(),
    ]
    for reg in (random_register(rng, n), signed_zero_register(rng, n)):
        for party in range(n):
            for gate in gates:
                got = apply_local(reg, party, gate).state.data
                # tobytes tells -0.0 from 0.0, which == does not
                assert got.tobytes() == scalar_apply_local(reg, party, gate).tobytes()


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
        apply_local(reg, 0, identity(4))
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


def test_scheduled_op_validates_gate():
    from quatbox.qlinalg import diag

    with pytest.raises(ValueError):
        ScheduledOp(1, 0, diag(1, 2))
    with pytest.raises(ValueError):
        ScheduledOp(1, -1, R_I)
    with pytest.raises(ValueError):
        ScheduledOp(1, 0, identity(4))


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
    probs = measure_product_basis(bell_state(K), [identity(2), identity(2)])
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
        reg = Register(2, qvec([float(v) for v in raw]))
        theta0, theta1 = rng.uniform(0, 2 * math.pi, size=2)
        mats = [rotation(theta0), rotation(theta1)]
        got = measure_product_basis(reg, mats)
        mat_lists = [
            [[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]]
            for t in (theta0, theta1)
        ]
        expected = kron_probs(raw, mat_lists)
        for idx, label in enumerate(basis_labels(2)):
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


def test_measure_allows_single_nonreal_basis_change():
    reg = bell_state(K)
    got = measure_product_basis(reg, [R_I, identity(2)])
    direct = apply_local(reg, 0, R_I)
    for label in basis_labels(2):
        assert abs(got[label] - direct.amplitude(label).norm_sq()) <= 1e-15


def test_measure_requires_one_basis_change_per_party():
    with pytest.raises(ValueError):
        measure_product_basis(bell_state(K), [hadamard()])


def test_register_validation():
    with pytest.raises(ValueError):
        Register(1, qvec([1, 0, 0, 0]))  # wrong dimension
    with pytest.raises(ValueError):
        Register(2, qvec([1, 1, 0, 0]))  # not normalized
    with pytest.raises(ValueError):
        Register(0, qvec([1]))


def test_computational_state_and_dump():
    reg = computational_state(2, "10")
    assert reg.amplitude("10") == Quaternion(1.0)
    dump = state_dump(bell_state(K))
    assert dump["labels"] == ["00", "01", "10", "11"]
    assert dump["amplitudes"][3] == [0.0, 0.0, 0.0, S]
    assert dump["amplitudes"][0] == [S, 0.0, 0.0, 0.0]
