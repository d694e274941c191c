"""Acceptance suite: the package's headline claims, each at a pinned tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.
"""

import functools
import itertools
import math
import time

import numpy as np

from quatbox.boxes import (
    classical_box,
    complex_quantum_box,
    ideal_pr_box,
    noisy_box,
    quaternionic_box,
)
from quatbox.chsh import TSIRELSON_WIN_BOUND, chsh_value, lhv_optimum
from quatbox.qlinalg import phase_gate
from quatbox.quaternion import I, J, K, Quaternion
from quatbox.register import ScheduledOp, apply_local, bell_state, run_schedule
from quatbox.vandam import BooleanFunction, builtin_function, vandam_protocol

from helpers import (
    UNIT_GROUP,
    approx_eq,
    conj,
    left_action,
    random_complex_unitary,
    random_quaternion,
    random_register,
    random_state,
    random_unitary,
    reference_is_non_signalling,
)

BITS = (0, 1)


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE FAIL: {label}")
                raise
            print(f"ACCEPTANCE PASS: {label}")

        return wrapper

    return deco


@criterion("1. perfect PR box: CHSH value 1.0 (tol 1e-10), every cell wins")
def test_criterion_1_perfect_pr_box():
    result = chsh_value(quaternionic_box())
    assert abs(result.win_probability - 1.0) <= 1e-10
    for cell, value in result.per_cell.items():
        assert abs(value - 1.0) <= 1e-10, f"cell {cell} wins with {value}"


@criterion("2. order dependence: R_i/R_j orders give -k / +k states, inner product 0")
def test_criterion_2_order_dependence():
    s = math.sqrt(0.5)
    start = bell_state(1.0)
    first = apply_local(apply_local(start, 0, phase_gate(I)), 1, phase_gate(J))
    second = apply_local(apply_local(start, 1, phase_gate(J)), 0, phase_gate(I))
    # exact amplitude comparison against independently built expectations
    zero = Quaternion()
    assert first.state.amps == (Quaternion(s), zero, zero, Quaternion(0.0, 0.0, 0.0, -s))
    assert second.state.amps == (Quaternion(s), zero, zero, Quaternion(0.0, 0.0, 0.0, s))
    from quatbox.qlinalg import inner

    assert inner(first.state, second.state).norm() <= 1e-12


@criterion("3. classical bound: exhaustive LHV search tops out at exactly 0.75")
def test_criterion_3_classical_bound():
    result, _ = lhv_optimum()
    assert result.win_probability == 0.75
    # independent enumeration straight from the game definition
    best = max(
        sum((fa[a] ^ fb[b]) == (a & b) for a in BITS for b in BITS) / 4.0
        for fa in itertools.product(BITS, repeat=2)
        for fb in itertools.product(BITS, repeat=2)
    )
    assert best == 0.75


@criterion("4. Tsirelson point: complex-quantum strategy wins cos^2(pi/8) (tol 1e-9)")
def test_criterion_4_tsirelson_point():
    win = chsh_value(complex_quantum_box()).win_probability
    assert abs(win - math.cos(math.pi / 8) ** 2) <= 1e-9
    assert abs(win - TSIRELSON_WIN_BOUND) <= 1e-9


@criterion("5. one-bit protocol exact on AND/XOR/IP2/IP4 + 20 random functions (< 5 s)")
def test_criterion_5_trivial_communication_complexity():
    start = time.perf_counter()
    box = quaternionic_box()
    rng = np.random.default_rng(20250809)

    functions = [builtin_function(name) for name in ("AND", "XOR", "IP2", "IP4")]
    for _ in range(20):
        n_alice = int(rng.integers(1, 8))
        n_bob = int(rng.integers(1, 9 - n_alice))
        table = tuple(int(b) for b in rng.integers(0, 2, size=1 << (n_alice + n_bob)))
        assert any(table)  # non-zero table, so Bob's single bit is actually sent
        functions.append(BooleanFunction(n_alice, n_bob, table))

    for f in functions:
        for x in range(1 << f.n_alice):
            for y in range(1 << f.n_bob):
                run = vandam_protocol(f, x, y, box, rng)
                assert run.output == f.table[(x << f.n_bob) | y]
                assert run.bits_bob_to_alice == 1
                assert run.bits_alice_to_bob == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


@criterion("6. property suites: algebra laws, unitarity, non-signalling, commuting case")
def test_criterion_6_property_suites():
    rng = np.random.default_rng(99)

    # quaternion multiplication table, exact
    assert I * J == K and J * I == -K
    assert J * K == I and K * J == -I
    assert K * I == J and I * K == -J
    assert I * I == J * J == K * K == Quaternion(-1.0)

    # associativity and conjugation anti-automorphism: exhaustive over units
    for p, q in itertools.product(UNIT_GROUP, repeat=2):
        assert conj(p * q) == conj(q) * conj(p)
    for p, q, r in itertools.product(UNIT_GROUP, repeat=3):
        assert (p * q) * r == p * (q * r)

    # ... and over 10^3 random triples at 1e-12
    for _ in range(1000):
        p, q, r = (random_quaternion(rng) for _ in range(3))
        assert approx_eq((p * q) * r, p * (q * r), 1e-12)
        assert approx_eq(conj(p * q), conj(q) * conj(p), 1e-12)
        assert abs((p * q).norm() - p.norm() * q.norm()) <= 1e-12

    # unitary norm preservation over 10^3 random (U, v) at 1e-10
    for _ in range(1000):
        u = random_unitary(rng)
        v = random_state(rng, 2)
        assert abs(math.sqrt(left_action(u, v).norm_sq()) - math.sqrt(v.norm_sq())) <= 1e-10

    # non-signalling for every constructed box at 1e-10
    boxes = [ideal_pr_box(), quaternionic_box(), complex_quantum_box()]
    boxes += [noisy_box(ideal_pr_box(), p) for p in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)]
    boxes += [
        classical_box(fa, fb)
        for fa in itertools.product(BITS, repeat=2)
        for fb in itertools.product(BITS, repeat=2)
    ]
    for box in boxes:
        assert reference_is_non_signalling(box.probs, 1e-10)

    # complex-restricted gates commute across parties at 1e-12
    for _ in range(200):
        reg = random_register(rng, 2)
        a, b = random_complex_unitary(rng), random_complex_unitary(rng)
        one = run_schedule(reg, [ScheduledOp(1, 0, a), ScheduledOp(2, 1, b)])
        two = run_schedule(reg, [ScheduledOp(1, 1, b), ScheduledOp(2, 0, a)])
        assert one.state.approx_eq(two.state, 1e-12)


@criterion("7. noise sanity: CHSH(noisy(ideal, p)) = p exactly; protocol monotone in p")
def test_criterion_7_noise_model():
    from quatbox.vandam import verify_exhaustive

    for p in (0.5, 0.75, 0.9, 1.0):
        assert chsh_value(noisy_box(ideal_pr_box(), p)).win_probability == p

    grid = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    for name in ("AND", "IP2"):
        f = builtin_function(name)
        boxes = [noisy_box(ideal_pr_box(), p) for p in grid]
        rates = [verify_exhaustive(f, box, np.random.default_rng(0)).success_rate for box in boxes]
        assert all(lo <= hi + 1e-15 for lo, hi in zip(rates, rates[1:]))
        assert rates[-1] == 1.0
