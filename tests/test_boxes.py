import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatbox.boxes import (
    BITS,
    CELLS,
    BoxBehavior,
    classical_box,
    complex_quantum_box,
    ideal_pr_box,
    is_non_signalling,
    noisy_box,
    quaternionic_box,
)
from quatbox.register import basis_labels

ALL_CELLS = list(itertools.product(BITS, repeat=2))


def win_probability_oracle(box):
    """Direct evaluation of Pr[x^y = ab] averaged over uniform inputs."""
    total = 0.0
    for a, b in ALL_CELLS:
        total += sum(box.prob(a, b, x, y) for x, y in ALL_CELLS if x ^ y == (a & b))
    return total / 4.0


def test_ideal_pr_box_cells():
    box = ideal_pr_box()
    assert box.probs[1, 1].tolist() == [[0.0, 0.5], [0.5, 0.0]]
    assert box.probs[0, 0].tolist() == [[0.5, 0.0], [0.0, 0.5]]
    assert win_probability_oracle(box) == 1.0


def test_quaternionic_box_is_a_perfect_pr_box():
    got = quaternionic_box()
    want = ideal_pr_box()
    for a, b in ALL_CELLS:
        for x, y in ALL_CELLS:
            assert abs(got.prob(a, b, x, y) - want.prob(a, b, x, y)) <= 1e-10


def test_quaternionic_box_winning_logic_per_cell():
    box = quaternionic_box()
    # Alice first in three cells -> outputs agree; Bob first only when a=b=1
    for a, b in ALL_CELLS:
        if a & b:
            assert abs(box.prob(a, b, 0, 1) + box.prob(a, b, 1, 0) - 1.0) <= 1e-10
        else:
            assert abs(box.prob(a, b, 0, 0) + box.prob(a, b, 1, 1) - 1.0) <= 1e-10


def test_quaternionic_box_empirical_frequencies():
    box = quaternionic_box()
    rng = np.random.default_rng(2024)
    per_cell = 25_000
    for a, b in ALL_CELLS:
        counts = {pair: 0 for pair in ALL_CELLS}
        for _ in range(per_cell):
            counts[box.sample(a, b, rng)] += 1
        for (x, y), c in counts.items():
            assert abs(c / per_cell - box.prob(a, b, x, y)) <= 0.01


def test_classical_boxes_win_probabilities():
    # direct x^y vs ab evaluation for the constant-0 pair
    box = classical_box((0, 0), (0, 0))
    assert win_probability_oracle(box) == 0.75
    for a, b in ALL_CELLS:
        assert box.prob(a, b, 0, 0) == 1.0
    # oracle: enumerate x^y == ab straight from the strategy tables
    f_alice, f_bob = (0, 1), (1, 1)
    expected = sum(
        (f_alice[a] ^ f_bob[b]) == (a & b) for a, b in ALL_CELLS
    ) / 4.0
    assert win_probability_oracle(classical_box(f_alice, f_bob)) == expected


def test_every_deterministic_box_is_non_signalling():
    for f_alice in itertools.product(BITS, repeat=2):
        for f_bob in itertools.product(BITS, repeat=2):
            assert is_non_signalling(classical_box(f_alice, f_bob), tol=0.0)


def test_complex_quantum_box_hits_tsirelson():
    box = complex_quantum_box()
    assert abs(win_probability_oracle(box) - math.cos(math.pi / 8) ** 2) <= 1e-9


def test_complex_quantum_box_matches_numpy_oracle():
    # independent path: numpy kron of the real rotation matrices on (1,0,0,1)/sqrt(2)
    def rot(t):
        return np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])

    angles_alice = {0: 0.0, 1: math.pi / 4}
    angles_bob = {0: math.pi / 8, 1: -math.pi / 8}
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    box = complex_quantum_box()
    for a, b in ALL_CELLS:
        amps = np.kron(rot(angles_alice[a]), rot(angles_bob[b])) @ phi
        probs = amps**2
        for idx, (x, y) in enumerate(itertools.product(BITS, repeat=2)):
            assert abs(box.prob(a, b, x, y) - probs[idx]) <= 1e-12


def test_noisy_box_with_no_noise_is_identity():
    box = ideal_pr_box()
    assert np.array_equal(noisy_box(box, 1.0).probs, box.probs)


def test_noisy_box_win_probability_equals_p():
    for p in (0.5, 0.75, 0.9, 1.0):
        assert win_probability_oracle(noisy_box(ideal_pr_box(), p)) == p


def test_noisy_box_at_half_is_uniform_on_y():
    box = noisy_box(ideal_pr_box(), 0.5)
    for a, b in ALL_CELLS:
        for x, y in ALL_CELLS:
            assert abs(box.prob(a, b, x, y) - 0.25) <= 1e-15


@pytest.mark.parametrize("p", [0.4, -0.1, 1.01])
def test_noisy_box_rejects_out_of_range(p):
    with pytest.raises(ValueError):
        noisy_box(ideal_pr_box(), p)


@given(st.floats(min_value=0.5, max_value=1.0, allow_nan=False))
@settings(max_examples=40)
def test_noisy_box_stays_non_signalling(p):
    assert is_non_signalling(noisy_box(ideal_pr_box(), p))


def test_all_constructed_boxes_non_signalling():
    boxes = [
        ideal_pr_box(),
        quaternionic_box(),
        complex_quantum_box(),
        noisy_box(ideal_pr_box(), 0.8),
        classical_box((0, 1), (1, 0)),
    ]
    for box in boxes:
        assert is_non_signalling(box, tol=1e-10)


def test_behavior_validation_rejects_bad_tables():
    with pytest.raises(ValueError):
        BoxBehavior(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        BoxBehavior(np.full((2, 2, 2, 2), -0.25))
    with pytest.raises(ValueError):
        BoxBehavior(np.zeros((2, 2, 2, 2)))  # cells sum to 0
    # NaN passes the negativity and cell-sum checks, since every comparison with it is false
    arr = np.array(ideal_pr_box().probs)
    arr[0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite probability"):
        BoxBehavior(arr)
    # signalling: Bob's output copies Alice's input
    arr = np.zeros((2, 2, 2, 2))
    for a, b in ALL_CELLS:
        arr[a, b, 0, a] = 1.0
    with pytest.raises(ValueError):
        BoxBehavior(arr)


def test_cell_order_matches_the_readout_labels():
    # measured boxes read measure_product_basis(...).values() as P(x, y) in CELLS order
    assert [f"{x}{y}" for x, y in CELLS] == basis_labels(2)


def test_behavior_marginals():
    box = ideal_pr_box()
    for a, b in ALL_CELLS:
        assert box.probs[a, b].sum(axis=1).tolist() == [0.5, 0.5]  # x marginal
        assert box.probs[a, b].sum(axis=0).tolist() == [0.5, 0.5]  # y marginal


def test_behavior_json_roundtrip():
    box = noisy_box(ideal_pr_box(), 0.8)
    again = np.zeros((2, 2, 2, 2))
    for key, outcomes in box.to_json_obj().items():
        a, b = map(int, key.split(","))
        for entry in outcomes:
            again[a, b, entry["x"], entry["y"]] = entry["p"]
    assert np.array_equal(again, box.probs)


def test_sampling_is_seed_deterministic():
    box = ideal_pr_box()
    a = [box.sample(1, 1, np.random.default_rng(5)) for _ in range(5)]
    b = [box.sample(1, 1, np.random.default_rng(5)) for _ in range(5)]
    assert a == b


def test_sample_respects_support():
    box = ideal_pr_box()
    rng = np.random.default_rng(6)
    for a, b in ALL_CELLS:
        for _ in range(200):
            x, y = box.sample(a, b, rng)
            assert x ^ y == (a & b)
