import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatbox.boxes import ideal_pr_box, noisy_box, quaternionic_box
from quatbox.vandam import (
    ANF,
    BooleanFunction,
    anf_transform,
    builtin_function,
    success_probability,
    vandam_protocol,
    verify_exhaustive,
)


def random_function(rng, n_alice, n_bob):
    table = tuple(int(b) for b in rng.integers(0, 2, size=1 << (n_alice + n_bob)))
    return BooleanFunction(n_alice, n_bob, table)


def all_functions(n_alice, n_bob):
    size = 1 << (n_alice + n_bob)
    for packed in range(1 << size):
        yield BooleanFunction(
            n_alice, n_bob, tuple((packed >> idx) & 1 for idx in range(size))
        )


# ---------------------------------------------------------------- ANF


def test_anf_of_and():
    anf = anf_transform(builtin_function("AND"))
    assert anf.monomials == ((1, 1),)
    assert anf.mixed == ((1, 1),)


def test_anf_of_xor():
    anf = anf_transform(builtin_function("XOR"))
    assert set(anf.monomials) == {(0, 1), (1, 0)}
    assert anf.mixed == ()


def test_anf_of_constants():
    zero = BooleanFunction(1, 1, (0, 0, 0, 0))
    assert anf_transform(zero).monomials == ()
    one = BooleanFunction(1, 1, (1, 1, 1, 1))
    assert anf_transform(one).monomials == ((0, 0),)
    assert anf_transform(one).pure_alice == ((0, 0),)


def test_anf_of_inner_product_two_bits():
    f = builtin_function("IP2")
    anf = anf_transform(f)
    assert set(anf.monomials) == {(1, 1), (2, 2)}
    assert len(anf.mixed) == 2
    for x in range(4):
        for y in range(4):
            assert anf.evaluate(x, y) == f.evaluate(x, y)


@pytest.mark.parametrize("n_alice, n_bob", [(1, 1), (2, 1), (1, 2)])
def test_anf_roundtrip_exhaustive(n_alice, n_bob):
    for f in all_functions(n_alice, n_bob):
        anf = anf_transform(f)
        for x in range(1 << n_alice):
            for y in range(1 << n_bob):
                assert anf.evaluate(x, y) == f.evaluate(x, y)


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
@settings(max_examples=60)
def test_anf_roundtrip_random(n_alice, n_bob, data):
    size = 1 << (n_alice + n_bob)
    table = tuple(data.draw(st.integers(0, 1)) for _ in range(size))
    f = BooleanFunction(n_alice, n_bob, table)
    anf = anf_transform(f)
    for x in range(1 << n_alice):
        for y in range(1 << n_bob):
            assert anf.evaluate(x, y) == f.evaluate(x, y)


def test_anf_roundtrip_large_random_tables():
    rng = np.random.default_rng(7)
    for _ in range(5):
        f = random_function(rng, 4, 4)
        anf = anf_transform(f)
        for x in range(16):
            for y in range(16):
                assert anf.evaluate(x, y) == f.evaluate(x, y)


def test_mixed_monomials_sorted_for_reproducibility():
    rng = np.random.default_rng(8)
    f = random_function(rng, 3, 3)
    anf = anf_transform(f)
    assert list(anf.monomials) == sorted(anf.monomials)


# ---------------------------------------------------------------- protocol


def test_protocol_computes_and_everywhere():
    f = builtin_function("AND")
    box = ideal_pr_box()
    rng = np.random.default_rng(1)
    for x in range(2):
        for y in range(2):
            run = vandam_protocol(f, x, y, [box], rng)
            assert run.output == f.evaluate(x, y)
            assert run.bits_bob_to_alice == 1
            assert run.bits_alice_to_bob == 0
            assert run.boxes_used == 1


def test_protocol_computes_inner_product_with_quaternionic_boxes():
    f = builtin_function("IP2")
    box = quaternionic_box()
    rng = np.random.default_rng(2)
    for x in range(4):
        for y in range(4):
            run = vandam_protocol(f, x, y, [box, box], rng)
            assert run.output == f.evaluate(x, y)
            assert run.bits_bob_to_alice == 1
            assert run.boxes_used == 2


def test_protocol_on_constant_zero_uses_nothing():
    f = BooleanFunction(1, 1, (0, 0, 0, 0))
    run = vandam_protocol(f, 0, 1, [], np.random.default_rng(3))
    assert run.output == 0
    assert run.boxes_used == 0
    assert run.bits_bob_to_alice == 0


def test_protocol_on_constant_one_needs_no_boxes_but_one_bit():
    f = BooleanFunction(1, 1, (1, 1, 1, 1))
    run = vandam_protocol(f, 1, 0, [], np.random.default_rng(4))
    assert run.output == 1
    assert run.boxes_used == 0
    assert run.bits_bob_to_alice == 1


def test_protocol_requires_enough_boxes():
    f = builtin_function("IP2")
    with pytest.raises(ValueError):
        vandam_protocol(f, 0, 0, [ideal_pr_box()], np.random.default_rng(5))


def test_protocol_validates_input_ranges():
    f = builtin_function("AND")
    with pytest.raises(ValueError):
        f.evaluate(2, 0)
    with pytest.raises(ValueError):
        f.evaluate(0, -1)


def test_boxes_used_counts_mixed_monomials():
    rng = np.random.default_rng(9)
    box = ideal_pr_box()
    for _ in range(10):
        f = random_function(rng, 2, 2)
        anf = anf_transform(f)
        supply = [box] * len(anf.mixed)
        run = vandam_protocol(f, 1, 2, supply, rng)
        assert run.boxes_used == len(anf.mixed)


# ------------------------------------------------- exact success probability


def success_oracle(f, x, y, box):
    """Independent oracle: enumerate box error patterns and add up the
    probability of every even-parity pattern."""
    anf = anf_transform(f)
    errors = []
    for a_mask, b_mask in anf.mixed:
        alpha = int((x & a_mask) == a_mask)
        beta = int((y & b_mask) == b_mask)
        win = sum(
            box.prob(alpha, beta, u, v)
            for u in (0, 1)
            for v in (0, 1)
            if u ^ v == alpha & beta
        )
        errors.append(1.0 - win)
    total = 0.0
    for pattern in itertools.product((0, 1), repeat=len(errors)):
        if sum(pattern) % 2 == 0:
            term = 1.0
            for flag, e in zip(pattern, errors):
                term *= e if flag else (1.0 - e)
            total += term
    return total


def test_success_probability_matches_pattern_enumeration():
    rng = np.random.default_rng(10)
    for p in (0.6, 0.75, 0.9):
        box = noisy_box(ideal_pr_box(), p)
        for _ in range(5):
            f = random_function(rng, 2, 2)
            x = int(rng.integers(4))
            y = int(rng.integers(4))
            got = success_probability(f, x, y, box)
            want = success_oracle(f, x, y, box)
            assert abs(got - want) <= 1e-12


def test_success_probability_is_one_for_perfect_boxes():
    f = builtin_function("IP2")
    for box in (ideal_pr_box(), quaternionic_box()):
        for x in range(4):
            for y in range(4):
                assert success_probability(f, x, y, box) == 1.0


# ---------------------------------------------------------------- verify


def test_verify_ip4_with_quaternionic_boxes():
    report = verify_exhaustive(builtin_function("IP4"), quaternionic_box())
    assert report.success_rate == 1.0
    assert report.empirical_rate == 1.0
    assert report.boxes_used == 4
    assert report.bits_bob_to_alice == 1
    assert report.bits_alice_to_bob == 0
    assert report.n_inputs == 256


def test_verify_random_six_bit_function_with_ideal_boxes():
    rng = np.random.default_rng(11)
    f = random_function(rng, 3, 3)
    report = verify_exhaustive(f, ideal_pr_box(), rng=rng)
    assert report.success_rate == 1.0
    assert report.empirical_rate == 1.0


def test_verify_noisy_and_reports_exact_mixture():
    report = verify_exhaustive(builtin_function("AND"), noisy_box(ideal_pr_box(), 0.75))
    # one box per input, error rate 1 - p in every cell
    assert report.success_rate == 0.75
    assert 0.5 < report.success_rate < 1.0


def test_verify_success_monotone_in_noise():
    for name in ("AND", "IP2"):
        f = builtin_function(name)
        rates = [
            verify_exhaustive(f, noisy_box(ideal_pr_box(), p)).success_rate
            for p in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
        ]
        assert rates == sorted(rates)


def test_verify_size_cap():
    f = BooleanFunction(11, 10, (0,) * (1 << 21))
    with pytest.raises(ValueError):
        verify_exhaustive(f, ideal_pr_box())


# ---------------------------------------------------------------- formats


def test_builtin_registry():
    assert builtin_function("XOR").evaluate(1, 1) == 0
    ip4 = builtin_function("IP4")
    assert ip4.n_alice == ip4.n_bob == 4
    assert ip4.evaluate(0b1111, 0b0101) == 0
    assert ip4.evaluate(0b0111, 0b0101) == 0  # bits 0 and 2 overlap -> parity 0
    assert ip4.evaluate(0b0111, 0b0001) == 1
    with pytest.raises(ValueError):
        builtin_function("MAJ")


def test_truth_table_json_roundtrip():
    rng = np.random.default_rng(12)
    f = random_function(rng, 3, 2)
    again = BooleanFunction.from_json_obj(f.to_json_obj())
    assert again == f
    assert again.to_json_obj() == f.to_json_obj()


def test_truth_table_json_examples():
    and_obj = builtin_function("AND").to_json_obj()
    # table bits 0001 at indices (x<<1)|y: only index 3 set -> 0x8
    assert and_obj == {"n_alice": 1, "n_bob": 1, "table": "8"}
    assert BooleanFunction.from_json_obj(and_obj) == builtin_function("AND")
    xor_obj = builtin_function("XOR").to_json_obj()
    assert xor_obj["table"] == "6"  # indices 1 and 2 set


def test_truth_table_json_rejects_oversized_table():
    with pytest.raises(ValueError):
        BooleanFunction.from_json_obj({"n_alice": 1, "n_bob": 1, "table": "1f"})


def test_truth_table_json_width_is_checked_before_the_table_is_built():
    cases = [
        ({"n_alice": 11, "n_bob": 11, "table": "0"}, "2\\*\\*22"),  # 2**22 entries if built
        ({"n_alice": -1, "n_bob": 21, "table": "0"}, "non-negative"),  # 2**20 entries if built
    ]
    for wide, message in cases:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                BooleanFunction.from_json_obj(wide)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, wide


def test_boolean_function_validation():
    with pytest.raises(ValueError):
        BooleanFunction(1, 1, (0, 1, 2, 0))
    with pytest.raises(ValueError):
        BooleanFunction(1, 1, (0, 1))
    with pytest.raises(ValueError):
        BooleanFunction(-1, 1, ())
