import itertools
import json
import math
import pathlib
import runpy
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import quatbox.chsh
import quatbox.vandam
from quatbox.boxes import (
    CELLS,
    BoxBehavior,
    complex_quantum_box,
    ideal_pr_box,
    noisy_box,
    quaternionic_box,
)
from quatbox.chsh import chsh_value
from quatbox.qlinalg import QVector
from quatbox.register import Register
from quatbox.vandam import (
    BooleanFunction,
    anf_transform,
    builtin_function,
    success_probability,
    vandam_protocol,
    verify_exhaustive,
)

from helpers import count_calls, negative_entry_box, reference_sample


def random_function(rng, n_alice, n_bob):
    table = tuple(int(b) for b in rng.integers(0, 2, size=1 << (n_alice + n_bob)))
    return BooleanFunction(n_alice, n_bob, table)


def all_functions(n_alice, n_bob):
    size = 1 << (n_alice + n_bob)
    for packed in range(1 << size):
        yield BooleanFunction(
            n_alice, n_bob, tuple((packed >> idx) & 1 for idx in range(size))
        )


def evaluate_anf(anf, x, y):
    """The XOR over anf's monomials of each one's value on (x, y), the monomial at
    index m of `coefficients` being (alice_mask, bob_mask) = divmod(m, 1 << n_bob)."""
    acc = 0
    for m, c in enumerate(anf.coefficients):
        a_mask, b_mask = divmod(m, 1 << anf.n_bob)
        acc ^= c and (x & a_mask) == a_mask and (y & b_mask) == b_mask
    return int(acc)


def mixed_monomials(anf):
    """anf's (alice_mask, bob_mask) monomials touching both parties, in index order."""
    present = (divmod(m, 1 << anf.n_bob) for m, c in enumerate(anf.coefficients) if c)
    return [(a_mask, b_mask) for a_mask, b_mask in present if a_mask and b_mask]


# ---------------------------------------------------------------- ANF


def test_anf_of_and():
    assert anf_transform(builtin_function("AND")).coefficients == b"\x00\x00\x00\x01"


def test_anf_of_xor():
    assert anf_transform(builtin_function("XOR")).coefficients == b"\x00\x01\x01\x00"


def test_anf_of_constants():
    zero = BooleanFunction(1, 1, (0, 0, 0, 0))
    assert anf_transform(zero).coefficients == b"\x00\x00\x00\x00"
    one = BooleanFunction(1, 1, (1, 1, 1, 1))
    assert anf_transform(one).coefficients == b"\x01\x00\x00\x00"


def test_anf_of_inner_product_two_bits():
    f = builtin_function("IP2")
    anf = anf_transform(f)
    # x0 y0 and x1 y1, at indices (1 << 2) | 1 and (2 << 2) | 2
    assert anf.coefficients == bytes(int(m in (5, 10)) for m in range(16))
    for x in range(4):
        for y in range(4):
            assert evaluate_anf(anf, x, y) == f.table[(x << f.n_bob) | y]


@pytest.mark.parametrize("n_alice, n_bob", [(1, 1), (2, 1), (1, 2)])
def test_anf_roundtrip_exhaustive(n_alice, n_bob):
    for f in all_functions(n_alice, n_bob):
        anf = anf_transform(f)
        for x in range(1 << n_alice):
            for y in range(1 << n_bob):
                assert evaluate_anf(anf, x, y) == f.table[(x << f.n_bob) | y]


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
            assert evaluate_anf(anf, x, y) == f.table[(x << f.n_bob) | y]


def test_anf_roundtrip_large_random_tables():
    rng = np.random.default_rng(7)
    for _ in range(5):
        f = random_function(rng, 4, 4)
        anf = anf_transform(f)
        for x in range(16):
            for y in range(16):
                assert evaluate_anf(anf, x, y) == f.table[(x << f.n_bob) | y]


def scalar_moebius(table, n):
    """The transform as a scalar loop over indices, the reference for the array version."""
    coef = list(table)
    for v in range(n):
        for z in range(1 << n):
            if z >> v & 1:
                coef[z] ^= coef[z ^ (1 << v)]
    return coef


@pytest.mark.parametrize("n_alice, n_bob", [(1, 1), (3, 2), (5, 5), (4, 7)])
def test_anf_transform_matches_scalar_moebius(n_alice, n_bob):
    f = random_function(np.random.default_rng(n_alice * 16 + n_bob), n_alice, n_bob)
    assert anf_transform(f).coefficients == bytes(scalar_moebius(f.table, n_alice + n_bob))


def test_mixed_monomials_sorted_for_reproducibility():
    rng = np.random.default_rng(8)
    f = random_function(rng, 3, 3)
    anf = anf_transform(f)
    # boxes are drawn in the order of the engine's masks: ascending (alice_mask, bob_mask)
    masks = [tuple(row) for row in anf._masks.tolist()]
    assert masks == sorted(masks) == [(a << 3, b) for a, b in mixed_monomials(anf)]


# ---------------------------------------------------------------- protocol


def test_protocol_computes_and_everywhere():
    f = builtin_function("AND")
    box = ideal_pr_box()
    rng = np.random.default_rng(1)
    for x in range(2):
        for y in range(2):
            run = vandam_protocol(f, x, y, box, rng)
            assert run.output == f.table[(x << f.n_bob) | y]
            assert run.bits_bob_to_alice == 1
            assert run.bits_alice_to_bob == 0
            assert run.boxes_used == 1


def test_protocol_computes_inner_product_with_quaternionic_boxes():
    f = builtin_function("IP2")
    box = quaternionic_box()
    rng = np.random.default_rng(2)
    for x in range(4):
        for y in range(4):
            run = vandam_protocol(f, x, y, box, rng)
            assert run.output == f.table[(x << f.n_bob) | y]
            assert run.bits_bob_to_alice == 1
            assert run.boxes_used == 2


def test_protocol_on_constant_zero_uses_nothing():
    f = BooleanFunction(1, 1, (0, 0, 0, 0))
    rng = np.random.default_rng(3)
    run = vandam_protocol(f, 0, 1, ideal_pr_box(), rng)
    assert rng.random() == np.random.default_rng(3).random()  # no box drawn
    assert run.output == 0
    assert run.boxes_used == 0
    assert run.bits_bob_to_alice == 0


def test_protocol_on_constant_one_needs_no_boxes_but_one_bit():
    f = BooleanFunction(1, 1, (1, 1, 1, 1))
    rng = np.random.default_rng(4)
    run = vandam_protocol(f, 1, 0, ideal_pr_box(), rng)
    assert rng.random() == np.random.default_rng(4).random()  # no box drawn
    assert run.output == 1
    assert run.boxes_used == 0
    assert run.bits_bob_to_alice == 1


def test_protocol_validates_input_ranges():
    f = builtin_function("AND")
    for x, y in ((2, 0), (0, -1), (5, 0), (-1, -1)):
        with pytest.raises(ValueError, match="out of range"):
            vandam_protocol(f, x, y, ideal_pr_box(), np.random.default_rng(5))
        with pytest.raises(ValueError, match="out of range"):
            success_probability(f, x, y, ideal_pr_box())


def test_protocol_refuses_inputs_that_are_not_integers():
    f = builtin_function("AND")
    for x, y, message in ((0.5, 0, "x must be an integer, got 0.5"),
                          (True, 0, "x must be an integer, got True"),
                          (0, False, "y must be an integer, got False"),
                          (1.0, 1, "x must be an integer, got 1.0"),
                          (1, "1", "y must be an integer, got '1'")):
        with pytest.raises(ValueError) as err:
            vandam_protocol(f, x, y, ideal_pr_box(), np.random.default_rng(5))
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            success_probability(f, x, y, ideal_pr_box())
        assert str(err.value) == message
    # numpy integers are inputs too, shifted as Python ints: uint8 8 << 5 would wrap to 0
    g = BooleanFunction(4, 5, np.arange(1 << 9) >> 8)  # x >> 3 at (x << 5) | y
    for x, y in ((np.uint8(8), np.uint8(0)), (np.int64(8), 0)):
        assert vandam_protocol(g, x, y, ideal_pr_box(), np.random.default_rng(5)).output == 1
        assert success_probability(g, x, y, ideal_pr_box()) == 1.0


def test_each_piece_of_protocol_work_is_done_once(monkeypatch):
    box = quaternionic_box()
    anf_calls = count_calls(monkeypatch, quatbox.vandam, "anf_transform")
    # the box's per-cell wins are read, not scored again: every chsh_value builds a GameResult
    chsh_calls = count_calls(monkeypatch, quatbox.chsh, "GameResult")
    box_builds = count_calls(monkeypatch, BoxBehavior, "__post_init__")
    draws = count_calls(monkeypatch, BoxBehavior, "sample")
    # verify_exhaustive makes its inputs in range, so it neither re-checks them
    # nor builds a ProtocolRun per input to read its output
    checks = count_calls(monkeypatch, quatbox.vandam, "_input_cells")
    runs = count_calls(monkeypatch, quatbox.vandam, "ProtocolRun")
    f = builtin_function("IP4")
    report = verify_exhaustive(f, box, np.random.default_rng(6))
    assert (anf_calls[0], chsh_calls[0], box_builds[0]) == (1, 0, 0)
    assert draws[0] == report.n_inputs * report.boxes_used == 256 * 4
    assert (checks[0], runs[0]) == (0, 0)


def test_functions_without_mixed_monomials_draw_nothing(monkeypatch):
    # the protocol draws through `sample` today, and through `sample_cells` once the
    # benchmark checks draws by the generator's state (ROADMAP item 1a): both are counted
    draws = count_calls(monkeypatch, BoxBehavior, "sample")
    scans = count_calls(monkeypatch, BoxBehavior, "sample_cells")
    rng = np.random.default_rng(7)
    report = verify_exhaustive(builtin_function("XOR"), quaternionic_box(), rng)
    assert (report.boxes_used, report.success_rate, report.empirical_rate) == (0, 1.0, 1.0)
    assert (draws[0], scans[0]) == (0, 0)
    assert rng.bit_generator.state == np.random.default_rng(7).bit_generator.state


def test_boxes_used_counts_mixed_monomials():
    rng = np.random.default_rng(9)
    box = ideal_pr_box()
    for _ in range(10):
        f = random_function(rng, 2, 2)
        run = vandam_protocol(f, 1, 2, box, rng)
        assert run.boxes_used == len(mixed_monomials(anf_transform(f)))


# ------------------------------------------------- exact success probability


def success_oracle(f, x, y, box):
    """Independent oracle: enumerate box error patterns and add up the
    probability of every even-parity pattern."""
    anf = anf_transform(f)
    errors = []
    for a_mask, b_mask in mixed_monomials(anf):
        alpha = int((x & a_mask) == a_mask)
        beta = int((y & b_mask) == b_mask)
        win = sum(
            box.probs[alpha, beta, u, v]
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


def test_exact_rates_clamp_cells_that_win_below_zero():
    # the same outputs in every input cell, so the box is non-signalling: cells (0, 0),
    # (0, 1) and (1, 0) win -1e-12 and cell (1, 1) wins 1 + 1e-12, and each win is clamped
    # to [0, 1] before its gain 2 win - 1 enters the exact rates
    box = BoxBehavior(np.reshape([-1e-12, 0.5, 0.5 + 1e-12, 0.0] * 4, (2, 2, 2, 2)))
    assert box.wins[0] < 0.0 < box.wins[3] - 1.0
    f = builtin_function("AND")
    assert [success_probability(f, x, y, box) for x in (0, 1) for y in (0, 1)] == [0, 0, 0, 1]
    assert verify_exhaustive(f, box, np.random.default_rng(0)).success_rate == 0.25


# ---------------------------------------------------------------- verify


def test_verify_ip4_with_quaternionic_boxes():
    report = verify_exhaustive(builtin_function("IP4"), quaternionic_box(),
                               np.random.default_rng(0))
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
    report = verify_exhaustive(builtin_function("AND"), noisy_box(ideal_pr_box(), 0.75),
                               np.random.default_rng(0))
    # one box per input, error rate 1 - p in every cell
    assert report.success_rate == 0.75
    assert 0.5 < report.success_rate < 1.0


def test_verify_success_monotone_in_noise():
    for name in ("AND", "IP2"):
        f = builtin_function(name)
        boxes = [noisy_box(ideal_pr_box(), p) for p in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)]
        rates = [verify_exhaustive(f, box, np.random.default_rng(0)).success_rate for box in boxes]
        assert rates == sorted(rates)


def test_verify_size_cap():
    # a table over the cap is refused where it is built, so it never reaches verify_exhaustive
    with pytest.raises(ValueError, match="refusing a truth table over 2\\*\\*21 inputs"):
        BooleanFunction(11, 10, (0,) * (1 << 21))


def test_widths_are_checked_once_wherever_a_function_is_built():
    # a bool or a float width is refused by the constructor and the file reader
    for n_alice, n_bob in ((True, 0), (0, True), (1.0, 0), (1, 0.5), ("1", 1)):
        builds = [lambda: BooleanFunction(n_alice, n_bob, b"\x00\x01"),
                  lambda: BooleanFunction.from_json_obj(
                      {"n_alice": n_alice, "n_bob": n_bob, "table": "2"})]
        for build in builds:
            with np.errstate(all="raise"), pytest.raises(ValueError, match="must be integers"):
                build()
    # numpy integers are widths, added as Python ints: 200 + 100 does not wrap past the cap
    want = BooleanFunction(2, 1, (0, 0, 0, 1, 0, 0, 0, 1))  # x & y at (x << 1) | y
    for width in (np.int64, np.uint8):
        f = BooleanFunction(width(2), width(1), want.table)
        assert f.table == want.table and anf_transform(f) == anf_transform(want)
    with np.errstate(all="raise"), pytest.raises(ValueError, match="over 2\\*\\*300 inputs"):
        BooleanFunction(np.uint8(200), np.uint8(100), b"")


def test_numpy_widths_and_party_counts_are_kept_as_ints():
    # numpy counts once serialized as numpy ints, and narrow ones wrapped in 1 << n and 2**n
    amps = np.zeros((512, 4))
    amps[0, 0] = 1.0
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        f = BooleanFunction(np.int64(1), np.int64(1), b"\x00\x00\x00\x01")
        assert json.dumps(f.to_json_obj()) == '{"n_alice": 1, "n_bob": 1, "table": "8"}'
        g = BooleanFunction(np.uint8(8), np.uint8(0), np.arange(256) & 1)
        assert g == BooleanFunction(8, 0, np.arange(256) & 1)
        reg = Register(np.uint8(9), QVector(amps))
    assert [type(n) for n in (f.n_alice, f.n_bob, g.n_alice, g.n_bob, reg.n_parties)] == [int] * 5


# ------------------------------------------- engine against the per-input loop


def loop_sample(box, a, b, rng):
    """BoxBehavior.sample as a running sum added draw by draw: the first
    partial sum above r wins, whether or not the sums increase."""
    r = rng.random()
    acc = 0.0
    for idx, p in enumerate(box.probs[a, b].ravel().tolist()):
        acc += p
        if r < acc:
            return CELLS[idx]
    return CELLS[-1]


def loop_run(f, anf, x, y, box, rng, gain):
    """One protocol run on (x, y) and its exact success probability, with
    Python ints and math.prod: the reference for the array engine."""
    cells = [(int((x & a) == a), int((y & b) == b)) for a, b in mixed_monomials(anf)]
    fold = 0
    for cell in cells:
        u, v = loop_sample(box, *cell, rng)
        fold ^= u ^ v
    output = f.table[x << f.n_bob] ^ f.table[y] ^ f.table[0] ^ fold
    return output, (1.0 + math.prod(gain[cell] for cell in cells)) / 2.0


def loop_gains(box):
    return {cell: 2.0 * min(max(w, 0.0), 1.0) - 1.0 for cell, w in chsh_value(box).per_cell.items()}


def loop_verify(f, box, rng):
    anf, gain = anf_transform(f), loop_gains(box)
    exact, hits = [], 0
    for x in range(1 << f.n_alice):
        for y in range(1 << f.n_bob):
            output, rate = loop_run(f, anf, x, y, box, rng, gain)
            hits += output == f.table[(x << f.n_bob) | y]
            exact.append(rate)
    n_inputs = 1 << (f.n_alice + f.n_bob)
    return math.fsum(exact) / n_inputs, hits / n_inputs


class EdgeRandom:
    """A stand-in generator whose doubles are half uniform and half a running
    sum of one of the box's cells or a float neighbour of one: the values
    where a bisection, a `<=` or a different add order picks another output."""

    def __init__(self, box, seed):
        sums = [t for cell in box.probs.reshape(4, 4).tolist() for t in itertools.accumulate(cell)]
        near = (v for t in sums for v in (math.nextafter(t, 0.0), t, math.nextafter(t, 1.0)))
        self.edges = [v for v in near if 0.0 <= v < 1.0]
        self.rng = np.random.default_rng(seed)

    def random(self, size=None):
        """One double, or as numpy does with a size, an array of `size` of them
        equal to that many one-double calls."""
        if size is not None:
            return np.array([self.random() for _ in range(size)])
        if self.rng.random() < 0.5:
            return self.edges[self.rng.integers(len(self.edges))]
        return self.rng.random()


ENGINE_BOXES = {
    "ideal": ideal_pr_box(),
    "quaternionic": quaternionic_box(),
    "complex": complex_quantum_box(),
    "noisy(ideal, 0.9)": noisy_box(ideal_pr_box(), 0.9),
    "noisy(complex, 0.7)": noisy_box(complex_quantum_box(), 0.7),
    "negative entry": negative_entry_box(),
}


def from_monomials(n_alice, n_bob, monomials):
    """The function whose ANF is the XOR of these (alice_mask, bob_mask) monomials."""
    coef = [0] * (1 << (n_alice + n_bob))
    for a_mask, b_mask in monomials:
        coef[(a_mask << n_bob) | b_mask] ^= 1
    return BooleanFunction(n_alice, n_bob, tuple(scalar_moebius(coef, n_alice + n_bob)))


@st.composite
def protocol_functions(draw):
    """Functions on 0-9 input bits, either dense truth tables (n <= 6) or the
    XOR of up to 16 random monomials, some with only pure monomials (M = 0)."""
    n_alice = draw(st.integers(0, 9))
    n_bob = draw(st.integers(0, 9 - n_alice))
    n = n_alice + n_bob
    if n <= 6 and draw(st.booleans()):
        packed = draw(st.integers(0, (1 << (1 << n)) - 1))
        return BooleanFunction(n_alice, n_bob, tuple((packed >> i) & 1 for i in range(1 << n)))
    pure = draw(st.booleans())
    monomials = []
    for _ in range(draw(st.integers(0, 16))):
        a_mask = draw(st.integers(0, (1 << n_alice) - 1))
        monomials.append((a_mask, 0 if pure and a_mask else draw(st.integers(0, (1 << n_bob) - 1))))
    return from_monomials(n_alice, n_bob, monomials)


#: 16 mixed monomials on 4 + 5 bits: two blocks of 256 inputs, each eight whole x rows
SEVERAL_BLOCKS = from_monomials(4, 5, [(a, b) for a in (1, 3, 5, 15) for b in (1, 6, 17, 31)])
#: 17 mixed monomials on 1 + 8 bits: blocks of 240 inputs, so both x rows of 256 are cut
SPLIT_ROWS = from_monomials(1, 8, [(1, b) for b in range(1, 256, 15)])
#: 3 mixed monomials on 5 + 6 bits: blocks of 1365 inputs, the boundary inside x row 21
ROW_BOUNDARY = from_monomials(5, 6, [(1, 1), (6, 17), (31, 63)])
#: 5 mixed monomials on 2 + 10 bits: five blocks of 819 inputs, then a last one of one input
SHORT_LAST_BLOCK = from_monomials(2, 10, [(1, 1), (2, 3), (3, 512), (1, 1023), (2, 100)])


@settings(max_examples=60, deadline=None)
@given(f=protocol_functions(), box_name=st.sampled_from(sorted(ENGINE_BOXES)), seed=st.integers(0))
@example(f=BooleanFunction(0, 0, (1,)), box_name="complex", seed=0)
@example(f=BooleanFunction(0, 3, (0, 1, 1, 0, 1, 0, 0, 1)), box_name="ideal", seed=1)
@example(f=BooleanFunction(3, 0, (1, 1, 0, 1, 0, 0, 1, 0)), box_name="ideal", seed=2)
@example(f=builtin_function("IP4"), box_name="negative entry", seed=0)
@example(f=SEVERAL_BLOCKS, box_name="noisy(complex, 0.7)", seed=4)
@example(f=SPLIT_ROWS, box_name="negative entry", seed=5)
@example(f=ROW_BOUNDARY, box_name="noisy(ideal, 0.9)", seed=6)
@example(f=SHORT_LAST_BLOCK, box_name="negative entry", seed=7)
def test_verify_engine_matches_the_per_input_loop(f, box_name, seed):
    box = ENGINE_BOXES[box_name]
    for make_rng in (np.random.default_rng, lambda s: EdgeRandom(box, s)):
        report = verify_exhaustive(f, box, make_rng(seed))
        assert (report.success_rate, report.empirical_rate) == loop_verify(f, box, make_rng(seed))
        assert type(report.success_rate) is float and type(report.empirical_rate) is float
    # the one-input entry points against the same loop, on at most 64 inputs
    anf, gain = anf_transform(f), loop_gains(box)
    loop_rng, engine_rng = EdgeRandom(box, seed), EdgeRandom(box, seed)
    inputs = list(itertools.product(range(1 << f.n_alice), range(1 << f.n_bob)))
    for x, y in inputs[:: max(1, len(inputs) // 64)]:
        output, rate = loop_run(f, anf, x, y, box, loop_rng, gain)
        run = vandam_protocol(f, x, y, box, engine_rng)
        assert (run.output, type(run.output)) == (output, int)
        assert success_probability(f, x, y, box) == rate


@pytest.mark.parametrize("box_name", sorted(ENGINE_BOXES))
def test_the_protocol_moves_the_generator_one_double_per_box_cell(box_name):
    """`sample` takes its double from the caller, so counting `sample` calls no longer shows
    how far rng moved: pin it by the generator's state, that of a fresh generator of the
    same seed after one `random(n)` of one double per (input, mixed monomial) box cell."""
    box = ENGINE_BOXES[box_name]
    functions = [builtin_function("IP2"), builtin_function("IP4"), SEVERAL_BLOCKS, SPLIT_ROWS,
                 ROW_BOUNDARY, SHORT_LAST_BLOCK]
    for seed, f in enumerate(functions):
        rng, fresh = np.random.default_rng(seed), np.random.default_rng(seed)
        report = verify_exhaustive(f, box, rng)
        fresh.random(report.n_inputs * report.boxes_used)
        assert rng.bit_generator.state == fresh.bit_generator.state
        last = ((1 << f.n_alice) - 1, (1 << f.n_bob) - 1)
        for x, y in ((0, 0), (last[0], 0), last):
            run = vandam_protocol(f, x, y, box, rng)
            fresh.random(run.boxes_used)
            assert rng.bit_generator.state == fresh.bit_generator.state


#: cell dtypes: uint8 as _cells and the chsh decode give cells, the default int of np.full
#: in prbox, and uint64, the raw words' dtype
CELL_DTYPES = (np.uint8, np.int_, np.uint64)


@pytest.mark.parametrize("box_name", sorted(ENGINE_BOXES))
def test_sample_cells_is_one_sample_call_per_cell_in_order(monkeypatch, box_name):
    """`sample_cells` gives what one `sample` call per cell, in order, gives, and makes
    no `sample` call itself."""
    box = ENGINE_BOXES[box_name]
    draws = count_calls(monkeypatch, BoxBehavior, "sample")
    cell_rng = np.random.default_rng(12)
    for cell_dtype, length in itertools.product(CELL_DTYPES, (0, 1, 2, 7, 300)):
        cells = cell_rng.integers(0, 4, length).astype(cell_dtype)
        for make_rng in (np.random.default_rng, lambda s: EdgeRandom(box, s)):
            rng1, rng2 = make_rng(length), make_rng(length)
            before = draws[0]
            got = box.sample_cells(cells, rng1.random(length))
            assert draws[0] == before  # a scan, not a `sample` call per cell
            want = [box.sample(c, rng2.random()) for c in cells.tolist()]
            assert got.dtype == np.uint8
            assert got.tolist() == want
            if isinstance(rng1, np.random.Generator):
                assert rng1.bit_generator.state == rng2.bit_generator.state
            assert rng1.random() == rng2.random()  # and no draw besides them


@st.composite
def behaviors(draw):
    """Non-signalling tables from each party's marginal P(0) and each cell's P(0, 0), with
    entries lowered by 1e-12 (a zero to -1e-12) or 2e-11, so that running sums need not
    increase and may fall short of 1."""
    probability = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1 / 3]) | st.floats(0.0, 1.0)
    alice, bob = draw(st.tuples(probability, probability)), draw(st.tuples(probability, probability))
    rows = []
    for a, b in CELLS:
        low, high = max(0.0, alice[a] + bob[b] - 1.0), min(alice[a], bob[b])
        q = draw(st.sampled_from([low, high]) | st.floats(low, high)) if low < high else low
        rows.append([q, alice[a] - q, bob[b] - q, 1.0 - alice[a] - bob[b] + q])
    nudges = draw(st.lists(st.sampled_from([0.0, -1e-12, -2e-11]), min_size=16, max_size=16))
    try:
        return BoxBehavior(np.reshape(np.add(rows, np.reshape(nudges, (4, 4))), (2, 2, 2, 2)))
    except ValueError:  # a nudged table outside the tolerances
        assume(False)


SPECIAL_DOUBLES = [0.0, -0.0, 1.0, math.nextafter(1.0, 2.0), 1.5, math.inf, -math.inf, math.nan]


@st.composite
def scan_cases(draw):
    """A box, input cells and one double per cell: often a running sum of that cell or a
    float neighbour of one, where a `<=`, a `>=` or a dropped step picks another output."""
    box = draw(behaviors() | st.sampled_from(list(ENGINE_BOXES.values())))
    edges = [[v for t in itertools.accumulate(cell)
              for v in (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf))]
             for cell in box.probs.reshape(4, 4).tolist()]
    cells = draw(st.lists(st.integers(0, 3), max_size=40))
    other = st.sampled_from(SPECIAL_DOUBLES) | st.floats(0.0, 1.0, exclude_max=True) | st.floats()
    doubles = [draw(st.sampled_from(edges[c]) | other) for c in cells]
    return box, np.array(cells, draw(st.sampled_from(CELL_DTYPES))), np.array(doubles, float)


#: a third entry of -1e-12 in every cell: the third running sum falls below the second
THIRD_SUM_DIPS = BoxBehavior(np.tile([0.25, 0.25, -1e-12, 0.5 + 1e-12], 4).reshape(2, 2, 2, 2))


@settings(max_examples=300, deadline=None)
@given(case=scan_cases())
@example(case=(THIRD_SUM_DIPS, np.arange(4, dtype=np.uint8),
               np.array([math.nextafter(0.5 - 1e-12, 1.0), 0.5 - 1e-12, 0.5, math.nan])))
def test_sample_cells_equals_the_per_draw_sample(case):
    box, cells, doubles = case
    with pytest.MonkeyPatch.context() as patch:
        calls = count_calls(patch, BoxBehavior, "sample")
        got = box.sample_cells(cells, doubles)
    assert calls[0] == 0
    want = [box.sample(c, r) for c, r in zip(cells.tolist(), doubles.tolist())]
    assert got.dtype == np.uint8
    assert got.tolist() == want


@settings(max_examples=200, deadline=None)
@given(box=behaviors() | st.sampled_from(list(ENGINE_BOXES.values())),
       drawn=st.lists(st.floats(0.0, 1.0, exclude_max=True) | st.floats(), max_size=8))
@example(box=THIRD_SUM_DIPS, drawn=[])
def test_sample_equals_the_reference_draw(box, drawn):
    """`sample` gives the output cell of the per-draw reference, which reads all four
    running sums of the table, and of a one-cell `sample_cells`, in every input cell: at
    each running sum of the box and its float neighbours, at the special doubles, and at
    generated ones."""
    edges = [v for cell in box.probs.reshape(4, 4).tolist() for t in itertools.accumulate(cell)
             for v in (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf))]
    for r in edges + SPECIAL_DOUBLES + drawn:
        got = [box.sample(cell, r) for cell in range(4)]
        assert got == [reference_sample(box, cell, r) for cell in range(4)], r
        assert got == [int(box.sample_cells(np.array([cell]), np.array([r]))[0])
                       for cell in range(4)], r


# ------------------------------------------------ exact rates as fractions


def exact_success(f, x, y, box):
    """The protocol's success probability on (x, y) as a Fraction: over every joint
    outcome (u_k, v_k) of its boxes, the product of the entries P(u_k, v_k | alpha_k,
    beta_k), added up where f(x, 0) + f(0, y) + f(0, 0) + the u_k + v_k is f(x, y).
    A probability is at most 1: the quaternionic box's float table wins each cell
    with 1 + 2**-51, an excess the engine clamps and so this does too."""
    cells = [(int((x & a) == a), int((y & b) == b))
             for a, b in mixed_monomials(anf_transform(f))]
    pure = f.table[x << f.n_bob] ^ f.table[y] ^ f.table[0]
    total = Fraction(0)
    for outcomes in itertools.product(CELLS, repeat=len(cells)):
        output = pure ^ sum(u ^ v for u, v in outcomes) % 2
        if output == f.table[(x << f.n_bob) | y]:
            total += math.prod(Fraction(box.probs[a, b, u, v])
                               for (a, b), (u, v) in zip(cells, outcomes))
    return min(total, Fraction(1))


@st.composite
def small_functions(draw):
    """Functions on at most 4 input bits with at most 4 mixed monomials."""
    n_alice = draw(st.integers(0, 4))
    n_bob = draw(st.integers(0, 4 - n_alice))
    masks = st.tuples(st.integers(0, (1 << n_alice) - 1), st.integers(0, (1 << n_bob) - 1))
    monomials = draw(st.lists(masks, max_size=8))
    mixed = [m for m in monomials if m[0] and m[1]][:4]
    return from_monomials(n_alice, n_bob, mixed + [m for m in monomials if not all(m)])


@settings(max_examples=60, deadline=None)
@given(f=small_functions(), box_name=st.sampled_from(sorted(ENGINE_BOXES)))
@example(f=builtin_function("AND"), box_name="noisy(ideal, 0.9)")
@example(f=builtin_function("IP2"), box_name="quaternionic")
@example(f=from_monomials(2, 2, [(1, 1), (1, 2), (2, 3), (3, 3)]), box_name="negative entry")
def test_exact_rates_match_fractions_over_joint_box_outcomes(f, box_name):
    box = ENGINE_BOXES[box_name]
    m, n = len(mixed_monomials(anf_transform(f))), f.n_alice + f.n_bob
    ulp = Fraction(math.ulp(1.0))
    exact = []
    for x, y in itertools.product(range(1 << f.n_alice), range(1 << f.n_bob)):
        exact.append(exact_success(f, x, y, box))
        assert abs(Fraction(success_probability(f, x, y, box)) - exact[-1]) <= (m + 1) * ulp
    rate = verify_exhaustive(f, box, np.random.default_rng(0)).success_rate
    assert abs(Fraction(rate) - sum(exact) / len(exact)) <= (m + n) * ulp


# ---------------------------------------------------------------- formats


def test_builtin_registry():
    assert builtin_function("XOR").table[(1 << 1) | 1] == 0
    ip4 = builtin_function("IP4")
    assert ip4.n_alice == ip4.n_bob == 4
    assert ip4.table[(0b1111 << 4) | 0b0101] == 0
    assert ip4.table[(0b0111 << 4) | 0b0101] == 0  # bits 0 and 2 overlap -> parity 0
    assert ip4.table[(0b0111 << 4) | 0b0001] == 1
    with pytest.raises(ValueError):
        builtin_function("MAJ")


def test_inner_product_tables_equal_the_callable_ones():
    def parity(x, y):
        return bin(x & y).count("1") & 1

    for width in range(1, 6):
        inputs = range(1 << width)
        want = BooleanFunction(width, width, [parity(x, y) for x in inputs for y in inputs])
        got = quatbox.vandam._inner_product(width)
        assert (got.n_alice, got.n_bob, got.table) == (width, width, want.table)


def test_truth_table_json_roundtrip():
    rng = np.random.default_rng(12)
    f = random_function(rng, 3, 2)
    again = BooleanFunction.from_json_obj(f.to_json_obj())
    assert again == f
    assert again.to_json_obj() == f.to_json_obj()


def test_truth_table_json_codec_is_linear_in_the_table():
    f = BooleanFunction(10, 10, (1,) * (1 << 20))
    start = time.perf_counter()
    obj = f.to_json_obj()
    again = BooleanFunction.from_json_obj(obj)
    assert time.perf_counter() - start < 5.0
    assert obj["table"] == "f" * (1 << 18)
    assert again == f


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


def test_numpy_and_float_bits_are_stored_as_ints():
    bits = np.random.default_rng(13).integers(0, 2, 256).astype(np.uint8)
    ints = BooleanFunction(4, 4, tuple(bits.tolist()))
    for table in (tuple(bits), tuple(bits.astype(float)), bytes(bits), bits, bits.astype(float)):
        f = BooleanFunction(4, 4, table)
        assert type(f.table) is bytes
        assert all(type(f.table[i]) is int for i in range(256))
        assert f == ints
        assert hash(f) == hash(ints)
        assert f.to_json_obj() == ints.to_json_obj()
        assert BooleanFunction.from_json_obj(f.to_json_obj()) == ints
        assert anf_transform(f) == anf_transform(ints)


def reference_hex(table):
    """The hex of a table as the big-int codec wrote it: bit idx of the integer is table[idx]."""
    packed = int("".join(str(bit) for bit in reversed(table)), 2)
    return f"{packed:0{max(1, (len(table) + 3) // 4)}x}"


def test_truth_table_codec_matches_the_big_int_reference_at_every_width():
    rng = np.random.default_rng(14)
    for n in range(21):
        n_alice = int(rng.integers(0, n + 1))
        for bits in (np.zeros(1 << n, np.uint8), np.ones(1 << n, np.uint8),
                     rng.integers(0, 2, 1 << n).astype(np.uint8)):
            f = BooleanFunction(n_alice, n - n_alice, bits)
            text = f.to_json_obj()["table"]
            assert text == reference_hex(bits.tolist()), n
            for variant in (text, text.upper(), "00" + text):
                obj = {"n_alice": n_alice, "n_bob": n - n_alice, "table": variant}
                assert BooleanFunction.from_json_obj(obj) == f, (n, variant)
            extra = f"{1 << (1 << n):x}"  # the one bit past the last input
            with pytest.raises(ValueError, match="more bits"):
                BooleanFunction.from_json_obj({"n_alice": n_alice, "n_bob": n - n_alice,
                                               "table": extra})


def test_boolean_function_validation():
    with pytest.raises(ValueError):
        BooleanFunction(1, 1, (0, 1, 2, 0))
    with pytest.raises(ValueError):
        BooleanFunction(1, 1, (0, 1))
    with pytest.raises(ValueError):
        BooleanFunction(-1, 1, ())
    # a table without a length is malformed, not a TypeError from len()
    for table in (5, None, np.array(5)):
        with pytest.raises(ValueError, match="table must be a sequence of 4 bits"):
            BooleanFunction(1, 1, table)


# ---------------------------------------------------------------- scripts


def test_noise_sweep_matches_its_closed_form():
    """scripts/noise_sweep.py: success = (1 + (2p - 1)^m) / 2 for m mixed monomials."""
    sweep = runpy.run_path(str(pathlib.Path(__file__).parents[1] / "scripts" / "noise_sweep.py"))
    mixed = {"AND": 1, "IP2": 2, "IP4": 4}
    assert tuple(sweep["FUNCTIONS"]) == tuple(mixed)
    for name, m in mixed.items():
        f = builtin_function(name)
        for p in sweep["GRID"]:
            box = noisy_box(ideal_pr_box(), p)
            rate = verify_exhaustive(f, box, rng=np.random.default_rng(0)).success_rate
            assert abs(rate - (1 + (2 * p - 1) ** m) / 2) <= 1e-15, (name, p)
