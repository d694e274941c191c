import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quatbox.boxes
from quatbox.boxes import (
    CELLS,
    BoxBehavior,
    _non_signalling,
    classical_box,
    complex_quantum_box,
    ideal_pr_box,
    noisy_box,
    quaternionic_box,
)
from quatbox.qlinalg import hadamard, phase_gate
from quatbox.quaternion import I, J, K
from quatbox.register import ScheduledOp, bell_state, measure_product_basis, run_schedule

from helpers import count_calls, reference_behavior_error, reference_is_non_signalling

BITS = (0, 1)
ALL_CELLS = list(itertools.product(BITS, repeat=2))


def win_probability_oracle(box):
    """Direct evaluation of Pr[x^y = ab] averaged over uniform inputs."""
    total = 0.0
    for a, b in ALL_CELLS:
        total += sum(box.probs[a, b, x, y] for x, y in ALL_CELLS if x ^ y == (a & b))
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
            assert abs(got.probs[a, b, x, y] - want.probs[a, b, x, y]) <= 1e-10


def test_quaternionic_box_prepares_its_shared_state_once(monkeypatch):
    preparations = count_calls(monkeypatch, quatbox.boxes, "bell_state")
    quaternionic_box()
    assert preparations[0] == 1


def test_quaternionic_box_evolves_each_time_order_once(monkeypatch):
    # the reference evolves and reads out all four cells; the box shares the three with
    # Alice first, and must give the same bytes
    gates = (phase_gate(I), phase_gate(J))
    tags = ((1, 3), (4, 2))  # [party][input]: Alice at t1 or t3, Bob at t4 or t2
    cells = []
    for inputs in CELLS:
        ops = [ScheduledOp(tags[party][bit], party, gates[party])
               for party, bit in enumerate(inputs)]
        readout = measure_product_basis(run_schedule(bell_state(K), ops), [hadamard()] * 2)
        cells.append(list(readout.values()))
    reference = np.reshape(cells, (2, 2, 2, 2))
    runs = count_calls(monkeypatch, quatbox.boxes, "run_schedule")
    readouts = count_calls(monkeypatch, quatbox.boxes, "measure_product_basis")
    assert quaternionic_box().probs.tobytes() == reference.tobytes()
    assert runs[0] == readouts[0] == 2


def test_quaternionic_box_winning_logic_per_cell():
    box = quaternionic_box()
    # Alice first in three cells -> outputs agree; Bob first only when a=b=1
    for a, b in ALL_CELLS:
        if a & b:
            assert abs(box.probs[a, b, 0, 1] + box.probs[a, b, 1, 0] - 1.0) <= 1e-10
        else:
            assert abs(box.probs[a, b, 0, 0] + box.probs[a, b, 1, 1] - 1.0) <= 1e-10


def test_quaternionic_box_empirical_frequencies():
    box = quaternionic_box()
    rng = np.random.default_rng(2024)
    per_cell = 25_000
    for a, b in ALL_CELLS:
        counts = {pair: 0 for pair in ALL_CELLS}
        for _ in range(per_cell):
            counts[divmod(box.sample(2 * a + b, rng.random()), 2)] += 1
        for (x, y), c in counts.items():
            assert abs(c / per_cell - box.probs[a, b, x, y]) <= 0.01


def test_classical_boxes_win_probabilities():
    # direct x^y vs ab evaluation for the constant-0 pair
    box = classical_box((0, 0), (0, 0))
    assert win_probability_oracle(box) == 0.75
    for a, b in ALL_CELLS:
        assert box.probs[a, b, 0, 0] == 1.0
    # oracle: enumerate x^y == ab straight from the strategy tables
    f_alice, f_bob = (0, 1), (1, 1)
    expected = sum(
        (f_alice[a] ^ f_bob[b]) == (a & b) for a, b in ALL_CELLS
    ) / 4.0
    assert win_probability_oracle(classical_box(f_alice, f_bob)) == expected


def non_signalling_at(probs: np.ndarray, tol: float) -> bool:
    """The constructor's non-signalling verdict on a table, with NON_SIGNALLING_TOL set to
    tol; a context, not the fixture, since Hypothesis refuses function-scoped fixtures."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quatbox.boxes, "NON_SIGNALLING_TOL", tol)
        return _non_signalling(np.reshape(probs, (4, 4)).tolist())


def test_every_deterministic_box_is_non_signalling():
    for f_alice in itertools.product(BITS, repeat=2):
        for f_bob in itertools.product(BITS, repeat=2):
            assert non_signalling_at(classical_box(f_alice, f_bob).probs, 0.0)


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
            assert abs(box.probs[a, b, x, y] - probs[idx]) <= 1e-12


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
            assert abs(box.probs[a, b, x, y] - 0.25) <= 1e-15


@pytest.mark.parametrize("p", [0.4, -0.1, 1.01, math.nan, True, False, np.True_, "0.9", None])
def test_noisy_box_rejects_out_of_range(p):
    # a bool is refused as widths and protocol inputs are, not read as p = 1, and a
    # non-number with the same message, not a TypeError from the range comparison
    with pytest.raises(ValueError) as err:
        noisy_box(ideal_pr_box(), p)
    assert str(err.value) == f"noise parameter must lie in [0.5, 1], got {p!r}"


@given(st.floats(min_value=0.5, max_value=1.0, allow_nan=False))
@settings(max_examples=40)
def test_noisy_box_stays_non_signalling(p):
    assert reference_is_non_signalling(noisy_box(ideal_pr_box(), p).probs)


def test_all_constructed_boxes_non_signalling():
    boxes = [
        ideal_pr_box(),
        quaternionic_box(),
        complex_quantum_box(),
        noisy_box(ideal_pr_box(), 0.8),
        classical_box((0, 1), (1, 0)),
    ]
    for box in boxes:
        assert reference_is_non_signalling(box.probs, 1e-10)


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


def test_negative_entry_floor_edge():
    def moved(e):
        # e moves from P(0, 1 | 0, 0) to P(0, 0 | 0, 0): the cell still sums to 1 and Bob's
        # marginal moves by e, far inside NON_SIGNALLING_TOL, so only the floor decides
        arr = np.array(ideal_pr_box().probs)
        arr[0, 0, 0, 0] += e
        arr[0, 0, 0, 1] = -e
        return arr

    assert BoxBehavior(moved(1e-12)).probs.min() == -1e-12
    with pytest.raises(ValueError, match="negative probability"):
        BoxBehavior(moved(math.nextafter(1e-12, 1.0)))


def test_cell_sum_bound_is_inclusive(monkeypatch):
    # near 1 a float cell sum s has s - 1 a multiple of 2**-53, never the 1e-10 of
    # NON_SIGNALLING_TOL itself; at a bound of 0 the PR box's exact sums of 1.0 pass
    monkeypatch.setattr(quatbox.boxes, "NON_SIGNALLING_TOL", 0.0)
    arr = np.array(ideal_pr_box().probs)
    arr[1, 1, 0, 1] = 0.5 + 2**-52  # cell (1, 1) sums to 1 + 2**-52, one ulp over
    with pytest.raises(ValueError, match="each input cell must sum to 1"):
        BoxBehavior(arr)


def test_an_overflowing_table_is_refused_without_a_warning():
    with np.errstate(all="raise"), pytest.raises(ValueError) as err:
        BoxBehavior(np.full((2, 2, 2, 2), 1e308))
    assert str(err.value) == "each input cell must sum to 1"


NAN, INF = float("nan"), float("inf")
#: entries at the edges of the checks: the -1e-12 floor and one ulp below it, a half one ulp
#: high (a cell then sums one ulp over 1), zeros of both signs, non-finite and huge values
EDGE_ENTRIES = (-1e-12, math.nextafter(-1e-12, -1.0), 0.5 + 2**-52, 0.0, -0.0, 1.0,
                NAN, INF, -INF, 1e308)
#: amounts a table entry moves by, about the checks' tolerances and one ulp either side
NUDGES = (1e-12, 5e-11, 1e-10, math.nextafter(1e-10, 0.0), math.nextafter(1e-10, 1.0),
          2e-10, 1e-3, 2**-53)


def _edited(base: np.ndarray, edits) -> np.ndarray:
    """A copy of base with each (kind, index, other, value) edit applied: an entry set to a
    value, shifted by it, or moved by it to another entry of its cell, which keeps the cell
    sum and moves the marginals."""
    arr = np.array(base)
    for kind, index, other, value in edits:
        if kind == "set":
            arr[index] = value
        elif kind == "shift":
            arr[index] += value
        else:
            arr[index] += value
            arr[index[:2] + other] -= value
    return arr


_BASES = (ideal_pr_box().probs, quaternionic_box().probs, complex_quantum_box().probs,
          noisy_box(ideal_pr_box(), 0.8).probs, classical_box((0, 1), (1, 0)).probs)
_ENTRY = st.tuples(*[st.sampled_from((0, 1))] * 4)
_EDIT = st.one_of(
    st.tuples(st.just("set"), _ENTRY, st.just(None), st.sampled_from(EDGE_ENTRIES)),
    st.tuples(st.sampled_from(("shift", "move")), _ENTRY, st.tuples(*[st.sampled_from((0, 1))] * 2),
              st.sampled_from(NUDGES).flatmap(lambda e: st.sampled_from((e, -e)))),
)


@given(st.sampled_from(_BASES), st.lists(_EDIT, max_size=3),
       st.sampled_from((0.0, 1e-12, 1e-10, 1e-3)))
@settings(max_examples=400, deadline=None)
def test_table_checks_match_the_numpy_reference(base, edits, tol):
    arr = _edited(base, edits)
    with np.errstate(all="ignore"):  # the reference's sums of 1e308 overflow
        want_error, want_non_signalling = (reference_behavior_error(arr),
                                           reference_is_non_signalling(arr, tol))
    with np.errstate(all="raise"):
        try:
            BoxBehavior(arr)
        except ValueError as err:
            got_error = str(err)
        else:
            got_error = None
        assert got_error == want_error
        assert non_signalling_at(arr, tol) is want_non_signalling


def test_table_checks_match_the_numpy_reference_at_each_edge():
    # each edge entry in each position of the PR box, and each nudge moved within each cell
    tables = [_edited(ideal_pr_box().probs, [("set", entry, None, value)])
              for entry in itertools.product((0, 1), repeat=4) for value in EDGE_ENTRIES]
    tables += [_edited(ideal_pr_box().probs, [("move", entry, other, sign * nudge)])
               for entry in itertools.product((0, 1), repeat=4)
               for other in itertools.product((0, 1), repeat=2)
               for nudge in NUDGES for sign in (1, -1)]
    errors = set()
    for arr in tables:
        with np.errstate(all="ignore"):
            want = reference_behavior_error(arr), reference_is_non_signalling(arr, 0.0)
        try:
            BoxBehavior(arr)
            got_error = None
        except ValueError as err:
            got_error = str(err)
        assert (got_error, non_signalling_at(arr, 0.0)) == want
        errors.add(got_error)
    assert len(errors) == 5  # every check decides some table, and some tables pass


def test_cell_order_matches_the_readout_labels():
    # measured boxes read measure_product_basis(...).values() as P(x, y) in CELLS order
    labels = measure_product_basis(bell_state(1.0), [hadamard()] * 2)
    assert [f"{x}{y}" for x, y in CELLS] == list(labels)


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
    a = [box.sample(3, np.random.default_rng(5).random()) for _ in range(5)]
    b = [box.sample(3, np.random.default_rng(5).random()) for _ in range(5)]
    assert a == b


def test_sample_respects_support():
    box = ideal_pr_box()
    rng = np.random.default_rng(6)
    for a, b in ALL_CELLS:
        for _ in range(200):
            x, y = divmod(box.sample(2 * a + b, rng.random()), 2)
            assert x ^ y == (a & b)


def test_sample_gives_the_last_pair_when_the_sums_fall_short():
    # every cell sums to 1 - 4e-11, inside the tolerance, with the shortfall on output
    # (1, 1): a double at or past the last running sum is still output cell 3, not cell 0
    box = BoxBehavior(np.full((2, 2, 2, 2), 0.25) - [[0.0, 0.0], [0.0, 4e-11]])
    last = box.probs.reshape(4, 4).cumsum(axis=1)[:, -1].tolist()
    for (a, b), total in zip(ALL_CELLS, last):
        assert total < 1.0
        for r in (math.nextafter(total, 0.0), total, 1.0 - 1e-11, math.nextafter(1.0, 0.0)):
            assert box.sample(2 * a + b, r) == 3


@pytest.mark.parametrize("box", [ideal_pr_box(), quaternionic_box(), complex_quantum_box(),
                                 noisy_box(complex_quantum_box(), 0.8),
                                 classical_box((0, 1), (1, 0))])
def test_sample_takes_bits_and_refuses_other_inputs(box):
    # an input cell that is not an integer in 0..3 is refused, by the value given: a float or
    # a bool is not a cell, though 1.0 and True hash as the key 1
    for cell in (-1, 4, 0.5, 1.0, np.float64(1), True, np.True_, "1", None):
        with pytest.raises(KeyError) as refused:
            box.sample(cell, 0.5)
        assert refused.value.args == (f"input cell must be an integer in 0..3, got {cell!r}",)
    # a cell outside 0..3 is refused too, before any draw, not read from the end of an array
    for cells in ([-1], [4], [0, 4, 3], np.array([255], np.uint8), np.array([3, 2**63], np.uint64)):
        with pytest.raises(KeyError):
            box.sample_cells(np.array(cells), np.full(len(cells), 0.5))
    # cells that are not integers, which indexing would read as a mask or refuse by its own
    # error, and doubles that numpy would broadcast over the cells
    for cells in (np.array([True] * 4), np.array([0.0, 1.0, 2.0, 3.0]), np.array(["1"])):
        with pytest.raises(KeyError, match="input cells must be integers in 0..3"):
            box.sample_cells(cells, np.full(len(cells), 0.3))
    for doubles in (np.array([0.3]), 0.3, np.full((4, 1), 0.3), np.full(5, 0.3)):
        with pytest.raises(ValueError, match=r"doubles must have shape \(4,\)"):
            box.sample_cells(np.arange(4), doubles)
    empty = box.sample_cells(np.array([], np.uint8), np.array([]))
    assert (empty.dtype, empty.shape) == (np.uint8, (0,))
    # a numpy integer is the same cell as the int
    doubles = np.random.default_rng(9).random(200).tolist()
    for cell in range(4):
        want = [box.sample(cell, r) for r in doubles]
        for kind in (np.int64, np.uint8):
            assert [box.sample(kind(cell), r) for r in doubles] == want


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**31 - 1, 2**63])
def test_one_array_of_doubles_equals_as_many_scalar_draws(seed):
    # the protocol and --samples draw a whole block with rng.random(n) and hand the doubles
    # to sample or sample_cells; that is bit for bit the scalar stream only while numpy keeps this
    for size in (0, 1, 2, 7, 4096, 50001):
        bulk, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        assert bulk.random(size).tolist() == [scalar.random() for _ in range(size)]
        assert bulk.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**31 - 1, 2**63])
def test_raw_words_decode_to_the_chsh_rounds(seed):
    # chsh --samples reads each round's integers(2), integers(2), random() from two PCG64
    # words: a is bit 31 and b bit 63 of the even word, and the odd one gives the double
    for size in (0, 1, 2, 7, 4097):
        bulk, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        words = bulk.bit_generator.random_raw(2 * size)
        decoded = [(int(w >> 31 & 1), int(w >> 63), float(v >> 11) * 2**-53)
                   for w, v in zip(words[::2].tolist(), words[1::2].tolist())]
        rounds = [(int(scalar.integers(2)), int(scalar.integers(2)), scalar.random())
                  for _ in range(size)]
        assert decoded == rounds
        # the scalar rounds leave the last even word's high half in numpy's 32-bit buffer,
        # marked empty (has_uint32 = 0); random_raw never fills it, and nothing else differs
        buffered = words[-2].item() >> 32 if size else 0
        assert scalar.bit_generator.state == {**bulk.bit_generator.state, "uinteger": buffered}
        assert scalar.bit_generator.state["has_uint32"] == 0
