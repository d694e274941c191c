import itertools
import math

from quatbox.boxes import (
    BoxBehavior,
    classical_box,
    complex_quantum_box,
    ideal_pr_box,
    noisy_box,
    quaternionic_box,
)
from quatbox.chsh import (
    CC_COLLAPSE_THRESHOLD,
    CLASSICAL_WIN_BOUND,
    TSIRELSON_WIN_BOUND,
    chsh_value,
    lhv_optimum,
)

from helpers import count_calls

BITS = (0, 1)


def test_ideal_box_wins_always():
    result = chsh_value(ideal_pr_box())
    assert result.win_probability == 1.0
    assert all(v == 1.0 for v in result.per_cell.values())


def test_quaternionic_box_beats_tsirelson():
    win = chsh_value(quaternionic_box()).win_probability
    assert abs(win - 1.0) <= 1e-10
    assert win > TSIRELSON_WIN_BOUND


def test_complex_box_value():
    win = chsh_value(complex_quantum_box()).win_probability
    assert abs(win - TSIRELSON_WIN_BOUND) <= 1e-9


def test_win_probability_is_mean_of_cells():
    for box in (ideal_pr_box(), complex_quantum_box(), noisy_box(ideal_pr_box(), 0.77)):
        result = chsh_value(box)
        mean = math.fsum(result.per_cell.values()) / 4.0
        assert abs(result.win_probability - mean) <= 1e-12


def test_lhv_optimum_is_three_quarters():
    result, (f_alice, f_bob) = lhv_optimum()
    assert result.win_probability == CLASSICAL_WIN_BOUND
    # the returned argmax actually attains the value
    assert chsh_value(classical_box(f_alice, f_bob)).win_probability == 0.75
    # scored without a box, cell by cell as the pair's box scores them
    assert repr(result) == repr(chsh_value(classical_box(f_alice, f_bob)))


def test_lhv_optimum_matches_independent_enumeration():
    # oracle: score every strategy pair straight from the definition
    best = 0.0
    for fa in itertools.product(BITS, repeat=2):
        for fb in itertools.product(BITS, repeat=2):
            wins = sum((fa[a] ^ fb[b]) == (a & b) for a in BITS for b in BITS)
            best = max(best, wins / 4.0)
    assert best == 0.75
    assert lhv_optimum()[0].win_probability == best
    # lhv_optimum scores pairs by that rule too, so check the rule against each pair's
    # box, and the returned pair against the first box that wins most
    pairs = [(fa, fb) for fa in itertools.product(BITS, repeat=2)
             for fb in itertools.product(BITS, repeat=2)]
    box_wins = {pair: chsh_value(classical_box(*pair)).win_probability for pair in pairs}
    for fa, fb in pairs:
        wins = sum((fa[a] ^ fb[b]) == (a & b) for a in BITS for b in BITS)
        assert wins / 4.0 == box_wins[fa, fb]
    assert lhv_optimum()[1] == max(pairs, key=box_wins.__getitem__)


def test_lhv_optimum_builds_no_box(monkeypatch):
    box_builds = count_calls(monkeypatch, BoxBehavior, "__post_init__")
    lhv_optimum()
    assert box_builds[0] == 0


def test_no_deterministic_strategy_exceeds_bound():
    for fa in itertools.product(BITS, repeat=2):
        for fb in itertools.product(BITS, repeat=2):
            assert chsh_value(classical_box(fa, fb)).win_probability <= 0.75


def test_constant_zero_pair_attains_bound():
    assert chsh_value(classical_box((0, 0), (0, 0))).win_probability == 0.75


def test_lhv_optimum_symmetric_under_party_relabeling():
    # swapping the roles of the two parties cannot change the optimum
    best_swapped = max(
        chsh_value(classical_box(fb, fa)).win_probability
        for fa in itertools.product(BITS, repeat=2)
        for fb in itertools.product(BITS, repeat=2)
    )
    assert best_swapped == lhv_optimum()[0].win_probability


def test_noisy_box_value_is_exactly_p():
    for p in (0.5, 0.75, 0.9, 1.0):
        assert chsh_value(noisy_box(ideal_pr_box(), p)).win_probability == p


def test_reference_constants():
    assert CLASSICAL_WIN_BOUND == 0.75
    assert TSIRELSON_WIN_BOUND == math.cos(math.pi / 8) ** 2
    assert 0.9 < CC_COLLAPSE_THRESHOLD < TSIRELSON_WIN_BOUND + 0.1
    assert CLASSICAL_WIN_BOUND < TSIRELSON_WIN_BOUND < 1.0
