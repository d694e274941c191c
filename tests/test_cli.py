import hashlib
import json
import math
import os
import runpy
import subprocess
import sys
import time
import tracemalloc
from collections import Counter

import jsonschema
import numpy as np
import pytest

from quatbox import cli
from quatbox.boxes import CELLS, BoxBehavior, ideal_pr_box, noisy_box
from quatbox.vandam import ANF, VERIFY_CELL_BUDGET, BooleanFunction, anf_transform

from helpers import count_calls, negative_entry_box

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "schemas", "cli_output.schema.json")
with open(SCHEMA_PATH, encoding="utf-8") as fh:
    SCHEMA = json.load(fh)

REPRODUCE_PATH = os.path.join(os.path.dirname(__file__), "..", "scripts", "reproduce_results.py")
SRC_PATH = os.path.join(os.path.dirname(__file__), "..", "src")
#: SHA-256 of everything scripts/reproduce_results.py prints; a change meant to alter
#: that output must say so and update the digest
REPRODUCE_DIGEST = "7f0720c0f1820ce0fbe611dac7864741384a2f18a205b6e902e045e131a604f0"


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, _ = run_cli(capsys, argv + ["--format", "json"])
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


def forbid_draws(monkeypatch):
    """Make both draw entry points raise: `sample`, and `sample_cells`, which every
    Monte Carlo path calls and which need not go through `sample`."""
    def no_draws(*args):
        raise AssertionError("a box was sampled")

    for name in ("sample", "sample_cells"):
        monkeypatch.setattr(BoxBehavior, name, no_draws)


def test_prbox_quaternionic_is_perfect(capsys):
    code, payload = run_json(capsys, ["prbox"])
    assert code == 0
    assert payload["pass"] is True
    assert abs(payload["chsh"]["win_probability"] - 1.0) <= 1e-10
    assert all(payload["cells_pass"].values())


def test_prbox_complex_strategy_reports_tsirelson(capsys):
    code, payload = run_json(capsys, ["prbox", "--strategy", "complex"])
    assert code == 0  # not expected to be perfect, so imperfect cells do not fail it
    assert abs(payload["chsh"]["win_probability"] - math.cos(math.pi / 8) ** 2) <= 1e-9
    assert payload["pass"] is False
    assert payload["expected_perfect"] is False


def test_prbox_csv_table(capsys):
    code, out, _ = run_cli(capsys, ["prbox", "--format", "csv", "--strategy", "ideal"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,b,x,y,probability"
    assert len(lines) == 17
    assert lines[1] == "0,0,0,0,0.5"


def test_prbox_text_has_pass_column(capsys):
    code, out, _ = run_cli(capsys, ["prbox"])
    assert code == 0
    assert out.count("PASS") == 4
    assert "CHSH win probability: 1.0000000000" in out


def test_prbox_cell_bound_is_inclusive(capsys, monkeypatch):
    # near 1 a float win w has w - 1 a multiple of 2**-53, never the 1e-10 of CELL_TOL
    # itself; at a bound of 0 the ideal box's wins of exactly 1.0 pass, and the
    # quaternionic box's 1 + 4.4e-16 fail
    monkeypatch.setattr(cli, "CELL_TOL", 0.0)
    code, payload = run_json(capsys, ["prbox", "--strategy", "ideal"])
    assert (code, set(payload["cells_pass"].values())) == (0, {True})
    code, payload = run_json(capsys, ["prbox", "--strategy", "quaternionic"])
    assert (code, set(payload["cells_pass"].values())) == (1, {False})


def test_prbox_samples_cross_check(capsys):
    code, payload = run_json(capsys, ["prbox", "--samples", "2000", "--seed", "5"])
    assert code == 0
    assert payload["samples"]["per_cell"] == 2000
    assert payload["samples"]["max_abs_deviation"] <= 0.05


def per_draw_deviation(box, samples, seed):
    """prbox's max_abs_deviation from one box.sample, and so one scalar rng.random(),
    per draw: samples draws per input cell, the cells in CELLS order."""
    rng = np.random.default_rng(seed)
    counts = [Counter(box.sample(c, rng.random()) for _ in range(samples)) for c in range(4)]
    return max(abs(counts[c][2 * x + y] / samples - box.probs[a, b, x, y])
               for c, (a, b) in enumerate(CELLS) for x, y in CELLS)


@pytest.mark.parametrize("strategy", [
    "ideal", "quaternionic", "complex", "classical", "noisy:0.9", "noisy:1", "negative entry",
])
def test_prbox_samples_equal_one_scalar_draw_per_sample(capsys, monkeypatch, strategy):
    box = negative_entry_box() if strategy == "negative entry" else cli.resolve_box(strategy)
    monkeypatch.setattr(cli, "resolve_box", lambda name: box)
    for seed in (0, 7, 2**31 - 1):
        for samples in (1, 2, 3, 1500):
            argv = ["prbox", "--strategy", strategy, "--seed", str(seed), "--samples", str(samples)]
            _, out, _ = run_cli(capsys, argv + ["--format", "json"])
            got = json.loads(out)["samples"]["max_abs_deviation"]
            assert got == per_draw_deviation(box, samples, seed)


def test_prbox_samples_in_chunks_equal_one_scalar_draw_per_sample(capsys):
    box = cli.resolve_box("noisy:0.75")
    for samples in (cli._SAMPLE_CHUNK - 1, cli._SAMPLE_CHUNK, cli._SAMPLE_CHUNK + 1):
        argv = ["prbox", "--strategy", "noisy:0.75", "--seed", "3", "--samples", str(samples)]
        _, out, _ = run_cli(capsys, argv + ["--format", "json"])
        assert json.loads(out)["samples"]["max_abs_deviation"] == per_draw_deviation(box, samples, 3)


def test_prbox_samples_hold_one_chunk_of_doubles_at_a_time(capsys):
    argv = ["prbox", "--strategy", "noisy:0.75", "--samples", "200000", "--format", "json"]
    tracemalloc.start()
    try:
        code, _, _ = run_cli(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 5 << 20  # all 200000 doubles of a cell as floats would take 9 MiB


#: SHA-256 of the stdout of the two largest --samples runs, whose draws cross every chunk
#: boundary; a change meant to alter either output must say so and update its digest
MILLION_SAMPLE_DIGESTS = {
    "chsh": "35866e48fe79df26e55940036c718d30b888edb79e156b07cde1e85fd73e6886",
    "prbox": "b44af53d79c1432784d062ffd9fd358f09fadec0801ae5b49d71782e8ea5f2a9",
}


@pytest.mark.parametrize("argv", [
    ["chsh", "--strategy", "noisy:0.9"], ["prbox", "--strategy", "noisy:0.75"],
], ids=lambda argv: argv[0])
def test_a_million_samples_print_the_pinned_bytes(capsys, argv):
    code, out, _ = run_cli(capsys, argv + ["--samples", str(cli.MAX_SAMPLES), "--format", "json"])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, MILLION_SAMPLE_DIGESTS[argv[0]])


def per_round_win(box, rounds, seed):
    """chsh's empirical_win from two rng.integers(2) calls, then one box.sample, per round."""
    rng = np.random.default_rng(seed)
    wins = 0
    for _ in range(rounds):
        a, b = int(rng.integers(2)), int(rng.integers(2))
        x, y = divmod(box.sample(2 * a + b, rng.random()), 2)
        wins += (x ^ y) == (a & b)
    return wins / rounds


@pytest.mark.parametrize("strategy", [
    "ideal", "quaternionic", "complex", "classical", "noisy:0.9", "negative entry",
    # the classical strategy's box comes from resolve_box like every other's
    "negative entry as classical",
])
def test_chsh_samples_equal_the_per_round_loop(capsys, monkeypatch, strategy):
    box = negative_entry_box() if "negative entry" in strategy else cli.resolve_box(strategy)
    monkeypatch.setattr(cli, "resolve_box", lambda name: box)
    name = strategy.rpartition(" as ")[2]
    chunk = cli._SAMPLE_CHUNK
    for seed in (0, 7, 2**31 - 1):
        for rounds in (1, 2, 3, 1500, chunk - 1, chunk, chunk + 1):
            argv = ["chsh", "--strategy", name, "--seed", str(seed), "--samples", str(rounds)]
            _, out, _ = run_cli(capsys, argv + ["--format", "json"])
            payload = json.loads(out)
            assert payload["win_probability"] == cli.chsh_value(box).win_probability
            assert payload["samples"]["empirical_win"] == per_round_win(box, rounds, seed)


def test_chsh_samples_hold_one_chunk_of_rounds_at_a_time(capsys):
    argv = ["chsh", "--strategy", "noisy:0.9", "--samples", "200000", "--format", "json"]
    tracemalloc.start()
    try:
        code, _, _ = run_cli(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 5 << 20  # 200000 rounds' words, cells and doubles at once take 8.6 MiB


#: what each --samples run draws from its generator, per sample: a double for each of
#: prbox's 4 input cells, or chsh's two raw words for a round's inputs and its double
SAMPLE_DRAWS = {
    "prbox": lambda rng, n: rng.random(4 * n),
    "chsh": lambda rng, n: rng.bit_generator.random_raw(2 * n),
}


@pytest.mark.parametrize("command", sorted(SAMPLE_DRAWS))
def test_samples_advance_the_generator_by_exactly_their_draws(capsys, monkeypatch, command):
    default_rng, made = np.random.default_rng, []

    def kept_rng(seed):
        made.append(default_rng(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", kept_rng)
    for samples in (1, cli._SAMPLE_CHUNK, cli._SAMPLE_CHUNK + 1):
        made.clear()
        argv = [command, "--strategy", "noisy:0.9", "--seed", "5", "--samples", str(samples)]
        assert run_cli(capsys, argv + ["--format", "json"])[0] == 0
        fresh = default_rng(5)
        SAMPLE_DRAWS[command](fresh, samples)
        assert [rng.bit_generator.state for rng in made] == [fresh.bit_generator.state]


def test_prbox_csv_ignores_samples_without_drawing(capsys, monkeypatch):
    _, plain, _ = run_cli(capsys, ["prbox", "--format", "csv"])

    forbid_draws(monkeypatch)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["prbox", "--format", "csv", "--samples", "1000000"])
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (0, plain, "")


def test_chsh_classical_optimum(capsys):
    code, payload = run_json(capsys, ["chsh", "--strategy", "classical"])
    assert code == 0
    assert payload["win_probability"] == 0.75
    assert payload["optimal_strategies"] == {"alice": [0, 0], "bob": [0, 0]}


@pytest.mark.parametrize("command, most", [
    ("prbox --strategy classical", 1),
    ("vandam --function AND --strategy classical", 1),
    ("chsh --strategy classical", 1),
    ("prbox --strategy quaternionic", 1),
    ("chsh --strategy complex", 1),
    ("vandam --function IP2 --strategy ideal", 1),
])
def test_each_request_builds_its_box_once(capsys, monkeypatch, command, most):
    # the classical box is the optimum's: scoring the 16 pairs builds no box
    box_builds = count_calls(monkeypatch, BoxBehavior, "__post_init__")
    code, _, _ = run_cli(capsys, command.split())
    assert code == 0
    assert box_builds[0] <= most


def test_chsh_noisy_strategy(capsys):
    code, payload = run_json(capsys, ["chsh", "--strategy", "noisy:0.9"])
    assert code == 0
    assert payload["win_probability"] == 0.9


def test_chsh_samples(capsys):
    code, payload = run_json(capsys, ["chsh", "--samples", "4000", "--seed", "1"])
    assert code == 0
    assert abs(payload["samples"]["empirical_win"] - 1.0) <= 0.01


def test_vandam_ip2(capsys):
    code, payload = run_json(capsys, ["vandam", "--function", "IP2"])
    assert code == 0
    assert payload["success_rate"] == 1.0
    assert payload["boxes_used"] == 2
    assert payload["bits_bob_to_alice"] == 1
    assert payload["bits_alice_to_bob"] == 0
    assert payload["pass"] is True


def test_vandam_perfect_strategy_short_of_one_exits_one(capsys, monkeypatch):
    # a success rate within 1e-12 of 1 still falls short of the perfect box's promise
    monkeypatch.setattr(cli, "quaternionic_box", lambda: noisy_box(ideal_pr_box(), 1 - 2**-40))
    code, payload = run_json(capsys, ["vandam", "--function", "AND"])
    assert 1.0 - 1e-12 <= payload["success_rate"] < 1.0
    assert code == 1
    assert payload["pass"] is False


def test_vandam_noisy_reports_interior_rate(capsys):
    code, payload = run_json(capsys, ["vandam", "--function", "AND", "--strategy", "noisy:0.85"])
    assert code == 0
    assert 0.5 < payload["success_rate"] < 1.0


def test_vandam_function_file(capsys, tmp_path):
    table_obj = {"n_alice": 2, "n_bob": 1, "table": "c0"}  # f(x, y) = x0 * x1 (pure Alice)
    path = tmp_path / "func.json"
    path.write_text(json.dumps(table_obj), encoding="utf-8")
    code, payload = run_json(capsys, ["vandam", "--function", str(path)])
    assert code == 0
    assert payload["success_rate"] == 1.0
    assert payload["boxes_used"] == 0
    assert payload["bits_bob_to_alice"] == 1


def test_vandam_unknown_function_is_config_error(capsys):
    code, out, err = run_cli(capsys, ["vandam", "--function", "MAJ3"])
    assert code == 2
    assert out == ""
    assert "unknown function" in err


def test_vandam_bad_function_file_is_config_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"n_alice\": 1}", encoding="utf-8")
    code, _, err = run_cli(capsys, ["vandam", "--function", str(path)])
    assert code == 2
    assert "bad truth-table file" in err


def test_vandam_directory_as_function_exits_two(capsys, tmp_path):
    code, out, err = run_cli(capsys, ["vandam", "--function", str(tmp_path)])
    assert code == 2
    assert out == ""
    assert "bad truth-table file" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"n_alice": Infinity, "n_bob": 1, "table": "0"}', "bad truth-table file"),
        ("[" * 100000 + "]" * 100000, "bad truth-table file"),
        ('{"n_alice": 1, "n_bob": 1, "table": "-f"}', "table must be a non-negative hex string"),
        ('{"n_alice": 1.9, "n_bob": 1, "table": "8"}', "must be integers"),
        ('{"n_alice": true, "n_bob": 1, "table": "8"}', "must be integers"),
        ('{"n_alice": 1, "n_bob": "1", "table": "8"}', "must be integers"),
        ('{"n_alice": 1, "n_bob": 1, "table": 8}', "table must be a hex string"),
        # int(text, 16) alone loads the first five as 8 (AND on 1+1 bits), "f_f" as 0xff
        ('{"n_alice": 1, "n_bob": 1, "table": "0x8"}', "table must be a non-negative hex"),
        ('{"n_alice": 1, "n_bob": 1, "table": "+8"}', "table must be a non-negative hex"),
        ('{"n_alice": 1, "n_bob": 1, "table": " 8\\n"}', "table must be a non-negative hex"),
        ('{"n_alice": 1, "n_bob": 1, "table": "\\u0668"}', "table must be a non-negative hex"),
        ('{"n_alice": 1, "n_bob": 1, "table": "\\uff18"}', "table must be a non-negative hex"),
        ('{"n_alice": 2, "n_bob": 2, "table": "f_f"}', "table must be a non-negative hex"),
        ('{"n_alice": 1, "n_bob": 1, "table": ""}', "table must be a non-negative hex"),
        # anything but an object, and an object without one of the three keys
        ("[1, 2]", "a truth table must be a JSON object, got list"),
        ('"table"', "a truth table must be a JSON object, got str"),
        ("8", "a truth table must be a JSON object, got int"),
        ('{"n_bob": 1, "table": "8"}', "missing key 'n_alice'"),
        ('{"n_alice": 1, "table": "8"}', "missing key 'n_bob'"),
        ('{"n_alice": 1, "n_bob": 1}', "missing key 'table'"),
    ],
    ids=["infinite-width", "deeply-nested", "negative-table", "float-width", "bool-width",
         "string-width", "integer-table", "hex-prefix", "plus-sign", "whitespace",
         "arabic-indic-digit", "fullwidth-digit", "underscore", "empty-table",
         "list", "string", "number", "no-n_alice", "no-n_bob", "no-table"],
)
def test_vandam_malformed_function_file_exits_two(capsys, tmp_path, text, reason):
    path = tmp_path / "f.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, ["vandam", "--function", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad truth-table file")
    assert reason in err
    assert len(err.splitlines()) == 1


def test_vandam_oversized_function_file_exits_two(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n_alice": 11, "n_bob": 11, "table": "0"}), encoding="utf-8")
    code, out, err = run_cli(capsys, ["vandam", "--function", str(path)])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1


def test_vandam_function_file_over_the_size_cap_exits_two(capsys, tmp_path):
    cap = cli._MAX_TABLE_CHARS
    text = json.dumps({"n_alice": 1, "n_bob": 1, "table": "8"})
    path = tmp_path / "padded.json"
    path.write_text(text.ljust(cap), encoding="utf-8")
    code, _, _ = run_cli(capsys, ["vandam", "--function", str(path)])
    assert code == 0
    path.write_text(text.ljust(cap + 1), encoding="utf-8")
    code, out, err = run_cli(capsys, ["vandam", "--function", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad truth-table file")
    assert f"larger than {cap} characters" in err
    assert len(err.splitlines()) == 1


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs an endless file")
def test_vandam_endless_function_file_is_read_within_the_cap(capsys):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, ["vandam", "--function", "/dev/zero"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert f"larger than {cli._MAX_TABLE_CHARS} characters" in err
    assert peak < 8 * cli._MAX_TABLE_CHARS


def test_vandam_over_cell_budget_exits_two_before_any_draw(capsys, monkeypatch, tmp_path):
    # a random 6+6-bit table has about 2000 mixed monomials, 2**12 box cells each
    packed = int.from_bytes(np.random.default_rng(5).bytes(1 << 9), "little")
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"n_alice": 6, "n_bob": 6, "table": f"{packed:x}"}),
                    encoding="utf-8")

    forbid_draws(monkeypatch)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["vandam", "--function", str(path)])
    assert time.perf_counter() - start < 5.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: refusing exhaustive run over")
    assert len(err.splitlines()) == 1


def test_vandam_dense_twenty_bit_table_is_refused_before_any_monomial_tuple(
    capsys, monkeypatch, tmp_path
):
    # a random 10+10-bit table has about 2**19 mixed monomials: the budget needs only
    # their count, so the mask array is not built
    packed = int.from_bytes(np.random.default_rng(20).bytes(1 << 17), "little")
    path = tmp_path / "dense20.json"
    path.write_text(json.dumps({"n_alice": 10, "n_bob": 10, "table": f"{packed:x}"}),
                    encoding="utf-8")

    def no_masks(self):
        raise AssertionError("the monomial masks were built")

    monkeypatch.setattr(ANF, "_masks", property(no_masks))
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, ["vandam", "--function", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err.startswith("error: refusing exhaustive run over") and len(err.splitlines()) == 1
    assert peak < 32 << 20  # the refusal peaks at about 4 MiB


def test_vandam_twenty_bit_table_at_the_cell_budget(capsys, tmp_path):
    # mixed monomials x0 y0 and x1 y1 plus two pure ones and the constant: 2 << 20 box
    # cells, the budget exactly; the Moebius transform is an involution, so the table
    # whose ANF is coef is the transform of coef
    coef = np.zeros(1 << 20, np.uint8)
    coef[[(1 << 10) | 1, (2 << 10) | 2, 4 << 10, 8, 0]] = 1
    f = BooleanFunction(10, 10, anf_transform(BooleanFunction(10, 10, coef)).coefficients)
    assert anf_transform(f).coefficients == coef.tobytes()
    assert 2 << 20 == VERIFY_CELL_BUDGET
    path = tmp_path / "twenty.json"
    path.write_text(json.dumps(f.to_json_obj()), encoding="utf-8")
    argv = ["vandam", "--function", str(path), "--strategy", "quaternionic"]
    code, payload = run_json(capsys, argv)
    assert code == 0
    assert payload["n_inputs"] == 1 << 20
    assert payload["boxes_used"] == 2
    assert payload["success_rate"] == 1.0


def test_vandam_exit_one_when_perfect_strategy_fails(capsys, monkeypatch):
    from quatbox.vandam import VerifyReport

    def fake_verify(func, box, rng=None):
        return VerifyReport(0.875, 0.875, 1, 1, 0, 4)

    monkeypatch.setattr(cli, "verify_exhaustive", fake_verify)
    code, out, _ = run_cli(capsys, ["vandam", "--function", "AND"])
    assert code == 1
    assert "FAIL" in out


def test_order_demo_quaternionic(capsys):
    code, payload = run_json(capsys, ["order-demo"])
    assert code == 0
    assert payload["orthogonal"] is True
    assert payload["states_identical"] is False
    assert payload["inner_product"] == [0.0, 0.0, 0.0, 0.0]
    amp11_first = payload["party0_first"]["amplitudes"][3]
    amp11_second = payload["party1_first"]["amplitudes"][3]
    assert amp11_first[3] < 0 < amp11_second[3]  # -k vs +k on |11>


def test_order_demo_bounds_are_inclusive(capsys, monkeypatch):
    # the quaternionic orders' inner product is exactly 0 and the complex orders' states
    # are exactly equal, so both verdicts hold at an ORTHO_TOL of 0
    monkeypatch.setattr(cli, "ORTHO_TOL", 0.0)
    code, payload = run_json(capsys, ["order-demo"])
    assert (code, payload["orthogonal"]) == (0, True)
    code, payload = run_json(capsys, ["order-demo", "--gates", "complex"])
    assert (code, payload["states_identical"]) == (0, True)


def test_order_demo_complex_gates_commute(capsys):
    code, payload = run_json(capsys, ["order-demo", "--gates", "complex"])
    assert code == 0
    assert payload["states_identical"] is True
    assert abs(payload["inner_product"][0] - 1.0) <= 1e-12


def test_unknown_flag_exits_two(capsys):
    for argv in (
        ["prbox", "--bogus"],
        ["prbox", "--format", "xml"],
        ["vandam", "--strategy", "ideal"],
        ["order-demo", "--seed", "1"],  # order-demo draws nothing, so it takes no seed
    ):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        out, err_text = capsys.readouterr()
        assert out == ""
        assert err_text.startswith("error: ") and len(err_text.splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (["--bogus"], "error: unrecognized arguments: --bogus\n"),
    (["--bogus", "prbox"], "error: unrecognized arguments: --bogus\n"),
    # with no unknown option, a missing command is still the error
    ([], "error: the following arguments are required: command\n"),
], ids=["option-alone", "option-then-command", "nothing"])
def test_an_unknown_option_before_the_command_is_named(capsys, argv, message):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("command", ["prbox", "chsh"])
def test_oversized_samples_refused_before_any_draw(capsys, monkeypatch, command):
    forbid_draws(monkeypatch)
    code, out, err = run_cli(capsys, [command, "--samples", str(cli.MAX_SAMPLES + 1)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: --samples") and len(err.splitlines()) == 1


def test_unknown_strategy_is_config_error(capsys, monkeypatch):
    code, _, err = run_cli(capsys, ["prbox", "--strategy", "psychic"])
    assert code == 2
    assert err == ("error: unknown strategy 'psychic'; "
                   "choose classical, complex, quaternionic, ideal or noisy:p\n")
    # the --strategy help names the same strategies
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["prbox", "--help"])
    assert exit_info.value.code == 0
    help_line = next(line for line in capsys.readouterr().out.splitlines()
                     if line.lstrip().startswith("--strategy"))
    assert help_line.split(maxsplit=2)[2] == "classical | complex | quaternionic | ideal | noisy:p"


# float() reads each of the last five as 0.95, 0.9, 0.9, 0.9 and 1.0
@pytest.mark.parametrize("level", [
    "noisy:1.2", "noisy:0.3", "noisy:abc",
    "noisy:0.9_5", "noisy: 0.9", "noisy:\u0660.\u0669", "noisy:9e-1", "noisy:+1",
])
def test_bad_noise_levels_are_config_errors(capsys, level):
    code, out, err = run_cli(capsys, ["chsh", "--strategy", level])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_library_value_error_exits_two(capsys):
    # noisy_box, not the CLI, rejects p = 1.2; the CLI boundary turns that into exit 2
    code, out, err = run_cli(capsys, ["vandam", "--function", "AND", "--strategy", "noisy:1.2"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: noise parameter") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["prbox", "--seed", "-5"],
    ["chsh", "--seed", "-5"],
    ["vandam", "--function", "AND", "--seed", "-1"],
    ["prbox", "--seed", "-5", "--samples", "3"],
])
def test_negative_seed_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --seed") and len(err.splitlines()) == 1


def test_csv_limited_to_prbox(capsys):
    code, _, err = run_cli(capsys, ["chsh", "--format", "csv"])
    assert code == 2
    assert "csv" in err


def test_output_does_not_depend_on_the_environment(capsys, monkeypatch):
    monkeypatch.delenv("QUATBOX_FORMAT", raising=False)
    _, unset, _ = run_cli(capsys, ["chsh"])
    monkeypatch.setenv("QUATBOX_FORMAT", "json")
    code, out, _ = run_cli(capsys, ["chsh"])
    assert code == 0
    assert out == unset


def test_output_is_reproducible(capsys):
    argv = ["prbox", "--samples", "500", "--seed", "7", "--format", "json"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second
    argv_text = ["vandam", "--function", "IP2", "--seed", "3"]
    _, first, _ = run_cli(capsys, argv_text)
    _, second, _ = run_cli(capsys, argv_text)
    assert first == second


@pytest.mark.parametrize("argv", [["prbox"], ["chsh"], ["vandam", "--function", "AND"]],
                         ids=lambda argv: argv[0])
def test_each_boxed_command_echoes_the_request_that_ran(capsys, argv):
    # the golden replays run with seed 0, so a payload's seed is checked here
    _, payload = run_json(capsys, argv + ["--strategy", "noisy:0.9", "--seed", "7"])
    echoed = payload["command"], payload["strategy"], payload["seed"]
    assert echoed == (argv[0], "noisy:0.9", 7)


def test_all_order_demo_formats_render(capsys):
    code, out, _ = run_cli(capsys, ["order-demo"])
    assert code == 0
    assert "inner product: 0" in out


def test_reproduce_results_prints_the_pinned_bytes(capsys):
    code = runpy.run_path(REPRODUCE_PATH)["main"]()
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, REPRODUCE_DIGEST)


@pytest.mark.parametrize("argv", [
    ["chsh"], ["vandam", "--function", "IP4", "--format", "json"], ["order-demo", "--format", "json"],
    ["--help"], ["prbox", "--help"],
])
def test_a_closed_stdout_exits_141_with_nothing_on_stderr(argv):
    # the pipe's read end is closed before the spawn, so the first write fails: no race
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC_PATH))
    try:
        result = subprocess.run([sys.executable, "-m", "quatbox", *argv], stdout=write_end,
                                stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (141, b"")
