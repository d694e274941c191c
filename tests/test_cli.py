import json
import math
import os
import time
import tracemalloc

import jsonschema
import numpy as np
import pytest

from quatbox import cli
from quatbox.boxes import BoxBehavior

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "schemas", "cli_output.schema.json")
with open(SCHEMA_PATH, encoding="utf-8") as fh:
    SCHEMA = json.load(fh)


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, _ = run_cli(capsys, argv + ["--format", "json"])
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


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


def test_prbox_samples_cross_check(capsys):
    code, payload = run_json(capsys, ["prbox", "--samples", "2000", "--seed", "5"])
    assert code == 0
    assert payload["samples"]["per_cell"] == 2000
    assert payload["samples"]["max_abs_deviation"] <= 0.05


def test_chsh_classical_optimum(capsys):
    code, payload = run_json(capsys, ["chsh", "--strategy", "classical"])
    assert code == 0
    assert payload["win_probability"] == 0.75
    assert payload["optimal_strategies"] == {"alice": [0, 0], "bob": [0, 0]}


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
    ],
    ids=["infinite-width", "deeply-nested", "negative-table", "float-width", "bool-width",
         "string-width", "integer-table", "hex-prefix", "plus-sign", "whitespace",
         "arabic-indic-digit", "fullwidth-digit", "underscore", "empty-table"],
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

    def no_draws(*args):
        raise AssertionError("a box was sampled")

    monkeypatch.setattr(BoxBehavior, "sample", no_draws)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["vandam", "--function", str(path)])
    assert time.perf_counter() - start < 5.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: refusing exhaustive run over")
    assert len(err.splitlines()) == 1


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


@pytest.mark.parametrize("command", ["prbox", "chsh"])
def test_oversized_samples_refused_before_any_draw(capsys, monkeypatch, command):
    def no_draws(*args):
        raise AssertionError("a box was sampled")

    monkeypatch.setattr(BoxBehavior, "sample", no_draws)
    code, out, err = run_cli(capsys, [command, "--samples", str(cli.MAX_SAMPLES + 1)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: --samples") and len(err.splitlines()) == 1


def test_unknown_strategy_is_config_error(capsys):
    code, _, err = run_cli(capsys, ["prbox", "--strategy", "psychic"])
    assert code == 2
    assert "unknown strategy" in err


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
    # numpy rejects the negative seed; the CLI boundary turns that into exit 2
    code, out, err = run_cli(capsys, ["vandam", "--function", "AND", "--seed", "-1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


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


def test_all_order_demo_formats_render(capsys):
    code, out, _ = run_cli(capsys, ["order-demo"])
    assert code == 0
    assert "inner product: 0" in out
