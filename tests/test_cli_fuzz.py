"""Property tests of the CLI's input boundary over generated argv and truth-table files.

Whatever the arguments, quatbox exits 0, 1 or 2, never prints a traceback,
rejects bad input with exactly one stderr line, and emits JSON that
validates against the output schema.
"""

import contextlib
import io
import json
import os

import jsonschema
from hypothesis import given, settings
from hypothesis import strategies as st

from quatbox import cli

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "schemas", "cli_output.schema.json")
with open(SCHEMA_PATH, encoding="utf-8") as fh:
    SCHEMA = json.load(fh)

# an explicit alphabet spares Hypothesis building a Unicode character map (seconds)
_text = st.text(alphabet='01289abfxyz-+.e{}[]":, ', max_size=8)


@st.composite
def valid_tables(draw):
    n_alice, n_bob = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    packed = draw(st.integers(0, (1 << (1 << (n_alice + n_bob))) - 1))
    return json.dumps({"n_alice": n_alice, "n_bob": n_bob, "table": f"{packed:x}"})


# integer widths stay in [-3, 3] or sum past VERIFY_SIZE_CAP, so no generated
# file asks for a long exhaustive run
_widths = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([25, 40, 10**9]),
    st.floats(),
    _text,
    st.none(),
    st.lists(st.integers(0, 1), max_size=2),
)

tables = st.one_of(
    valid_tables(),
    st.builds(  # oversized
        lambda a, b: json.dumps({"n_alice": a, "n_bob": b, "table": "0"}),
        st.integers(11, 40),
        st.integers(11, 40),
    ),
    st.sampled_from([
        "", "[]", "3", "null", '"AND"', "{", "[" * 5000 + "]" * 5000,
        '{"n_alice": Infinity, "n_bob": 1, "table": "0"}',
        '{"n_alice": 1, "n_bob": NaN, "table": "0"}',
        '{"n_alice": 1, "n_bob": 1, "table": "-f"}',
    ]),
    st.builds(
        lambda a, b, t: json.dumps({"n_alice": a, "n_bob": b, "table": t}),
        _widths,
        _widths,
        st.one_of(_text, st.integers(-5, 5), st.none()),
    ),
    st.dictionaries(st.sampled_from(["n_alice", "n_bob", "table"]), st.integers(0, 2)).map(
        json.dumps
    ),
    _text,
)

_options = st.one_of(
    st.tuples(st.just("--strategy"), st.sampled_from([
        "classical", "complex", "quaternionic", "ideal",
        "noisy:0.8", "noisy:2", "noisy:x", "psychic", "",
    ])),
    st.tuples(st.just("--format"), st.sampled_from(["text", "json", "csv", "xml"])),
    st.tuples(st.just("--seed"), st.one_of(st.integers(-2, 5).map(str), st.just("x"))),
    st.tuples(st.just("--samples"), st.one_of(
        st.integers(-2, 30), st.integers(cli.MAX_SAMPLES + 1, 10**12)
    ).map(str)),
    st.tuples(st.just("--function"), st.sampled_from(["AND", "XOR", "IP2", "NOPE", "."])),
    st.tuples(st.just("--gates"), st.sampled_from(["quaternionic", "complex", "real"])),
    st.tuples(st.sampled_from(["--bogus", "-x", "--"])),
)

argvs = st.builds(
    lambda command, options: [command] + [token for option in options for token in option],
    st.sampled_from(["prbox", "chsh", "vandam", "order-demo", "bogus"]),
    st.lists(_options, max_size=4),
)


def check_boundary(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad syntax this way
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    formats = [value for flag, value in zip(argv, argv[1:]) if flag == "--format"]
    if code == 2:
        assert len(err.splitlines()) == 1, err
    elif formats[-1:] == ["json"]:
        jsonschema.validate(json.loads(out), SCHEMA)


@settings(max_examples=80, deadline=None)
@given(argv=argvs)
def test_cli_boundary_holds_for_generated_argv(argv):
    check_boundary(argv)


@settings(max_examples=100, deadline=None)
@given(table=tables, fmt=st.sampled_from(["text", "json"]))
def test_cli_boundary_holds_for_generated_truth_tables(tmp_path_factory, table, fmt):
    path = tmp_path_factory.mktemp("table") / "table.json"
    path.write_text(table, encoding="utf-8")
    check_boundary(["vandam", "--function", str(path), "--format", fmt])
