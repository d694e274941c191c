"""The three benchmark workloads: seeded inputs, the timed request, its check.

Each workload offers

    cycle(rng)       -> list[Request]  one pass over the workload's fixed mix;
                                       inputs are generated here, untimed
    execute(request) -> output         the timed call into quatbox's public API
    check(request, output) -> str|None why the output is wrong, or None

A run repeats whole cycles, so every run sees the mix in the same
proportions and the median and tail latencies fall on the same request
types from run to run.  Calls go through module attributes
(`quatbox.cli.main`, `quatbox.verify_exhaustive`, ...) looked up at call
time, so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass
from typing import Any

import numpy as np

import quatbox
import quatbox.cli

import reference
import setups

#: Monte Carlo fields may deviate from their exact value by this many
#: binomial standard deviations before a request counts as failed
SIGMAS = 6.0


@dataclass
class Request:
    label: str  # request type; the report gives latency per label
    items: int
    data: Any


# ---------------------------------------------------------------- cli-paper

STRATEGIES = (
    "classical", "complex", "quaternionic", "ideal", "noisy:0.5", "noisy:0.75", "noisy:0.9",
)
#: strategies whose boxes make vandam's empirical rate independent of the draws
DRAW_FREE_STRATEGIES = ("classical", "quaternionic", "ideal")
FUNCTIONS = ("AND", "XOR", "IP2", "IP4")


def cli_mix() -> list[tuple[str, list[str]]]:
    """The fixed cli-paper mix as (kind, argv) pairs.

    kind is "exact" (stdout and exit code compared byte for byte with the
    golden), "sampled" (a per-request seed is appended; exact fields are
    compared exactly and Monte Carlo fields within SIGMAS binomial standard
    deviations) or "invalid" (must exit 2 and print nothing on stdout).
    """
    mix: list[tuple[str, list[str]]] = []
    for strategy in STRATEGIES:
        for fmt in ("text", "json", "csv"):
            mix.append(("exact", ["prbox", "--strategy", strategy, "--format", fmt]))
        for fmt in ("text", "json"):
            mix.append(("exact", ["chsh", "--strategy", strategy, "--format", fmt]))
        kind = "exact" if strategy in DRAW_FREE_STRATEGIES else "sampled"
        for i, function in enumerate(FUNCTIONS):
            fmt = ("text", "json")[i % 2]
            argv = ["vandam", "--function", function, "--strategy", strategy, "--format", fmt]
            mix.append((kind, argv))
    for gates in ("quaternionic", "complex"):
        for fmt in ("text", "json"):
            mix.append(("exact", ["order-demo", "--gates", gates, "--format", fmt]))
    # the default strategy and format
    mix += [("exact", ["prbox"]), ("exact", ["chsh"]), ("exact", ["order-demo"])]
    mix += [
        ("sampled", ["prbox", "--strategy", "quaternionic", "--samples", "300", "--format", "json"]),
        ("sampled", ["prbox", "--strategy", "noisy:0.75", "--samples", "300"]),
        ("sampled", ["prbox", "--strategy", "ideal", "--samples", "300", "--format", "csv"]),
        ("sampled", ["chsh", "--strategy", "complex", "--samples", "1500", "--format", "json"]),
        ("sampled", ["chsh", "--strategy", "classical", "--samples", "1500"]),
        ("sampled", ["chsh", "--strategy", "noisy:0.9", "--samples", "1500", "--format", "json"]),
    ]
    mix += [
        ("invalid", ["prbox", "--format", "xml"]),
        ("invalid", ["chsh", "--strategy", "noisy:0.3"]),
        ("invalid", ["chsh", "--strategy", "bogus"]),
        ("invalid", ["prbox", "--strategy", "noisy:abc"]),
        ("invalid", ["prbox", "--samples", "0"]),
        ("invalid", ["chsh", "--format", "csv"]),
        ("invalid", ["vandam", "--function", "NO_SUCH_FUNCTION"]),
        ("invalid", ["vandam", "--strategy", "ideal"]),
    ]
    return mix


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """quatbox.cli.main in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = quatbox.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _flag(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


_EMPIRICAL_LINE = re.compile(r"empirical success rate \(seed (\d+)\): (\S+)$")
_MC_PREFIX = "monte carlo: "


def _binomial_tol(p: float, n: int) -> float:
    return SIGMAS * math.sqrt(max(p * (1.0 - p), 0.0) / n) + 1e-12


def _monte_carlo_problem(command: str, argv: list[str], value, ref: dict) -> str | None:
    """Check a Monte Carlo field against the exact value recorded in the golden."""
    if command == "vandam":
        p, n = ref["success_rate"], ref["n_inputs"]
        if abs(value - p) > _binomial_tol(p, n):
            return f"empirical_rate {value!r} too far from exact {p!r} over {n} inputs"
        return None
    n = int(_flag(argv, "--samples"))
    if command == "prbox":
        # max over 16 outcome frequencies, each within SIGMAS * sqrt(1/4 / n)
        if value.get("per_cell") != n or not 0.0 <= value["max_abs_deviation"] <= _binomial_tol(0.5, n):
            return f"prbox Monte Carlo block {value!r} out of tolerance for {n} draws per cell"
        return None
    p = ref["win_probability"]
    if value.get("n") != n or abs(value["empirical_win"] - p) > _binomial_tol(p, n):
        return f"chsh Monte Carlo block {value!r} out of tolerance around {p!r}"
    return None


class CliPaper:
    """In-process quatbox.cli.main over the paper's own 2-party traffic."""

    name = "cli-paper"
    #: cycles of a traced run per second of --seconds (plain pass + traced pass)
    trace_cycles_per_s = 1.0

    def __init__(self, golden: dict):
        self.mix = cli_mix()
        self.golden = golden["requests"]
        if [g["argv"] for g in self.golden] != [argv for _, argv in self.mix]:
            raise SystemExit("error: perfbench/golden/cli_paper.json does not match the mix; "
                             "rerun perfbench/capture_golden.py at the reference commit")
        self.order = None

    def cycle(self, rng) -> list[Request]:
        if self.order is None:
            self.order = rng.permutation(len(self.mix)).tolist()
        requests = []
        for index in self.order:
            kind, argv = self.mix[index]
            seed = None
            if kind == "sampled":
                seed = int(rng.integers(1, 2**31))
                argv = argv + ["--seed", str(seed)]
            requests.append(Request(f"{argv[0]}:{kind}", 1, (index, argv, seed)))
        return requests

    def execute(self, request: Request):
        return run_cli(request.data[1])

    def check(self, request: Request, output) -> str | None:
        index, argv, seed = request.data
        kind = self.mix[index][0]
        golden = self.golden[index]
        code, stdout, stderr = output
        if code != golden["code"]:
            return f"{argv}: exit code {code!r}, expected {golden['code']}"
        if kind == "invalid":
            if stdout or not stderr.strip():
                return f"{argv}: a rejected request must print only an error on stderr"
            return None
        fmt = _flag(argv, "--format", "text")
        if kind == "exact" or fmt == "csv":
            return None if stdout == golden["stdout"] else f"{argv}: stdout differs from golden"
        problem = (self._check_sampled_json if fmt == "json" else self._check_sampled_text)(
            argv, seed, stdout, golden
        )
        return None if problem is None else f"{argv}: {problem}"

    @staticmethod
    def _check_sampled_json(argv, seed, stdout, golden) -> str | None:
        try:
            got = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        want = json.loads(golden["stdout"])
        if got.pop("seed", None) != seed:
            return "seed not echoed"
        want.pop("seed")
        key = "empirical_rate" if argv[0] == "vandam" else "samples"
        value = got.pop(key, None)
        want.pop(key)
        if got != want:
            return "exact fields differ from golden"
        if value is None:
            return f"missing {key}"
        return _monte_carlo_problem(argv[0], argv, value, golden["reference"])

    @staticmethod
    def _check_sampled_text(argv, seed, stdout, golden) -> str | None:
        got_lines, want_lines = stdout.split("\n"), golden["stdout"].split("\n")
        if len(got_lines) != len(want_lines):
            return "line count differs from golden"
        for got, want in zip(got_lines, want_lines):
            if want.startswith(_MC_PREFIX):
                if not got.startswith(_MC_PREFIX):
                    return "missing Monte Carlo line"
                value = json.loads(got[len(_MC_PREFIX):])
            elif _EMPIRICAL_LINE.match(want):
                m = _EMPIRICAL_LINE.match(got)
                if m is None or int(m.group(1)) != seed:
                    return "bad empirical success line"
                value = float(m.group(2))
            elif got != want:
                return f"line {got!r} differs from golden {want!r}"
            else:
                continue
            problem = _monte_carlo_problem(argv[0], argv, value, golden["reference"])
            if problem:
                return problem
        return None


# ------------------------------------------------------------ vandam-verify

#: (family, n_alice, n_bob, mixed monomials M).  Inner products have a sparse
#: ANF; "sparse" tables fix M at n = 10-12; "dense" ones have M ~ 0.44 * 2**n.
#: The many M values spread request costs evenly from ~10 to ~150 ms, so the
#: median latency moves smoothly with the machine's speed instead of jumping
#: between a fast and a slow value of one request type.
TABLES = (
    ("ip", 4, 4, 4), ("ip", 5, 5, 5), ("ip", 6, 6, 6),
    ("dense", 3, 3, 28), ("dense", 4, 3, 56), ("dense", 4, 4, 113),
    *(("sparse", 5, 5, m) for m in (2, 3, 4, 6, 8, 11, 16, 22)),
    *(("sparse", 6, 5, m) for m in (2, 3, 4, 6, 8, 11)),
    *(("sparse", 6, 6, m) for m in (2, 3, 4, 6)),
)


def inner_product_table(width: int) -> np.ndarray:
    x = np.arange(1 << width)[:, None]
    y = np.arange(1 << width)[None, :]
    return (np.bitwise_count(x & y) & 1).astype(np.uint8).reshape(-1)


def random_anf(rng, n_alice: int, n_bob: int, n_mixed: int) -> np.ndarray:
    """ANF coefficients with exactly n_mixed mixed monomials and random pure ones."""
    idx = np.arange(1 << (n_alice + n_bob))
    mixed = ((idx >> n_bob) > 0) & ((idx & ((1 << n_bob) - 1)) > 0)
    coef = np.where(mixed, 0, rng.integers(0, 2, idx.size)).astype(np.uint8)
    coef[rng.choice(np.flatnonzero(mixed), n_mixed, replace=False)] = 1
    return coef


class VandamVerify:
    """verify_exhaustive on seeded truth tables, boxes built once at set-up."""

    name = "vandam-verify"
    trace_cycles_per_s = 0.1

    def __init__(self, boxes: dict):
        self.boxes = boxes
        self.box_names = list(self.boxes)
        self.cycles = 0

    def cycle(self, rng) -> list[Request]:
        requests = []
        for i, (family, n_alice, n_bob, n_mixed) in enumerate(TABLES):
            if family == "ip":
                table = inner_product_table(n_alice)
                coef = reference.moebius(table)
            else:
                coef = random_anf(rng, n_alice, n_bob, n_mixed)
                table = reference.moebius(coef)
            a_masks, b_masks = reference.mixed_monomials(coef, n_bob)
            assert a_masks.size == n_mixed
            func = quatbox.BooleanFunction(n_alice, n_bob, tuple(table.tolist()))
            box = self.box_names[(i + self.cycles) % len(self.box_names)]
            seed = int(rng.integers(0, 2**31))
            data = (func, a_masks, b_masks, bool(coef.any()), box, seed)
            label = f"{family}:n{n_alice + n_bob}:M{n_mixed}"
            requests.append(Request(label, 1 << (n_alice + n_bob), data))
        self.cycles += 1
        return requests

    def execute(self, request: Request):
        func, _, _, _, box, seed = request.data
        return quatbox.verify_exhaustive(func, self.boxes[box], np.random.default_rng(seed))

    def check(self, request: Request, report) -> str | None:
        func, a_masks, b_masks, nonzero, box, _ = request.data
        where = f"{request.label} on {box}"
        n_inputs = 1 << (func.n_alice + func.n_bob)
        expected = (n_inputs, a_masks.size, int(nonzero), 0)
        got = (report.n_inputs, report.boxes_used, report.bits_bob_to_alice,
               report.bits_alice_to_bob)
        if got != expected:
            return f"{where}: (n_inputs, boxes, bits B->A, bits A->B) = {got}, expected {expected}"
        exact = reference.vandam_success_rate(
            a_masks, b_masks, func.n_alice, func.n_bob, self.boxes[box].probs
        )
        if box in ("ideal", "quaternionic") and report.success_rate != 1.0:
            return f"{where}: perfect box gave success_rate {report.success_rate!r}"
        if abs(report.success_rate - exact) > 1e-12:
            return f"{where}: success_rate {report.success_rate!r}, reference {exact!r}"
        if abs(report.empirical_rate - exact) > _binomial_tol(exact, n_inputs):
            return f"{where}: empirical_rate {report.empirical_rate!r} too far from {exact!r}"
        return None


# ----------------------------------------------------------- register-scale

#: party counts of one cycle's requests.  Request costs come in four steps
#: about 4x apart.  As many requests lie below n = 10 as above it, so the
#: overall median is the median of the n = 10 requests, not a quantile near
#: a step, where a small error in calibration moves it far.  The n = 12
#: requests set the tail.
SIZES = (6, 8, 10, 10, 10, 12, 12)
#: scheduled gates per request, before the n measurement basis changes
GATES = 8
GATE_KINDS = ("quaternionic", "complex", "real")


def _unit_quaternion(rng, complex_only: bool) -> np.ndarray:
    if complex_only:
        t = rng.uniform(0.0, 2.0 * math.pi)
        return np.array([math.cos(t), math.sin(t), 0.0, 0.0])
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def _real_gate(rng) -> np.ndarray:
    """A real rotation or, one time in two, the Hadamard; shape (2, 2, 4)."""
    if rng.random() < 0.5:
        s = math.sqrt(0.5)
        m = [[s, s], [s, -s]]
    else:
        t = rng.uniform(0.0, 2.0 * math.pi)
        m = [[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]]
    gate = np.zeros((2, 2, 4))
    gate[:, :, 0] = m
    return gate


def random_gate(rng, kind: str) -> np.ndarray:
    """diag(u0, u1) * rotation * diag(v0, v1) with unit u, v; shape (2, 2, 4)."""
    if kind == "real":
        return _real_gate(rng)
    complex_only = kind == "complex"
    u = [_unit_quaternion(rng, complex_only) for _ in range(2)]
    v = [_unit_quaternion(rng, complex_only) for _ in range(2)]
    rot = _real_gate(rng)[:, :, 0]
    return np.array(
        [[rot[r, c] * reference.hamilton(u[r], v[c]) for c in range(2)] for r in range(2)]
    )


def to_qmatrix(gate: np.ndarray):
    return quatbox.qmat(
        [[quatbox.Quaternion(*gate[r, c].tolist()) for c in range(2)] for r in range(2)]
    )


class RegisterScale:
    """run_schedule plus a real-basis readout on random n-party registers."""

    name = "register-scale"
    trace_cycles_per_s = 0.23

    def cycle(self, rng) -> list[Request]:
        requests = []
        for n in SIZES:
            amps = rng.normal(size=(1 << n, 4))
            amps /= math.sqrt(float((amps * amps).sum()))
            reg = quatbox.Register(
                n, quatbox.QVector(tuple(quatbox.Quaternion(*row) for row in amps.tolist()))
            )
            times = (rng.permutation(GATES) + 1).tolist()
            first_kind = int(rng.integers(len(GATE_KINDS)))
            ops, steps = [], []
            for k in range(GATES):
                party = int(rng.integers(n))
                gate = random_gate(rng, GATE_KINDS[(first_kind + k) % len(GATE_KINDS)])
                ops.append(quatbox.ScheduledOp(float(times[k]), party, to_qmatrix(gate)))
                steps.append((times[k], party, gate))
            steps = [(party, gate) for _, party, gate in sorted(steps, key=lambda s: s[0])]
            bases, basis_steps = [], []
            for party in range(n):
                gate = _real_gate(rng)
                bases.append(to_qmatrix(gate))
                basis_steps.append((party, gate))
            data = (reg, ops, bases, amps, steps, basis_steps)
            requests.append(Request(f"n{n}", (GATES + n) << n, data))
        return requests

    def execute(self, request: Request):
        reg, ops, bases = request.data[:3]
        final = quatbox.run_schedule(reg, ops)
        return final, quatbox.measure_product_basis(final, bases)

    def check(self, request: Request, output) -> str | None:
        reg, _, _, amps, steps, basis_steps = request.data
        final, probs = output
        n = reg.n_parties
        want = reference.evolve(amps, steps)
        got = np.array([[a.w, a.x, a.y, a.z] for a in final.state.amps])
        if final.n_parties != n or got.shape != want.shape:
            return f"{request.label}: final register has the wrong shape"
        err = float(np.max(np.abs(got - want)))
        if err > 1e-9:
            return f"{request.label}: amplitudes off by {err:.3g}"
        want_p = (reference.evolve(want, basis_steps) ** 2).sum(axis=-1)
        if list(probs) != [format(i, f"0{n}b") for i in range(1 << n)]:
            return f"{request.label}: outcome labels out of order"
        err = float(np.max(np.abs(np.array(list(probs.values())) - want_p)))
        if err > 1e-9:
            return f"{request.label}: probabilities off by {err:.3g}"
        return None


def make(name: str, golden_path) -> Any:
    """Build the workload's shared objects (as setup_probe.py times them) and the workload."""
    shared = setups.build(name)
    if name == "cli-paper":
        with open(golden_path, encoding="utf-8") as fh:
            return CliPaper(json.load(fh))
    if name == "vandam-verify":
        return VandamVerify(shared)
    return RegisterScale()
