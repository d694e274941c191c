"""Batch experiment runner and result emitter (non-interactive).

Subcommands: prbox, chsh, vandam, order-demo.  Exact distributions are the
default everywhere; --samples adds seeded Monte Carlo cross-checks.  Exit
codes: 0 pass, 1 a checked expectation failed, 2 bad input (a one-line
error on stderr).  Identical arguments and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

import numpy as np

from .boxes import (
    CELLS,
    BoxBehavior,
    classical_box,
    complex_quantum_box,
    ideal_pr_box,
    noisy_box,
    quaternionic_box,
)
from .chsh import chsh_value, lhv_optimum
from .qlinalg import inner, phase_gate
from .quaternion import I, J, Quaternion
from .register import ScheduledOp, bell_state, run_schedule, state_dump
from .vandam import (
    BUILTIN_FUNCTIONS,
    VERIFY_SIZE_CAP,
    BooleanFunction,
    builtin_function,
    verify_exhaustive,
)

FORMATS = ("text", "json", "csv")

#: strategies whose box is expected to win every CHSH cell exactly
PERFECT_STRATEGIES = frozenset({"ideal", "quaternionic"})

CELL_TOL = 1e-10
ORTHO_TOL = 1e-12
#: largest --samples accepted; a draw costs microseconds, so this bounds a run to seconds
MAX_SAMPLES = 10**6
#: longest truth-table file read, in characters: four times the hex digits of the widest table
_MAX_TABLE_CHARS = 1 << VERIFY_SIZE_CAP


def resolve_box(strategy: str) -> BoxBehavior:
    if strategy == "ideal":
        return ideal_pr_box()
    if strategy == "quaternionic":
        return quaternionic_box()
    if strategy == "complex":
        return complex_quantum_box()
    if strategy == "classical":
        _, (f_alice, f_bob) = lhv_optimum()
        return classical_box(f_alice, f_bob)
    if strategy.startswith("noisy:"):
        level = strategy.partition(":")[2]
        # an ASCII decimal, so the strategy the output echoes names the p that ran
        if not re.fullmatch(r"[0-9]+(\.[0-9]+)?", level):
            raise ValueError(f"noise level must be a decimal such as 0.9, got {level!r}")
        return noisy_box(ideal_pr_box(), float(level))
    raise ValueError(
        f"unknown strategy {strategy!r}; choose classical, complex, quaternionic, "
        "ideal or noisy:p"
    )


def load_function(selector: str) -> BooleanFunction:
    if selector in BUILTIN_FUNCTIONS:
        return builtin_function(selector)
    if os.path.exists(selector):
        try:
            with open(selector, encoding="utf-8") as fh:
                text = fh.read(_MAX_TABLE_CHARS + 1)
            if len(text) > _MAX_TABLE_CHARS:
                raise ValueError(f"larger than {_MAX_TABLE_CHARS} characters")
            return BooleanFunction.from_json_obj(json.loads(text))
        except (OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
            raise ValueError(f"bad truth-table file {selector!r}: {exc}") from exc
    raise ValueError(
        f"unknown function {selector!r}: not a built-in ({sorted(BUILTIN_FUNCTIONS)}) "
        "and not a readable file"
    )


def _cell_keys(per_cell: dict[tuple[int, int], float]) -> dict[str, float]:
    """GameResult.per_cell keyed "a,b", as every output format writes it."""
    return {f"{a},{b}": value for (a, b), value in per_cell.items()}


def run_prbox(args: argparse.Namespace) -> tuple[dict, int]:
    box = resolve_box(args.strategy)
    game = chsh_value(box)
    per_cell = _cell_keys(game.per_cell)
    cells_pass = {key: bool(abs(value - 1.0) <= CELL_TOL) for key, value in per_cell.items()}
    all_pass = all(cells_pass.values())
    expected_perfect = args.strategy in PERFECT_STRATEGIES
    payload = {
        "command": "prbox",
        "strategy": args.strategy,
        "seed": args.seed,
        "behavior": box.to_json_obj(),
        "chsh": {
            "win_probability": game.win_probability,
            "per_cell": per_cell,
        },
        "cells_pass": cells_pass,
        "pass": all_pass,
        "expected_perfect": expected_perfect,
    }
    if args.samples:
        rng = np.random.default_rng(args.seed)
        deviation = 0.0
        for a, b in CELLS:
            counts = dict.fromkeys(CELLS, 0)
            for _ in range(args.samples):
                counts[box.sample(a, b, rng)] += 1
            for (x, y), c in counts.items():
                deviation = max(deviation, abs(c / args.samples - box.prob(a, b, x, y)))
        payload["samples"] = {"per_cell": args.samples, "max_abs_deviation": deviation}
    return payload, 0 if all_pass or not expected_perfect else 1


def run_chsh(args: argparse.Namespace) -> tuple[dict, int]:
    optimal = {}
    if args.strategy == "classical":
        game, (f_alice, f_bob) = lhv_optimum()
        box = classical_box(f_alice, f_bob)
        optimal["optimal_strategies"] = {"alice": list(f_alice), "bob": list(f_bob)}
    else:
        box = resolve_box(args.strategy)
        game = chsh_value(box)
    payload = {
        "command": "chsh",
        "strategy": args.strategy,
        "seed": args.seed,
        "win_probability": game.win_probability,
        "per_cell": _cell_keys(game.per_cell),
        **optimal,
    }
    if args.samples:
        rng = np.random.default_rng(args.seed)
        wins = 0
        for _ in range(args.samples):
            a, b = int(rng.integers(2)), int(rng.integers(2))
            x, y = box.sample(a, b, rng)
            wins += (x ^ y) == (a & b)
        payload["samples"] = {"n": args.samples, "empirical_win": wins / args.samples}
    return payload, 0


def run_vandam(args: argparse.Namespace) -> tuple[dict, int]:
    func = load_function(args.function)
    box = resolve_box(args.strategy)
    report = verify_exhaustive(func, box, rng=np.random.default_rng(args.seed))
    expected_perfect = args.strategy in PERFECT_STRATEGIES
    ok = not expected_perfect or report.success_rate >= 1.0
    payload = {
        "command": "vandam",
        "strategy": args.strategy,
        "function": args.function,
        "n_alice": func.n_alice,
        "n_bob": func.n_bob,
        "seed": args.seed,
        "n_inputs": report.n_inputs,
        "success_rate": report.success_rate,
        "empirical_rate": report.empirical_rate,
        "boxes_used": report.boxes_used,
        "bits_bob_to_alice": report.bits_bob_to_alice,
        "bits_alice_to_bob": report.bits_alice_to_bob,
        "pass": ok,
    }
    return payload, 0 if ok else 1


def run_order_demo(args: argparse.Namespace) -> tuple[dict, int]:
    gate0 = phase_gate(I)
    gate1 = phase_gate(J) if args.gates == "quaternionic" else phase_gate(I)
    start = bell_state(1.0)
    party0_first = run_schedule(
        start, [ScheduledOp(1, 0, gate0), ScheduledOp(2, 1, gate1)]
    )
    party1_first = run_schedule(
        start, [ScheduledOp(1, 1, gate1), ScheduledOp(2, 0, gate0)]
    )
    ip = inner(party0_first.state, party1_first.state)
    orthogonal = ip.norm() <= ORTHO_TOL
    identical = party0_first.state.approx_eq(party1_first.state, ORTHO_TOL)
    ok = orthogonal if args.gates == "quaternionic" else identical
    payload = {
        "command": "order-demo",
        "gates": args.gates,
        "party0_first": state_dump(party0_first),
        "party1_first": state_dump(party1_first),
        "inner_product": [ip.w, ip.x, ip.y, ip.z],
        "orthogonal": orthogonal,
        "states_identical": identical,
        "pass": ok,
    }
    return payload, 0 if ok else 1


_RUNNERS = {
    "prbox": run_prbox,
    "chsh": run_chsh,
    "vandam": run_vandam,
    "order-demo": run_order_demo,
}


def _render_text(payload: dict) -> str:
    lines: list[str] = []
    command = payload["command"]
    if command == "prbox":
        lines.append(f"PR box -- strategy: {payload['strategy']}")
        lines.append("a b | P(x=0,y=0)  P(x=0,y=1)  P(x=1,y=0)  P(x=1,y=1) | Pr[x^y=ab]")
        for key, outcomes in payload["behavior"].items():
            probs = "  ".join(f"{entry['p']:.10f}" for entry in outcomes)
            cell = payload["chsh"]["per_cell"][key]
            verdict = "PASS" if payload["cells_pass"][key] else "FAIL"
            lines.append(f"{key.replace(',', ' ')} | {probs} | {cell:.10f}  {verdict}")
        lines.append(f"CHSH win probability: {payload['chsh']['win_probability']:.10f}")
        lines.append(f"all cells satisfy x^y = ab (tol {CELL_TOL:g}): "
                     + ("yes" if payload["pass"] else "no"))
    elif command == "chsh":
        lines.append(f"CHSH game -- strategy: {payload['strategy']}")
        for key, value in payload["per_cell"].items():
            a, b = key.split(",")
            lines.append(f"a={a} b={b}: Pr[x^y=ab] = {value:.10f}")
        lines.append(f"win probability: {payload['win_probability']:.10f}")
        if "optimal_strategies" in payload:
            alice = tuple(payload["optimal_strategies"]["alice"])
            bob = tuple(payload["optimal_strategies"]["bob"])
            lines.append(f"optimal deterministic strategies: alice={alice}, bob={bob}")
    elif command == "vandam":
        lines.append(
            f"one-bit protocol -- function: {payload['function']} "
            f"(n_alice={payload['n_alice']}, n_bob={payload['n_bob']}), "
            f"strategy: {payload['strategy']}"
        )
        lines.append(f"inputs checked: {payload['n_inputs']}")
        lines.append(f"exact success rate: {payload['success_rate']!r}")
        lines.append(f"empirical success rate (seed {payload['seed']}): "
                     f"{payload['empirical_rate']!r}")
        lines.append(f"boxes used: {payload['boxes_used']}")
        lines.append(f"bits Bob->Alice: {payload['bits_bob_to_alice']}")
        lines.append(f"bits Alice->Bob: {payload['bits_alice_to_bob']}")
        lines.append(
            "note: classical communication cost is not computed here; for functions "
            "like the inner product it is known to be maximal (Bob sends his whole input)"
        )
        lines.append("result: " + ("PASS" if payload["pass"] else "FAIL"))
    elif command == "order-demo":
        lines.append(f"time-order demo -- gates: {payload['gates']}")
        for name, title in (("party0_first", "party 0 gate first"),
                            ("party1_first", "party 1 gate first")):
            dump = payload[name]
            amps = ", ".join(
                f"|{label}> {_quadruple_str(quad)}"
                for label, quad in zip(dump["labels"], dump["amplitudes"])
                if any(quad)
            )
            lines.append(f"{title}: {amps}")
        lines.append(f"inner product: {_quadruple_str(payload['inner_product'])}")
        lines.append(f"orthogonal (tol {ORTHO_TOL:g}): "
                     + ("yes" if payload["orthogonal"] else "no"))
        lines.append("states identical: " + ("yes" if payload["states_identical"] else "no"))
    if "samples" in payload:
        lines.append(f"monte carlo: {json.dumps(payload['samples'], sort_keys=True)}")
    return "\n".join(lines)


def _quadruple_str(quad) -> str:
    return str(Quaternion(*quad))


def _render_csv(payload: dict) -> str:
    lines = ["a,b,x,y,probability"]
    for key, outcomes in payload["behavior"].items():
        for entry in outcomes:
            lines.append(f"{key},{entry['x']},{entry['y']},{entry['p']!r}")
    return "\n".join(lines)


def render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True)
    if fmt == "csv":
        return _render_csv(payload)
    return _render_text(payload)


class _Parser(argparse.ArgumentParser):
    """argparse whose syntax errors are one `error: ...` line and exit 2, like every bad input."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The quatbox argument parser; built on first use, then shared."""
    parser = _Parser(
        prog="quatbox",
        description="Quaternion-amplitude simulator experiments: PR box, CHSH, "
        "one-bit communication, gate-order demo.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        dest="fmt",
        choices=FORMATS,
        default="text",
        help="output format (default: text)",
    )
    # the options of the commands that build a box
    boxed = argparse.ArgumentParser(add_help=False)
    boxed.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")
    boxed.add_argument("--strategy", default="quaternionic",
                       help="classical | complex | quaternionic | ideal | noisy:p")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prbox", parents=[common, boxed],
                       help="behavior table and CHSH value of a box strategy")
    p.add_argument("--samples", type=int, default=None,
                   help="per-cell Monte Carlo cross-check draws")

    p = sub.add_parser("chsh", parents=[common, boxed],
                       help="CHSH game value of a strategy")
    p.add_argument("--samples", type=int, default=None,
                   help="Monte Carlo game rounds")

    p = sub.add_parser("vandam", parents=[common, boxed],
                       help="exhaustively verify the one-bit protocol on a function")
    p.add_argument("--function", required=True,
                   help="built-in name (AND, XOR, IP2, IP4) or truth-table JSON file")

    p = sub.add_parser("order-demo", parents=[common],
                       help="apply two local gates in both time orders and compare")
    p.add_argument("--gates", choices=("quaternionic", "complex"), default="quaternionic",
                   help="quaternionic gates anticommute; complex gates commute")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.fmt == "csv" and args.command != "prbox":
            raise ValueError("csv output is only defined for the prbox behavior table")
        samples = getattr(args, "samples", None)
        if samples is not None and not 1 <= samples <= MAX_SAMPLES:
            raise ValueError(f"--samples must lie in [1, {MAX_SAMPLES}]")
        payload, code = _RUNNERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render(payload, args.fmt))
    return code
