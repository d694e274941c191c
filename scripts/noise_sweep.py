#!/usr/bin/env python3
"""Sweep the box noise level p and report CHSH value and protocol success.

The CHSH value of the noisy box is p itself; the exact protocol success rate
for a function with m mixed monomials is (1 + (2p-1)^m) / 2, so deeper
functions degrade faster.  Prints a grid for AND (m=1), IP2 (m=2), IP4 (m=4),
and checks every point of it against that closed form within TOL: a miss is
named on stderr and the exit code is 1, a checked expectation failed.
"""

import sys

import numpy as np

from quatbox.boxes import ideal_pr_box, noisy_box
from quatbox.chsh import chsh_value
from quatbox.vandam import builtin_function, verify_exhaustive

GRID = [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0]
#: each function's mixed monomials m
MIXED = {"AND": 1, "IP2": 2, "IP4": 4}
FUNCTIONS = tuple(MIXED)
#: the largest deviation from the closed form a grid point may show
TOL = 1e-12


def main() -> int:
    funcs = {name: builtin_function(name) for name in FUNCTIONS}
    header = "  p      CHSH   " + "  ".join(f"{name:>6s}" for name in FUNCTIONS)
    print(header)
    misses = []
    for p in GRID:
        box = noisy_box(ideal_pr_box(), p)
        chsh = chsh_value(box).win_probability
        rates = [
            verify_exhaustive(funcs[name], box, rng=np.random.default_rng(0)).success_rate
            for name in FUNCTIONS
        ]
        cells = "  ".join(f"{rate:6.4f}" for rate in rates)
        print(f"  {p:4.2f}  {chsh:6.4f}   {cells}")
        expected = [p, *((1 + (2 * p - 1) ** MIXED[name]) / 2 for name in FUNCTIONS)]
        for label, got, want in zip(("CHSH", *FUNCTIONS), [chsh, *rates], expected):
            if not abs(got - want) <= TOL:
                misses.append(f"error: {label} at p = {p}: {got!r}, expected {want!r}")
    for miss in misses:
        print(miss, file=sys.stderr)
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
