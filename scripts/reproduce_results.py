#!/usr/bin/env python3
"""Reproduce every headline number in one run, through the quatbox CLI.

Runs the time-order demo with both gate kinds, the behavior table of the
timing-based box, the CHSH comparison (classical / complex / timing-based /
ideal box) and the one-bit protocol on the built-in functions.  Exits with
the worst exit code of the runs, so 1 means a checked expectation failed.
"""

import sys

from quatbox import cli

RUNS = (
    ["order-demo", "--gates", "quaternionic"],
    ["order-demo", "--gates", "complex"],
    ["prbox", "--strategy", "quaternionic"],
    *(["chsh", "--strategy", s] for s in ("classical", "complex", "quaternionic", "ideal")),
    *(["vandam", "--function", f] for f in ("AND", "XOR", "IP2", "IP4")),
)


def main() -> int:
    worst = 0
    for argv in RUNS:
        print(f"== quatbox {' '.join(argv)} ==")
        worst = max(worst, cli.main(argv))
        print()
    return worst


if __name__ == "__main__":
    sys.exit(main())
