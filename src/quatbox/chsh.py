"""CHSH game scoring and the exhaustive classical bound.

Both parties receive independent uniform input bits and win when
x ^ y = a*b.  Three reference points for the win probability:

    0.75         best local deterministic strategy (exhausted below),
    cos^2(pi/8)  best complex-quantum strategy,
    1.0          a perfect nonlocal box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .boxes import CELLS, WINS, BoxBehavior

#: Best CHSH win probability for local deterministic strategies, hence (by
#: convexity) for any local hidden variable model.  Clauser, Horne, Shimony
#: and Holt (1969).
CLASSICAL_WIN_BOUND = 0.75

#: Best CHSH win probability achievable with complex amplitudes,
#: cos^2(pi/8) ~ 0.8536.  Tsirelson (1980).
TSIRELSON_WIN_BOUND = math.cos(math.pi / 8) ** 2

#: Approximate box fidelity above which even probabilistic communication
#: complexity collapses to one bit; Brassard, Buhrman, Linden, Methot, Tapp
#: and Unger (2006).  Documented as a reference number only; the protocol
#: behind it is out of scope here.
CC_COLLAPSE_THRESHOLD = 0.906


@dataclass(frozen=True)
class GameResult:
    """Win probability under uniform inputs, plus the four per-cell values."""

    win_probability: float
    per_cell: dict[tuple[int, int], float]


def chsh_value(box: BoxBehavior) -> GameResult:
    """Exact CHSH win probability of a behavior under uniform inputs."""
    per_cell = dict(zip(CELLS, box.wins))
    win = math.fsum(per_cell.values()) / 4.0
    return GameResult(win, per_cell)


def lhv_optimum() -> tuple[GameResult, tuple[tuple[int, int], tuple[int, int]]]:
    """Best deterministic strategy pair, found by exhausting all 16 of them.

    Shared randomness cannot beat the best deterministic pair: the win
    probability is linear in the strategy mixture, so the maximum is
    attained at a vertex.  Pairs are scored through WINS and no box is
    built: a deterministic pair wins each cell with probability 1.0 or 0.0.
    Returns the optimum and the first argmax pair, each strategy given as
    (output for input 0, output for input 1).
    """
    # each pair with its win in each cell 2a + b, WINS[2a + b][2 f_alice[a] + f_bob[b]]
    scored = [((fa, fb), [row[2 * fa[a] + fb[b]] for row, (a, b) in zip(WINS, CELLS)])
              for fa in CELLS for fb in CELLS]
    totals = [sum(wins) for _, wins in scored]
    best, wins = scored[totals.index(max(totals))]  # the first argmax
    per_cell = dict(zip(CELLS, map(float, wins)))
    return GameResult(math.fsum(per_cell.values()) / 4.0, per_cell), best
