"""Independent NumPy references that the benchmark checks the package against.

Nothing here imports quatbox: quaternions are float arrays whose last axis
holds (w, x, y, z), and every formula is written out from its definition.
"""

from __future__ import annotations

import numpy as np


def hamilton(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Broadcast Hamilton product p*q, p on the left."""
    pw, px, py, pz = np.moveaxis(p, -1, 0)
    qw, qx, qy, qz = np.moveaxis(q, -1, 0)
    return np.stack(
        [
            pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw,
        ],
        axis=-1,
    )


def apply_gate(state: np.ndarray, party: int, gate: np.ndarray) -> np.ndarray:
    """Left-multiply one party's amplitude pairs by a (2, 2, 4) gate.

    `state` has shape (2,) * n + (4,), party 0 on the most significant axis.
    """
    s = np.moveaxis(state, party, 0)
    new = np.stack(
        [
            hamilton(gate[0, 0], s[0]) + hamilton(gate[0, 1], s[1]),
            hamilton(gate[1, 0], s[0]) + hamilton(gate[1, 1], s[1]),
        ]
    )
    return np.moveaxis(new, 0, party)


def evolve(amps: np.ndarray, steps) -> np.ndarray:
    """Apply (party, gate) steps in the given order to a (2**n, 4) amplitude array."""
    n = amps.shape[0].bit_length() - 1
    state = amps.reshape((2,) * n + (4,))
    for party, gate in steps:
        state = apply_gate(state, party, gate)
    return state.reshape(-1, 4)


def moebius(bits: np.ndarray) -> np.ndarray:
    """Binary Moebius transform over GF(2): truth table <-> ANF coefficients."""
    c = np.array(bits, dtype=np.uint8)
    size = c.size
    step = 1
    while step < size:
        view = c.reshape(-1, 2, step)
        view[:, 1, :] ^= view[:, 0, :]
        step *= 2
    return c


def mixed_monomials(coef: np.ndarray, n_bob: int) -> tuple[np.ndarray, np.ndarray]:
    """(alice_masks, bob_masks) of the ANF monomials that touch both parties."""
    idx = np.flatnonzero(coef)
    a_masks, b_masks = idx >> n_bob, idx & ((1 << n_bob) - 1)
    keep = (a_masks > 0) & (b_masks > 0)
    return a_masks[keep], b_masks[keep]


def vandam_success_rate(
    a_masks: np.ndarray, b_masks: np.ndarray, n_alice: int, n_bob: int, probs: np.ndarray
) -> float:
    """Mean over all inputs of (1 + prod_k (2 win[alpha_k, beta_k] - 1)) / 2.

    One box per mixed monomial k; alpha_k and beta_k say whether Alice's and
    Bob's parts of the monomial are satisfied, and win[a, b] is the box's
    chance that x ^ y = a*b on input cell (a, b).
    """
    win = np.array(
        [[sum(probs[a, b, x, y] for x in (0, 1) for y in (0, 1) if x ^ y == a & b)
          for b in (0, 1)] for a in (0, 1)]
    )
    corr = 2.0 * win - 1.0
    xs = np.arange(1 << n_alice)[:, None]
    ys = np.arange(1 << n_bob)[:, None]
    alpha = ((xs & a_masks) == a_masks).astype(np.intp)  # (2**n_alice, M)
    beta = ((ys & b_masks) == b_masks).astype(np.intp)  # (2**n_bob, M)
    factors = corr[alpha[:, None, :], beta[None, :, :]]
    return float(np.mean((1.0 + factors.prod(axis=-1)) / 2.0))
