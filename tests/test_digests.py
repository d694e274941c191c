"""Bit-for-bit pins of the protocol and box layers.

Each test hashes the exact bytes of many seeded results and compares the
SHA-256 with a fixed hex digest, so any change in a draw, a float's last bit
or an ordering fails here even where every tolerance test still passes.  A
change that is meant to alter these results must say so and update the digest.
"""

import hashlib
import itertools
import json
import struct

import numpy as np

from quatbox.boxes import (
    classical_box,
    complex_quantum_box,
    ideal_pr_box,
    noisy_box,
    quaternionic_box,
)
from quatbox.chsh import chsh_value, lhv_optimum
from quatbox.vandam import (
    BooleanFunction,
    anf_transform,
    success_probability,
    vandam_protocol,
    verify_exhaustive,
)

PROTOCOL_DIGEST = "ec792dc78e40a4b1aed336c29c284cebf01c3514d6ba612f525968a535a93208"
BOX_DIGEST = "576afea8c540a881c579c04e76ea14c0c506b7095ecd6c188e50d9e637f26c67"


def test_protocol_digest():
    """verify_exhaustive, vandam_protocol and success_probability on 55 seeded
    tables (n <= 10, 2**n * M <= 60000) over five boxes: 275 cases."""
    boxes = [ideal_pr_box(), quaternionic_box(), complex_quantum_box(),
             noisy_box(ideal_pr_box(), 0.9), noisy_box(complex_quantum_box(), 0.7)]
    h, rng, cases = hashlib.sha256(), np.random.default_rng(2024), 0
    for _ in range(60):
        n = int(rng.integers(2, 11))
        n_alice = int(rng.integers(1, n))
        if rng.random() < 0.5 or n <= 6:
            table = tuple(rng.integers(0, 2, 1 << n).tolist())
        else:  # a sparse ANF keeps n = 10 cheap; the Moebius transform is an involution
            coef = tuple((rng.random(1 << n) < 0.01).astype(int).tolist())
            table = anf_transform(BooleanFunction(n_alice, n - n_alice, coef)).coefficients
        f = BooleanFunction(n_alice, n - n_alice, table)
        coefficients = np.frombuffer(anf_transform(f).coefficients, np.uint8)
        mixed = np.count_nonzero(coefficients.reshape(1 << n_alice, -1)[1:, 1:])
        if mixed << n > 60000:
            continue
        for box in boxes:
            seed = int(rng.integers(0, 2**31))
            r = verify_exhaustive(f, box, np.random.default_rng(seed))
            h.update(struct.pack("<ddqqqq", r.success_rate, r.empirical_rate, r.boxes_used,
                                 r.bits_bob_to_alice, r.bits_alice_to_bob, r.n_inputs))
            prng = np.random.default_rng(seed + 1)
            for _ in range(8):
                x = int(rng.integers(0, 1 << n_alice))
                y = int(rng.integers(0, 1 << (n - n_alice)))
                p = vandam_protocol(f, x, y, box, prng)
                h.update(struct.pack("<dqqqq", success_probability(f, x, y, box), p.output,
                                     p.bits_bob_to_alice, p.bits_alice_to_bob, p.boxes_used))
            cases += 1
    assert (cases, h.hexdigest()) == (275, PROTOCOL_DIGEST)


def test_box_digest():
    """Tables, JSON, CHSH scores and 2000 draws per cell of 82 boxes, plus the
    classical optimum."""
    boxes = [ideal_pr_box(), quaternionic_box(), complex_quantum_box()]
    boxes += [classical_box(fa, fb) for fa in itertools.product(range(4), repeat=2)
              for fb in itertools.product(range(2), repeat=2)]
    boxes += [noisy_box(inner, p) for inner in boxes[:3] for p in (0.5, 0.7, 0.85, 0.9, 1.0)]
    h = hashlib.sha256()
    for i, box in enumerate(boxes):
        game = chsh_value(box)
        h.update(box.probs.tobytes() + json.dumps(box.to_json_obj()).encode())
        h.update(struct.pack("<5d", game.win_probability, *game.per_cell.values()))
        h.update(repr(list(game.per_cell)).encode())
        rng = np.random.default_rng(i)
        for a, b in itertools.product(range(2), repeat=2):
            h.update(bytes(v for _ in range(2000) for v in divmod(box.sample(2 * a + b, rng.random()), 2)))
    best, pair = lhv_optimum()
    h.update(repr((best.win_probability, best.per_cell, pair)).encode())
    assert (len(boxes), h.hexdigest()) == (82, BOX_DIGEST)
