"""An independent oracle for the simulator's physics: Adler's complex-symplectic embedding.

A quaternion q = z1 + z2*j, with z1 = w + x*i and z2 = y + z*i, acts on the
left of u = u1 + u2*j as the complex matrix [[z1, -z2], [conj(z2), conj(z1)]]
on the pair (u1, conj(u2)), and |u|^2 = |u1|^2 + |u2|^2 (Adler, *Quaternionic
Quantum Mechanics*, 1995).  So an N-amplitude state is a complex (N, 2) array
and a 2x2 gate a (2, 2, 2, 2) array of such blocks.  Gates, states, time
order and readout are all worked out here in complex numpy; nothing in this
file multiplies quaternions, and quatbox is called only to be checked.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quatbox import (
    QMatrix,
    QVector,
    Register,
    ScheduledOp,
    inner,
    measure_product_basis,
    quaternionic_box,
    run_schedule,
)

TOL = 1e-12
KINDS = ("quaternionic", "complex", "real")


def embed(q: np.ndarray) -> np.ndarray:
    """(..., 4) components (w, x, y, z) -> (..., 2, 2) complex left-action blocks."""
    z1 = q[..., 0] + 1j * q[..., 1]
    z2 = q[..., 2] + 1j * q[..., 3]
    return np.stack([np.stack([z1, -z2], axis=-1), np.stack([z2.conj(), z1.conj()], axis=-1)],
                    axis=-2)


def components(blocks: np.ndarray) -> np.ndarray:
    """(..., 2, 2) left-action blocks -> (..., 4) components (w, x, y, z)."""
    z1, z2 = blocks[..., 0, 0], -blocks[..., 0, 1]
    return np.stack([z1.real, z1.imag, z2.real, z2.imag], axis=-1)


def to_pairs(amps: np.ndarray) -> np.ndarray:
    """(N, 4) amplitudes -> (N, 2) complex pairs (u1, conj(u2))."""
    return np.stack([amps[:, 0] + 1j * amps[:, 1], amps[:, 2] - 1j * amps[:, 3]], axis=-1)


def from_pairs(pairs: np.ndarray) -> np.ndarray:
    """(N, 2) complex pairs (u1, conj(u2)) -> (N, 4) amplitudes."""
    return np.stack([pairs[:, 0].real, pairs[:, 0].imag, pairs[:, 1].real, -pairs[:, 1].imag],
                    axis=-1)


def compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Block matrix product a . b of (2, 2, 2, 2) gates."""
    return np.einsum("rkij,kcjl->rcil", a, b)


def act(pairs: np.ndarray, n: int, party: int, gate: np.ndarray) -> np.ndarray:
    """Left action of a (2, 2, 2, 2) gate on one party's bit of an n-party state."""
    split = pairs.reshape(1 << party, 2, 1 << (n - 1 - party), 2)
    return np.einsum("rcij,hclj->hrli", gate, split).reshape(-1, 2)


def probabilities(pairs: np.ndarray) -> np.ndarray:
    return (np.abs(pairs) ** 2).sum(axis=-1)


def inner_norm(psi: np.ndarray, phi: np.ndarray) -> float:
    """|<psi|phi>|: the complex inner product and the symplectic form are its two halves."""
    (a, b), (c, d) = psi.T, phi.T
    return math.hypot(abs(np.vdot(psi, phi)), abs(np.sum(a * d - b * c)))


def real_blocks(m) -> np.ndarray:
    return np.asarray(m, dtype=float)[:, :, None, None] * np.eye(2)


def random_phase(rng, kind: str) -> np.ndarray:
    """A random unit quaternion, unit complex number or 1, as a 2x2 block."""
    if kind == "real":
        return embed(np.array([1.0, 0.0, 0.0, 0.0]))
    q = rng.normal(size=4)
    if kind == "complex":
        q[2:] = 0.0
    return embed(q / np.linalg.norm(q))


def random_gate(rng, kind: str) -> np.ndarray:
    """diag(u0, u1) . rotation(theta) . diag(v0, v1), built in the embedding."""
    def phases():
        out = np.zeros((2, 2, 2, 2), dtype=complex)
        out[0, 0], out[1, 1] = random_phase(rng, kind), random_phase(rng, kind)
        return out

    theta = rng.uniform(0.0, 2.0 * math.pi)
    rotation = real_blocks([[math.cos(theta), math.sin(theta)],
                            [-math.sin(theta), math.cos(theta)]])
    # round trip through (w, x, y, z), so the oracle and quatbox act with the same numbers
    return embed(components(compose(compose(phases(), rotation), phases())))


@st.composite
def experiments(draw):
    """n parties, up to 8 gates at distinct times, and a product-basis readout of
    which at most one party's basis change is non-real."""
    n = draw(st.integers(1, 6))
    steps = draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(KINDS)), max_size=8))
    times = draw(st.permutations(range(len(steps))))
    readout = draw(st.tuples(st.integers(0, n - 1), st.sampled_from(KINDS)))
    return n, steps, times, readout, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(experiments())
def test_schedules_match_the_complex_embedding(experiment):
    n, steps, times, (odd_party, odd_kind), seed = experiment
    rng = np.random.default_rng(seed)
    start = rng.normal(size=(1 << n, 2)) + 1j * rng.normal(size=(1 << n, 2))
    start /= np.sqrt(probabilities(start).sum())
    gates = [random_gate(rng, kind) for _, kind in steps]
    bases = [random_gate(rng, odd_kind if p == odd_party else "real") for p in range(n)]

    def oracle(order):
        pairs = start
        for k in order:
            pairs = act(pairs, n, steps[k][0], gates[k])
        return pairs

    forward = oracle(sorted(range(len(steps)), key=times.__getitem__))
    backward = oracle(sorted(range(len(steps)), key=times.__getitem__, reverse=True))
    readout = forward
    for party, basis in enumerate(bases):
        readout = act(readout, n, party, basis)

    reg = Register(n, QVector(from_pairs(start)))
    qgates = [QMatrix(components(g)) for g in gates]
    ops = [ScheduledOp(t, party, g) for t, (party, _), g in zip(times, steps, qgates)]
    got_forward = run_schedule(reg, ops)
    got_backward = run_schedule(reg, [ScheduledOp(-op.time, op.party, op.gate) for op in ops])
    probs = measure_product_basis(got_forward, [QMatrix(components(b)) for b in bases])

    assert np.max(np.abs(np.array(list(probs.values())) - probabilities(readout))) <= TOL
    got_overlap = inner(got_forward.state, got_backward.state).norm()
    assert abs(got_overlap - inner_norm(forward, backward)) <= TOL


def test_quaternionic_box_matches_the_complex_embedding():
    """The shared state (|00> + k|11>)/sqrt(2), diag(1, i) for Alice at tick 1 or 3,
    diag(1, j) for Bob at tick 4 or 2, then a Hadamard on each half."""
    s = math.sqrt(0.5)
    shared = to_pairs(np.array([[s, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, s]]))
    one, zero = [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]
    gates = (embed(np.array([[one, zero], [zero, [0.0, 1.0, 0.0, 0.0]]])),  # Alice: diag(1, i)
             embed(np.array([[one, zero], [zero, [0.0, 0.0, 1.0, 0.0]]])))  # Bob: diag(1, j)
    hadamard = real_blocks([[s, s], [s, -s]])
    box = quaternionic_box()
    for a in (0, 1):
        for b in (0, 1):
            ticks = {0: 1 if a == 0 else 3, 1: 4 if b == 0 else 2}
            pairs = shared
            for party in sorted(ticks, key=ticks.get):
                pairs = act(pairs, 2, party, gates[party])
            probs = probabilities(act(act(pairs, 2, 0, hadamard), 2, 1, hadamard))
            assert np.max(np.abs(box.probs[a, b].reshape(4) - probs)) <= TOL
            # the oracle on its own: outputs obey x ^ y = a * b in every cell
            for idx, p in enumerate(probs):
                x, y = idx >> 1, idx & 1
                assert x ^ y == a & b or p <= TOL
