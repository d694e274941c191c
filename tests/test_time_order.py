"""Time order as a theorem, not as examples.

A gate acts on its party's amplitudes by left multiplication, and left
multiplication by a nonzero quaternion is injective.  So two local gates on
different parties give the same state in both time orders exactly when every
entry of one commutes with every entry of the other, that is, when their
imaginary parts are parallel (property 1).  And q -> r q r' for a unit
quaternion r and its conjugate r' is an automorphism of the quaternions that
keeps every norm, so applying it to every amplitude and gate entry changes no
readout probability (property 2).  The conjugation is done here, with
`Quaternion.__mul__`, not by the engine under test.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quatbox import (
    QVector,
    Quaternion,
    Register,
    ScheduledOp,
    hadamard,
    measure_product_basis,
    qmat,
    rotation,
    run_schedule,
)

from helpers import (
    approx_eq,
    conj,
    random_complex_unitary,
    random_register,
    random_unit_quaternion,
    random_unitary,
)

TOL = 1e-12

#: a real gate commutes with every gate, two complex ones with each other, and a general
#: quaternionic one with neither a complex nor another general one
GATES = {
    "real": lambda rng: rotation(rng.uniform(0.0, 2.0 * math.pi)),
    "complex": random_complex_unitary,
    "general": random_unitary,
}


def entries(gate):
    return [Quaternion(*q) for row in gate.data.tolist() for q in row]


@st.composite
def gate_pairs(draw):
    """n parties, two distinct parties p and q, a gate kind for each, and a seed."""
    n = draw(st.integers(2, 4))
    p, q = draw(st.permutations(range(n)))[:2]
    kinds = draw(st.tuples(st.sampled_from(sorted(GATES)), st.sampled_from(sorted(GATES))))
    return n, p, q, kinds, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(gate_pairs())
def test_the_two_time_orders_agree_exactly_when_the_gate_entries_commute(case):
    n, p, q, (kind_a, kind_b), seed = case
    rng = np.random.default_rng(seed)
    reg = random_register(rng, n)  # every amplitude nonzero
    a, b = GATES[kind_a](rng), GATES[kind_b](rng)
    a_first = run_schedule(reg, [ScheduledOp(1, p, a), ScheduledOp(2, q, b)])
    b_first = run_schedule(reg, [ScheduledOp(1, q, b), ScheduledOp(2, p, a)])
    commute = all(approx_eq(x * y, y * x, TOL) for x in entries(a) for y in entries(b))
    assert a_first.state.approx_eq(b_first.state, TOL) == commute


@st.composite
def schedules(draw):
    """n parties, the parties of four gates in time order, and a seed."""
    n = draw(st.integers(1, 4))
    parties = draw(st.lists(st.integers(0, n - 1), min_size=4, max_size=4))
    return n, parties, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(schedules())
def test_an_automorphism_of_the_quaternions_changes_no_readout_probability(case):
    n, parties, seed = case
    rng = np.random.default_rng(seed)
    reg = random_register(rng, n)
    gates = [random_unitary(rng) for _ in parties]
    r = random_unit_quaternion(rng)
    r_bar = conj(r)

    def turn(q):
        return r * Quaternion(*q) * r_bar

    turned_reg = Register(n, QVector(tuple(turn(a) for a in reg.state.data.tolist())))
    turned_gates = [qmat([[turn(e) for e in row] for row in g.data.tolist()]) for g in gates]
    # the Hadamard readout is real, and every automorphism keeps a real number
    readout = [hadamard()] * n

    def probabilities(start, schedule):
        ops = [ScheduledOp(t, party, g) for t, (party, g) in enumerate(zip(parties, schedule))]
        return measure_product_basis(run_schedule(start, ops), readout)

    before, after = probabilities(reg, gates), probabilities(turned_reg, turned_gates)
    assert max(abs(before[label] - after[label]) for label in before) <= TOL
