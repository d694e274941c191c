"""The gate step's fast paths, each held to its "same bytes" claim as a property.

`register._run` with `reduced` lets each gate add only its Hamilton planes, or take
real arithmetic when its only plane is w; every term it leaves out is a signed zero,
so each component equals the full kernel's or both are zero (property 2).  `_evolve`
keeps such a run only when neither its input nor its result holds an exact zero, so
`apply_local` and `run_schedule` are the full run's bytes; an input with a zero goes
straight to the full run (property 1).  A readout takes the reduced run with no
guard, since zeros of either sign square to +0.0 (property 3).  A gate on any party
but the leading one rotates that party's bit to the front and the result back to
index order (property 4).

The registers mix ordinary amplitudes with signed zeros and the least subnormal,
whose products with gate entries of 0.5 or less underflow to signed zeros, and the
gates include ones whose imaginary parts are tiny or -0.0: the inputs on which a
fast path could tell.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quatbox import register
from quatbox.qlinalg import QMatrix, QVector, hadamard, norm_sq, phase_gate, qmat, rotation
from quatbox.quaternion import Quaternion
from quatbox.register import (
    Register,
    ScheduledOp,
    apply_local,
    measure_product_basis,
    run_schedule,
)

from helpers import random_complex_unitary, random_unitary

#: the least subnormal double: times a factor of at most 0.5, a signed zero
TINY = 5e-324
HALF = Quaternion(0.5, 0.5)

#: gates whose only plane is w, with no, or -0.0, imaginary parts
REAL_GATES = {
    "rotation": lambda rng: rotation(rng.uniform(0.0, 2.0 * math.pi)),
    "hadamard": lambda rng: hadamard(),
    "signed-zero hadamard": lambda rng: QMatrix(
        np.where(np.arange(4) == 0, hadamard().data, -0.0)),
}
GATES = {
    **REAL_GATES,
    "complex": random_complex_unitary,
    "general": random_unitary,
    # an imaginary part far below any tolerance, whose terms still move the last bits
    "tiny i": lambda rng: phase_gate(Quaternion(1.0, 1e-15)),
    # entries 0.5 + 0.5i: on subnormal amplitudes every term is a signed zero
    "half": lambda rng: qmat([[HALF, HALF], [HALF, -HALF]]),
}


def amplitudes(rng, kinds):
    """(dim, 4) amplitudes, one per kind: "normal" ones, "tiny" ones of +-TINY parts,
    and "zeros" ones with some parts +-0.0, scaled so that the normal parts hold the
    norm and TINY stays TINY."""
    amps = rng.normal(size=(len(kinds), 4))
    for i, kind in enumerate(kinds):
        if kind == "tiny":
            amps[i] = rng.choice([-TINY, TINY], 4)
        elif kind == "zeros":
            amps[i] = np.where(rng.random(4) < 0.5, rng.choice([-0.0, 0.0], 4), amps[i])
    big = np.abs(amps) > 1e-300
    if not big.any():
        amps[0, 0], big[0, 0] = 1.0, True
    amps[big] /= math.sqrt(float((amps[big] ** 2).sum()))
    return amps


@st.composite
def registers(draw):
    n = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(["normal", "tiny", "zeros"]),
                          min_size=1 << n, max_size=1 << n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return Register(n, QVector(amplitudes(rng, kinds))), rng


@st.composite
def schedules(draw):
    """A register and one to four gates on its parties, in time order."""
    reg, rng = draw(registers())
    steps = draw(st.lists(st.tuples(st.integers(0, reg.n_parties - 1),
                                    st.sampled_from(sorted(GATES))), min_size=1, max_size=4))
    return reg, [ScheduledOp(t, party, GATES[kind](rng)) for t, (party, kind) in enumerate(steps)]


@st.composite
def readouts(draw):
    """A register and one basis change per party, at most one of them not real."""
    reg, rng = draw(registers())
    kinds = [draw(st.sampled_from(sorted(REAL_GATES))) for _ in range(reg.n_parties)]
    nonreal = draw(st.sampled_from([None, *range(reg.n_parties)]))
    if nonreal is not None:
        kinds[nonreal] = draw(st.sampled_from(sorted(set(GATES) - set(REAL_GATES))))
    return reg, [GATES[kind](rng) for kind in kinds]


def full_run(reg, ops):
    """The (dim, 4) amplitudes after ops with every gate adding all four planes."""
    return register._run(reg.state.data.T, reg.n_parties, ops, reduced=False).T


def _tie_register():
    # both amplitudes of party 0's pair at index 0 are TINY with these signs: under the
    # half gate each output part is a sum of signed zeros, whose sign the planes set
    amps = amplitudes(np.random.default_rng(0), ["tiny", "normal", "tiny", "normal"])
    amps[[0, 2]] = TINY * np.array([[1.0, -1.0, -1.0, -1.0], [-1.0, -1.0, -1.0, -1.0]])
    return Register(2, QVector(amps))


TIE = _tie_register()
TIE_OPS = [ScheduledOp(0, 0, GATES["half"](None))]
TINY_I_OPS = [ScheduledOp(0, 1, GATES["tiny i"](None))]


@settings(max_examples=150, deadline=None)
@given(case=schedules())
@example(case=(TIE, TIE_OPS))
def test_apply_local_and_run_schedule_give_the_full_runs_bytes(case):
    reg, ops = case
    runs, run = [], register._run

    def spy(source, n, ops, reduced):
        runs.append(reduced)
        return run(source, n, ops, reduced)

    with mock.patch.object(register, "_run", spy):
        got = run_schedule(reg, ops).state.data
    assert got.tobytes() == full_run(reg, ops).tobytes()
    if not reg.state.data.all():
        assert runs == [False]
    op = ops[-1]
    got = apply_local(reg, op.party, op.gate).state.data
    assert got.tobytes() == full_run(reg, [op]).tobytes()


@settings(max_examples=150, deadline=None)
@given(case=schedules())
@example(case=(TIE, TIE_OPS))
@example(case=(TIE, TINY_I_OPS))
def test_a_reduced_run_equals_the_full_run_in_each_component_or_both_are_zero(case):
    reg, ops = case
    source = reg.state.data.T
    reduced = register._run(source, reg.n_parties, ops, reduced=True)
    full = register._run(source, reg.n_parties, ops, reduced=False)
    assert ((reduced == full) | ((reduced == 0) & (full == 0))).all()


@settings(max_examples=100, deadline=None)
@given(case=readouts())
def test_a_readout_gives_the_bytes_of_norm_sq_of_the_full_run(case):
    reg, changes = case
    got = measure_product_basis(reg, changes)
    ops = [ScheduledOp(p, p, m) for p, m in enumerate(changes)]
    assert np.array(list(got.values())).tobytes() == norm_sq(full_run(reg, ops)).tobytes()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 6), data=st.data())
def test_rotating_by_t_then_by_n_minus_t_is_the_identity(n, data):
    t = data.draw(st.integers(0, n))
    amps = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=(4, 1 << n))
    assert register._rotate(register._rotate(amps, t), n - t).tobytes() == amps.tobytes()
    # an identity gate on each of some parties, each bit rotated to the front and back
    parties = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    ops = [ScheduledOp(t, p, qmat([[1, 0], [0, 1]])) for t, p in enumerate(parties)]
    for reduced in (True, False):
        assert register._run(amps, n, ops, reduced).tobytes() == amps.tobytes()
