"""Every scalar that enters the package goes through one of two checks in
`quatbox.quaternion`: `int_or_none` for counts, indices and widths, and `is_real_number`
for times, angles, noise levels, factors and phases.  Each site keeps its own
exception and message, and a finite or range check where it has one.  This table
holds each site once, with the values that it refuses and the ones it accepts.
"""

import math
import reprlib
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from quatbox.boxes import ideal_pr_box, noisy_box
from quatbox.qlinalg import QVector, diag, hadamard, phase_gate, qmat, rotation
from quatbox.quaternion import I, ONE, Quaternion, as_quaternion
from quatbox.register import Register, ScheduledOp
from quatbox.vandam import BooleanFunction, success_probability

ONE_PARTY = QVector(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]))
AND = BooleanFunction(1, 1, b"\x00\x00\x00\x01")
PR_BOX = ideal_pr_box()


def _times_i(value):
    """I * value, where a refused factor is I.__mul__'s NotImplemented: the operator's
    TypeError is then worded by whichever operand gives way last."""
    product = I.__mul__(value)
    if product is NotImplemented:
        with pytest.raises(TypeError):
            I * value
        raise TypeError(f"{type(value).__name__} is not a scalar factor")
    return product


def _in_each_part(value):
    """The diagonal matrix of the four quaternions holding value in one part and 0.0 in
    the others: a value is refused only if every part refuses it with one message."""
    built, messages = [], set()
    for k in range(4):
        try:
            built.append(Quaternion(*(value if j == k else 0.0 for j in range(4))))
        except TypeError as err:
            messages.add(str(err))
    if messages:
        assert (len(built), len(messages)) == (0, 1), (built, messages)
        raise TypeError(messages.pop())
    return diag(*built)


#: site: (kind, call, exception type, message for a refused value); kind is "integer",
#: "real", or "finite" for a real site that also refuses NaN and +-inf
SITES = {
    "Register.n_parties": (
        "integer", lambda v: Register(v, ONE_PARTY).n_parties, ValueError,
        lambda v: f"n_parties must be an integer of at least 1, got {v!r}"),
    "ScheduledOp.party": (
        "integer", lambda v: ScheduledOp(0.0, v, hadamard()).party, ValueError,
        lambda v: f"party index must be an integer, not {type(v).__name__}"),
    "BooleanFunction widths": (
        "integer", lambda v: BooleanFunction(v, 1, b"\x00\x00\x00\x01").n_alice, ValueError,
        lambda v: "n_alice and n_bob must be integers"),
    "protocol inputs": (
        "integer", lambda v: success_probability(AND, v, 0, PR_BOX), ValueError,
        lambda v: f"x must be an integer, got {v!r}"),
    "ScheduledOp.time": (
        "finite", lambda v: ScheduledOp(v, 0, hadamard()), ValueError,
        lambda v: f"time tag must be a finite real number, got {v!r}"),
    "rotation": (
        "finite", rotation, ValueError, lambda v: f"rotation angle must be finite, got {v!r}"),
    "noisy_box": (
        "finite", lambda v: noisy_box(PR_BOX, v).probs.tobytes(), ValueError,
        lambda v: f"noise parameter must lie in [0.5, 1], got {v!r}"),
    "Quaternion.__mul__": (
        "real", _times_i, TypeError,
        lambda v: f"{type(v).__name__} is not a scalar factor"),
    "Quaternion parts": (
        "real", _in_each_part, TypeError,
        lambda v: f"quaternion parts must be real numbers, got {v!r}"),
    "as_quaternion": (
        "real", as_quaternion, TypeError,
        lambda v: f"cannot interpret {type(v).__name__} as a quaternion"),
}

#: reals that no float holds, refused where they enter rather than raising OverflowError
HUGE = (10**400, Fraction(10**400))
REFUSED = {
    "integer": (True, False, np.True_, "1", None, 0.5, np.float64(1.0)),
    "real": (True, False, np.True_, "1", None, *HUGE),
    "finite": (True, False, np.True_, "1", None, math.nan, math.inf, -math.inf, *HUGE),
}
ACCEPTED = {
    "integer": (np.int64(1),),
    "real": (np.int64(1), np.float32(0.75), Fraction(3, 4)),
    "finite": (np.int64(1), np.float32(0.75), Fraction(3, 4)),
}


def _cases(values):
    # reprlib shortens 10**400's 401 digits in the test id
    return [pytest.param(site, value, id=f"{site}-{reprlib.repr(value)}")
            for site, (kind, *_) in SITES.items() for value in values[kind]]


@pytest.mark.parametrize("site, value", _cases(REFUSED))
def test_each_site_refuses_with_its_own_error(site, value):
    _, call, error, message = SITES[site]
    with pytest.raises(error) as err:
        call(value)
    assert type(err.value) is error
    assert str(err.value) == message(value)


@pytest.mark.parametrize("site, value", _cases(ACCEPTED))
def test_each_site_accepts_numpy_and_fraction_reals_as_python_numbers(site, value):
    kind, call, _, _ = SITES[site]
    plain = int(value) if kind == "integer" else float(value)
    result, expected = call(value), call(plain)
    # counts, indices and widths are kept as Python ints, and quaternion parts as floats
    assert (result, type(result)) == (expected, type(expected))
    if isinstance(result, Quaternion):
        assert [type(part) for part in astuple(result)] == [float] * 4


def test_the_quaternion_builders_take_numpy_and_fraction_reals():
    # diag, qmat and phase_gate read each entry through as_quaternion
    assert phase_gate(np.float32(1)) == phase_gate(1.0)
    assert phase_gate(Fraction(-1)) == phase_gate(-1.0)
    assert diag(np.int64(1), 1.0) == diag(1.0, 1.0)
    assert qmat([[np.int64(0), Fraction(1)], [np.float32(1), ONE]]) == qmat([[0, 1], [1, 1]])
    assert I * np.int64(2) == Quaternion(0.0, 2.0)
