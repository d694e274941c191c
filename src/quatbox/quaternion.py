"""Quaternion arithmetic with exact Hamilton-product semantics.

A quaternion is w + x*i + y*j + z*k with real components and unit rules
i*i = j*j = k*k = i*j*k = -1, which force ij = k but ji = -k.  That single
sign asymmetry is the resource every other module in this package exploits,
so multiplication order is never normalized away here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


def int_or_none(value) -> int | None:
    """`value` as a Python int if it is an int or a numpy integer, else None.  A bool is
    refused: it is an int to Python, but True is not the count, index or width 1."""
    if isinstance(value, (int, numbers.Integral)) and not isinstance(value, bool):
        return int(value)
    return None


def is_real_number(value) -> bool:
    """Whether `value` is any numbers.Real but a bool (True is not the angle or phase 1)
    that a float can hold; int and float are found first, without numbers.Real's slower
    check.  10**400 is refused here, where each site gives its own error, not OverflowError."""
    if not (isinstance(value, (int, float, numbers.Real)) and not isinstance(value, bool)):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


@dataclass(frozen=True)
class Quaternion:
    """Element of the quaternion division ring, components (w, x, y, z)."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __post_init__(self):
        # each part meets the rule every real scalar entering the package meets; float
        # parts, which every product and negation has, skip the slower check
        if type(self.w) is type(self.x) is type(self.y) is type(self.z) is float:
            return
        for part in (self.w, self.x, self.y, self.z):
            if not is_real_number(part):
                raise TypeError(f"quaternion parts must be real numbers, got {part!r}")

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            p, q = self, other
            return Quaternion(
                p.w * q.w - p.x * q.x - p.y * q.y - p.z * q.z,
                p.w * q.x + p.x * q.w + p.y * q.z - p.z * q.y,
                p.w * q.y - p.x * q.z + p.y * q.w + p.z * q.x,
                p.w * q.z + p.x * q.y - p.y * q.x + p.z * q.w,
            )
        if is_real_number(other):
            other = float(other)  # a numpy or Fraction factor would leave its type in the parts
            return Quaternion(self.w * other, self.x * other, self.y * other, self.z * other)
        return NotImplemented

    def __str__(self) -> str:
        pieces = []
        for value, unit in zip((self.w, self.x, self.y, self.z), ("", "i", "j", "k")):
            if value == 0:
                continue
            mag = format(abs(value), ".12g")
            if unit and mag == "1":
                mag = ""
            sign = "-" if value < 0 else ("+" if pieces else "")
            pieces.append(f"{sign}{mag}{unit}")
        return "".join(pieces) or "0"


ZERO = Quaternion()
ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def as_quaternion(value) -> Quaternion:
    """Coerce a real number (or pass a quaternion through) to Quaternion."""
    if isinstance(value, Quaternion):
        return value
    if is_real_number(value):
        return Quaternion(float(value))
    raise TypeError(f"cannot interpret {type(value).__name__} as a quaternion")
