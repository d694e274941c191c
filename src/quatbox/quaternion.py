"""Quaternion arithmetic with exact Hamilton-product semantics.

A quaternion is w + x*i + y*j + z*k with real components and unit rules
i*i = j*j = k*k = i*j*k = -1, which force ij = k but ji = -k.  That single
sign asymmetry is the resource every other module in this package exploits,
so multiplication order is never normalized away here.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Quaternion:
    """Element of the quaternion division ring, components (w, x, y, z)."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def conjugate(self) -> Quaternion:
        """Negate the i, j, k components."""
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    __abs__ = norm

    def approx_eq(self, other: Quaternion, tol: float = 1e-12) -> bool:
        return (
            abs(self.w - other.w) <= tol
            and abs(self.x - other.x) <= tol
            and abs(self.y - other.y) <= tol
            and abs(self.z - other.z) <= tol
        )

    def __add__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(
                self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z
            )
        if isinstance(other, (int, float)):
            return Quaternion(self.w + other, self.x, self.y, self.z)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(
                self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z
            )
        if isinstance(other, (int, float)):
            return Quaternion(self.w - other, self.x, self.y, self.z)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

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
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other, self.y * other, self.z * other)
        return NotImplemented

    def __rmul__(self, other):
        # Only reals reach here, and reals commute with every quaternion.
        if isinstance(other, (int, float)):
            return Quaternion(other * self.w, other * self.x, other * self.y, other * self.z)
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

    @classmethod
    def parse(cls, text: str) -> Quaternion:
        """Parse the rendering produced by str(), e.g. ``1-2i+0.5k``."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty quaternion literal")
        comps = {"": 0.0, "i": 0.0, "j": 0.0, "k": 0.0}
        pos = 0
        while pos < len(s):
            m = _TERM_RE.match(s, pos)
            if m is None or m.end() == pos or (m.group(2) is None and not m.group(3)):
                raise ValueError(f"bad quaternion literal: {text!r}")
            sign = -1.0 if m.group(1) == "-" else 1.0
            mag = float(m.group(2)) if m.group(2) is not None else 1.0
            comps[m.group(3) or ""] += sign * mag
            pos = m.end()
        return cls(comps[""], comps["i"], comps["j"], comps["k"])


_TERM_RE = re.compile(
    r"([+-]?)"  # sign
    r"(\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)?"  # magnitude
    r"([ijk])?"  # unit
)

ZERO = Quaternion()
ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)

#: the eight unit elements {+-1, +-i, +-j, +-k}; exhaustive algebra checks run over these
UNIT_GROUP = (ONE, -ONE, I, -I, J, -J, K, -K)


def as_quaternion(value) -> Quaternion:
    """Coerce a real number (or pass a quaternion through) to Quaternion."""
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion(float(value))
    raise TypeError(f"cannot interpret {type(value).__name__} as a quaternion")
