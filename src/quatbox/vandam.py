"""One-bit communication protocols for boolean functions, powered by boxes.

With enough perfect nonlocal boxes, any boolean function f(x, y) of split
inputs costs one bit of communication (van Dam 2005).  Over GF(2), f(x, y) =
f(x, 0) + f(0, y) + f(0, 0) + the mixed monomials of f's algebraic normal
form, those touching both parties, each computed by one box.  Alice adds her
box outputs to f(x, 0); Bob adds his to f(0, y) + f(0, 0) and sends that one
bit.  Functions like the inner product, whose classical and quantum
communication cost is maximal, collapse just the same.

Truth-table indexing: index = (x << n_bob) | y with x and y little-endian
bit-packed, i.e. bit i of the integer x is Alice's input bit x_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .boxes import BoxBehavior
from .quaternion import int_or_none

#: the widest truth table, in input bits: _table_size refuses a wider one, whether
#: from a file or the constructor, before anything of size 2**n is built
VERIFY_SIZE_CAP = 20

#: refuse exhaustive verification beyond this many (input, mixed monomial) box
#: cells, one draw each; at about 0.35 microseconds per cell a run takes about 0.75 s
VERIFY_CELL_BUDGET = 1 << 21

#: box cells per block of verify_exhaustive's walk over inputs (one input's cells at least)
_BLOCK_CELLS = 1 << 12

#: the characters a truth-table file's hex `table` may hold
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def _table_size(n_alice: int, n_bob: int) -> int:
    # a width of True or 1.9 is malformed, not 1, and a numpy one would add in its own type
    widths = int_or_none(n_alice), int_or_none(n_bob)
    if None in widths:
        raise ValueError("n_alice and n_bob must be integers")
    if min(widths) < 0:
        raise ValueError("bit widths must be non-negative")
    width = sum(widths)
    if width > VERIFY_SIZE_CAP:
        raise ValueError(f"refusing a truth table over 2**{width} inputs")
    return 1 << width


@dataclass(frozen=True)
class BooleanFunction:
    """A boolean function of n_alice + n_bob input bits: `table` holds one byte 0 or 1
    per input in index order, from any sequence of int, numpy or float bits."""

    n_alice: int
    n_bob: int
    table: bytes

    def __post_init__(self):
        expected = _table_size(self.n_alice, self.n_bob)
        # numpy widths would shift in their own, maybe narrow, type and not serialize
        object.__setattr__(self, "n_alice", int(self.n_alice))
        object.__setattr__(self, "n_bob", int(self.n_bob))
        try:
            entries = len(self.table)
        except TypeError:  # an int, None or a 0-d array
            raise ValueError(f"table must be a sequence of {expected} bits") from None
        if entries != expected:
            raise ValueError(f"table must have {expected} entries, got {entries}")
        bits = np.asarray(memoryview(self.table) if isinstance(self.table, bytes) else self.table)
        if bits.shape != (expected,) or not ((bits == 0) | (bits == 1)).all():
            raise ValueError("table entries must be bits")
        object.__setattr__(self, "table", bits.astype(np.uint8).tobytes())

    def to_json_obj(self) -> dict:
        """{"n_alice", "n_bob", "table"} with the table hex-packed little-endian:
        bit position idx of the integer holds table[idx]."""
        packed = int.from_bytes(np.packbits(_table(self), bitorder="little").tobytes(), "little")
        digits = max(1, (len(self.table) + 3) // 4)
        return {"n_alice": self.n_alice, "n_bob": self.n_bob, "table": f"{packed:0{digits}x}"}

    @classmethod
    def from_json_obj(cls, obj: object) -> BooleanFunction:
        if not isinstance(obj, dict):
            raise ValueError(f"a truth table must be a JSON object, got {type(obj).__name__}")
        for key in ("n_alice", "n_bob", "table"):
            if key not in obj:
                raise ValueError(f"missing key {key!r}")
        n_alice, n_bob = obj["n_alice"], obj["n_bob"]
        size = _table_size(n_alice, n_bob)  # a file is judged by its widths first
        if not isinstance(obj["table"], str):
            raise ValueError("table must be a hex string")
        # int(text, 16) alone also takes a 0x prefix, a sign, underscores,
        # surrounding whitespace and non-ASCII digits
        if not obj["table"] or not _HEX_DIGITS.issuperset(obj["table"]):
            raise ValueError(f"table must be a non-negative hex string, got {obj['table']!r}")
        packed = int(obj["table"], 16)
        if packed >> size:
            raise ValueError("table has more bits than 2**(n_alice+n_bob)")
        packed_bytes = np.frombuffer(packed.to_bytes((size + 7) // 8, "little"), np.uint8)
        return cls(n_alice, n_bob, np.unpackbits(packed_bytes, count=size, bitorder="little"))


def _inner_product(width: int) -> BooleanFunction:
    # the parity of x & y at every index (x << width) | y, in one pass over the indices
    idx = np.arange(1 << (2 * width))
    return BooleanFunction(width, width, np.bitwise_count(idx >> width & idx) & 1)


BUILTIN_FUNCTIONS: dict[str, Callable[[], BooleanFunction]] = {
    "AND": lambda: BooleanFunction(1, 1, (0, 0, 0, 1)),
    "XOR": lambda: BooleanFunction(1, 1, (0, 1, 1, 0)),
    "IP2": lambda: _inner_product(2),
    "IP4": lambda: _inner_product(4),
}


def builtin_function(name: str) -> BooleanFunction:
    try:
        return BUILTIN_FUNCTIONS[name]()
    except KeyError:
        raise ValueError(
            f"unknown function {name!r}; built-ins are {sorted(BUILTIN_FUNCTIONS)}"
        ) from None


@dataclass(frozen=True)
class ANF:
    """Algebraic normal form: XOR of AND-monomials over GF(2).

    Each monomial is an (alice_mask, bob_mask) pair of variable sets; the
    empty pair (0, 0) is the constant-1 monomial.  `coefficients` holds a byte
    0 or 1 per monomial at index m = (alice_mask << n_bob) | bob_mask, so the
    monomial at m is divmod(m, 1 << n_bob), and it is mixed, drawing one box,
    when both masks are non-zero.  Boxes are drawn in ascending m, which is
    ascending (alice_mask, bob_mask) order, so box use is reproducible.
    """

    n_alice: int
    n_bob: int
    coefficients: bytes

    @property
    def _mixed_grid(self) -> np.ndarray:
        # the coefficients of the mixed monomials as a (2**n_alice - 1, 2**n_bob - 1) view
        return np.frombuffer(self.coefficients, np.uint8).reshape(1 << self.n_alice, -1)[1:, 1:]

    @cached_property
    def _masks(self) -> np.ndarray:
        # each mixed monomial's (Alice mask at its place in the index, Bob mask), no tuple built
        return np.argwhere(self._mixed_grid) + 1 << [self.n_bob, 0]


def anf_transform(f: BooleanFunction) -> ANF:
    """Binary Moebius transform of the truth table; exact, and an involution."""
    coef = _table(f).copy()
    for v in range(f.n_alice + f.n_bob):
        pairs = coef.reshape(-1, 2, 1 << v)  # axis 1 is bit v of the index
        pairs[:, 1] ^= pairs[:, 0]
    return ANF(f.n_alice, f.n_bob, coef.tobytes())


@dataclass(frozen=True)
class ProtocolRun:
    """Outcome of one protocol execution on a fixed input pair."""

    output: int
    bits_bob_to_alice: int
    bits_alice_to_bob: int
    boxes_used: int


def vandam_protocol(f: BooleanFunction, x: int, y: int, box: BoxBehavior, rng) -> ProtocolRun:
    """Run the one-bit protocol on inputs (x, y), drawing from `box` once per
    mixed monomial.  With perfect boxes the output equals f(x, y) for every
    input and rng; with imperfect boxes it is a random variable."""
    anf, idx, cells = _input_cells(f, x, y)
    output = _outputs(_table(f), f.n_bob, idx, cells, box, rng)
    return ProtocolRun(output=int(output[0]), **_cost(anf))


def _input_cells(f: BooleanFunction, x: int, y: int) -> tuple[ANF, np.ndarray, np.ndarray]:
    # f's ANF, and the one-entry truth-table index and box cells of the pair (x, y), checked
    # as widths are: a bool or 0.5 is malformed, and numpy would shift in its own type
    for name, value, bits in (("x", x, f.n_alice), ("y", y, f.n_bob)):
        if int_or_none(value) is None:
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0 <= value < (1 << bits):
            raise ValueError(f"{name} = {value} out of range for {bits} bits")
    anf = anf_transform(f)
    idx = np.array([(int(x) << f.n_bob) | int(y)])
    return anf, idx, _cells(anf, idx)


def _cost(anf: ANF) -> dict[str, int]:
    # one box per mixed monomial, and Bob's one bit unless f is identically zero
    bits = int(1 in anf.coefficients)
    return {"boxes_used": len(anf._masks), "bits_bob_to_alice": bits, "bits_alice_to_bob": 0}


def _table(f: BooleanFunction) -> np.ndarray:
    return np.frombuffer(f.table, np.uint8)


def _cells(anf: ANF, idx: np.ndarray) -> np.ndarray:
    # each (input, mixed monomial) box's index 2 alpha + beta into CELLS as uint8, shape
    # (len(idx), M), for truth-table indices idx: alpha is whether x holds the monomial's
    # Alice variables and beta whether y holds its Bob ones, both read from idx itself
    masks = anf._masks
    return ((idx[:, None, None] & masks) == masks) @ np.array([2, 1], np.uint8)


def _outputs(table: np.ndarray, n_bob: int, idx: np.ndarray, cells: np.ndarray, box, rng):
    # Alice's outputs on inputs idx, drawing output cell 2u + v from box once per cell of
    # cells in C order: f(x, 0) + her box outputs + Bob's bit f(0, y) + f(0, 0) + his outputs
    fold = 0  # no mixed monomial, no draw: rng.random(0) would not advance rng either
    if cells.size:
        # one `sample(cell, r)` call per cell, r the next double of one rng.random(n), not
        # one `sample_cells` scan, so that the benchmark can count the draws
        draws = map(box.sample, cells.ravel().tolist(), rng.random(cells.size).tolist())
        out = np.fromiter(draws, np.uint8, cells.size).reshape(cells.shape)
        fold = np.bitwise_xor.reduce(out ^ out >> 1, axis=-1) & 1  # u ^ v: bit 0 of out ^ u
    return table[idx >> n_bob << n_bob] ^ table[idx & ((1 << n_bob) - 1)] ^ table[0] ^ fold


def success_probability(f: BooleanFunction, x: int, y: int, box: BoxBehavior) -> float:
    """Exact probability that the protocol outputs f(x, y), averaging over
    the boxes' randomness (every mixed monomial drawing from `box`)."""
    return float(_success_rates(_input_cells(f, x, y)[2], _gains(box))[0])


def _gains(box: BoxBehavior) -> np.ndarray:
    # 2 win - 1 per input cell; the clamp absorbs the 2-ulp excess of simulated boxes
    return np.array([2.0 * min(max(win, 0.0), 1.0) - 1.0 for win in box.wins])


def _success_rates(cells: np.ndarray, gain: np.ndarray) -> np.ndarray:
    # Wrong iff an odd number of boxes miss x^y = ab: Pr[even] = (1 + prod(1 - 2 e_k)) / 2,
    # the multiply reduction running left to right in monomial order, as math.prod did
    return (1.0 + np.multiply.reduce(gain.take(cells), axis=-1)) / 2.0


@dataclass(frozen=True)
class VerifyReport:
    """Exhaustive check of the protocol over every input pair."""

    success_rate: float
    empirical_rate: float
    boxes_used: int
    bits_bob_to_alice: int
    bits_alice_to_bob: int
    n_inputs: int


def verify_exhaustive(f: BooleanFunction, box: BoxBehavior, rng) -> VerifyReport:
    """Run the protocol on every (x, y) and report exact and sampled rates.

    success_rate is the exact mean of success_probability over all inputs
    (identically 1.0 for perfect boxes); empirical_rate comes from one
    sampled protocol run per input, which XORs u ^ v over the output cells
    2u + v that `box.sample` draws for its boxes, one call per box cell, in
    truth-table index order (x-major, then y), then monomial.
    The inputs are walked in runs of consecutive indices, about
    _BLOCK_CELLS box cells each; one `rng.random(n)` gives a run's n doubles,
    so rng advances by exactly one double per box cell.  Each draw is one
    `sample` call, which perfbench counts; the Monte Carlo draws of
    `sample_cells` make none.
    """
    n = f.n_alice + f.n_bob
    anf = anf_transform(f)
    mixed = np.count_nonzero(anf._mixed_grid)  # counted before any mask is built
    cells = mixed << n  # one box draw per input and mixed monomial
    if cells > VERIFY_CELL_BUDGET:
        raise ValueError(
            f"refusing exhaustive run over {cells} box cells; the budget is {VERIFY_CELL_BUDGET}"
        )
    gain = _gains(box)
    table = _table(f)
    exact, hits = [], 0
    # whole inputs in index order, so the draws keep their x, y, monomial order
    step = max(1, _BLOCK_CELLS // max(mixed, 1))
    for start in range(0, 1 << n, step):
        idx = np.arange(start, min(start + step, 1 << n))
        block = _cells(anf, idx)
        hits += np.count_nonzero(_outputs(table, f.n_bob, idx, block, box, rng) == table[idx])
        exact += _success_rates(block, gain).tolist()
    n_inputs = 1 << n
    return VerifyReport(
        success_rate=math.fsum(exact) / n_inputs,
        empirical_rate=int(hits) / n_inputs,
        n_inputs=n_inputs,
        **_cost(anf),
    )
