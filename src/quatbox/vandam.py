"""One-bit communication protocols for boolean functions, powered by boxes.

With enough perfect nonlocal boxes, any boolean function f(x, y) of split
inputs costs a single bit of communication (van Dam 2005): write f in
algebraic normal form over GF(2), feed each monomial that mixes Alice and
Bob variables through one box, and XOR-fold everything locally.  Bob sends
one bit; Alice sends nothing.  Functions like the inner product, whose
classical and quantum communication cost is maximal, collapse just the same.

Truth-table indexing: index = (x << n_bob) | y with x and y little-endian
bit-packed, i.e. bit i of the integer x is Alice's input bit x_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .boxes import BoxBehavior
from .chsh import chsh_value

#: refuse truth-table files and exhaustive verification beyond 2**20 inputs
VERIFY_SIZE_CAP = 20


def _table_size(n_alice: int, n_bob: int) -> int:
    if n_alice < 0 or n_bob < 0:
        raise ValueError("bit widths must be non-negative")
    return 1 << (n_alice + n_bob)


@dataclass(frozen=True)
class BooleanFunction:
    """A boolean function of n_alice + n_bob input bits, as a truth table."""

    n_alice: int
    n_bob: int
    table: tuple[int, ...]

    def __post_init__(self):
        expected = _table_size(self.n_alice, self.n_bob)
        if len(self.table) != expected:
            raise ValueError(f"table must have {expected} entries, got {len(self.table)}")
        if any(bit not in (0, 1) for bit in self.table):
            raise ValueError("table entries must be bits")

    def evaluate(self, x: int, y: int) -> int:
        if not 0 <= x < (1 << self.n_alice):
            raise ValueError(f"x = {x} out of range for {self.n_alice} bits")
        if not 0 <= y < (1 << self.n_bob):
            raise ValueError(f"y = {y} out of range for {self.n_bob} bits")
        return self.table[(x << self.n_bob) | y]

    @classmethod
    def from_callable(
        cls, n_alice: int, n_bob: int, fn: Callable[[int, int], int]
    ) -> BooleanFunction:
        table = tuple(
            fn(x, y) & 1 for x in range(1 << n_alice) for y in range(1 << n_bob)
        )
        return cls(n_alice, n_bob, table)

    def to_json_obj(self) -> dict:
        """{"n_alice", "n_bob", "table"} with the table hex-packed little-endian:
        bit position idx of the integer holds table[idx]."""
        packed = 0
        for idx, bit in enumerate(self.table):
            packed |= bit << idx
        digits = max(1, (len(self.table) + 3) // 4)
        return {"n_alice": self.n_alice, "n_bob": self.n_bob, "table": f"{packed:0{digits}x}"}

    @classmethod
    def from_json_obj(cls, obj: dict) -> BooleanFunction:
        n_alice, n_bob = int(obj["n_alice"]), int(obj["n_bob"])
        # widths are checked before anything of size 2**n is built
        if n_alice + n_bob > VERIFY_SIZE_CAP:
            raise ValueError(f"refusing a truth table over 2**{n_alice + n_bob} inputs")
        size = _table_size(n_alice, n_bob)
        packed = int(obj["table"], 16)
        if packed < 0:
            raise ValueError(f"table must be a non-negative hex string, got {obj['table']!r}")
        if packed >> size:
            raise ValueError("table has more bits than 2**(n_alice+n_bob)")
        return cls(n_alice, n_bob, tuple((packed >> idx) & 1 for idx in range(size)))


def _inner_product(width: int) -> BooleanFunction:
    return BooleanFunction.from_callable(
        width, width, lambda x, y: bin(x & y).count("1") & 1
    )


BUILTIN_FUNCTIONS: dict[str, Callable[[], BooleanFunction]] = {
    "AND": lambda: BooleanFunction.from_callable(1, 1, lambda x, y: x & y),
    "XOR": lambda: BooleanFunction.from_callable(1, 1, lambda x, y: x ^ y),
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
    empty pair (0, 0) is the constant-1 monomial.  Monomials are kept in
    ascending (alice_mask, bob_mask) order so box consumption downstream is
    reproducible.
    """

    n_alice: int
    n_bob: int
    monomials: tuple[tuple[int, int], ...]

    def evaluate(self, x: int, y: int) -> int:
        acc = 0
        for a_mask, b_mask in self.monomials:
            acc ^= (x & a_mask) == a_mask and (y & b_mask) == b_mask
        return int(acc)

    @cached_property
    def mixed(self) -> tuple[tuple[int, int], ...]:
        """Monomials touching both parties; these each consume one box."""
        return tuple(m for m in self.monomials if m[0] and m[1])

    @cached_property
    def pure_alice(self) -> tuple[tuple[int, int], ...]:
        """Monomials Alice can fold locally (includes the constant term)."""
        return tuple(m for m in self.monomials if not m[1])

    @cached_property
    def pure_bob(self) -> tuple[tuple[int, int], ...]:
        return tuple(m for m in self.monomials if not m[0] and m[1])


def anf_transform(f: BooleanFunction) -> ANF:
    """Binary Moebius transform of the truth table; exact, and an involution."""
    n = f.n_alice + f.n_bob
    coef = list(f.table)
    for v in range(n):
        bit = 1 << v
        for z in range(1 << n):
            if z & bit:
                coef[z] ^= coef[z ^ bit]
    b_mask_all = (1 << f.n_bob) - 1
    monomials = tuple(
        (m >> f.n_bob, m & b_mask_all) for m in range(1 << n) if coef[m]
    )
    return ANF(f.n_alice, f.n_bob, monomials)


@dataclass(frozen=True)
class ProtocolRun:
    """Outcome of one protocol execution on a fixed input pair."""

    output: int
    bits_bob_to_alice: int
    bits_alice_to_bob: int
    boxes_used: int


def vandam_protocol(
    f: BooleanFunction, x: int, y: int, box_supply: Sequence[BoxBehavior], rng
) -> ProtocolRun:
    """Run the one-bit protocol on inputs (x, y), consuming one box per
    mixed monomial.  With perfect boxes the output equals f(x, y) for every
    input and rng; with imperfect boxes it is a random variable."""
    return _run_with_anf(anf_transform(f), x, y, box_supply, rng)


def _run_with_anf(
    anf: ANF, x: int, y: int, box_supply: Sequence[BoxBehavior], rng
) -> ProtocolRun:
    mixed = anf.mixed
    if len(box_supply) < len(mixed):
        raise ValueError(f"need {len(mixed)} boxes, have {len(box_supply)}")
    u_fold = 0
    v_fold = 0
    for box, (a_mask, b_mask) in zip(box_supply, mixed):
        alpha = int((x & a_mask) == a_mask)
        beta = int((y & b_mask) == b_mask)
        u, v = box.sample(alpha, beta, rng)
        u_fold ^= u
        v_fold ^= v
    alice_local = 0
    for a_mask, _ in anf.pure_alice:
        alice_local ^= (x & a_mask) == a_mask
    bob_local = 0
    for _, b_mask in anf.pure_bob:
        bob_local ^= (y & b_mask) == b_mask
    # Bob's one bit; sent whenever the function is not identically zero.
    v_bit = v_fold ^ bob_local
    output = u_fold ^ alice_local ^ v_bit
    bits = 1 if anf.monomials else 0
    return ProtocolRun(
        output=int(output),
        bits_bob_to_alice=bits,
        bits_alice_to_bob=0,
        boxes_used=len(mixed),
    )


def success_probability(f: BooleanFunction, x: int, y: int, box: BoxBehavior) -> float:
    """Exact probability that the protocol outputs f(x, y), averaging over
    the boxes' randomness (every mixed monomial drawing from `box`)."""
    return _success_with_anf(anf_transform(f), x, y, chsh_value(box).per_cell)


def _success_with_anf(anf: ANF, x: int, y: int, win_rate: dict[tuple[int, int], float]) -> float:
    # The output is wrong iff an odd number of boxes miss x^y = ab on their
    # cell; for independent boxes Pr[even] = (1 + prod(1 - 2 e_k)) / 2.
    prod = 1.0
    for a_mask, b_mask in anf.mixed:
        win = win_rate[int((x & a_mask) == a_mask), int((y & b_mask) == b_mask)]
        prod *= 2.0 * min(max(win, 0.0), 1.0) - 1.0  # clamp: 1-ulp excess of simulated boxes
    return (1.0 + prod) / 2.0


@dataclass(frozen=True)
class VerifyReport:
    """Exhaustive check of the protocol over every input pair."""

    success_rate: float
    empirical_rate: float
    boxes_used: int
    bits_bob_to_alice: int
    bits_alice_to_bob: int
    n_inputs: int


def verify_exhaustive(f: BooleanFunction, box: BoxBehavior, rng=None) -> VerifyReport:
    """Run the protocol on every (x, y) and report exact and sampled rates.

    success_rate is the exact mean of success_probability over all inputs
    (identically 1.0 for perfect boxes); empirical_rate comes from one
    sampled protocol run per input.
    """
    n = f.n_alice + f.n_bob
    if n > VERIFY_SIZE_CAP:
        raise ValueError(f"refusing exhaustive run over 2**{n} inputs")
    if rng is None:
        rng = np.random.default_rng(0)
    anf = anf_transform(f)
    win_rate = chsh_value(box).per_cell
    supply = [box] * len(anf.mixed)
    exact_terms = []
    hits = 0
    for x in range(1 << f.n_alice):
        for y in range(1 << f.n_bob):
            run = _run_with_anf(anf, x, y, supply, rng)
            hits += run.output == f.evaluate(x, y)
            exact_terms.append(_success_with_anf(anf, x, y, win_rate))
    n_inputs = 1 << n
    return VerifyReport(
        success_rate=math.fsum(exact_terms) / n_inputs,
        empirical_rate=hits / n_inputs,
        boxes_used=len(anf.mixed),
        bits_bob_to_alice=1 if anf.monomials else 0,
        bits_alice_to_bob=0,
        n_inputs=n_inputs,
    )
