"""Seeded pseudo-randomness and random system generators.

All randomness in the package flows through one 64-bit linear
congruential generator so that reports are reproducible bit-for-bit
from a seed, independent of the Python version or hash randomisation:

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64

Each draw advances the state once and uses the top 32 bits.  Trial i of
a batch runs on an independent stream seeded with
(seed + (i + 1) * 0x9E3779B97F4A7C15) mod 2^64.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Carrier
from .systems import Cts, Lwa, Nda

_MASK64 = (1 << 64) - 1
_MULT = 6364136223846793005
_INC = 1442695040888963407
_SPLIT = 0x9E3779B97F4A7C15

# Rational weights drawn for random weighted automata.
WEIGHT_GRID = (
    Fraction(0), Fraction(1), Fraction(-1),
    Fraction(1, 2), Fraction(-1, 2), Fraction(2),
)

_LETTERS = "abcdefgh"


class Lcg:
    """The package PRNG.  Deliberately simple and fully specified."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u32(self) -> int:
        self.state = (_MULT * self.state + _INC) & _MASK64
        return self.state >> 32

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] (modulo bias is irrelevant here)."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u32() % (hi - lo + 1)

    def bit(self) -> bool:
        return bool(self.next_u32() & 1)

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def spawn(self, index: int) -> "Lcg":
        return Lcg((self.state + (index + 1) * _SPLIT) & _MASK64)


def subseed(seed: int, index: int) -> int:
    return (seed + (index + 1) * _SPLIT) & _MASK64


def random_nda(rng: Lcg, max_states: int = 4, max_actions: int = 2) -> Nda:
    """`random_lts` plus acceptance bits, drawn state by state."""
    states, alphabet, delta = random_lts(rng, max_states, max_actions)
    accepting = sum(1 << x for x in range(len(states)) if rng.bit())
    return Nda(states, alphabet, delta, accepting)


def random_lwa(rng: Lcg, max_states: int = 4, max_actions: int = 2) -> Lwa:
    n = rng.randint(1, max_states)
    m = rng.randint(1, max_actions)
    states = Carrier(tuple(f"q{i}" for i in range(n)))
    alphabet = Carrier(tuple(_LETTERS[j] for j in range(m)))
    out = tuple(rng.choice(WEIGHT_GRID) for _ in range(n))
    mat = tuple(
        tuple(tuple(rng.choice(WEIGHT_GRID) for _ in range(n)) for _ in range(n))
        for _ in range(m)
    )
    return Lwa(states, alphabet, out, mat)


def random_cts(rng: Lcg, max_conditions: int = 3, max_states: int = 6) -> Cts:
    k = rng.randint(1, max_conditions)
    n = rng.randint(1, max_states)
    conditions = Carrier(tuple(f"k{i}" for i in range(k)))
    states = Carrier(tuple(f"q{i}" for i in range(n)))
    delta = tuple(
        tuple(sum(1 << x2 for x2 in range(n) if rng.bit()) for _ in range(n))
        for _ in range(k)
    )
    return Cts(conditions, states, delta)


def random_lts(rng: Lcg, max_states: int = 4, max_actions: int = 2):
    """Random labelled transition system as (states, alphabet, delta masks)."""
    n = rng.randint(1, max_states)
    m = rng.randint(1, max_actions)
    states = Carrier(tuple(f"q{i}" for i in range(n)))
    alphabet = Carrier(tuple(_LETTERS[j] for j in range(m)))
    delta = tuple(
        tuple(sum(1 << x2 for x2 in range(n) if rng.bit()) for _ in range(m))
        for _ in range(n)
    )
    return states, alphabet, delta


def random_vector(rng: Lcg, dim: int) -> tuple[Fraction, ...]:
    return tuple(rng.choice(WEIGHT_GRID) for _ in range(dim))
