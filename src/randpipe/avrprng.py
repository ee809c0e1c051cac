"""Bit-exact reimplementation of the avr-libc random() generator.

This is the Park-Miller "minimal standard" multiplicative LCG:

    x_{n+1} = 16807 * x_n  mod  (2**31 - 1)

All arithmetic is done on Python integers, so the 46-bit intermediate
product never overflows. State values live in [1, 2**31 - 2]; 0 and
2**31 - 1 are fixed points of the recurrence and are never produced
from a valid state.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

MODULUS = 2**31 - 1        # 2147483647, prime
MULTIPLIER = 7**5          # 16807, a primitive root mod MODULUS


@dataclass(frozen=True)
class LcgState:
    """Generator state; x is confined to [1, MODULUS - 1]."""

    x: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", operator.index(self.x))
        if not 1 <= self.x <= MODULUS - 1:
            raise ValueError(f"LCG state {self.x} outside [1, {MODULUS - 1}]")


def srandom(seed: int) -> LcgState:
    """Seed the generator.

    The seed is reduced mod 2**31 - 1. A zero residue is mapped to 1:
    zero is a fixed point of the recurrence and would yield an all-zero
    stream, but a 10-bit analog reading used as a seed can legitimately
    be 0. The same mapping is applied on the attack side, so searches
    stay consistent with generation.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be non-negative")
    x = seed % MODULUS
    return LcgState(x if x else 1)


def random(state: LcgState) -> tuple[int, LcgState]:
    """Advance one step; returns (output value, next state).

    The output equals the next state, as in avr-libc.
    """
    nxt = (MULTIPLIER * state.x) % MODULUS
    return nxt, LcgState(nxt)


def stream(seed: int, count: int) -> list[int]:
    """The first `count` outputs after seeding with `seed`."""
    if count < 0:
        raise ValueError("count must be non-negative")
    x = srandom(seed).x
    out = []
    for _ in range(count):
        x = (MULTIPLIER * x) % MODULUS
        out.append(x)
    return out
