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

MODULUS = 2**31 - 1        # 2147483647, prime
MULTIPLIER = 7**5          # 16807, a primitive root mod MODULUS


def _as_int(value: object) -> int:
    """value as a Python int; the package's one integer rule. A bool raises TypeError,
    as does anything operator.index refuses: a float, a string, None, numpy's bool."""
    if isinstance(value, bool):
        raise TypeError("'bool' object cannot be interpreted as an integer")
    return operator.index(value)


def srandom(seed: int) -> int:
    """Seed the generator; returns the state, in [1, 2**31 - 2].

    The seed is reduced mod 2**31 - 1. A zero residue is mapped to 1:
    zero is a fixed point of the recurrence and would yield an all-zero
    stream, but a 10-bit analog reading used as a seed can legitimately
    be 0. The same mapping is applied on the attack side, so searches
    stay consistent with generation.
    """
    seed = _as_int(seed)
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return seed % MODULUS or 1


def stream(seed: int, count: int) -> list[int]:
    """The first `count` outputs after seeding with `seed`."""
    count = _as_int(count)
    if count < 0:
        raise ValueError("count must be non-negative")
    x = srandom(seed)
    out = []
    for _ in range(count):
        x = (MULTIPLIER * x) % MODULUS
        out.append(x)
    return out
