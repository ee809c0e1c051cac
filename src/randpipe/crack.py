"""Seed recovery for the avr-libc generator seeded from a 10-bit reading.

Only 1024 seed values exist, and on real hardware a few hundred of them
account for nearly all readings. The search orders candidates by how
often each value appeared in a sample capture and visits them
round-robin: phase 1 generates each candidate's first k outputs, then
each phase-2 visit slides a candidate's k-output window by its quota,
until one window equals the observed output sequence.

The schedule is computed, not stepped. 16807 is a primitive root mod
M = 2^31 - 1, so a window starting with s_0 sits (log s_0 - log x - 1)
mod (2^31 - 2) outputs into the stream of state x. 2^31 - 2 =
2 * 3^2 * 7 * 11 * 31 * 151 * 331 is smooth, so Pohlig-Hellman gives each
logarithm from seven small subgroups. The winner, its offset and the
step counts the stepped schedule would take follow from the 1024
offsets and the quotas, at a cost that does not grow with the offset.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import isqrt, prod
from typing import Sequence

import numpy as np

from .avrprng import MODULUS, MULTIPLIER, _as_int, srandom, stream
from .samples import SAMPLE_MAX, SampleTrace

SEED_SPACE = SAMPLE_MAX + 1        # one candidate seed per reading

# Order of the multiplicative group mod MODULUS: the stream's cycle length.
GROUP_ORDER = MODULUS - 1
_PRIME_POWERS = (331, 151, 31, 11, 9, 7, 2)    # product: GROUP_ORDER


@dataclass(frozen=True)
class CrackConfig:
    m: int = 100                   # step budget per candidate per visit
    t: int = 4                     # extra weight for observed candidates
    max_total_steps: int = 10**9   # hard cap on generated outputs

    def __post_init__(self) -> None:
        for name in ("m", "t", "max_total_steps"):
            value = _as_int(getattr(self, name))
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class CrackResult:
    """Search outcome; seed is None when the step budget ran out.

    offset is the number of window slides performed on the winning
    candidate, i.e. the observed sequence starts offset outputs into its
    stream. total_steps counts every output the stepped search generates.
    """

    seed: int | None
    offset: int | None
    total_steps: int


def _checked_sequence(s: Sequence[int]) -> list[int]:
    vals = list(map(_as_int, s))
    if not vals:
        raise ValueError("observed sequence must not be empty")
    if min(vals) < 1 or max(vals) > MODULUS - 1:
        bad = next(v for v in vals if not 1 <= v <= MODULUS - 1)
        raise ValueError(f"sequence value {bad} outside [1, {MODULUS - 1}]")
    return vals


def _is_arc(vals: Sequence[int]) -> bool:
    """Whether vals are consecutive outputs of the generator."""
    return 1 <= vals[0] < MODULUS and all(
        b == a * MULTIPLIER % MODULUS for a, b in zip(vals, vals[1:]))


@functools.cache
def _subgroups() -> list[tuple[int, int, int, dict[int, int]]]:
    """Pohlig-Hellman tables: per prime power q, q, the product of the prime powers after
    it, the CRT weight (1 mod q, 0 mod the rest) and the logarithms of q's subgroup."""
    tables = []
    for i, q in enumerate(_PRIME_POWERS):
        c = GROUP_ORDER // q
        gen = pow(MULTIPLIER, c, MODULUS)
        logs = {pow(gen, j, MODULUS): j for j in range(q)}
        tables.append((q, prod(_PRIME_POWERS[i + 1:]), c * pow(c, -1, q), logs))
    return tables


def _dlog(y: int) -> int:
    """The e in [0, GROUP_ORDER) with 16807^e = y mod MODULUS, for y in [1, MODULUS - 1].

    Raised to the prime powers before q, y needs only those after it for y^(GROUP_ORDER / q)."""
    e = 0
    for q, after, w, logs in _subgroups():
        e += w * logs[pow(y, after, MODULUS)]
        y = pow(y, q, MODULUS)
    return e % GROUP_ORDER


@functools.cache
def _seed_logs() -> np.ndarray:
    """The logarithm of each candidate seed i's state max(i mod M, 1).

    Only primes take a Pohlig-Hellman logarithm; a composite's is the sum
    of its factors' logarithms."""
    logs = [0] * SEED_SPACE
    for i in range(2, SEED_SPACE):
        p = next((p for p in range(2, isqrt(i) + 1) if i % p == 0), i)
        logs[i] = _dlog(i) if p == i else (logs[p] + logs[i // p]) % GROUP_ORDER
    out = np.array(logs)
    out.flags.writeable = False
    return out


def _offsets(first: int) -> np.ndarray:
    """[i]: the smallest offset of a window starting with `first` in seed i's stream."""
    return (_dlog(first) - _seed_logs() - 1) % GROUP_ORDER


def find_seed(s: Sequence[int], cfg: CrackConfig, trace: SampleTrace) -> CrackResult:
    """The outcome of the round-robin search over the seeds as `trace` ranks them.

    Observed candidates get t times the quota m + k, so t = 1 is the plain search.
    Phase 1 fills candidates' windows in order and stops at the first that
    equals the sequence. Each phase-2 round slides every window in order
    by up to its quota, stopping at a match, so a window first matching at
    offset d does so in round (d - 1) // quota; the smallest (round,
    position) wins. The budget is checked after phase 1 and after each
    round, so 1024*(d + k) steps find a window d outputs into any stream.
    """
    vals = _checked_sequence(s)
    k = len(vals)
    counts = np.bincount(trace.values, minlength=SEED_SPACE)
    # Candidates by descending count in the trace. Stable, so ties (the
    # unobserved values among them) stay in value order.
    order = np.argsort(-counts, kind="stable")
    observed = int(np.count_nonzero(counts))
    base = cfg.m + k
    extra = (cfg.t - 1) * base    # added to observed candidates' quotas

    def round_steps(i: int) -> int:
        """The steps a phase-2 round spends on candidates order[:i]."""
        return base * i + extra * min(i, observed)

    # d[i]: the smallest offset of the window in candidate order[i]'s
    # stream. A window that is not an arc of the generator has none.
    d = _offsets(vals[0])[order] if _is_arc(vals) else None
    if d is not None and d.min() == 0:
        win = int(np.argmin(d))
        return CrackResult(seed=int(order[win]), offset=0, total_steps=(win + 1) * k)
    total = SEED_SPACE * k
    if total > cfg.max_total_steps:
        return CrackResult(seed=None, offset=None, total_steps=total)

    # The budget check fails after phase-2 round last_round, counted from 0.
    q = round_steps(SEED_SPACE)
    last_round = (cfg.max_total_steps - total) // q
    if d is not None:
        # Clipped at GROUP_ORDER > d - 1, the quotas give the same rounds
        # and fit in int64.
        quotas = np.full(SEED_SPACE, min(base, GROUP_ORDER))
        quotas[:observed] = min(base + extra, GROUP_ORDER)
        rounds = (d - 1) // quotas
        win = int(np.argmin(rounds))
        r = int(rounds[win])
        if r <= last_round:
            # r rounds without the winner's quota, round r up to the
            # winner, then the winner's own slides.
            before, offset = round_steps(win), int(d[win])
            steps = r * (q - round_steps(win + 1) + before) + before + offset
            return CrackResult(seed=int(order[win]), offset=offset, total_steps=total + steps)
    return CrackResult(seed=None, offset=None, total_steps=total + (last_round + 1) * q)


def verify_seed(g: int, s: Sequence[int], offset: int) -> bool:
    """Whether stream(g) outputs offset+1..offset+k equal s.

    Independent post-check for search results: it regenerates the window
    at the claimed offset and takes no logarithm.
    """
    offset = _as_int(offset)
    if offset < 0:
        raise ValueError("offset must be >= 0")
    vals = _checked_sequence(s)
    return stream(srandom(g) * pow(MULTIPLIER, offset, MODULUS), len(vals)) == vals


def audit_candidate_streams(targets: Sequence[Sequence[int]],
                            horizon: int = 10**6) -> list[list[tuple[int, int]]]:
    """Find every occurrence of each target window among candidate streams.

    Covers the first `horizon` outputs of all 1024 candidate streams
    (windows must lie fully inside the horizon). Returns, per target, the
    (seed, offset) pairs where the target occurs, by seed and then offset;
    offset counts outputs before the window. Only a target that is an arc
    of the generator occurs, and in each stream exactly at the offsets
    congruent to its smallest one mod 2^31 - 2.
    """
    tvals = [tuple(map(_as_int, t)) for t in targets]
    horizon = _as_int(horizon)
    if not tvals or any(len(t) < 1 for t in tvals):
        raise ValueError("targets must be non-empty windows")
    found: list[list[tuple[int, int]]] = [[] for _ in tvals]
    for t, pairs in zip(tvals, found):
        if _is_arc(t):
            row = _offsets(t[0])
            last = horizon - len(t)
            pairs.extend((seed, c) for seed in np.flatnonzero(row <= last).tolist()
                         for c in range(int(row[seed]), last + 1, GROUP_ORDER))
    return found
