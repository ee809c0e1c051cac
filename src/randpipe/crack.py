"""Seed recovery for the avr-libc generator seeded from a 10-bit reading.

Only 1024 seed values exist, and on real hardware a few hundred of them
account for nearly all readings. The search orders candidates by how
often each value appeared in a sample capture, keeps a sliding window of
the k most recent outputs per candidate, and advances the candidates
round-robin until one window equals the observed output sequence.

Window slides restore generator state from the window's newest element:
for this generator the next output is a function of the previous output
alone, so re-seeding with the last output continues the stream exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .avrprng import MODULUS, MULTIPLIER
from .samples import SampleTrace

SEED_SPACE = 1024

# Offsets per vectorized step of audit_candidate_streams; it bounds the
# step's (SEED_SPACE, AUDIT_BLOCK + width - 1) int64 array to about 41 MB.
AUDIT_BLOCK = 5000


@dataclass(frozen=True)
class ProbDist:
    """All 1024 candidate seeds, most frequently observed first.

    order holds each value in [0, 1023] exactly once: observed values by
    descending frequency (ties broken by ascending value), then
    unobserved values ascending. counts[v] is the observed frequency.
    """

    order: tuple[int, ...]
    counts: np.ndarray = field(repr=False)
    observed_count: int


def build_prob_dist(trace: SampleTrace) -> ProbDist:
    """Frequency-rank the 1024 possible seed values from a sample trace."""
    counts = np.bincount(trace.values, minlength=SEED_SPACE) if len(trace) \
        else np.zeros(SEED_SPACE, dtype=np.int64)
    observed = [int(v) for v in np.flatnonzero(counts)]
    observed.sort(key=lambda v: (-int(counts[v]), v))
    unobserved = [v for v in range(SEED_SPACE) if counts[v] == 0]
    counts.flags.writeable = False
    return ProbDist(
        order=tuple(observed + unobserved),
        counts=counts,
        observed_count=len(observed),
    )


@dataclass(frozen=True)
class CrackConfig:
    m: int = 100                   # step budget per candidate per visit
    t: int = 4                     # extra weight for observed candidates
    max_total_steps: int = 10**9   # hard cap on generated outputs

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.t < 1:
            raise ValueError("t must be >= 1")
        if self.max_total_steps < 1:
            raise ValueError("max_total_steps must be >= 1")


@dataclass(frozen=True)
class CrackResult:
    """Search outcome; seed is None when the step budget ran out.

    offset is the number of window slides performed on the winning
    candidate, i.e. the observed sequence starts offset outputs into its
    stream. slides_by_seed counts phase-2 slides per candidate (only
    candidates that slid at least once appear).
    """

    seed: int | None
    offset: int | None
    total_steps: int
    slides_by_seed: dict[int, int] = field(repr=False, default_factory=dict)


def _checked_sequence(s: Sequence[int]) -> list[int]:
    vals = [int(v) for v in s]
    if not vals:
        raise ValueError("observed sequence must not be empty")
    for v in vals:
        if not 1 <= v <= MODULUS - 1:
            raise ValueError(f"sequence value {v} outside [1, {MODULUS - 1}]")
    return vals


def _search(s: Sequence[int], cfg: CrackConfig, dist: ProbDist,
            optimized: bool) -> CrackResult:
    vals = _checked_sequence(s)
    k = len(vals)
    s_dq = deque(vals)
    s_last = vals[-1]
    order = dist.order
    mult, mod = MULTIPLIER, MODULUS
    base = cfg.m + k
    if optimized:
        quotas = [cfg.t * base] * dist.observed_count \
            + [base] * (len(order) - dist.observed_count)
    else:
        quotas = [base] * len(order)

    def _slide_dict(slide_counts: list[int]) -> dict[int, int]:
        return {order[i]: c for i, c in enumerate(slide_counts) if c}

    # Phase 1: fill a k-window per candidate and test for a direct match.
    windows: list[deque] = []
    lasts: list[int] = []
    total = 0
    for i in order:
        x = i % mod
        if x == 0:
            x = 1
        w: deque = deque(maxlen=k)
        append = w.append
        for _ in range(k):
            x = (mult * x) % mod
            append(x)
        total += k
        if w == s_dq:
            return CrackResult(seed=i, offset=0, total_steps=total)
        windows.append(w)
        lasts.append(x)

    if total > cfg.max_total_steps:
        return CrackResult(seed=None, offset=None, total_steps=total)

    # Phase 2: round-robin; each visit slides one candidate's window by
    # its quota, comparing after every slide. The last element is checked
    # first since window equality requires it; a full comparison runs
    # only on that rare hit. The budget is enforced at round boundaries,
    # which keeps a budget of 1024*(d + k) sufficient whenever the
    # observed sequence starts d outputs into some candidate's stream.
    slides = [0] * len(order)
    while True:
        for idx in range(len(order)):
            x = lasts[idx]
            w = windows[idx]
            append = w.append
            hit = 0
            for j in range(1, quotas[idx] + 1):
                x = (mult * x) % mod
                append(x)
                if x == s_last and w == s_dq:
                    hit = j
                    break
            lasts[idx] = x
            if hit:
                slides[idx] += hit
                total += hit
                return CrackResult(
                    seed=order[idx],
                    offset=slides[idx],
                    total_steps=total,
                    slides_by_seed=_slide_dict(slides),
                )
            slides[idx] += quotas[idx]
            total += quotas[idx]
        if total > cfg.max_total_steps:
            return CrackResult(
                seed=None, offset=None, total_steps=total,
                slides_by_seed=_slide_dict(slides),
            )


def find_seed(s: Sequence[int], cfg: CrackConfig, dist: ProbDist) -> CrackResult:
    """Round-robin candidate search with equal per-visit budgets."""
    return _search(s, cfg, dist, optimized=False)


def find_seed_opt(s: Sequence[int], cfg: CrackConfig, dist: ProbDist) -> CrackResult:
    """Weighted search: observed candidates get t times the visit budget."""
    return _search(s, cfg, dist, optimized=True)


def verify_seed(g: int, s: Sequence[int], max_offset: int) -> int | None:
    """Smallest c <= max_offset with stream(g) outputs c+1..c+k equal to s.

    Independent post-check for search results: it regenerates the stream
    directly instead of trusting any search bookkeeping.
    """
    if max_offset < 0:
        raise ValueError("max_offset must be >= 0")
    vals = _checked_sequence(s)
    k = len(vals)
    s_dq = deque(vals)
    s_last = vals[-1]
    mult, mod = MULTIPLIER, MODULUS
    x = g % mod
    if x == 0:
        x = 1
    w: deque = deque(maxlen=k)
    append = w.append
    for _ in range(k):
        x = (mult * x) % mod
        append(x)
    if w == s_dq:
        return 0
    for c in range(1, max_offset + 1):
        x = (mult * x) % mod
        append(x)
        if x == s_last and w == s_dq:
            return c
    return None


def audit_candidate_streams(
    targets: Sequence[Sequence[int]],
    horizon: int = 10**6,
) -> list[list[tuple[int, int]]]:
    """Find every occurrence of each target window among candidate streams.

    Scans the first `horizon` outputs of all 1024 candidate streams for
    windows equal to each target (windows must lie fully inside the
    horizon). Returns, per target, the list of (seed, offset) pairs where
    the target occurs; offset counts outputs before the window.

    Streams are generated in blocks of AUDIT_BLOCK offsets via
    precomputed multiplier powers:
    output j of state x is (x * 16807^(j+1)) mod (2^31 - 1), so a whole
    block of every stream is one vectorized multiply.
    """
    tvals = [tuple(int(v) for v in t) for t in targets]
    if not tvals or any(len(t) < 1 for t in tvals):
        raise ValueError("targets must be non-empty windows")
    width = max(len(t) for t in tvals)

    by_first: dict[int, list[int]] = {}
    for ti, t in enumerate(tvals):
        by_first.setdefault(t[0], []).append(ti)

    # Cheap prefilter: hash first values into a 2^20 lookup table, then
    # confirm candidates exactly. Collisions just cost a dict probe.
    lut_bits = 20
    lut = np.zeros(1 << lut_bits, dtype=bool)
    for v in by_first:
        lut[v & ((1 << lut_bits) - 1)] = True

    ext = width - 1
    powers = np.empty(AUDIT_BLOCK + ext, dtype=np.int64)
    p = 1
    for j in range(AUDIT_BLOCK + ext):
        p = (p * MULTIPLIER) % MODULUS
        powers[j] = p
    step_mult = int(pow(MULTIPLIER, AUDIT_BLOCK, MODULUS))

    # Candidate seed i starts from state max(i mod M, 1); seed 0 shares
    # seed 1's stream.
    states = np.array([1] + list(range(1, SEED_SPACE)), dtype=np.int64)
    found: list[list[tuple[int, int]]] = [[] for _ in tvals]

    out = np.empty((SEED_SPACE, AUDIT_BLOCK + ext), dtype=np.int64)
    offset0 = 0
    while offset0 < horizon:
        np.multiply(states[:, None], powers[None, :], out=out)
        np.remainder(out, MODULUS, out=out)
        mask = lut[out & ((1 << lut_bits) - 1)]
        rows, cols = np.nonzero(mask)
        for r, c in zip(rows.tolist(), cols.tolist()):
            if c >= AUDIT_BLOCK:
                continue          # belongs to the next block
            off = offset0 + c
            v0 = int(out[r, c])
            if v0 not in by_first:
                continue
            for ti in by_first[v0]:
                t = tvals[ti]
                if off + len(t) > horizon:
                    continue
                if all(int(out[r, c + j]) == t[j] for j in range(len(t))):
                    found[ti].append((int(r), off))
        states = (states * step_mult) % MODULUS
        offset0 += AUDIT_BLOCK
    return found
