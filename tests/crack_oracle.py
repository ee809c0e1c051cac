"""Slow reference implementations of randpipe.crack's ranking, search, post-check and audit.

`prob_dist_sort` ranks the candidates with a Python sort, `checked_window`
checks a window one value at a time, `search_loop` is the round-robin
search over that ranking, stepping every candidate's stream one output
at a time, `verify_scan` steps one stream to a window, and `audit_scan`
generates all 1024 candidate streams block by block.
They are the definitions the numpy and closed-form code in randpipe.crack
must reproduce field for field.

Window slides restore generator state from the window's newest element:
for this generator the next output is a function of the previous output
alone, so re-seeding with the last output continues the stream exactly.
"""

import operator
from collections import Counter, deque
from typing import Sequence

import numpy as np

from randpipe.avrprng import MODULUS, MULTIPLIER
from randpipe.crack import SEED_SPACE, CrackConfig, CrackResult
from randpipe.samples import SampleTrace

# Offsets per vectorized step of audit_scan; it bounds the step's
# (SEED_SPACE, AUDIT_BLOCK + width - 1) int64 array to about 41 MB.
AUDIT_BLOCK = 5000


def prob_dist_sort(trace: SampleTrace) -> tuple[list[int], int]:
    """The candidate order and the number of observed values in it.

    The order is the observed values by descending count, ties by value,
    then the unobserved values ascending.
    """
    counts = Counter(trace.values.tolist())
    observed = sorted(counts, key=lambda v: (-counts[v], v))
    unobserved = [v for v in range(SEED_SPACE) if v not in counts]
    return observed + unobserved, len(observed)


def checked_window(s: Sequence[int]) -> list[int]:
    """s as Python ints, checked as the search must: every value an integer that is not a
    bool, then a non-empty window whose first value outside [1, M - 1] is named."""
    vals = []
    for v in s:
        if isinstance(v, bool):
            raise TypeError("'bool' object cannot be interpreted as an integer")
        vals.append(operator.index(v))
    if not vals:
        raise ValueError("observed sequence must not be empty")
    for v in vals:
        if not 1 <= v <= MODULUS - 1:
            raise ValueError(f"sequence value {v} outside [1, {MODULUS - 1}]")
    return vals


def search_loop(s: Sequence[int], cfg: CrackConfig, trace: SampleTrace) -> CrackResult:
    vals = checked_window(s)
    k = len(vals)
    s_dq = deque(vals)
    s_last = vals[-1]
    order, observed = prob_dist_sort(trace)
    mult, mod = MULTIPLIER, MODULUS
    base = cfg.m + k
    quotas = [cfg.t * base] * observed + [base] * (len(order) - observed)

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
                return CrackResult(seed=order[idx], offset=slides[idx], total_steps=total)
            slides[idx] += quotas[idx]
            total += quotas[idx]
        if total > cfg.max_total_steps:
            return CrackResult(seed=None, offset=None, total_steps=total)


def verify_scan(g: int, s: Sequence[int], offset: int) -> bool:
    """Whether stream(g) outputs offset+1..offset+k equal s.

    16807^(M - 1) = 1 mod the prime M = 2^31 - 1, so every stream repeats
    after M - 1 outputs; offsets are reduced by whole cycles, then stepped.
    """
    vals = [int(v) for v in s]
    x = g % MODULUS or 1
    out = []
    for _ in range(offset % (MODULUS - 1) + len(vals)):
        x = (MULTIPLIER * x) % MODULUS
        out.append(x)
    return out[len(out) - len(vals):] == vals


def audit_scan(
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
