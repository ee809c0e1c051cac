"""FIPS-140-1 statistical tests for 20000-bit sequences.

Four tests gate acceptance: monobit, poker (m=4), runs, and long runs.
A sequence passes overall only if all four pass. Sequences of any other
length are rejected outright; the published bounds are calibrated for
exactly 20000 bits.

Verdicts come from the FIPS count/interval bounds. The chi-square style
statistics x1, x3, x4 are computed and reported for inspection but only
x3 participates in a verdict (the poker bounds are stated directly on
x3). The monobit verdict uses the count bound 9654 < n1 < 10346; x1 is
the standard (n0 - n1)^2 / n form. Some transcriptions of the standard
print X1 with divisor 2 next to a bound of 9.654 < X1 < 10.346; those
two forms cannot both hold (at n1 = 10346 the divisor-2 statistic is
near 239000), so the count bound decides the verdict here and x1 is
informational. No p-values are computed.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .extract import as_bit_array
from .samples import SAMPLE_MAX, SampleTrace

REQUIRED_LENGTH = 20000

MONOBIT_LOW, MONOBIT_HIGH = 9654, 10346          # exclusive bounds on n1
POKER_LOW, POKER_HIGH = 1.03, 57.4               # exclusive bounds on x3
POKER_M = 4                                      # bits per poker hand
LONG_RUN_LIMIT = 34                              # longest permitted run

# Required inclusive intervals for run counts, per run length 1..6.
# Runs longer than 6 are counted in the length-6 bucket.
RUN_INTERVALS = {
    1: (2267, 2733),
    2: (1079, 1421),
    3: (502, 748),
    4: (223, 403),
    5: (90, 223),
    6: (90, 223),
}
_RUN_COUNT_KEYS = tuple(f"{kind}_{i}" for kind in ("block", "gap") for i in RUN_INTERVALS)

# Degrees of freedom of x1, x3 and x4. Every report prints them; no
# verdict uses them.
MONOBIT_DF = 1
POKER_DF = 15
RUNS_DF = 16


def expected_run_count(n: int, i: int) -> float:
    """Expected number of blocks (or gaps) of length i in n random bits."""
    return (n - i + 3) / 2 ** (i + 2)


_EXPECTED_RUNS = tuple(expected_run_count(REQUIRED_LENGTH, i) for i in RUN_INTERVALS)

# Item v: value v's 10 bits, MSB first, as one 10-byte void item. Indexing 10^6 of these
# took 7 ms, against 17 ms for rows of a (1024, 10) uint8 table (numpy 2.4, 2-vCPU Xeon).
_WIDTH = SAMPLE_MAX.bit_length()
_SAMPLE_BITS = (np.arange(SAMPLE_MAX + 1)[:, None] >> np.arange(_WIDTH - 1, -1, -1) & 1).astype(
    np.uint8).view(f"V{_WIDTH}").ravel()
_SAMPLE_BITS.flags.writeable = False


class TestReport(NamedTuple):
    """All four tests' results for one 20000-bit sequence.

    Each verdict is the bool field named after its test:
    - monobit passes iff 9654 < n1 < 10346, n1 being the count of ones.
    - poker cuts the sequence into k = 5000 disjoint 4-bit hands, each read
      MSB-first as an integer in [0, 16); poker_counts[i] is the number of
      hands equal to i, x3 = (16 / k) * sum(poker_counts[i]^2) - k, and it
      passes iff 1.03 < x3 < 57.4.
    - runs passes iff all 12 counts sit in RUN_INTERVALS: block_counts (runs
      of ones) and gap_counts (runs of zeros) by length 1..6, runs longer
      than 6 counted in 6. x4, their chi-square sum against
      expected_run_count, is for information only.
    - long_runs passes iff no run of either symbol is longer than 34 bits;
      longest_run is the longest.
    """

    __test__ = False          # keep pytest from collecting this class

    n1: int
    x1: float
    monobit: bool
    x3: float
    poker_counts: tuple[int, ...]
    poker: bool
    block_counts: tuple[int, ...]
    gap_counts: tuple[int, ...]
    x4: float
    runs: bool
    longest_run: int
    long_runs: bool

    @property
    def overall(self) -> bool:
        return self.monobit and self.poker and self.runs and self.long_runs


def fips_suite(s: Sequence[int] | np.ndarray) -> TestReport:
    """Run all four tests; overall passes only if every test passes."""
    bits = as_bit_array(s)
    if bits.size != REQUIRED_LENGTH:
        raise ValueError(
            f"sequence has {bits.size} bits; FIPS tests require {REQUIRED_LENGTH}"
        )
    n1 = int(np.count_nonzero(bits))
    x1 = (REQUIRED_LENGTH - 2 * n1) ** 2 / REQUIRED_LENGTH     # (n0 - n1)^2 / n

    k = REQUIRED_LENGTH // POKER_M
    table = np.bincount(np.packbits(bits), minlength=256).reshape(16, 16)  # row: first hand
    counts = (table.sum(axis=1) + table.sum(axis=0)).tolist()
    x3 = (2**POKER_M / k) * sum(c * c for c in counts) - k

    # A run starts at bit 0 and after every change; it ends where the next starts.
    change = np.empty(REQUIRED_LENGTH + 1, bool)
    change[0] = change[-1] = True
    np.not_equal(bits[1:], bits[:-1], out=change[1:-1])
    bounds = np.flatnonzero(change)
    # Runs alternate symbols: run j, of bits[0] iff j is even, counts in bin 2 * length + j % 2.
    keys = bounds[1:] - bounds[:-1]
    keys <<= 1
    keys[1::2] += 1
    hist = np.bincount(keys, minlength=14)
    low = hist[:14].tolist()            # runs of 1..6 bits; tolist() on all of hist is slow
    firsts, others = (low[i + 2:i + 12:2] + [int(hist[i + 12::2].sum())] for i in (0, 1))
    blocks, gaps = (firsts, others) if bits[0] else (others, firsts)
    runs_passed = all(lo <= b <= hi and lo <= g <= hi
                      for (lo, hi), b, g in zip(RUN_INTERVALS.values(), blocks, gaps))
    x4 = sum((b - e) ** 2 / e + (g - e) ** 2 / e for b, g, e in zip(blocks, gaps, _EXPECTED_RUNS))
    # bincount's length is its largest key + 1, unless minlength padded it.
    longest = (hist.size - 1 if hist.size > 14 else max(i for i, h in enumerate(low) if h)) // 2

    return TestReport(
        n1, x1, MONOBIT_LOW < n1 < MONOBIT_HIGH,
        x3, tuple(counts), POKER_LOW < x3 < POKER_HIGH,
        tuple(blocks), tuple(gaps), x4, runs_passed,
        longest, longest <= LONG_RUN_LIMIT,
    )


def format_report(report: TestReport) -> dict[str, int | float | bool]:
    """The report's fields in print order, verdicts as bools."""
    return {
        "n0": REQUIRED_LENGTH - report.n1,
        "n1": report.n1,
        "x1": report.x1,
        "monobit_df": MONOBIT_DF,
        "monobit": report.monobit,
        "x3": report.x3,
        "poker_df": POKER_DF,
        "poker": report.poker,
        **dict(zip(_RUN_COUNT_KEYS, report.block_counts + report.gap_counts)),
        "x4": report.x4,
        "runs_df": RUNS_DF,
        "runs": report.runs,
        "longest_run": report.longest_run,
        "long_runs": report.long_runs,
        "OVERALL": report.overall,
    }


def ints_to_bits(trace: SampleTrace) -> np.ndarray:
    """Expand each 10-bit sample into 10 bits, MSB first."""
    # Indexing, not take: take copies a read-only index array, and a trace's values are read-only.
    return _SAMPLE_BITS[trace.values].view(np.uint8)
