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
from .samples import SampleTrace

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

# Degrees-of-freedom bookkeeping, recorded for documentation only; no
# verdict uses these.
MONOBIT_DF = 1
POKER_DF = 15
RUNS_DF = 16


class MonobitResult(NamedTuple):
    n1: int
    x1: float
    passed: bool


class PokerResult(NamedTuple):
    x3: float
    passed: bool
    counts: tuple[int, ...]


class RunsResult(NamedTuple):
    block_counts: tuple[int, ...]    # lengths 1..6, >6 truncated into 6
    gap_counts: tuple[int, ...]
    x4: float
    passed: bool


class LongRunsResult(NamedTuple):
    longest_run: int
    passed: bool


def _block(s: Sequence[int] | np.ndarray) -> np.ndarray:
    bits = as_bit_array(s)
    if bits.size != REQUIRED_LENGTH:
        raise ValueError(
            f"sequence has {bits.size} bits; FIPS tests require {REQUIRED_LENGTH}"
        )
    return bits


def run_lengths(bits: Sequence[int] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Enumerate maximal runs of any bit sequence.

    Returns (lengths, symbols) in order of occurrence; a run is a
    maximal subsequence of identical symbols.
    """
    arr = as_bit_array(bits)
    if arr.size == 0:
        return np.array([], dtype=np.int64), np.array([], dtype=np.uint8)
    bounds = np.concatenate(([0], np.flatnonzero(arr[1:] != arr[:-1]) + 1, [arr.size]))
    return np.diff(bounds), arr[bounds[:-1]]


def expected_run_count(n: int, i: int) -> float:
    """Expected number of blocks (or gaps) of length i in n random bits."""
    return (n - i + 3) / 2 ** (i + 2)


def monobit(s: Sequence[int] | np.ndarray) -> MonobitResult:
    """Count of ones; passes iff 9654 < n1 < 10346."""
    bits = _block(s)
    n1 = int(bits.sum())
    n0 = REQUIRED_LENGTH - n1
    x1 = (n0 - n1) ** 2 / REQUIRED_LENGTH
    return MonobitResult(n1=n1, x1=x1, passed=MONOBIT_LOW < n1 < MONOBIT_HIGH)


def poker(s: Sequence[int] | np.ndarray) -> PokerResult:
    """Frequency of 4-bit hands; passes iff 1.03 < x3 < 57.4.

    The sequence is cut into k = 5000 disjoint 4-bit hands, each read
    MSB-first as an integer in [0, 16). x3 = (16 / k) * sum(n_i^2) - k.
    """
    bits = _block(s)
    k = REQUIRED_LENGTH // POKER_M
    weights = 1 << np.arange(POKER_M - 1, -1, -1)
    vals = bits.reshape(k, POKER_M).astype(np.int64) @ weights
    counts = np.bincount(vals, minlength=2**POKER_M)
    x3 = (2**POKER_M / k) * float((counts * counts).sum()) - k
    return PokerResult(x3=x3, passed=POKER_LOW < x3 < POKER_HIGH,
                       counts=tuple(int(c) for c in counts))


def runs(s: Sequence[int] | np.ndarray) -> RunsResult:
    """Run counts by length; passes iff all 12 counts sit in RUN_INTERVALS.

    x4 is the chi-square sum over the truncated counts against
    expected_run_count and is reported for information only.
    """
    return _runs(*run_lengths(_block(s)))


def _runs(lengths: np.ndarray, symbols: np.ndarray) -> RunsResult:
    trunc = np.minimum(lengths, 6)
    blocks = np.bincount(trunc[symbols == 1], minlength=7)[1:7].tolist()
    gaps = np.bincount(trunc[symbols == 0], minlength=7)[1:7].tolist()
    passed = all(lo <= b <= hi and lo <= g <= hi
                 for (lo, hi), b, g in zip(RUN_INTERVALS.values(), blocks, gaps))
    x4 = 0.0
    for i in range(1, 7):
        e = expected_run_count(REQUIRED_LENGTH, i)
        x4 += (blocks[i - 1] - e) ** 2 / e + (gaps[i - 1] - e) ** 2 / e
    return RunsResult(block_counts=tuple(blocks), gap_counts=tuple(gaps),
                      x4=x4, passed=passed)


def long_runs(s: Sequence[int] | np.ndarray) -> LongRunsResult:
    """Passes iff no run of either symbol exceeds 34 bits."""
    return _long_runs(run_lengths(_block(s))[0])


def _long_runs(lengths: np.ndarray) -> LongRunsResult:
    longest = int(lengths.max())
    return LongRunsResult(longest_run=longest, passed=longest <= LONG_RUN_LIMIT)


class TestReport(NamedTuple):
    """All four test results for one 20000-bit sequence."""

    __test__ = False          # keep pytest from collecting this class

    monobit: MonobitResult
    poker: PokerResult
    runs: RunsResult
    long_runs: LongRunsResult

    @property
    def verdicts(self) -> dict[str, bool]:
        return {name: r.passed for name, r in zip(self._fields, self)}

    @property
    def overall(self) -> bool:
        return all(r.passed for r in self)


def fips_suite(s: Sequence[int] | np.ndarray) -> TestReport:
    """Run all four tests; overall passes only if every test passes."""
    bits = _block(s)
    lengths, symbols = run_lengths(bits)
    return TestReport(monobit(bits), poker(bits), _runs(lengths, symbols),
                      _long_runs(lengths))


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def format_report(report: TestReport) -> str:
    """Render a report as 'key: value' lines ending in the OVERALL line."""
    mono, pok, run, lng = report
    lines = [
        f"n0: {REQUIRED_LENGTH - mono.n1}",
        f"n1: {mono.n1}",
        f"x1: {mono.x1:.4f}",
        f"monobit_df: {MONOBIT_DF}",
        f"monobit: {_verdict(mono.passed)}",
        f"x3: {pok.x3:.4f}",
        f"poker_df: {POKER_DF}",
        f"poker: {_verdict(pok.passed)}",
    ]
    for i in range(1, 7):
        lines.append(f"block_{i}: {run.block_counts[i - 1]}")
    for i in range(1, 7):
        lines.append(f"gap_{i}: {run.gap_counts[i - 1]}")
    lines += [
        f"x4: {run.x4:.4f}",
        f"runs_df: {RUNS_DF}",
        f"runs: {_verdict(run.passed)}",
        f"longest_run: {lng.longest_run}",
        f"long_runs: {_verdict(lng.passed)}",
        f"OVERALL: {_verdict(report.overall)}",
    ]
    return "\n".join(lines)


def ints_to_bits(trace: SampleTrace) -> np.ndarray:
    """Expand each 10-bit sample into 10 bits, MSB first."""
    # Each sample is read as 16 big-endian bits; the last 10 are its bits.
    be16 = trace.values.astype(">u2").view(np.uint8)
    return np.unpackbits(be16).reshape(-1, 16)[:, 6:].ravel()
