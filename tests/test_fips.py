import hashlib
import random as pyrandom

import numpy as np
import pytest

from randpipe.fips import (
    RUN_INTERVALS,
    TestReport,
    expected_run_count,
    fips_suite,
    format_report,
    ints_to_bits,
    long_runs,
    monobit,
    poker,
    run_lengths,
    runs,
)
from randpipe.samples import SampleTrace

N = 20000
GOLDEN_DIGEST = "3cf046da3d8fcae2a570bbfecb38afd9f2f8b861d6b96105151637eb3b5cef61"

ALL_ZEROS = np.zeros(N, dtype=np.uint8)
ALTERNATING = np.tile([0, 1], N // 2).astype(np.uint8)


def crypto_bits(label: str, n: int) -> np.ndarray:
    """Deterministic reference bits from SHA-256 in counter mode."""
    out = bytearray()
    ctr = 0
    while len(out) * 8 < n:
        out += hashlib.sha256(f"{label}:{ctr}".encode()).digest()
        ctr += 1
    return np.unpackbits(np.frombuffer(bytes(out), dtype=np.uint8))[:n]


# --- independent naive scanner, used as the oracle for the fast paths ---

def naive_scan(bits):
    """Single pass over a python list; no numpy, no shared code."""
    bits = [int(b) for b in bits]
    n1 = sum(bits)
    # poker, m=4, MSB first
    pcounts = [0] * 16
    for i in range(0, len(bits) - 3, 4):
        v = bits[i] * 8 + bits[i + 1] * 4 + bits[i + 2] * 2 + bits[i + 3]
        pcounts[v] += 1
    # runs
    blocks = [0] * 6
    gaps = [0] * 6
    longest = 0
    run_sym = bits[0]
    run_len = 1
    nruns = 0

    def close(sym, length):
        nonlocal longest
        longest = max(longest, length)
        bucket = min(length, 6) - 1
        if sym == 1:
            blocks[bucket] += 1
        else:
            gaps[bucket] += 1

    for b in bits[1:]:
        if b == run_sym:
            run_len += 1
        else:
            close(run_sym, run_len)
            nruns += 1
            run_sym = b
            run_len = 1
    close(run_sym, run_len)
    nruns += 1
    return n1, pcounts, blocks, gaps, longest, nruns


def naive_x3(pcounts):
    k = sum(pcounts)
    return (16 / k) * sum(c * c for c in pcounts) - k


def naive_x4(blocks, gaps, n=N):
    total = 0.0
    for i in range(1, 7):
        e = (n - i + 3) / 2 ** (i + 2)
        total += (blocks[i - 1] - e) ** 2 / e + (gaps[i - 1] - e) ** 2 / e
    return total


class TestMonobit:
    def test_balanced_passes_with_zero_statistic(self):
        bits = np.concatenate([np.ones(10000, np.uint8), np.zeros(10000, np.uint8)])
        r = monobit(bits)
        assert r.n1 == 10000 and r.x1 == 0.0 and r.passed

    def test_all_zeros_fails(self):
        r = monobit(ALL_ZEROS)
        assert r.n1 == 0 and not r.passed
        assert r.x1 == pytest.approx(20000.0, abs=1e-9)

    def test_9947_ones_passes(self):
        bits = np.concatenate([np.ones(9947, np.uint8), np.zeros(10053, np.uint8)])
        r = monobit(bits)
        assert r.passed
        assert r.x1 == pytest.approx(0.5618, abs=1e-9)

    @pytest.mark.parametrize("n1,expected", [(9654, False), (9655, True),
                                             (10345, True), (10346, False)])
    def test_bounds_are_exclusive(self, n1, expected):
        bits = np.concatenate([np.ones(n1, np.uint8), np.zeros(N - n1, np.uint8)])
        assert monobit(bits).passed is expected

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            monobit(np.zeros(19999, np.uint8))

    def test_complement_symmetry(self):
        rng = np.random.default_rng(41)
        bits = rng.integers(0, 2, N).astype(np.uint8)
        assert monobit(bits).x1 == monobit(1 - bits).x1


class TestPoker:
    def test_all_zeros(self):
        r = poker(ALL_ZEROS)
        assert r.x3 == pytest.approx(75000.0, abs=1e-9)
        assert not r.passed
        assert r.counts[0] == 5000

    def test_alternating_all_chunks_are_five(self):
        r = poker(ALTERNATING)
        assert r.counts[5] == 5000
        assert r.x3 == pytest.approx(75000.0, abs=1e-9)
        assert not r.passed

    def test_near_uniform_counts(self):
        # 8 patterns x 312 + 8 patterns x 313 = 5000 chunks; direct
        # evaluation gives x3 = (16/5000)*(8*312^2 + 8*313^2) - 5000 = 0.0128,
        # which sits BELOW the 1.03 lower bound: too-uniform hands fail too.
        chunks = []
        for v in range(8):
            chunks += [v] * 312
        for v in range(8, 16):
            chunks += [v] * 313
        bits = np.array(
            [(v >> s) & 1 for v in chunks for s in (3, 2, 1, 0)], dtype=np.uint8
        )
        r = poker(bits)
        assert r.x3 == pytest.approx(0.0128, abs=1e-9)
        assert not r.passed

    def test_statistic_non_negative(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            assert poker(rng.integers(0, 2, N).astype(np.uint8)).x3 >= 0.0

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            poker(np.zeros(400, np.uint8))


class TestRuns:
    def test_enumeration_by_hand(self):
        lengths, symbols = run_lengths([1, 1, 0, 1, 0])
        assert lengths.tolist() == [2, 1, 1, 1]
        assert symbols.tolist() == [1, 0, 1, 0]

    def test_all_zeros_single_gap(self):
        r = runs(ALL_ZEROS)
        assert r.gap_counts == (0, 0, 0, 0, 0, 1)
        assert r.block_counts == (0, 0, 0, 0, 0, 0)
        assert not r.passed

    def test_alternating_fails(self):
        r = runs(ALTERNATING)
        assert r.block_counts[0] == 10000 and r.gap_counts[0] == 10000
        assert not r.passed

    def test_expected_count_formula(self):
        assert expected_run_count(20000, 1) == 2500.25

    def test_reference_bits_pass(self):
        assert runs(crypto_bits("runs-ok", N)).passed

    def test_intervals_inclusive(self):
        assert RUN_INTERVALS[1] == (2267, 2733)
        assert RUN_INTERVALS[6] == (90, 223)

    def test_run_count_equals_changes_plus_one(self):
        rng = pyrandom.Random(47)
        for _ in range(50):
            bits = [rng.randrange(2) for _ in range(200)]
            lengths, _ = run_lengths(bits)
            changes = sum(1 for a, b in zip(bits, bits[1:]) if a != b)
            assert len(lengths) == changes + 1

    def test_complement_swaps_blocks_and_gaps(self):
        rng = np.random.default_rng(53)
        bits = rng.integers(0, 2, N).astype(np.uint8)
        r = runs(bits)
        rc = runs(1 - bits)
        assert r.block_counts == rc.gap_counts
        assert r.gap_counts == rc.block_counts

    def test_matches_naive_scanner(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            bits = rng.integers(0, 2, N).astype(np.uint8)
            n1, pcounts, blocks, gaps, longest, nruns = naive_scan(bits)
            r = runs(bits)
            assert r.block_counts == tuple(blocks)
            assert r.gap_counts == tuple(gaps)
            assert r.x4 == pytest.approx(naive_x4(blocks, gaps), abs=1e-9)
            # truncation keeps every run in some bucket
            assert sum(r.block_counts) + sum(r.gap_counts) == nruns
            lengths, _ = run_lengths(bits)
            assert len(lengths) == nruns


class TestLongRuns:
    def test_alternating_passes(self):
        r = long_runs(ALTERNATING)
        assert r.longest_run == 1 and r.passed

    def test_all_zeros_fails(self):
        r = long_runs(ALL_ZEROS)
        assert r.longest_run == 20000 and not r.passed

    def test_exactly_35_fails(self):
        # one run of 35 ones; everything else alternates in runs <= 2
        tail = np.tile([0, 0, 1, 1], (N - 36) // 4).astype(np.uint8)
        bits = np.concatenate([np.ones(35, np.uint8), np.zeros(1, np.uint8),
                               tail])
        assert bits.size == N
        r = long_runs(bits)
        assert r.longest_run == 35 and not r.passed

    def test_exactly_34_passes(self):
        tail = np.tile([0, 0, 1, 1], (N - 36) // 4).astype(np.uint8)
        bits = np.concatenate([np.ones(34, np.uint8), np.zeros(2, np.uint8),
                               tail])
        assert bits.size == N
        r = long_runs(bits)
        assert r.longest_run == 34 and r.passed

    def test_complement_invariant(self):
        rng = np.random.default_rng(61)
        bits = rng.integers(0, 2, N).astype(np.uint8)
        assert long_runs(bits).longest_run == long_runs(1 - bits).longest_run


class TestSuite:
    def test_all_zeros_fails_everything(self):
        r = fips_suite(ALL_ZEROS)
        assert r.verdicts == {"monobit": False, "poker": False,
                              "runs": False, "long_runs": False}
        assert not r.overall

    def test_alternating_verdict_pattern(self):
        r = fips_suite(ALTERNATING)
        assert r.verdicts == {"monobit": True, "poker": False,
                              "runs": False, "long_runs": True}
        assert not r.overall

    def test_overall_is_conjunction(self):
        r = fips_suite(crypto_bits("suite", N))
        assert r.overall == all(r.verdicts.values())

    def test_reference_generator_passes(self):
        assert fips_suite(crypto_bits("good", N)).overall

    def test_report_format(self):
        text = format_report(fips_suite(ALL_ZEROS))
        lines = text.splitlines()
        assert lines[-1] == "OVERALL: FAIL"
        keys = [ln.split(":")[0] for ln in lines]
        for key in ("n0", "n1", "x1", "x3", "block_1", "gap_6", "x4",
                    "longest_run", "monobit", "poker", "runs", "long_runs"):
            assert key in keys

    def test_report_is_dataclass_with_verdicts(self):
        r = fips_suite(ALTERNATING)
        assert isinstance(r, TestReport)
        assert r._fields == ("monobit", "poker", "runs", "long_runs")
        assert sum(r.poker.counts) == 5000


def seeded_blocks():
    """30 seeded blocks, 10 at each one-probability p."""
    rng = np.random.default_rng(71)
    return [(rng.random(N) < p).astype(np.uint8)
            for p in (0.5, 0.49, 0.3) for _ in range(10)]


def adversarial_blocks():
    """Blocks whose runs sit on the FIPS edges, on a seeded background."""
    rng = np.random.default_rng(73)
    out = [np.zeros(N, np.uint8), np.ones(N, np.uint8)]
    for sym in (0, 1):
        # a longest run of exactly 34, then of exactly 35, in the middle
        for length in (34, 35):
            bits = rng.integers(0, 2, N).astype(np.uint8)
            bits[999] = bits[1000 + length] = 1 - sym
            bits[1000:1000 + length] = sym
            out.append(bits)
        # runs of 6 and 7 at the first and at the last bit
        for head, tail in ((6, 7), (7, 6)):
            bits = rng.integers(0, 2, N).astype(np.uint8)
            bits[:head] = sym
            bits[head] = 1 - sym
            bits[N - tail:] = 1 - sym
            bits[N - tail - 1] = sym
            out.append(bits)
    return out


class TestSuiteOracle:
    def test_report_text_golden(self):
        text = "\n".join(format_report(fips_suite(b)) for b in seeded_blocks())
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGEST

    def test_adversarial_blocks_match_naive(self):
        for bits in adversarial_blocks():
            n1, pcounts, blocks, gaps, longest, _ = naive_scan(bits)
            r = fips_suite(bits)
            assert r.monobit.n1 == n1
            assert r.poker.counts == tuple(pcounts)
            assert r.runs.block_counts == tuple(blocks)
            assert r.runs.gap_counts == tuple(gaps)
            assert r.long_runs.longest_run == longest
            assert r.poker.x3 == pytest.approx(naive_x3(pcounts), abs=1e-9)
            assert r.runs.x4 == pytest.approx(naive_x4(blocks, gaps), abs=1e-9)


class TestIntsToBits:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (512, "1000000000"),
            (1, "0000000001"),
            (1023, "1111111111"),
        ],
    )
    def test_single_values(self, value, expected):
        bits = ints_to_bits(SampleTrace(np.array([value])))
        assert "".join(map(str, bits.tolist())) == expected

    def test_round_trip(self):
        rng = np.random.default_rng(67)
        for vals in (rng.integers(0, 1024, 300), np.arange(1024)):
            bits = ints_to_bits(SampleTrace(vals))
            assert bits.dtype == np.uint8 and bits.size == 10 * vals.size
            back = bits.reshape(-1, 10) @ (1 << np.arange(9, -1, -1))
            assert np.array_equal(back, vals)
            oracle = "".join(format(v, "010b") for v in vals.tolist())
            assert "".join(map(str, bits.tolist())) == oracle
        empty = ints_to_bits(SampleTrace([]))
        assert empty.shape == (0,) and empty.dtype == np.uint8
