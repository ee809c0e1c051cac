import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from randpipe.cli import _emit
from randpipe.extract import write_bits
from randpipe.fips import (
    RUN_INTERVALS,
    TestReport,
    expected_run_count,
    fips_suite,
    format_report,
    ints_to_bits,
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


def assert_matches_naive(bits):
    """Every field of fips_suite(bits) equals the naive scanner's."""
    n1, pcounts, blocks, gaps, longest, nruns = naive_scan(bits)
    r = fips_suite(bits)
    assert r.n1 == n1
    assert r.x1 == pytest.approx((N - 2 * n1) ** 2 / N, abs=1e-9)
    assert r.poker_counts == tuple(pcounts)
    assert r.x3 == pytest.approx(naive_x3(pcounts), abs=1e-9)
    assert r.block_counts == tuple(blocks)
    assert r.gap_counts == tuple(gaps)
    # truncation keeps every run in some bucket
    assert sum(r.block_counts) + sum(r.gap_counts) == nruns
    assert r.x4 == pytest.approx(naive_x4(blocks, gaps), abs=1e-9)
    assert r.longest_run == longest


class TestMonobit:
    def test_balanced_passes_with_zero_statistic(self):
        bits = np.concatenate([np.ones(10000, np.uint8), np.zeros(10000, np.uint8)])
        r = fips_suite(bits)
        assert r.n1 == 10000 and r.x1 == 0.0 and r.monobit

    def test_all_zeros_fails(self):
        r = fips_suite(ALL_ZEROS)
        assert r.n1 == 0 and not r.monobit
        assert r.x1 == pytest.approx(20000.0, abs=1e-9)

    def test_9947_ones_passes(self):
        bits = np.concatenate([np.ones(9947, np.uint8), np.zeros(10053, np.uint8)])
        r = fips_suite(bits)
        assert r.monobit
        assert r.x1 == pytest.approx(0.5618, abs=1e-9)

    @pytest.mark.parametrize("n1,expected", [(9654, False), (9655, True),
                                             (10345, True), (10346, False)])
    def test_bounds_are_exclusive(self, n1, expected):
        bits = np.concatenate([np.ones(n1, np.uint8), np.zeros(N - n1, np.uint8)])
        assert fips_suite(bits).monobit is expected

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            fips_suite(np.zeros(19999, np.uint8))

    def test_complement_symmetry(self):
        rng = np.random.default_rng(41)
        bits = rng.integers(0, 2, N).astype(np.uint8)
        assert fips_suite(bits).x1 == fips_suite(1 - bits).x1


class TestPoker:
    def test_all_zeros(self):
        r = fips_suite(ALL_ZEROS)
        assert r.x3 == pytest.approx(75000.0, abs=1e-9)
        assert not r.poker
        assert r.poker_counts[0] == 5000

    def test_alternating_all_chunks_are_five(self):
        r = fips_suite(ALTERNATING)
        assert r.poker_counts[5] == 5000
        assert r.x3 == pytest.approx(75000.0, abs=1e-9)
        assert not r.poker

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
        r = fips_suite(bits)
        assert r.x3 == pytest.approx(0.0128, abs=1e-9)
        assert not r.poker

    def test_statistic_non_negative(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            assert fips_suite(rng.integers(0, 2, N).astype(np.uint8)).x3 >= 0.0

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            fips_suite(np.zeros(400, np.uint8))


class TestRuns:
    def test_all_zeros_single_gap(self):
        r = fips_suite(ALL_ZEROS)
        assert r.gap_counts == (0, 0, 0, 0, 0, 1)
        assert r.block_counts == (0, 0, 0, 0, 0, 0)
        assert not r.runs

    def test_alternating_fails(self):
        r = fips_suite(ALTERNATING)
        assert r.block_counts[0] == 10000 and r.gap_counts[0] == 10000
        assert not r.runs

    def test_expected_count_formula(self):
        assert expected_run_count(20000, 1) == 2500.25

    def test_reference_bits_pass(self):
        assert fips_suite(crypto_bits("runs-ok", N)).runs

    def test_intervals_inclusive(self):
        assert RUN_INTERVALS[1] == (2267, 2733)
        assert RUN_INTERVALS[6] == (90, 223)

    def test_complement_swaps_blocks_and_gaps(self):
        rng = np.random.default_rng(53)
        bits = rng.integers(0, 2, N).astype(np.uint8)
        r = fips_suite(bits)
        rc = fips_suite(1 - bits)
        assert r.block_counts == rc.gap_counts
        assert r.gap_counts == rc.block_counts

    def test_matches_naive_scanner(self):
        rng = np.random.default_rng(59)
        blocks = [rng.integers(0, 2, N).astype(np.uint8) for _ in range(10)]
        blocks += [ALL_ZEROS, 1 - ALL_ZEROS, ALTERNATING]
        blocks += [(rng.random(N) < p).astype(np.uint8) for p in (0.01, 0.99)]
        for sym in (0, 1):
            # one change, at the last bit
            last = np.full(N, sym, np.uint8)
            last[-1] = 1 - sym
            blocks.append(last)
            # a run of exactly `length` at the first and at the last bit
            for length in (6, 7, 34, 35):
                head = rng.integers(0, 2, N).astype(np.uint8)
                head[:length] = sym
                head[length] = 1 - sym
                tail = rng.integers(0, 2, N).astype(np.uint8)
                tail[N - length:] = sym
                tail[N - length - 1] = 1 - sym
                blocks += [head, tail]
        for bits in blocks:
            assert_matches_naive(bits)


class TestLongRuns:
    def test_alternating_passes(self):
        r = fips_suite(ALTERNATING)
        assert r.longest_run == 1 and r.long_runs

    def test_all_zeros_fails(self):
        r = fips_suite(ALL_ZEROS)
        assert r.longest_run == 20000 and not r.long_runs

    def test_exactly_35_fails(self):
        # one run of 35 ones; everything else alternates in runs <= 2
        tail = np.tile([0, 0, 1, 1], (N - 36) // 4).astype(np.uint8)
        bits = np.concatenate([np.ones(35, np.uint8), np.zeros(1, np.uint8),
                               tail])
        assert bits.size == N
        r = fips_suite(bits)
        assert r.longest_run == 35 and not r.long_runs

    def test_exactly_34_passes(self):
        tail = np.tile([0, 0, 1, 1], (N - 36) // 4).astype(np.uint8)
        bits = np.concatenate([np.ones(34, np.uint8), np.zeros(2, np.uint8),
                               tail])
        assert bits.size == N
        r = fips_suite(bits)
        assert r.longest_run == 34 and r.long_runs

    def test_complement_invariant(self):
        rng = np.random.default_rng(61)
        bits = rng.integers(0, 2, N).astype(np.uint8)
        assert fips_suite(bits).longest_run == fips_suite(1 - bits).longest_run


class TestSuite:
    def test_all_zeros_fails_everything(self):
        r = fips_suite(ALL_ZEROS)
        assert (r.monobit, r.poker, r.runs, r.long_runs) == (False, False, False, False)
        assert not r.overall

    def test_alternating_verdict_pattern(self):
        r = fips_suite(ALTERNATING)
        assert (r.monobit, r.poker, r.runs, r.long_runs) == (True, False, False, True)
        assert not r.overall

    def test_overall_is_conjunction(self):
        r = fips_suite(crypto_bits("suite", N))
        assert r.overall == all((r.monobit, r.poker, r.runs, r.long_runs))

    def test_reference_generator_passes(self):
        assert fips_suite(crypto_bits("good", N)).overall

    def test_report_format(self):
        fields = format_report(fips_suite(ALL_ZEROS))
        assert list(fields)[0] == "n0" and list(fields)[-1] == "OVERALL"
        assert fields["OVERALL"] is False
        assert (fields["n0"], fields["n1"], fields["x1"]) == (20000, 0, 20000.0)
        for key in ("x3", "block_1", "gap_6", "x4", "longest_run",
                    "monobit", "poker", "runs", "long_runs"):
            assert key in fields

    def test_report_is_dataclass_with_verdicts(self):
        r = fips_suite(ALTERNATING)
        assert isinstance(r, TestReport)
        assert r._fields == ("n1", "x1", "monobit", "x3", "poker_counts", "poker",
                             "block_counts", "gap_counts", "x4", "runs",
                             "longest_run", "long_runs")
        assert sum(r.poker_counts) == 5000


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


def run_parity_blocks():
    """Blocks that start with either bit and hold an odd or an even number of runs.

    The number of runs is odd exactly when the last bit equals the first.
    All ones is a single run that starts with 1.
    """
    rng = np.random.default_rng(79)
    out = [np.ones(N, np.uint8)]
    for first in (0, 1):
        for last in (first, 1 - first):
            bits = rng.integers(0, 2, N).astype(np.uint8)
            bits[0], bits[-1] = first, last
            out.append(bits)
    return out


def kernel_edge_blocks():
    """Blocks on the edges of the run and poker kernels, each paired with a name."""
    rng = np.random.default_rng(83)
    out = [("zeros", np.zeros(N, np.uint8)), ("ones", np.ones(N, np.uint8)),
           ("alternating", ALTERNATING.copy()), ("alternating from 1", 1 - ALTERNATING)]
    for sym in (0, 1):
        # one change, at bit 1 and at bit 19999
        for at in (1, N - 1):
            bits = np.full(N, sym, np.uint8)
            bits[at:] = 1 - sym
            out.append((f"{sym} then change at {at}", bits))
        # a run of exactly `length` at the first bit, in the middle and at the last bit
        for length in (6, 7, 34, 35):
            bits = rng.integers(0, 2, N).astype(np.uint8)
            bits[:length] = sym
            bits[length] = 1 - sym
            bits[9999] = bits[10000 + length] = 1 - sym
            bits[10000:10000 + length] = sym
            bits[N - length:] = sym
            bits[N - length - 1] = 1 - sym
            out.append((f"runs of {length} {sym}s", bits))
        bits = rng.integers(0, 2, N).astype(np.uint8)
        bits[0] = sym
        out.append((f"first bit {sym}", bits))
        # longest run exactly 5, 6 and 7: the histogram's length is padded or just past it
        for length in (5, 6, 7):
            bits = np.tile([sym] * length + [1 - sym] * length, N // length)[:N].astype(np.uint8)
            out.append((f"tiled runs of {length} from {sym}", bits))
        # thousands of empty bins in the runs-above-6 sums of both parities
        bits = rng.integers(0, 2, N).astype(np.uint8)
        bits[7500:12500] = sym
        out.append((f"a 5000-bit run of {sym}s", bits))
    return out


def input_forms(bits):
    """The block as a list, bool, int64, read-only uint8 and writeable uint8 array."""
    read_only = np.frombuffer(bits.tobytes(), np.uint8)
    assert not read_only.flags.writeable
    return [bits.tolist(), bits.astype(bool), bits.astype(np.int64), read_only, bits.copy()]


class TestSuiteOracle:
    def test_kernel_edge_blocks_in_every_input_form(self):
        for name, bits in kernel_edge_blocks():
            assert bits.size == N, name
            for form in input_forms(bits):
                before = np.array(form)
                assert_matches_naive(form)
                after = np.asarray(form)
                assert after.dtype == before.dtype and np.array_equal(after, before), name

    def test_report_text_golden(self, capsys):
        for b in seeded_blocks():
            _emit(format_report(fips_suite(b)))
        # The digest is of the reports' text without its final newline.
        text = capsys.readouterr().out.removesuffix("\n")
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGEST

    def test_adversarial_blocks_match_naive(self):
        for bits in adversarial_blocks():
            assert_matches_naive(bits)

    def test_first_bit_and_run_parity_in_every_input_form(self):
        parities = set()
        for bits in run_parity_blocks():
            parities.add((int(bits[0]), naive_scan(bits)[-1] % 2))
            for form in (bits, bits.astype(bool), bits.tolist(), bits.astype(np.int64)):
                assert_matches_naive(form)
        assert parities == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_fields_are_python_scalars(self):
        # The CLI prints format_report's values and prints only a bool as PASS or FAIL,
        # so a numpy scalar must not leak: np.False_ would print as False.
        for bits in run_parity_blocks() + [ALTERNATING]:
            r = fips_suite(bits)
            counts = (r.n1, *r.poker_counts, *r.block_counts, *r.gap_counts, r.longest_run)
            assert all(type(c) is int for c in counts)
            assert all(type(x) is float for x in (r.x1, r.x3, r.x4))
            verdicts = (r.monobit, r.poker, r.runs, r.long_runs, r.overall)
            assert all(type(v) is bool for v in verdicts)
            printed = format_report(r)
            assert all(type(v) in (int, float, bool) for v in printed.values())
            floats = [v for v in printed.values() if type(v) is float]
            assert len(floats) == 3 and all(a is b for a, b in zip(floats, (r.x1, r.x3, r.x4)))
            # json rejects numpy scalars, so the record must round-trip through it.
            fields = r._asdict()
            assert json.loads(json.dumps(fields)) == {
                key: list(v) if type(v) is tuple else v for key, v in fields.items()}


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

    def test_strided_trace_view(self):
        # as extract's mixmeanupdown splits a loaded trace: a read-only view, not a copy
        values = np.random.default_rng(71).integers(0, 1024, 1001)
        values.flags.writeable = False
        for view in (values[1::2], values[0::2], values[::-3]):
            trace = SampleTrace(view)
            assert np.shares_memory(trace.values, values)
            oracle = "".join(format(v, "010b") for v in view.tolist())
            assert "".join(map(str, ints_to_bits(trace).tolist())) == oracle

    def test_expand_and_write_peak_memory(self, tmp_path):
        """ints_to_bits then write_bits on 10^6 samples: the 10 MB bit array plus
        one 2^14-line write chunk (1.3 MB), not a second file-sized copy."""
        trace = SampleTrace(np.random.default_rng(73).integers(0, 1024, 10**6))
        tracemalloc.start()
        try:
            bits = ints_to_bits(trace)
            write_bits(bits, tmp_path / "bits.txt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bits.nbytes == 10**7
        assert peak < bits.nbytes + 2 * 2**20
        assert (tmp_path / "bits.txt").stat().st_size == 10**7 // 80 * 81
