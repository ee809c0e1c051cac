import random as pyrandom
import tracemalloc
from collections import deque

import numpy as np
import pytest

from randpipe import extract as extract_module
from randpipe.extract import (
    ALGORITHMS,
    ExtractorConfig,
    InsufficientSamplesError,
    as_bit_array,
    extract,
    raw_leastsign,
    raw_mean,
    raw_twoleastsign,
    raw_updown,
    read_bits,
    von_neumann,
    write_bits,
)
from randpipe.samples import InputFormatError, SampleTrace, _undecodable

from test_avrprng import NON_INTEGERS


def trace(*vals):
    return SampleTrace(np.array(vals, dtype=np.int64))


def naive_von_neumann(bits):
    # independent restatement of the pairing rule
    out = []
    for i in range(0, len(bits) - 1, 2):
        a, b = bits[i], bits[i + 1]
        if (a, b) == (1, 0):
            out.append(1)
        elif (a, b) == (0, 1):
            out.append(0)
    return out


def raw_mean_loop(trace: SampleTrace, k: int) -> np.ndarray:
    # the window-mean extractor as a loop over a deque: the oracle for raw_mean
    n = len(trace)
    vals = trace.values.tolist()
    window = deque(vals[:k])
    total = sum(window)
    out = []
    i = k
    while i + 1 < n:
        total += vals[i] - window.popleft()
        window.append(vals[i])
        m = -(-total // k)          # ceil(total / k), total >= 0
        out.append(1 if vals[i + 1] > m else 0)
        i += 2
    return np.array(out, dtype=np.uint8)


def read_bits_loop(path) -> np.ndarray:
    # the bit-file reader as a loop over lines and characters: the oracle for read_bits
    out = []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            for ch in line:
                if ch == "0":
                    out.append(0)
                elif ch == "1":
                    out.append(1)
                elif not ch.isspace():
                    what = "not UTF-8" if _undecodable(ch) else f"invalid character {ch!r}"
                    raise InputFormatError(f"{path}: line {lineno}: {what}")
    return np.array(out, dtype=np.uint8)


def write_bits_lines(bits, path) -> None:
    # the bit-file writer as one str slice a line: the oracle for write_bits
    text = (as_bit_array(bits) + ord("0")).tobytes().decode("ascii")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(text[i : i + 80] + "\n" for i in range(0, len(text), 80))


def write_sizes():
    """Bit counts on and next to the 80-bit line edges, then seeded random ones."""
    rng = pyrandom.Random(37)
    return [0, 1, 79, 80, 81, 159, 160, 20000] + [rng.randrange(1, 5000) for _ in range(20)]


class TestAsBitArray:
    def test_uint8_bits_returned_as_is(self):
        for bits in (np.array([0, 1, 1, 0], np.uint8), np.zeros(0, np.uint8),
                     np.frombuffer(bytes([1, 0, 1]), np.uint8)):
            assert as_bit_array(bits) is bits

    def test_uint8_check_allocates_no_full_size_temporary(self):
        bits = np.zeros(10**6, np.uint8)
        tracemalloc.start()
        try:
            out = as_bit_array(bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out is bits
        assert peak < 64 * 1024      # a bool mask of the input would take 10**6 bytes

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.uint16, np.int64, np.float64])
    def test_other_dtypes_copied(self, dtype):
        bits = np.array([0, 1, 1, 0], dtype)
        out = as_bit_array(bits)
        assert out.dtype == np.uint8 and out.tolist() == [0, 1, 1, 0]
        assert not np.shares_memory(out, bits)

    @pytest.mark.parametrize("bits", [
        [0, 2], [-1, 0], [0.5], [[0, 1], [1, 0]], np.array([[0, 1]], np.uint8),
        # A uint8 cast turns 256 into 0: a fast path that casts first passes it.
        np.array([0, 256], np.int64), np.array([1, 2], np.uint8), np.array([255], np.uint8),
    ], ids=["[0, 2]", "[-1, 0]", "[0.5]", "[[0, 1], [1, 0]]", "array([[0, 1]], dtype=uint8)",
            "array([0, 256])", "array([1, 2], dtype=uint8)", "array([255], dtype=uint8)"])
    def test_rejects_non_bits(self, bits):
        with pytest.raises(ValueError):
            as_bit_array(bits)


class TestVonNeumann:
    def test_basic_pairs(self):
        assert von_neumann([1, 0, 0, 1]).tolist() == [1, 0]

    def test_equal_pairs_discarded(self):
        assert von_neumann([0, 0, 1, 1]).tolist() == []

    def test_trailing_bit_dropped(self):
        assert von_neumann([1, 0, 1]).tolist() == [1]

    def test_empty(self):
        assert von_neumann([]).tolist() == []

    def test_rejects_non_bits(self):
        for bits in ([0, 2], [0.9, 1.7], [0.5], ["0", "1"]):
            with pytest.raises(ValueError):
                von_neumann(bits)

    def test_matches_naive_pairing(self):
        rng = pyrandom.Random(7)
        for _ in range(50):
            bits = [rng.randrange(2) for _ in range(rng.randrange(0, 300))]
            assert von_neumann(bits).tolist() == naive_von_neumann(bits)

    def test_every_short_input_matches_naive_pairing(self):
        for n in range(6):
            for value in range(2**n):
                bits = [value >> i & 1 for i in range(n)]
                for form in (bits, np.array(bits, np.uint8)):
                    out = von_neumann(form)
                    assert out.dtype == np.uint8 and out.tolist() == naive_von_neumann(bits)

    def test_output_is_a_new_array(self):
        bits = np.array([1, 0, 1, 0, 1], np.uint8)
        out = von_neumann(bits)
        assert out.tolist() == [1, 1] and not np.shares_memory(out, bits)
        out[0] = 0
        assert bits.tolist() == [1, 0, 1, 0, 1]

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7, 0.9])
    def test_debiases_bernoulli_input(self, p):
        rng = np.random.default_rng(2026)
        raw = (rng.random(100_000) < p).astype(np.uint8)
        out = von_neumann(raw)
        assert abs(float(out.mean()) - 0.5) < 0.01
        assert abs(out.size / raw.size - p * (1 - p)) < 0.02


class TestRawExtractors:
    def test_leastsign_parity(self):
        assert raw_leastsign(trace(512, 513)).tolist() == [0, 1]
        assert raw_leastsign(trace(1023, 1022)).tolist() == [1, 0]
        assert raw_leastsign(trace(2, 4, 6, 8)).tolist() == [0, 0, 0, 0]

    def test_twoleastsign_xor(self):
        assert raw_twoleastsign(trace(3)).tolist() == [0]   # 1 ^ 1
        assert raw_twoleastsign(trace(2)).tolist() == [1]   # 0 ^ 1
        assert raw_twoleastsign(trace(4)).tolist() == [0]   # 0 ^ 0

    def test_stateless_maps_commute_with_permutation(self):
        rng = np.random.default_rng(5)
        vals = rng.integers(0, 1024, 500)
        perm = rng.permutation(500)
        for fn in (raw_leastsign, raw_twoleastsign):
            assert np.array_equal(
                fn(SampleTrace(vals[perm])), fn(SampleTrace(vals))[perm]
            )

    def test_updown_fixed_reference(self):
        assert raw_updown(trace(5, 7, 3, 9, 9)).tolist() == [1, 0, 1, 1]

    def test_updown_equality_is_zero(self):
        assert raw_updown(trace(5, 5, 5)).tolist() == [0, 0]

    def test_updown_boundary(self):
        assert raw_updown(trace(0, 1023)).tolist() == [1]

    def test_updown_needs_two_samples(self):
        with pytest.raises(InsufficientSamplesError):
            raw_updown(trace(5))

    def test_mean_hand_trace_k2(self):
        # window [6,8] mean 7, 10 > 7 -> 1; window [8,2] mean 5, 0 > 5 -> 0
        assert raw_mean(trace(4, 6, 8, 10, 2, 0), k=2).tolist() == [1, 0]

    def test_mean_hand_trace_k1(self):
        assert raw_mean(trace(5, 5, 5), k=1).tolist() == [0]

    def test_mean_constant_trace_all_zero(self):
        t = trace(*([7] * 100))
        assert raw_mean(t, k=3).tolist() == [0] * ((100 - 3) // 2)

    def test_mean_output_length(self):
        rng = pyrandom.Random(3)
        for _ in range(20):
            n = rng.randrange(10, 200)
            k = rng.randrange(1, n - 1)
            t = SampleTrace(np.array([rng.randrange(1024) for _ in range(n)]))
            assert raw_mean(t, k).size == (n - k) // 2

    def test_mean_matches_loop_oracle(self):
        # Extreme values make the largest window sums; a narrow band puts
        # many samples on or next to the ceiling of the mean.
        rng = np.random.default_rng(11)
        for k in (1, 2, 3, 7, 64):
            for n in range(k + 2, k + 301):
                for t in (SampleTrace(rng.choice([0, 1023], n)),
                          SampleTrace(rng.integers(500, 504, n))):
                    assert np.array_equal(raw_mean(t, k), raw_mean_loop(t, k))

    def test_mean_needs_k_plus_two(self):
        with pytest.raises(InsufficientSamplesError):
            raw_mean(trace(1, 2, 3), k=2)
        with pytest.raises(ValueError):
            raw_mean(trace(1, 2, 3), k=0)


class TestExtract:
    def test_leastsign_then_vn(self):
        cfg = ExtractorConfig("leastsign")
        # raw [0,1,0,1] -> pairs (0,1),(0,1) -> [0,0]
        assert extract(trace(512, 513, 514, 515), cfg).tolist() == [0, 0]

    @pytest.mark.parametrize("algo", ["leastsign", "twoleastsign", "updown", "mean"])
    def test_vn_off_equals_raw(self, algo):
        rng = np.random.default_rng(11)
        t = SampleTrace(rng.integers(0, 1024, 400))
        window = {"window_k": 8} if algo == "mean" else {}
        got = extract(t, ExtractorConfig(algo, **window, apply_vn=False))
        raw = {
            "leastsign": raw_leastsign(t),
            "twoleastsign": raw_twoleastsign(t),
            "updown": raw_updown(t),
            "mean": raw_mean(t, 8),
        }[algo]
        assert np.array_equal(got, raw)

    def test_mix_composition(self):
        rng = np.random.default_rng(13)
        t = SampleTrace(rng.integers(0, 1024, 2000))
        cfg = ExtractorConfig("mixmeanupdown", window_k=16)
        got = extract(t, cfg)
        mean_bits = von_neumann(raw_mean(SampleTrace(t.values[0::2]), 16))
        ud_bits = von_neumann(raw_updown(SampleTrace(t.values[1::2])))
        n = min(mean_bits.size, ud_bits.size)
        want = von_neumann(mean_bits[:n] ^ ud_bits[:n])
        assert np.array_equal(got, want)

    def test_mix_vn_off_skips_final_pass_only(self):
        rng = np.random.default_rng(13)
        t = SampleTrace(rng.integers(0, 1024, 2000))
        raw_mix = extract(t, ExtractorConfig("mixmeanupdown", window_k=16,
                                             apply_vn=False))
        corrected = extract(t, ExtractorConfig("mixmeanupdown", window_k=16))
        assert np.array_equal(von_neumann(raw_mix), corrected)

    def test_mix_needs_2k_plus_3(self):
        # The mean half, values[0::2], needs k + 2 samples.
        for k in (1, 2, 64):
            cfg = ExtractorConfig("mixmeanupdown", window_k=k)
            msg = f"^mixmeanupdown with k={k} needs at least {2 * k + 3} samples$"
            with pytest.raises(InsufficientSamplesError, match=msg):
                extract(trace(*range(2 * k + 2)), cfg)
            assert extract(trace(*range(2 * k + 3)), cfg).dtype == np.uint8

    def test_updown_on_uniform_is_balanced(self):
        rng = np.random.default_rng(17)
        t = SampleTrace(rng.integers(0, 1024, 100_000))
        out = extract(t, ExtractorConfig("updown"))
        assert 0.49 < float(out.mean()) < 0.51

    def test_deterministic(self):
        rng = np.random.default_rng(19)
        t = SampleTrace(rng.integers(0, 1024, 1000))
        cfg = ExtractorConfig("twoleastsign")
        assert np.array_equal(extract(t, cfg), extract(t, cfg))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            ExtractorConfig("parity")

    def test_window_k_must_be_an_integer(self):
        t = trace(*range(10))
        for bad in NON_INTEGERS:
            with pytest.raises(TypeError):
                ExtractorConfig("mean", window_k=bad)
            with pytest.raises(TypeError):
                raw_mean(t, bad)
        cfg = ExtractorConfig("mean", window_k=np.int64(2))
        assert cfg.window_k == 2 and type(cfg.window_k) is int
        assert np.array_equal(raw_mean(t, np.int64(2)), raw_mean(t, 2))

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_window_k_only_for_the_algorithms_that_read_it(self, algo):
        """window_k is read by mean and mixmeanupdown; any other algorithm refuses a value
        but the default, before the range check."""
        default = ExtractorConfig.window_k
        assert ExtractorConfig(algo, window_k=np.int64(default)) == ExtractorConfig(algo)
        if algo in ("mean", "mixmeanupdown"):
            assert ExtractorConfig(algo, window_k=5).window_k == 5
            return
        for k in [5, 0, np.int64(default + 1)]:
            with pytest.raises(ValueError) as exc:
                ExtractorConfig(algo, window_k=k)
            assert str(exc.value) == f"window_k is not read by the {algo} algorithm"


# Pieces of adversarial bit files: the two bits, 13 kinds of ASCII and Unicode
# whitespace, then 11 bad pieces: a BOM, bytes that are not UTF-8 (a truncated
# sequence among them) and characters that are not bits. '/', '2', ':', NUL and
# 0xb0 sit next to the bits' edge when read_bits takes ord('0') from each byte.
BIT_FILE_PIECES = [
    b"0", b"1",
    b" ", b"\n", b"\r", b"\r\n", b"\t", b"\v", b"\f", b"\x1c", b"\x1d",
    "\u0085".encode(), "\u00a0".encode(), "\u2028".encode(), "\u3000".encode(),
    "\ufeff".encode(), b"\xff", b"\x85", b"\xc3", b"2", b"#", "\u0661".encode(), b"\x00",
    b"/", b":", b"\xb0",
]


# Bad characters after each kind of line end; the messages are those of a
# text-mode reader, which splits lines at '\n', '\r' and '\r\n' only.
LINE_NUMBER_CASES = [
    (b"0102\n", "line 1: invalid character '2'"),
    (b"01\r10\r\n1x", "line 3: invalid character 'x'"),
    ("0\u20281x".encode(), "line 1: invalid character 'x'"),
    (b"0\x0c1\x1cx", "line 1: invalid character 'x'"),
    (b"0\r\xff", "line 2: not UTF-8"),
]


class TestBitFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(29)
        p = tmp_path / "bits.txt"
        for n in (0, 1, 79, 80, 81, 1000):
            bits = rng.integers(0, 2, n).astype(np.uint8)
            write_bits(bits, p)
            assert np.array_equal(read_bits(p), bits)
            lines = p.read_bytes().splitlines(keepends=True)
            assert [len(ln) for ln in lines] == [81] * (n // 80) + [n % 80 + 1] * (n % 80 > 0)

    def test_matches_loop_oracle_on_adversarial_files(self, tmp_path):
        def outcome(reader, path):
            try:
                return reader(path).tolist()
            except ValueError as exc:
                return type(exc), str(exc)

        rng = pyrandom.Random(31)
        p = tmp_path / "bits.txt"
        files = [b"", b"0101", b"01\n10"] + [data for data, _ in LINE_NUMBER_CASES]
        for _ in range(2500):
            # files without bad pieces, with a rare one, or with many
            weights = [40, 40] + [3] * 13 + [rng.choice((0, 0.1, 1))] * 11
            files.append(b"".join(rng.choices(BIT_FILE_PIECES, weights,
                                              k=rng.randrange(1, 200))))
        for data in files:
            p.write_bytes(data)
            assert outcome(read_bits, p) == outcome(read_bits_loop, p), data

    def test_write_matches_line_oracle(self, tmp_path):
        rng = np.random.default_rng(41)
        got, want = tmp_path / "got.txt", tmp_path / "want.txt"
        for n in write_sizes():
            bits = rng.integers(0, 2, n)
            for form in (bits.tolist(), bits.astype(bool), bits.astype(np.int64)):
                write_bits(form, got)
                write_bits_lines(form, want)
                assert got.read_bytes() == want.read_bytes(), (n, type(form))

    @pytest.mark.parametrize("lines", [1, 2, 3])
    def test_chunked_write_matches_line_oracle(self, tmp_path, monkeypatch, lines):
        """Writes of a few lines each put chunk edges on and next to line edges, and
        leave a last chunk that fills only part of the row buffer."""
        monkeypatch.setattr(extract_module, "_WRITE_LINES", lines)
        rng = np.random.default_rng(lines)
        got, want = tmp_path / "got.txt", tmp_path / "want.txt"
        chunk = lines * 80
        for n in (0, 79, 80, 81, chunk - 1, chunk, chunk + 1, chunk + 80, 2 * chunk + 1,
                  2 * chunk - 73, 7 * chunk + 40):
            bits = rng.integers(0, 2, n).astype(np.uint8)
            write_bits(bits, got)
            write_bits_lines(bits, want)
            assert got.read_bytes() == want.read_bytes(), n

    def test_bad_input_leaves_file_alone(self, tmp_path):
        p = tmp_path / "bits.txt"
        write_bits([1, 0, 1], p)
        before = p.read_bytes()
        with pytest.raises(ValueError):
            write_bits([0, 2], p)
        assert p.read_bytes() == before

    def test_written_files_take_the_bytes_path(self, tmp_path, monkeypatch):
        def no_text_path(path, data):
            raise AssertionError(f"{path} left the bytes path")

        monkeypatch.setattr(extract_module, "_text_bits", no_text_path)
        rng = np.random.default_rng(43)
        p = tmp_path / "bits.txt"
        for n in write_sizes():
            bits = rng.integers(0, 2, n).astype(np.uint8)
            write_bits(bits, p)
            assert np.array_equal(read_bits(p), bits)
        # one FIPS block as 250 lines of 80 bits, built here rather than by write_bits
        bits = rng.integers(0, 2, 20000).astype(np.uint8)
        p.write_bytes(b"".join((row + ord("0")).tobytes() + b"\n"
                               for row in bits.reshape(250, 80)))
        assert np.array_equal(read_bits(p), bits)

    def test_read_holds_two_copies_of_the_file_at_most(self, tmp_path):
        # The bytes, the bytes without newlines and the result, all live at once, take 3x.
        p = tmp_path / "bits.txt"
        write_bits(np.random.default_rng(47).integers(0, 2, 4 * 10**6, np.uint8), p)
        tracemalloc.start()
        try:
            bits = read_bits(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bits.size == 4 * 10**6
        assert peak <= 2 * p.stat().st_size + 2**20

    def test_eighty_bits_per_line(self, tmp_path):
        p = tmp_path / "bits.txt"
        write_bits(np.ones(200, dtype=np.uint8), p)
        lines = p.read_text().splitlines()
        assert [len(ln) for ln in lines] == [80, 80, 40]

    def test_whitespace_ignored(self, tmp_path):
        p = tmp_path / "bits.txt"
        p.write_text("01 10\n\t1\n 0 \n")
        assert read_bits(p).tolist() == [0, 1, 1, 0, 1, 0]

    def test_invalid_character(self, tmp_path):
        p = tmp_path / "bits.txt"
        for data, message in LINE_NUMBER_CASES:
            p.write_bytes(data)
            with pytest.raises(InputFormatError) as exc:
                read_bits(p)
            assert str(exc.value) == f"{p}: {message}", data

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(InputFormatError) as exc:
            read_bits(tmp_path)
        assert str(exc.value).startswith(f"{tmp_path}: cannot read: ")
