import dataclasses
import math
import random as pyrandom
import re
import tracemalloc

import numpy as np
import pytest

from randpipe import samples
from randpipe.avrprng import stream
from randpipe.samples import (
    SAMPLE_MAX,
    SampleTrace,
    SynthModel,
    InputFormatError,
    _parse_lines,
    _plain_values,
    _read_input,
    load_trace,
    load_values,
    save_trace,
    synth_trace,
    trace_stats,
)

from test_avrprng import NON_INTEGERS


def write(tmp_path, text, name="trace.txt"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestSampleTrace:
    def test_valid_range(self):
        t = SampleTrace(np.array([0, 1023, 512]))
        assert len(t) == 3
        t = SampleTrace([])
        assert len(t) == 0 and t.values.dtype == np.int64
        t = SampleTrace(np.array([0, 1023, 512], dtype=np.uint64))
        assert t.values.dtype == np.int64 and t.values.tolist() == [0, 1023, 512]

    # [True] stands alone: [512, True] would be an integer array. A cast
    # to int64 would wrap the uint64 values.
    @pytest.mark.parametrize("values, message", [
        ([512, -1], "sample value -1 outside"), ([512, 1024], "sample value 1024 outside"),
        ([512, 5000], "sample value 5000 outside"), ([1.7], "not float64"), (["5"], "not <U1"),
        ([True], "not bool"), ([[1, 2], [3, 4]], "trace values must be one-dimensional"),
        (np.array([2**64 - 1], np.uint64), "sample value 18446744073709551615 outside"),
        (np.array([2**63], np.uint64), "sample value 9223372036854775808 outside"),
        (np.array([5, 2**64 - 3], np.uint64), "sample value 18446744073709551613 outside"),
    ], ids=["-1", "1024", "5000", "1.7", "5", "True", "2-D", "2^64-1", "2^63", "5,2^64-3"])
    def test_out_of_range_rejected(self, values, message):
        # non-integers are rejected before a cast could turn them into samples
        with pytest.raises(ValueError, match=message):
            SampleTrace(np.array(values))

    def test_values_immutable(self):
        t = SampleTrace(np.array([1, 2, 3]))
        with pytest.raises(ValueError):
            t.values[0] = 9

    def test_caller_array_stays_writeable(self, tmp_path):
        a = np.array([1, 2, 3])
        t = SampleTrace(a)
        a[0] = 5
        assert t.values.tolist() == [1, 2, 3]
        assert not load_trace(write(tmp_path, "1\n2\n")).values.flags.writeable

    def test_view_of_writeable_array_is_copied(self, tmp_path):
        a = np.array([1, 2, 3])
        v = a.view()
        v.flags.writeable = False
        t = SampleTrace(v)
        a[0] = 99
        assert t.values.tolist() == [1, 2, 3]
        # a loaded array, and views of a frozen trace, are adopted as they are
        loaded = load_values(write(tmp_path, "1\n2\n3\n"), 0, 1023)
        t = SampleTrace(loaded)
        assert t.values is loaded
        assert SampleTrace(t.values[0::2]).values.base is loaded


class TestLoadTrace:
    def test_plain(self, tmp_path):
        t = load_trace(write(tmp_path, "512\n513\n"))
        assert t.values.tolist() == [512, 513]

    def test_comments_and_boundaries(self, tmp_path):
        t = load_trace(write(tmp_path, "# hdr\n0\n1023\n"))
        assert t.values.tolist() == [0, 1023]

    def test_blank_lines_ignored(self, tmp_path):
        t = load_trace(write(tmp_path, "\n7\n\n8\n\n"))
        assert t.values.tolist() == [7, 8]

    def test_out_of_range_reports_line(self, tmp_path):
        with pytest.raises(InputFormatError, match="line 1"):
            load_trace(write(tmp_path, "1024\n"))
        with pytest.raises(InputFormatError, match=r"line 2: value -3 outside \[0, 1023\]"):
            load_trace(write(tmp_path, "5\n-3\n"))
        # past int()'s 4300-digit limit; leading zeros do not count
        for text, value in (("9" * 5000, "9" * 5000), ("-" + "9" * 5000, "-" + "9" * 5000),
                            ("0" * 5000 + "1024", "1024"), ("-" + "0" * 5000 + "3", "-3")):
            with pytest.raises(InputFormatError) as exc:
                load_trace(write(tmp_path, f"1\n{text}\n"))
            assert str(exc.value).endswith(f"line 2: value {value} outside [0, 1023]")

    def test_non_integer_reports_line(self, tmp_path):
        with pytest.raises(InputFormatError, match="line 3"):
            load_trace(write(tmp_path, "1\n2\nxyz\n"))
        # int() takes the first three; the sample grammar is -?[0-9]+ only
        for text in ("1_0", "+5", "\u0661\u0662", "-", "--5", "- 5", "5.0", "\u00b2"):
            with pytest.raises(InputFormatError) as exc:
                load_trace(write(tmp_path, f"1\n\n{text}\n"))
            assert str(exc.value).endswith(f"line 3: not an integer: {text!r}")
        assert load_trace(write(tmp_path, "007\n  12 \n")).values.tolist() == [7, 12]
        assert load_trace(write(tmp_path, "0" * 5000 + "7\n-" + "0" * 5000 + "\n")
                          ).values.tolist() == [7, 0]

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputFormatError):
            load_trace(tmp_path / "nope.txt")


def write_capture(path, values, every, final_newline=True):
    """A sample file in the benchmark's layout: a '#' header, then a blank
    line and a '# sample i' comment before every `every`-th value."""
    text = "# capture\n" + "".join(
        (f"\n# sample {i}\n" if i and i % every == 0 else "") + f"{v}\n"
        for i, v in enumerate(values))
    path.write_text(text if final_newline else text[:-1])
    return path


# Lines on either side of the plain layout's edges: a file holding them is
# read or rejected exactly as the line parser decides.
ADVERSARIAL = [
    b"5\r", b"\r", b"5\r\n6", b"\t5", b"5\t", b"\x0b5", b"5\x0c", b"\x1c5", b"5\x1d",
    b"\x1e", b"\x1f7", b"\xc2\xa05", b"5\xc2\xa0", b"\xef\xbb\xbf5", b"\xef\xbb\xbf# bom",
    b"-0", b"-00", b"+5", b"0000", b"00000", b"00001", b"1" * 11, b"0" * 30 + b"9",
    b"5 # note", b"5#", b"#5", b" # indented", b"# \xff\xfe not utf-8", b"\xff",
    b"#\x80", b" ", b"", b"-", b"1_0", b"5.0", b"\xd9\xa1",
]


def random_file(rng, lo, hi):
    """Lines mixing plain values, bounds, comments and adversarial lines."""
    lines = []
    for _ in range(rng.randrange(0, 9)):
        r = rng.random()
        if r < 0.5:
            v = rng.choice((lo, hi, rng.randint(lo, hi)))
            lines.append(str(v).zfill(rng.choice((0, 0, len(str(hi))))).encode())
        elif r < 0.6:
            lines.append(str(rng.choice((lo - 1, hi + 1))).encode())
        elif r < 0.75:
            lines.append(rng.choice((b"", b"#", b"# sample 50000", b"# x\x1cy\x0bz")))
        else:
            lines.append(rng.choice(ADVERSARIAL))
    end = rng.choice((b"\n", b"\n", b"\n", b"\r\n", b"\r"))
    return end.join(lines) + rng.choice((end, b""))


def load_values_loop(path, lo, hi):
    """The sample-file grammar one text-mode line at a time: the oracle for load_values."""
    values = []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            # surrogateescape turns each byte that is not UTF-8 into a lone surrogate
            if any("\ud800" <= ch <= "\udfff" for ch in text):
                raise InputFormatError(f"{path}: line {lineno}: not UTF-8")
            if not text or text.startswith("#"):
                continue
            if not re.fullmatch(r"-?[0-9]+", text):
                raise InputFormatError(f"{path}: line {lineno}: not an integer: {text!r}")
            # a value too long for the range is reported without converting it
            digits = text.lstrip("-").lstrip("0") or "0"
            value = "-" + digits if text[0] == "-" and digits != "0" else digits
            if len(digits) > len(str(hi)) or not lo <= int(value) <= hi:
                raise InputFormatError(
                    f"{path}: line {lineno}: value {value} outside [{lo}, {hi}]")
            values.append(int(value))
    return values


def outcome(read):
    try:
        return [int(v) for v in read()]
    except InputFormatError as exc:
        return str(exc)


def count_line_parser_calls(monkeypatch):
    """Record the piece each `_parse_lines` call gets."""
    calls = []
    parse_lines = samples._parse_lines

    def counting(path, piece, *args):
        calls.append(piece)
        return parse_lines(path, piece, *args)
    monkeypatch.setattr(samples, "_parse_lines", counting)
    return calls


def check_plain_path_against_oracle(tmp_path, monkeypatch, lo, hi):
    rng = pyrandom.Random(hi)
    bounds = [str(v).encode() for v in (lo - 1, lo, hi, hi + 1)]
    # The longest value line sets the place count; each of these is plain.
    shaped = [b"1\n7\n9\n3\n", b"123\n456\n789\n", b"# sample 50000\n12\n345\n",
              b"1000\n12\n345\n6\n", b"12\n345\n6\n1000", b"123\n1000\n",
              # short lines near byte 0 above a wider one: their top rows index before the file
              b"5\n1023\n", b"\n5\n1023",
              # the shortest line only in the last piece; every line as wide
              b"1023\n" * 14 + b"5\n", b"".join(b"%d\n" % v for v in range(1000, 1020)),
              # over 64 bytes: widths 1 to 4 in turn; runs of '#' and blank lines
              # that fill whole pieces, then a last line without a newline
              b"".join(b"%d\n" % v for v in range(1, 1024, 7)),
              b"7\n" + b"# comment\n" * 12 + b"\n" * 70 + b"# x\n\n" * 9 + b"1023\n5"]
    nine_digits = b"1\n22\n999999999\n123456789\n5\n"
    if hi > 10**9:
        shaped.append(nine_digits)
    calls = count_line_parser_calls(monkeypatch)
    for data in shaped:
        assert _plain_values(data, lo, hi) is not None, data
        p = tmp_path / "shaped.txt"
        p.write_bytes(data)
        load_values(p, lo, hi)
    assert calls == []
    # past int()'s 4300-digit limit; leading zeros do not count
    overlong = [b"9" * 5000, b"-" + b"9" * 5000, b"0" * 5000 + b"1024", b"0" * 5000 + b"7",
                b"-" + b"0" * 5000 + b"3", b"-" + b"0" * 5000]
    # a bad line past the first 64 bytes, after pieces that passed
    late = [b"5\n" * 40 + bad for bad in (b"1024\n", b"12345678901\n", b"-1\n", b"abc\n",
                                           b"5\r\n", b"\xff\n", b"10" * 40 + b"\n")]
    files = shaped + late + [nine_digits, b"", b"\n", b"0", b"\n\n# c\n"] + [
        line + end for line in ADVERSARIAL + bounds + overlong for end in (b"", b"\n", b"\n1\n")]
    files += [random_file(rng, lo, hi) for _ in range(600)]
    plain = 0
    for data in files:
        p = tmp_path / "f.txt"
        p.write_bytes(data)
        expected = outcome(lambda: load_values_loop(p, lo, hi))
        assert outcome(lambda: load_values(p, lo, hi)) == expected, data
        data = _read_input(p)
        assert outcome(lambda: _parse_lines(p, data, 0, lo, hi)) == expected, data
        fast = _plain_values(data, lo, hi) if data else None    # load_values cuts no empty piece
        if fast is not None:
            plain += 1
            assert fast.tolist() == expected, data
            assert load_values(p, lo, hi).dtype == np.int64
    # both paths are exercised
    assert 100 < plain < len(files) - 100


@pytest.mark.parametrize("lo, hi", [(0, 1023), (1, 2**31 - 2)])
def test_plain_path_matches_line_parser(tmp_path, monkeypatch, lo, hi):
    check_plain_path_against_oracle(tmp_path, monkeypatch, lo, hi)


@pytest.mark.parametrize("lo, hi", [(0, 1023), (1, 2**31 - 2)])
@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64])
def test_plain_path_matches_line_parser_across_blocks(tmp_path, monkeypatch, chunk, lo, hi):
    """Pieces of a few bytes put piece edges between short and wide lines, inside
    runs of '#' and blank lines, around pieces of comments only and before a
    last line without a newline."""
    monkeypatch.setattr(samples, "_CHUNK", chunk)
    check_plain_path_against_oracle(tmp_path, monkeypatch, lo, hi)


def count_gathers(monkeypatch):
    """Count the `take` calls `_plain_values` makes on the file's bytes."""
    calls = []

    class Counting(np.ndarray):
        def take(self, *args, **kwargs):
            calls.append(1)
            return self.view(np.ndarray).take(*args, **kwargs)
    frombuffer = np.frombuffer
    monkeypatch.setattr(samples.np, "frombuffer",
                        lambda *args, **kwargs: frombuffer(*args, **kwargs).view(Counting))
    return calls


def test_digit_gathers_do_not_grow_with_places(monkeypatch):
    calls = count_gathers(monkeypatch)
    window = ("# job 7\n" + "".join(f"{x}\n" for x in stream(12345, 100))).encode()
    one_digit = b"# job 7\n" + b"7\n" * 100
    assert _plain_values(window, 1, 2**31 - 2).tolist() == stream(12345, 100)
    ten_places = len(calls)
    calls.clear()
    assert _plain_values(one_digit, 1, 2**31 - 2).tolist() == [7] * 100
    assert len(calls) == ten_places


@pytest.mark.parametrize("chunk", [7, None])
def test_one_digit_gather_per_block(tmp_path, monkeypatch, chunk):
    """One '#' gather and one digit gather per piece; every piece but the last holds
    at least _CHUNK bytes."""
    if chunk:
        monkeypatch.setattr(samples, "_CHUNK", chunk)
    values = pyrandom.Random(8).choices(range(1024), k=samples._CHUNK + 1)
    p = tmp_path / "c.txt"
    p.write_text("# capture\n" + "".join(f"{v}\n" for v in values))
    calls = count_gathers(monkeypatch)
    assert load_values(p, 0, 1023).tolist() == values
    assert 2 < len(calls) <= 2 * (p.stat().st_size // samples._CHUNK + 1)


@pytest.mark.parametrize("final_newline", [True, False])
def test_benchmark_layout_takes_plain_path(tmp_path, monkeypatch, final_newline):
    def refuse(*args):
        raise AssertionError("line parser called")
    monkeypatch.setattr(samples, "_parse_lines", refuse)
    values = pyrandom.Random(5).choices(range(1024), k=500)
    p = write_capture(tmp_path / "c.txt", [0, 1023] + values, 50, final_newline)
    assert load_trace(p).values.tolist() == [0, 1023] + values
    save_trace(SampleTrace(np.array(values)), p, header="capture\nnotes")
    assert load_trace(p).values.tolist() == values
    three_digits = pyrandom.Random(6).choices(range(100, 1000), k=500)
    p = write_capture(tmp_path / "q.txt", three_digits, 50, final_newline)
    assert load_trace(p).values.tolist() == three_digits
    # recover's two files: an observed window and a 4000-sample capture
    window = stream(7, 100)
    text = "# job 7\n" + "".join(f"{x}\n" for x in window)
    p.write_text(text if final_newline else text[:-1])
    assert load_values(p, 1, 2**31 - 2).tolist() == window
    values = pyrandom.Random(7).choices(range(1024), k=4000)
    p = write_capture(tmp_path / "r.txt", values, 2000, final_newline)
    assert load_trace(p).values.tolist() == values


def capture_file(path, n, end, header):
    """An n-value capture under a header line, every line ended by `end`."""
    values = np.random.default_rng(4).integers(0, 1024, n).tolist()
    path.write_bytes("".join(f"{line}{end}" for line in [header, *values]).encode())
    return path, values


@pytest.mark.parametrize("end, header, calls", [
    ("\r\n", "# capture", 0), ("\r", "# capture", 0),
    ("\n", "# captured at 25\u00b0C", 1), ("\r\n", "# captured at 25\u00b0C", 1),
], ids=["CRLF", "CR", "UTF-8 header", "CRLF, UTF-8 header"])
def test_line_ends_and_a_header_cost_pieces(tmp_path, monkeypatch, end, header, calls):
    """Serial.println's '\\r\\n' ends, and lone '\\r' ends, take no line parser call;
    a UTF-8 header sends its piece, and no other, to the line parser."""
    p, values = capture_file(tmp_path / "c.txt", 10**5, end, header)
    parsed = count_line_parser_calls(monkeypatch)
    assert load_trace(p).values.tolist() == values
    assert len(parsed) == calls
    assert all(piece.startswith(header.encode()) for piece in parsed)


# Lines the plain path declines that the line parser takes: an NBSP-padded value,
# leading zeros past the width and -0.
DECLINED = [b"\xc2\xa05", b"5\xc2\xa0", b"00001", b"0" * 30 + b"9", b"-0", b"-00"]


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64])
def test_declined_lines_between_plain_pieces(tmp_path, monkeypatch, chunk):
    """Values from declined pieces land in line order among the plain pieces', as the
    oracle reads them; a BOM line among them is the oracle's bad line."""
    monkeypatch.setattr(samples, "_CHUNK", chunk)
    rng = pyrandom.Random(chunk)
    lines = [rng.choice(DECLINED) if rng.random() < 0.05 else b"%d" % rng.randrange(1024)
             for _ in range(300)]
    lines[:2] = [b"# capture", DECLINED[0]]
    p = tmp_path / "f.txt"
    p.write_bytes(b"\n".join(lines) + b"\n")
    parsed = count_line_parser_calls(monkeypatch)
    expected = load_values_loop(p, 0, 1023)
    assert load_values(p, 0, 1023).tolist() == expected
    assert len(expected) == len(lines) - 1
    declined = sum(line in DECLINED for line in lines)
    assert 0 < len(parsed) <= declined
    if chunk == 1:                  # one line a piece: exactly the declined lines are parsed
        assert parsed == [line + b"\n" for line in lines if line in DECLINED]
    lines.insert(200, b"\xef\xbb\xbf# bom")
    p.write_bytes(b"\n".join(lines) + b"\n")
    expected = outcome(lambda: load_values_loop(p, 0, 1023))
    assert expected == f"{p}: line 201: not an integer: '\\ufeff# bom'"
    assert outcome(lambda: load_values(p, 0, 1023)) == expected


@pytest.mark.parametrize("chunk", [1, 7, 64, None])
def test_bad_line_after_a_declined_piece(tmp_path, monkeypatch, chunk):
    """A bad line in an otherwise plain piece, after a declined piece and plain pieces,
    is numbered by the lines counted before it."""
    if chunk:
        monkeypatch.setattr(samples, "_CHUNK", chunk)
    n = max(50, samples._CHUNK * 3 // 2)           # two bytes a line: three pieces or more
    p = tmp_path / "f.txt"
    p.write_bytes("# captured at 25\u00b0C\n".encode() + b"5\n" * n + b"1024\n" + b"6\n" * 10)
    expected = outcome(lambda: load_values_loop(p, 0, 1023))
    assert expected == f"{p}: line {n + 2}: value 1024 outside [0, 1023]"
    parsed = count_line_parser_calls(monkeypatch)
    assert outcome(lambda: load_values(p, 0, 1023)) == expected
    assert len(parsed) == 2         # the header's piece and the bad line's


def test_plain_path_peak_memory_below_line_parser(tmp_path, monkeypatch):
    values = np.random.default_rng(3).integers(0, 1024, 10**5).tolist()
    p = write_capture(tmp_path / "c.txt", values, 1000)

    def peak():
        tracemalloc.start()
        try:
            load_trace(p)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert load_trace(p).values.tolist() == values
    plain = peak()
    monkeypatch.setattr(samples, "_plain_values", lambda *args: None)
    assert plain < peak()


def load_peak(tmp_path, n, end="\n", header=""):
    """load_trace's traced peak on an n-value capture, with the file's size. Each line
    ends in `end`, and `header` goes before the capture's own."""
    values = np.random.default_rng(3).integers(0, 1024, n).tolist()
    p = write_capture(tmp_path / "c.txt", values, 1000)
    p.write_bytes((header + p.read_text()).replace("\n", end).encode())
    tracemalloc.start()
    try:
        trace = load_trace(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.values.tolist() == values
    return peak, p.stat().st_size


def test_plain_path_peak_memory_bound(tmp_path):
    """An absolute bound, so the plain path's peak cannot double unseen: 2,315,949
    bytes measured at 10^5 lines in 64 KiB pieces, plus 10%."""
    peak, _ = load_peak(tmp_path, 10**5)
    assert peak < 2_315_949 * 1.1


@pytest.mark.parametrize("n, end, header, bound", [
    (10**5, "\n", "", 1.5), (10**6, "\n", "", 1.5),
    (10**5, "\r\n", "", 1.5), (10**6, "\r\n", "", 1.5),
    (10**5, "\n", "# 25\u00b0C\n", 2.0), (10**6, "\n", "# 25\u00b0C\n", 2.0),
], ids=["100000", "1000000", "CRLF-100000", "CRLF-1000000",
        "UTF-8 header-100000", "UTF-8 header-1000000"])
def test_plain_path_peak_memory_beyond_bytes_and_result_is_fixed(tmp_path, n, end, header,
                                                                 bound):
    """Past the file's bytes and the int64 result, the loader holds one piece's
    arrays: about 17 bytes per byte of a 64 KiB piece, 1.13 MB measured at both sizes.
    Whole-file line arrays would add over 10 bytes a line at 10^6 lines.

    A CRLF file loads from bytes one '\\r' a line shorter than the file: 0.97 and
    0.13 MiB measured. A UTF-8 header sends its piece, and only that piece, to the line
    parser, whose strings and ints for 64 KiB of lines come to 1.50 and 1.51 MiB
    measured; the bound is 2 MiB. A whole-file line parser added 2.8 and 28.1 MiB."""
    peak, size = load_peak(tmp_path, n, end, header)
    assert peak - (size + 8 * n) < bound * 2**20


def test_save_load_round_trip(tmp_path):
    t = SampleTrace(np.array([0, 5, 1023, 338, 338]))
    p = tmp_path / "t.txt"
    save_trace(t, p)
    back = load_trace(p)
    assert np.array_equal(back.values, t.values)
    # and the re-saved file is byte-identical
    p2 = tmp_path / "t2.txt"
    save_trace(back, p2)
    assert p.read_bytes() == p2.read_bytes()


def save_trace_loop(trace, path, header=None):
    """save_trace with one write per value: the oracle for its chunked writes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for v in trace.values:
            fh.write(f"{v}\n")


CHUNK = samples._SAVE_CHUNK


@pytest.mark.parametrize("order", [1, -1], ids=["ascending", "descending"])
def test_save_every_value_matches_loop(tmp_path, order):
    # Every value once: each line of the table and each change in digit count.
    t = SampleTrace(np.arange(SAMPLE_MAX + 1)[::order])
    save_trace(t, tmp_path / "table.txt")
    save_trace_loop(t, tmp_path / "loop.txt")
    assert (tmp_path / "table.txt").read_bytes() == (tmp_path / "loop.txt").read_bytes()


@pytest.mark.parametrize("header", [None, "", "capture\nnotes  \n\n  indented"],
                         ids=["no-header", "empty-header", "multi-line-header"])
@pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
def test_save_matches_loop(tmp_path, n, header):
    t = SampleTrace(np.random.default_rng(n).integers(0, SAMPLE_MAX + 1, n))
    save_trace(t, tmp_path / "chunked.txt", header=header)
    save_trace_loop(t, tmp_path / "loop.txt", header=header)
    assert (tmp_path / "chunked.txt").read_bytes() == (tmp_path / "loop.txt").read_bytes()


def test_save_peak_memory_bounded_by_chunk(tmp_path):
    def peak(n):
        t = SampleTrace(np.random.default_rng(n).integers(0, SAMPLE_MAX + 1, n))
        tracemalloc.start()
        try:
            save_trace(t, tmp_path / "t.txt")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    small, large = peak(10**4), peak(10**6)
    # A 2^14-value chunk's list, ints and strings take about 0.6 MB more than
    # all of 10^4 values; writing 10^6 values as one string peaks near 90 MB.
    assert large <= small + 2**20, (small, large)


def test_save_header_comment_round_trips(tmp_path):
    t = SampleTrace(np.array([1, 2]))
    p = tmp_path / "t.txt"
    save_trace(t, p, header="capture notes")
    assert p.read_text().startswith("# capture notes\n")
    assert load_trace(p).values.tolist() == [1, 2]


def band_walk_loop(model, n, rng):
    """_band_walk through rng.choice and rng.randrange: the oracle for its inline draws."""
    lo = model.center - model.halfwidth + model.noise_width
    hi = model.center + model.halfwidth - model.noise_width
    nw = model.noise_width
    v = model.center
    out = []
    for _ in range(n):
        if rng.random() >= model.stickiness:
            v += rng.choice((-1, 1))
            if v < lo:
                v = lo
            elif v > hi:
                v = hi
        out.append((v + rng.randrange(-nw, nw)) if nw else v)
    return out


def synth_trace_loop(model, n):
    """synth_trace with a per-sample loop for each model's term: the oracle for its array steps."""
    if model.kind == "replay":
        vals = model.replay_values
        return np.array([vals[i % len(vals)] for i in range(n)], dtype=np.int64)
    out = band_walk_loop(model, n, pyrandom.Random(model.rng_seed))
    if model.kind == "drop":
        offset = float(model.transient_start - model.center)
        for i in range(n):
            if abs(offset) < 0.5:
                break
            v = out[i] + round(offset)
            out[i] = min(max(v, 0), SAMPLE_MAX)
            offset *= model.decay
    elif model.kind == "interference":
        for i in range(n):
            v = out[i] + round(model.amplitude * math.sin(2.0 * math.pi * i / model.period))
            out[i] = min(max(v, 0), SAMPLE_MAX)
    return np.array(out, dtype=np.int64)


def assert_synth_matches_loop(model, n):
    fast, slow = synth_trace(model, n).values, synth_trace_loop(model, n)
    assert fast.dtype == slow.dtype
    assert np.array_equal(fast, slow)


def assert_walk_matches_loop(model, n, monkeypatch):
    assert (samples._band_walk(model, n, pyrandom.Random(model.rng_seed))
            == band_walk_loop(model, n, pyrandom.Random(model.rng_seed)))
    fast = synth_trace(model, n).values
    with monkeypatch.context() as m:
        m.setattr(samples, "_band_walk", band_walk_loop)
        assert np.array_equal(fast, synth_trace(model, n).values)


README_MODELS = {
    "band": SynthModel(kind="band", center=512, halfwidth=40, stickiness=0.7,
                       noise_width=2, rng_seed=1),
    "drop": SynthModel(kind="drop", center=340, halfwidth=3, transient_start=900,
                       decay=0.999, noise_width=3, rng_seed=11),
    "interference": SynthModel(kind="interference", center=500, halfwidth=10,
                               stickiness=0.8, amplitude=25.0, noise_width=5, rng_seed=5),
}


@pytest.mark.parametrize("n", [1, 1000, 10**5])
@pytest.mark.parametrize("kind", README_MODELS)
def test_band_walk_matches_loop(kind, n, monkeypatch):
    assert_walk_matches_loop(README_MODELS[kind], n, monkeypatch)


def random_model(seed):
    """A model with each edge case drawn often: no stickiness or full
    stickiness, no noise or noise as wide as the band, a zero halfwidth,
    bands that touch 0 or SAMPLE_MAX, rounding ties (amplitude 0.5 or 1.5
    with period 4), no or a huge amplitude, periods below 1 or past any
    trace length, decays near 0 or 1, and a transient from either end of
    the sample range or from the center. Every field is drawn for every kind, and the
    model gets those its kind reads."""
    r = pyrandom.Random(seed)
    halfwidth = r.choice([0, 1, 2, 3, r.randrange(4, 100)])
    center = r.choice([halfwidth, SAMPLE_MAX - halfwidth,
                       r.randrange(halfwidth, SAMPLE_MAX - halfwidth + 1)])
    kind = r.choice(["band", "drop", "interference"])
    drawn = dict(
        center=center,
        halfwidth=halfwidth,
        stickiness=r.choice([0.0, 1.0, r.random()]),
        noise_width=r.choice([0, halfwidth, r.randrange(halfwidth + 1)]),
        rng_seed=r.randrange(2**32),
        amplitude=r.choice([0.0, 0.5, 1.5, 1e300, r.uniform(0, 2000)]),
        period=r.choice([4.0, 1e15, math.inf, r.uniform(0.01, 1), r.uniform(1, 500)]),
        decay=r.choice([1e-300, 0.9999999, r.uniform(0.001, 0.9999)]),
        transient_start=r.choice([0, SAMPLE_MAX, center, r.randrange(SAMPLE_MAX + 1)]),
    )
    return SynthModel(kind, rng_seed=drawn.pop("rng_seed"), **{
        name: value for name, value in drawn.items() if name in samples.MODEL_FIELDS[kind]})


@pytest.mark.parametrize("seed", range(50))
def test_band_walk_matches_loop_on_random_models(seed, monkeypatch):
    assert_walk_matches_loop(random_model(seed), 2000, monkeypatch)


def test_band_walk_takes_numpy_integers(monkeypatch):
    # numpy integer fields work, as they did when the walk called randrange.
    model = SynthModel(kind="band", center=np.int64(100), halfwidth=np.int64(5),
                       noise_width=np.int64(3), stickiness=0.5, rng_seed=2)
    assert_walk_matches_loop(model, 1000, monkeypatch)


def test_random_models_cover_edge_cases():
    models = [random_model(seed) for seed in range(50)]
    assert {m.stickiness for m in models} >= {0.0, 1.0}
    assert any(m.noise_width == 0 < m.halfwidth for m in models)
    assert any(m.noise_width == m.halfwidth > 0 for m in models)
    assert any(m.halfwidth == 0 for m in models)
    assert any(m.center - m.halfwidth == 0 for m in models)
    assert any(m.center + m.halfwidth == SAMPLE_MAX for m in models)
    interference = [m for m in models if m.kind == "interference"]
    assert {m.amplitude for m in interference} >= {0.0, 0.5, 1.5, 1e300}
    assert {m.period for m in interference} >= {4.0, 1e15, math.inf}
    assert any(m.period < 1 for m in interference)
    drop = [m for m in models if m.kind == "drop"]
    assert {m.decay for m in drop} >= {1e-300, 0.9999999}
    assert {m.transient_start for m in drop} >= {0, SAMPLE_MAX}
    assert any(m.transient_start == m.center for m in drop)


@pytest.mark.parametrize("n", [1, 2, 1000, 10**5])
@pytest.mark.parametrize("kind", README_MODELS)
def test_synth_matches_loop(kind, n):
    assert_synth_matches_loop(README_MODELS[kind], n)


@pytest.mark.parametrize("seed", range(50))
def test_synth_matches_loop_on_random_models(seed):
    assert_synth_matches_loop(random_model(seed), 2000)


def interference(**kwargs):
    return SynthModel(kind="interference", center=500, halfwidth=10, stickiness=0.5,
                      noise_width=2, rng_seed=4, **kwargs)


def drop(**kwargs):
    return SynthModel(kind="drop", center=600, halfwidth=20, stickiness=0.5,
                      noise_width=5, rng_seed=6, **kwargs)


ADVERSARIAL_MODELS = {
    "tie-0.5": interference(amplitude=0.5, period=4.0),      # sin is exactly +-1 at i = 1, 3
    "tie-1.5": interference(amplitude=1.5, period=4.0),
    "amplitude-0": interference(amplitude=0.0),
    "amplitude-1e300": interference(amplitude=1e300),       # the term is past int64's range
    "period-0.3": interference(amplitude=30.0, period=0.3),
    "period-1e-200": interference(amplitude=30.0, period=1e-200),
    "period-1e15": interference(amplitude=1e12, period=1e15),
    "period-inf": interference(amplitude=30.0, period=math.inf),
    "decay-1e-300": drop(transient_start=0, decay=1e-300),
    "decay-0.9999999": drop(transient_start=SAMPLE_MAX, decay=0.9999999),
    "start-0": drop(transient_start=0, decay=0.99),           # clips at 0
    "start-1023": drop(transient_start=SAMPLE_MAX, decay=0.99),
    "start-center": drop(transient_start=600, decay=0.99),
    # The third offset is -749.5 as the loop folds it, -749.4999999999999 as
    # offset * cumprod(decay): the two round to different integers.
    "fold-tie": SynthModel(kind="drop", center=SAMPLE_MAX, halfwidth=0, transient_start=0,
                           decay=0.8559492224184497),
    # The last terms above 0.5: the fold stops just past them.
    "half-up": drop(transient_start=601, decay=0.5000000000000001),
    "half-down": drop(transient_start=599, decay=0.5000000000000001),
    "half-tie": drop(transient_start=601, decay=0.5),
    "half-at-500": SynthModel(kind="drop", center=23, halfwidth=3, transient_start=SAMPLE_MAX,
                              decay=0.9849131592259058),     # term 500 is 0.5000000000000082
    "replay-1": SynthModel(kind="replay", replay_values=(7,)),
    "replay-long": SynthModel(kind="replay", replay_values=tuple(range(3, 1023))),
}


@pytest.mark.parametrize("n", [1, 2, 1000])
@pytest.mark.parametrize("name", ADVERSARIAL_MODELS)
def test_synth_matches_loop_on_adversarial_models(name, n):
    assert_synth_matches_loop(ADVERSARIAL_MODELS[name], n)


def test_interference_phase_overflow_names_period_and_n():
    model = interference(period=1e-308)
    assert np.array_equal(synth_trace(model, 1).values, synth_trace_loop(model, 1))
    with pytest.raises(ValueError, match=re.escape("period 1e-308 is too small for n=2")):
        synth_trace(model, 2)


class TestSynthModels:
    def test_determinism(self):
        m = SynthModel(kind="band", center=338, halfwidth=3, stickiness=0.9,
                       rng_seed=42)
        a = synth_trace(m, 1000)
        b = synth_trace(m, 1000)
        assert np.array_equal(a.values, b.values)

    def test_band_clipping(self):
        m = SynthModel(kind="band", center=338, halfwidth=3, stickiness=0.9,
                       rng_seed=7)
        t = synth_trace(m, 10_000)
        assert t.values.min() >= 335 and t.values.max() <= 341

    def test_band_distinct_bounded_by_width(self):
        m = SynthModel(kind="band", center=500, halfwidth=50, stickiness=0.5,
                       rng_seed=3)
        t = synth_trace(m, 50_000)
        assert trace_stats(t).distinct <= 101

    def test_drop_transient(self):
        m = SynthModel(kind="drop", center=340, halfwidth=3, stickiness=0.9,
                       transient_start=900, decay=0.9995, rng_seed=11)
        t = synth_trace(m, 50_000)
        v = t.values
        assert v[0] >= v[-1]
        # hand-simulate the decay recurrence: every value must stay under
        # the decaying envelope, which approaches the band monotonically
        offset = float(900 - 340)
        prev_env = None
        for i in range(len(v)):
            env = 340 + 3 + (round(offset) if abs(offset) >= 0.5 else 0)
            assert v[i] <= env
            if prev_env is not None:
                assert env <= prev_env
            prev_env = env
            offset *= 0.9995

    def test_drop_settles_into_band(self):
        m = SynthModel(kind="drop", center=340, halfwidth=3, stickiness=0.9,
                       transient_start=900, decay=0.99, rng_seed=11)
        t = synth_trace(m, 10_000)
        tail = t.values[5000:]
        assert tail.min() >= 337 and tail.max() <= 343

    def test_interference_bounds(self):
        m = SynthModel(kind="interference", center=500, halfwidth=10,
                       stickiness=0.8, amplitude=25.0, period=40.0, rng_seed=5)
        t = synth_trace(m, 20_000)
        assert t.values.min() >= 500 - 10 - 25
        assert t.values.max() <= 500 + 10 + 25
        # the sinusoid must actually widen the band
        assert t.values.max() - t.values.min() > 20

    def test_replay_cycles(self):
        m = SynthModel(kind="replay", replay_values=(9, 8, 7))
        t = synth_trace(m, 7)
        assert t.values.tolist() == [9, 8, 7, 9, 8, 7, 9]

    @pytest.mark.parametrize("kind", [k for k in samples.SYNTH_KINDS if k != "replay"])
    def test_replay_values_need_the_replay_model(self, kind):
        for values in [(9, 8, 7), ()]:
            with pytest.raises(ValueError) as exc:
                SynthModel(kind=kind, replay_values=values)
            assert str(exc.value) == f"replay_values is not read by the {kind} model"

    @pytest.mark.parametrize("kind", samples.SYNTH_KINDS)
    def test_model_fields_are_the_fields_each_kind_reads(self, kind):
        """A field outside the kind's MODEL_FIELDS entry is refused at any value but its
        default, naming the field, and a field inside it changes the trace."""
        values = {"center": 500, "halfwidth": 5, "stickiness": 0.5, "transient_start": 0,
                  "decay": 0.5, "amplitude": 3.0, "period": 7.0, "noise_width": 2,
                  "replay_values": (4, 5)}
        assert set(values) == {f.name for f in dataclasses.fields(SynthModel)} - {
            "kind", "rng_seed"}
        base = {"rng_seed": 3, "replay_values": (9, 8, 7) if kind == "replay" else None}
        trace = synth_trace(SynthModel(kind, **base), 2000).values.tolist()
        for name, value in values.items():
            if name in samples.MODEL_FIELDS[kind]:
                changed = synth_trace(SynthModel(kind, **{**base, name: value}), 2000)
                assert changed.values.tolist() != trace, name
            else:
                with pytest.raises(ValueError) as exc:
                    SynthModel(kind, **{**base, name: value})
                assert str(exc.value) == f"{name} is not read by the {kind} model"
                default = getattr(SynthModel, name)
                assert SynthModel(kind, **{**base, name: default}) == SynthModel(kind, **base)

    def test_n_must_be_positive(self):
        m = SynthModel(kind="band")
        with pytest.raises(ValueError):
            synth_trace(m, 0)
        for bad in NON_INTEGERS:
            with pytest.raises(TypeError):
                synth_trace(m, bad)
        assert np.array_equal(synth_trace(m, np.int64(5)).values, synth_trace(m, 5).values)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="nosuch"),
            dict(kind="band", halfwidth=-1),
            dict(kind="band", center=5, halfwidth=10),        # band below 0
            dict(kind="band", center=1020, halfwidth=10),     # band above 1023
            dict(kind="band", stickiness=1.5),
            dict(kind="band", halfwidth=3, noise_width=4),
            dict(kind="drop", decay=1.0),
            dict(kind="drop", transient_start=2000),
            dict(kind="interference", period=0.0),
            dict(kind="interference", amplitude=-1.0),
            dict(kind="replay"),
            dict(kind="replay", replay_values=(1, 2000)),
            dict(kind="interference", amplitude=float("nan")),
            dict(kind="interference", amplitude=float("inf")),
            dict(kind="interference", period=float("nan")),
            dict(kind="band", noise_width=-1),  # the walk's noise draw would spin
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            SynthModel(**kwargs)

    @pytest.mark.parametrize("kind,name", [
        ("band", "rng_seed"), ("band", "center"), ("band", "halfwidth"),
        ("band", "noise_width"), ("drop", "transient_start"), ("replay", "replay_values"),
    ], ids=["rng_seed", "center", "halfwidth", "noise_width", "transient_start", "replay"])
    def test_integer_fields_reject_non_integers(self, kind, name):
        for bad in NON_INTEGERS:
            with pytest.raises(TypeError):
                SynthModel(kind=kind, **{name: (7, bad) if name == "replay_values" else bad})

    def test_numpy_integer_fields_become_ints(self):
        m = SynthModel(kind="band", center=np.int16(500), rng_seed=np.int64(2))
        assert (type(m.center), type(m.rng_seed)) == (int, int)
        same = SynthModel(kind="band", center=500, rng_seed=2)
        assert np.array_equal(synth_trace(m, 100).values, synth_trace(same, 100).values)
        m = SynthModel(kind="replay", replay_values=tuple(np.array([9, 8])))
        assert m.replay_values == (9, 8) and {type(v) for v in m.replay_values} == {int}


class TestTraceStats:
    def test_counting(self):
        st = trace_stats(SampleTrace(np.array([5, 5, 7])))
        assert st.distinct == 2
        assert st.counts[5] == 2 and st.counts[7] == 1
        assert st.min_value == 5 and st.max_value == 7

    def test_constant_trace(self):
        st = trace_stats(SampleTrace(np.array([42] * 100)))
        assert st.distinct == 1 and st.total == 100

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            trace_stats(SampleTrace(np.array([], dtype=np.int64)))

    def test_frequencies_sum_to_length(self):
        rng = pyrandom.Random(99)
        for _ in range(20):
            vals = [rng.randrange(1024) for _ in range(rng.randrange(1, 500))]
            st = trace_stats(SampleTrace(np.array(vals)))
            assert int(st.counts.sum()) == len(vals)
            assert st.distinct == len(set(vals))
