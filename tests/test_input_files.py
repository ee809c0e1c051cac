"""Every input file, sample, observed-sequence or bit file, fails the same way and counts
its lines the same way."""

import random as pyrandom

import pytest

from randpipe.extract import read_bits
from randpipe.samples import InputFormatError, load_trace, load_values


# Each reader of an input file, with the text it gives a bad line holding only 'x'.
READERS = [
    (load_trace, "not an integer: 'x'"),
    (lambda path: load_values(path, 1, 2**31 - 2), "not an integer: 'x'"),
    (read_bits, "invalid character 'x'"),
]


def cannot_read(path):
    try:
        open(path, "rb").close()
    except OSError as exc:
        return f"{path}: cannot read: {exc}"
    raise AssertionError(f"{path} can be read")


@pytest.mark.parametrize("case", ["missing", "directory", "not UTF-8", "bad line"])
def test_one_error_type_for_every_input_failure(tmp_path, case):
    assert issubclass(InputFormatError, ValueError)
    path = tmp_path / "input.txt"
    if case == "directory":
        path = tmp_path
    elif case == "not UTF-8":
        path.write_bytes(b"1\n\x80\n")
    elif case == "bad line":
        path.write_bytes(b"1\n\nx\n")
    for read, bad_line in READERS:
        with pytest.raises(InputFormatError) as exc:
            read(path)
        if case == "not UTF-8":
            assert str(exc.value) == f"{path}: line 2: not UTF-8"
        elif case == "bad line":
            assert str(exc.value) == f"{path}: line 3: {bad_line}"
        else:
            assert str(exc.value) == cannot_read(path)


def text_mode_line(path):
    """The number of the first line, as text mode reads the file, that holds anything
    but '0', '1' and whitespace."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.translate(str.maketrans("", "", "01")).strip():
                return lineno
    raise AssertionError(f"{path} has no bad line")


def mixed_line_end_files():
    """Lines valid as samples and as bits under mixed '\\n', '\\r' and '\\r\\n' ends, then
    a bad byte or character, with fixed edge cases first."""
    files = [
        b"1\r0\r\n1\n\x80", b"1\r0\r\n1\nx", b"1\r\x80", b"1\r\n\rx", b"\r\r\n\n\rx\n",
        b"0\n1\rx\r", b"0\r\n1\r\x80\r", b"\r\n\r\n \x80\r", b"x", b"\x80\r",
    ]
    rng = pyrandom.Random(30)
    lines = [b"0", b"1", b"10", b"", b" 1 ", b"\t0", b"\x0c1"]
    ends = [b"\n", b"\r", b"\r\n"]
    for _ in range(300):
        head = b"".join(rng.choice(lines) + rng.choice(ends) for _ in range(rng.randrange(12)))
        bad = rng.choice((b"\x80", b"x", b" x", b"1\x80", b"x\r"))
        tail = rng.choice((b"", b"\r", b"\n", b"\r\n", b"\r1\n", b"\n\x80\n"))
        files.append(head + bad + tail)
    return files


def test_one_line_rule_across_formats(tmp_path):
    samples, bits = tmp_path / "samples.txt", tmp_path / "bits.txt"
    for data in mixed_line_end_files():
        samples.write_bytes(data)
        bits.write_bytes(data)
        lineno = text_mode_line(samples)
        for path, read in ((samples, lambda p: load_values(p, 0, 1023)), (bits, read_bits)):
            with pytest.raises(InputFormatError) as exc:
                read(path)
            assert str(exc.value).startswith(f"{path}: line {lineno}: "), data
