"""10-bit sample streams: file I/O, synthetic trace models, histograms.

A sample is an ADC count in [0, 1023] (0-5 V mapped onto 10 bits). Traces
are loaded from plain text files or produced by deterministic synthetic
models, so everything downstream is testable without hardware attached.
The synthetic models imitate behaviors seen in real captures (a narrow
sticky band of values, an initial decaying transient, periodic
interference) with no claim of physical fidelity.
"""

from __future__ import annotations

import random as _pyrandom
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import isfinite
from os import PathLike

import numpy as np

from .avrprng import _as_int

SAMPLE_MAX = 1023
_SAVE_CHUNK = 1 << 14      # values per write in save_trace; bounds its memory
_CHUNK = 1 << 16           # bytes per piece in load_values; bounds its per-line arrays
_LINES = tuple(f"{v}\n" for v in range(SAMPLE_MAX + 1))   # save_trace's line for each value

_BAND_FIELDS = ("center", "halfwidth", "stickiness", "noise_width")
# The SynthModel fields each kind reads, besides rng_seed; SynthModel refuses the others.
MODEL_FIELDS = {"band": _BAND_FIELDS, "drop": _BAND_FIELDS + ("transient_start", "decay"),
                "interference": _BAND_FIELDS + ("amplitude", "period"),
                "replay": ("replay_values",)}
SYNTH_KINDS = tuple(MODEL_FIELDS)
# The SynthModel fields that simulate takes as options, in field order.
MODEL_OPTIONS = ("center", "halfwidth", "stickiness", "transient_start", "decay",
                 "amplitude", "period", "noise_width")


class InputFormatError(ValueError):
    """An input file could not be read or parsed; the message names the path, and the
    line where there is one."""


def _frozen(arr: np.ndarray) -> bool:
    """Whether arr and every array whose memory it views are read-only."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None


@dataclass(frozen=True)
class SampleTrace:
    """An ordered sequence of 10-bit samples."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values)
        if arr.size and arr.dtype.kind not in "iu":
            raise ValueError(f"trace values must be integers, not {arr.dtype}")
        if arr.ndim != 1:
            raise ValueError("trace values must be one-dimensional")
        # On the input's own dtype, so the message shows the value as given.
        if arr.size and (arr.min() < 0 or arr.max() > SAMPLE_MAX):
            bad = arr[(arr < 0) | (arr > SAMPLE_MAX)][0]
            raise ValueError(f"sample value {bad} outside [0, {SAMPLE_MAX}]")
        # Freeze a copy of the caller's array unless nothing can write its memory.
        arr = arr.astype(np.int64, copy=arr is self.values and not _frozen(arr))
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class SynthModel:
    """Deterministic synthetic trace model.

    kind selects the generator:
      band          sticky integer walk, clipped to [center-halfwidth,
                    center+halfwidth], plus optional per-sample uniform
                    noise of width noise_width
      drop          band plus an exponentially decaying start transient
                    from transient_start toward the band
      interference  band plus a sinusoid of the given amplitude/period,
                    clipped to the valid sample range
      replay        cycles the stored replay_values

    Identical (kind, parameters, rng_seed) always produce identical
    traces. A trace depends on the seeded `random.Random` only through
    its random() and getrandbits() outputs, not on how a Python version
    implements choice() or randrange().
    """

    kind: str
    center: int = 512
    halfwidth: int = 8
    stickiness: float = 0.9
    transient_start: int = 1000
    decay: float = 0.999
    amplitude: float = 8.0
    period: float = 50.0
    noise_width: int = 0
    rng_seed: int = 0
    replay_values: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        # As Python ints: a float would be truncated, and a numpy integer
        # cannot seed random.Random.
        for name in ("center", "halfwidth", "transient_start", "noise_width", "rng_seed"):
            object.__setattr__(self, name, _as_int(getattr(self, name)))
        if self.replay_values is not None:
            object.__setattr__(self, "replay_values", tuple(map(_as_int, self.replay_values)))
        if self.kind not in SYNTH_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        # A field its kind does not read must hold its default, so every check below passes it.
        for name in MODEL_OPTIONS + ("replay_values",):
            unread = name not in MODEL_FIELDS[self.kind]
            if unread and getattr(self, name) != getattr(SynthModel, name):
                raise ValueError(f"{name} is not read by the {self.kind} model")
        if self.kind == "replay":
            if not self.replay_values:
                raise ValueError("replay model needs a non-empty replay_values")
            for v in self.replay_values:
                if not 0 <= v <= SAMPLE_MAX:
                    raise ValueError(f"replay value {v} outside [0, {SAMPLE_MAX}]")
        if self.halfwidth < 0:
            raise ValueError("halfwidth must be >= 0")
        if self.center - self.halfwidth < 0 or self.center + self.halfwidth > SAMPLE_MAX:
            raise ValueError(
                f"band [{self.center - self.halfwidth}, {self.center + self.halfwidth}] "
                f"outside [0, {SAMPLE_MAX}]"
            )
        if not 0.0 <= self.stickiness <= 1.0:
            raise ValueError("stickiness must be in [0, 1]")
        if self.noise_width < 0:
            raise ValueError("noise_width must be >= 0")
        if self.noise_width > self.halfwidth:
            raise ValueError("noise_width must not exceed halfwidth")
        if not 0 <= self.transient_start <= SAMPLE_MAX:
            raise ValueError("transient_start outside sample range")
        if not 0.0 < self.decay < 1.0:
            raise ValueError("decay must be in (0, 1)")
        if self.amplitude < 0:
            raise ValueError("amplitude must be >= 0")
        if not isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        if not self.period > 0:
            raise ValueError("period must be positive")


def _band_walk(model: SynthModel, n: int, rng: _pyrandom.Random) -> list[int]:
    # Walk bounds leave room for the noise term so the final value stays
    # inside the band without clipping (clipping would skew the low bits).
    lo = model.center - model.halfwidth + model.noise_width
    hi = model.center + model.halfwidth - model.noise_width
    nw = model.noise_width
    stickiness = model.stickiness
    random, getrandbits = rng.random, rng.getrandbits
    # choice((-1, 1)) and randrange(-nw, nw) as CPython 3.11 draws them:
    # a draw below m is m.bit_length() bits, redrawn while >= m.
    width = 2 * nw
    k = width.bit_length()
    v = model.center
    out = []
    append = out.append
    for _ in range(n):
        if random() >= stickiness:
            while (r := getrandbits(2)) > 1:
                pass
            if r:                       # v is in [lo, hi], so a step clamps only at an edge
                if v < hi:
                    v += 1
            elif v > lo:
                v -= 1
        if nw:
            while (r := getrandbits(k)) >= width:
                pass
            append(v - nw + r)
        else:
            append(v)
    return out


def synth_trace(model: SynthModel, n: int) -> SampleTrace:
    """Generate an n-sample trace; a pure function of (model, n)."""
    n = _as_int(n)
    if n <= 0:
        raise ValueError("n must be positive")
    if model.kind == "interference" and not isfinite(2.0 * np.pi * (n - 1) / model.period):
        raise ValueError(f"period {model.period} is too small for n={n}: the phase overflows")
    if model.kind == "replay":
        arr = np.resize(np.array(model.replay_values, dtype=np.int64), n)
    else:
        arr = np.array(_band_walk(model, n, _pyrandom.Random(model.rng_seed)), dtype=np.int64)
    if model.kind == "drop":
        # offset, offset*decay, ... as a loop folds it: offset * cumprod(decay) rounds differently.
        # |term| never grows and np.rint makes it 0 once it is <= 0.5, so the fold stops there
        # or at n. Each round continues it from its last term and at most doubles its length.
        term = np.array([float(model.transient_start - model.center)])
        while abs(term[-1]) > 0.5 and term.size < n:
            more = np.full(min(term.size, n - term.size) + 1, model.decay)
            more[0] = term[-1]
            term = np.append(term, np.multiply.accumulate(more)[1:])
    elif model.kind == "interference":
        term = model.amplitude * np.sin(2.0 * np.pi * np.arange(n) / model.period)
    if model.kind in ("drop", "interference"):
        # In floats, so that a term beyond int64's range still saturates.
        arr[:term.size] = np.clip(arr[:term.size] + np.rint(term), 0, SAMPLE_MAX)
    arr.flags.writeable = False          # nothing else holds it: no copy needed
    return SampleTrace(arr)


def _read_input(path: str | PathLike) -> bytes:
    """An input file's bytes, each '\\r\\n' and lone '\\r' made '\\n' as text mode reads them: the
    one place that knows line ends. Failing to read raises InputFormatError naming the path."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputFormatError(f"{path}: cannot read: {exc}") from exc
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data


@contextmanager
def _open_output(path: str | PathLike):
    """An output file opened to write bytes: the one place that opens one. An OSError in the
    block (open, write or close) gets the path as `out_file`, so its message names the file."""
    try:
        with open(path, "wb") as fh:
            yield fh
    except OSError as exc:
        exc.out_file = path
        raise


def _undecodable(text: str) -> bool:
    """Whether text holds bytes that are not UTF-8. Inputs are decoded with surrogateescape,
    which makes each such byte a lone surrogate, so parsers report it in line order."""
    return any("\udc80" <= ch <= "\udcff" for ch in text)


def _plain_values(piece: bytes, lo: int, hi: int) -> np.ndarray | None:
    """One piece's values if `load_values` calls the piece plain, else None.

    No loop runs per line or digit place: the piece gathers all its digits at once,
    right-aligned to its widest value line's places, and sums them times 10^place.
    """
    if not piece.isascii():
        return None
    buf = np.frombuffer(piece, dtype=np.uint8)
    pos = np.int32 if buf.size < 2**31 else np.int64
    ends = np.flatnonzero(buf == ord("\n")).astype(pos)
    if not piece.endswith(b"\n"):
        ends = np.append(ends, pos(buf.size))
    lengths = np.empty_like(ends)
    lengths[:1] = ends[:1]
    np.subtract(ends[1:], ends[:-1], out=lengths[1:])
    lengths[1:] -= 1
    # take, not buf[...]: indexing casts an int32 index to intp chunk by chunk, 1.7x as slow.
    keep = lengths > 0
    keep &= buf.take(ends - lengths) != ord("#")
    ends, lengths = ends[keep], lengths[keep]
    if not lengths.size:                # no value lines: no values
        return lengths
    places = int(lengths.max())
    if places > len(str(hi)):
        return None
    back = np.arange(places, 0, -1, dtype=pos)[:, None]   # gather row r: back[r] from the end
    scale = 10 ** np.arange(places - 1, -1, -1, dtype=np.min_scalar_type(10**places - 1))
    digits = buf.take(ends - back)
    digits -= ord("0")
    # Rows past the piece's shortest line read other lines' bytes or wrap below 0: zero them.
    ragged = places - int(lengths.min())
    digits[:ragged][back[:ragged] > lengths] = 0
    acc = np.add.reduce(scale[:, None] * digits, axis=0, dtype=scale.dtype)
    if digits.max() > 9 or acc.min() < lo or acc.max() > hi:
        return None
    return acc


def _parse_lines(path: str | PathLike, piece: bytes, before: int, lo: int, hi: int) -> list[int]:
    """Parse one piece of a file line by line, numbering its lines after the `before` lines
    that precede it; report its first bad line. This decides every piece the plain path
    declines."""
    values = []
    lines = piece.decode("utf-8", "surrogateescape").split("\n")
    for lineno, line in enumerate(lines, before + 1):
        text = line.strip()
        # Plain digits first: the common line takes one test, not three.
        if not (text.isdigit() and text.isascii()):
            if not text.isascii() and _undecodable(text):
                raise InputFormatError(f"{path}: line {lineno}: not UTF-8")
            if not text or text[0] == "#":
                continue
            if not (text[0] == "-" and text[1:].isdigit() and text.isascii()):
                raise InputFormatError(f"{path}: line {lineno}: not an integer: {text!r}")
        try:
            v = int(text)
        except ValueError:
            # Past int()'s digit limit; leading zeros do not count.
            sign = "-" if text[0] == "-" else ""
            digits = text.lstrip("-").lstrip("0")
            if len(digits) > len(str(hi)):
                raise InputFormatError(
                    f"{path}: line {lineno}: value {sign}{digits} outside [{lo}, {hi}]") from None
            v = int(sign + (digits or "0"))
        if not lo <= v <= hi:
            raise InputFormatError(f"{path}: line {lineno}: value {v} outside [{lo}, {hi}]")
        values.append(v)
    return values


def load_values(path: str | PathLike, lo: int, hi: int) -> np.ndarray:
    """Read a file of decimal integers in [lo, hi], one per line, as read-only int64.

    This is the format of sample files and of observed-sequence files.
    Lines starting with '#' and blank lines are skipped. A value is an
    optional '-' followed by ASCII digits; `int()` alone would also take
    '+5', '1_0' and non-ASCII digits. Any other malformed or out-of-range
    line is a hard error (silently clamping would corrupt the value
    distribution the seed attack relies on).

    The file is cut into pieces after a newline about every _CHUNK bytes. A plain piece
    (ASCII, each line blank, a '#' comment or 1 to len(str(hi)) digits in [lo, hi], as
    `save_trace` writes under an ASCII header) is converted by one digit gather; any other
    goes to the line parser, which also names the first bad line.
    """
    data = _read_input(path)
    buf, size = np.frombuffer(data, dtype=np.uint8), len(data)
    # Room for every line, taken before any piece's arrays so it reuses the last load's block.
    out = np.empty(0 if size <= _CHUNK else 1 + sum(
        np.count_nonzero(buf[i:i + _CHUNK] == ord("\n")) for i in range(0, size, _CHUNK)),
        np.int64)
    n = stop = before = counted = 0        # before: the lines that precede byte `counted`
    while stop < size:
        start, stop = stop, data.find(b"\n", stop + _CHUNK - 1) + 1 or size
        piece = data[start:stop]
        values = _plain_values(piece, lo, hi)
        if values is None:
            before += data.count(b"\n", counted, start)
            counted = start
            values = _parse_lines(path, piece, before, lo, hi)
        if not n and stop == size:          # the file's only values: taken as they are
            out = np.array(values, dtype=np.int64)
        else:
            out[n:n + len(values)] = values
        n += len(values)
    out.resize(n, refcheck=False)           # in place: nothing else views out
    out.flags.writeable = False          # nothing else holds it: no copy needed
    return out


def load_trace(path: str | PathLike) -> SampleTrace:
    """Read a sample file: values in [0, SAMPLE_MAX] as `load_values` reads them."""
    return SampleTrace(load_values(path, 0, SAMPLE_MAX))


def save_trace(trace: SampleTrace, path: str | PathLike,
               header: str | None = None) -> None:
    """Write a trace in the sample file format; optional '#' header line."""
    with _open_output(path) as fh:
        fh.writelines(f"# {line}\n".encode() for line in (header or "").splitlines())
        for i in range(0, len(trace), _SAVE_CHUNK):
            chunk = trace.values[i:i + _SAVE_CHUNK].tolist()
            fh.write("".join(map(_LINES.__getitem__, chunk)).encode())


@dataclass(frozen=True)
class TraceStats:
    """Histogram summary of a trace."""

    total: int
    distinct: int
    min_value: int
    max_value: int
    counts: np.ndarray = field(repr=False)   # length 1024, counts[v] = freq(v)


def trace_stats(trace: SampleTrace) -> TraceStats:
    """Per-value frequencies plus distinct/min/max of a non-empty trace."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    counts = np.bincount(trace.values, minlength=SAMPLE_MAX + 1)
    counts.flags.writeable = False
    return TraceStats(
        total=len(trace),
        distinct=int(np.count_nonzero(counts)),
        min_value=int(trace.values.min()),
        max_value=int(trace.values.max()),
        counts=counts,
    )
