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
from dataclasses import dataclass, field
from math import pi, sin
from os import PathLike
from typing import TextIO

import numpy as np

SAMPLE_MAX = 1023

SYNTH_KINDS = ("band", "drop", "interference", "replay")


class TraceFormatError(ValueError):
    """A sample file could not be parsed; message carries path and line."""


@dataclass(frozen=True)
class SampleTrace:
    """An ordered sequence of 10-bit samples."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values)
        if arr.size and arr.dtype.kind not in "iu":
            raise ValueError(f"trace values must be integers, not {arr.dtype}")
        arr = arr.astype(np.int64, copy=False)
        if arr.ndim != 1:
            raise ValueError("trace values must be one-dimensional")
        if arr.size and (arr.min() < 0 or arr.max() > SAMPLE_MAX):
            bad = arr[(arr < 0) | (arr > SAMPLE_MAX)][0]
            raise ValueError(f"sample value {bad} outside [0, {SAMPLE_MAX}]")
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
    traces.
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
        if self.kind not in SYNTH_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "replay":
            if not self.replay_values:
                raise ValueError("replay model needs a non-empty replay_values")
            for v in self.replay_values:
                if not 0 <= v <= SAMPLE_MAX:
                    raise ValueError(f"replay value {v} outside [0, {SAMPLE_MAX}]")
            return
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
        if self.kind == "drop":
            if not 0 <= self.transient_start <= SAMPLE_MAX:
                raise ValueError("transient_start outside sample range")
            if not 0.0 < self.decay < 1.0:
                raise ValueError("decay must be in (0, 1)")
        if self.kind == "interference":
            if self.amplitude < 0:
                raise ValueError("amplitude must be >= 0")
            if self.period <= 0:
                raise ValueError("period must be positive")


def _band_walk(model: SynthModel, n: int, rng: _pyrandom.Random) -> list[int]:
    # Walk bounds leave room for the noise term so the final value stays
    # inside the band without clipping (clipping would skew the low bits).
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


def synth_trace(model: SynthModel, n: int) -> SampleTrace:
    """Generate an n-sample trace; a pure function of (model, n)."""
    if n <= 0:
        raise ValueError("n must be positive")
    rng = _pyrandom.Random(model.rng_seed)

    if model.kind == "replay":
        vals = model.replay_values
        out = [vals[i % len(vals)] for i in range(n)]
    elif model.kind == "band":
        out = _band_walk(model, n, rng)
    elif model.kind == "drop":
        out = _band_walk(model, n, rng)
        offset = float(model.transient_start - model.center)
        for i in range(n):
            if abs(offset) < 0.5:
                break
            v = out[i] + round(offset)
            out[i] = min(max(v, 0), SAMPLE_MAX)
            offset *= model.decay
    else:  # interference
        out = _band_walk(model, n, rng)
        for i in range(n):
            v = out[i] + round(model.amplitude * sin(2.0 * pi * i / model.period))
            out[i] = min(max(v, 0), SAMPLE_MAX)

    return SampleTrace(np.array(out, dtype=np.int64))


def _open_text(path: str | PathLike, error: type[ValueError]) -> TextIO:
    """Open an input file as UTF-8; failing to open it raises `error` naming the path.

    Bytes that are not UTF-8 decode to lone surrogates (surrogateescape),
    so the parser reports them as it meets them, in line order.
    """
    try:
        return open(path, encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc}") from exc


def _undecodable(text: str) -> bool:
    """Whether text, read through `_open_text`, holds bytes that are not UTF-8."""
    return any("\udc80" <= ch <= "\udcff" for ch in text)


def load_values(path: str | PathLike, lo: int, hi: int) -> list[int]:
    """Read a file of decimal integers in [lo, hi], one per line.

    This is the format of sample files and of observed-sequence files.
    Lines starting with '#' and blank lines are skipped. A value is an
    optional '-' followed by ASCII digits; `int()` alone would also take
    '+5', '1_0' and non-ASCII digits. Any other malformed or out-of-range
    line is a hard error (silently clamping would corrupt the value
    distribution the seed attack relies on).
    """
    values = []
    with _open_text(path, TraceFormatError) as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            # Plain digits first: the common line takes one test, not three.
            if not (text.isdigit() and text.isascii()):
                if not text.isascii() and _undecodable(text):
                    raise TraceFormatError(f"{path}: line {lineno}: not UTF-8")
                if not text or text[0] == "#":
                    continue
                if not (text[0] == "-" and text[1:].isdigit() and text.isascii()):
                    raise TraceFormatError(
                        f"{path}: line {lineno}: not an integer: {text!r}"
                    )
            v = int(text)
            if not lo <= v <= hi:
                raise TraceFormatError(
                    f"{path}: line {lineno}: value {v} outside [{lo}, {hi}]"
                )
            values.append(v)
    return values


def load_trace(path: str | PathLike) -> SampleTrace:
    """Read a sample file: values in [0, SAMPLE_MAX] as `load_values` reads them."""
    values = load_values(path, 0, SAMPLE_MAX)
    return SampleTrace(np.array(values, dtype=np.int64))


def save_trace(trace: SampleTrace, path: str | PathLike,
               header: str | None = None) -> None:
    """Write a trace in the sample file format; optional '#' header line."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for v in trace.values:
            fh.write(f"{v}\n")


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
