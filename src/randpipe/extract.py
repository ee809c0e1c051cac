"""Bit extraction from sample streams.

Five extraction algorithms turn 10-bit sample streams into raw bit
streams; the von Neumann corrector then removes bias by mapping bit
pairs 10 -> 1, 01 -> 0 and discarding 00/11.

  leastsign      parity of each sample
  twoleastsign   XOR of the two lowest bits of each sample
  updown         compare every sample against the first one
  mean           compare against a running window mean (two samples
                 consumed per raw bit: one feeds the window, one is
                 compared against the ceiling of the mean)
  mixmeanupdown  XOR of the corrected mean and updown streams, run
                 through the corrector once more

Comparisons are strict: equality yields bit 0. Bit streams are numpy
uint8 arrays of 0/1 values.
"""

from __future__ import annotations

from dataclasses import dataclass
from os import PathLike
from typing import Sequence

import numpy as np

from .avrprng import _as_int
from .samples import InputFormatError, SampleTrace, _open_output, _read_input, _undecodable

ALGORITHMS = ("mean", "updown", "mixmeanupdown", "leastsign", "twoleastsign")
_WINDOWED = ("mean", "mixmeanupdown")      # the algorithms that read window_k

BITS_PER_LINE = 80
_WRITE_LINES = 1 << 14     # lines per write in write_bits; bounds its memory


class InsufficientSamplesError(ValueError):
    """The trace is too short for the requested algorithm."""


def as_bit_array(bits: Sequence[int] | np.ndarray) -> np.ndarray:
    """Coerce to a uint8 array of 0/1 values, rejecting anything else."""
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ValueError("bit sequence must be one-dimensional")
    as_is = arr.dtype == np.uint8       # a checked uint8 array is returned, not copied
    if not (arr.max(initial=0) <= 1 if as_is else ((arr == 0) | (arr == 1)).all()):
        raise ValueError("bit sequence may contain only 0 and 1")
    return arr if as_is else arr.astype(np.uint8)


@dataclass(frozen=True)
class ExtractorConfig:
    algorithm: str
    window_k: int = 64          # mean window size; the paper-side choice is free
    apply_vn: bool = True

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        object.__setattr__(self, "window_k", _as_int(self.window_k))
        if self.algorithm not in _WINDOWED and self.window_k != ExtractorConfig.window_k:
            raise ValueError(f"window_k is not read by the {self.algorithm} algorithm")
        if self.window_k < 1:
            raise ValueError("window_k must be >= 1")


def von_neumann(raw: Sequence[int] | np.ndarray) -> np.ndarray:
    """Debias a bit stream pairwise: 10 -> 1, 01 -> 0, 00/11 dropped.

    A trailing unpaired bit is discarded. For each surviving pair the
    output bit equals the pair's first element.
    """
    bits = as_bit_array(raw)
    first = bits[0:bits.size - 1:2]
    return first.compress(first != bits[1::2])


def raw_leastsign(trace: SampleTrace) -> np.ndarray:
    """One raw bit per sample: the least significant bit."""
    return (trace.values & 1).astype(np.uint8)


def raw_twoleastsign(trace: SampleTrace) -> np.ndarray:
    """One raw bit per sample: XOR of the two least significant bits."""
    v = trace.values
    return ((v ^ (v >> 1)) & 1).astype(np.uint8)


def raw_updown(trace: SampleTrace) -> np.ndarray:
    """Compare each later sample against the first: 1 iff strictly greater."""
    if len(trace) < 2:
        raise InsufficientSamplesError("updown needs at least 2 samples")
    v = trace.values
    return (v[1:] > v[0]).astype(np.uint8)


def raw_mean(trace: SampleTrace, k: int) -> np.ndarray:
    """Window-mean comparison; floor((len - k) / 2) raw bits.

    A window of the k most recent values is seeded with the first k
    samples. Each step consumes two samples: the first replaces the
    oldest window entry, then the second is compared against
    ceil(window mean). Window sums are exact integer differences of
    cumulative sums, so the ceiling threshold is never subject to float
    rounding.
    """
    k = _as_int(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(trace) < k + 2:
        raise InsufficientSamplesError(f"mean with k={k} needs at least {k + 2} samples")
    v = trace.values
    sums = np.cumsum(np.concatenate((v[:k], v[k:-1:2])))
    ceil_means = -(-(sums[k:] - sums[:-k]) // k)
    return (v[k + 1::2] > ceil_means).astype(np.uint8)


def extract(trace: SampleTrace, cfg: ExtractorConfig) -> np.ndarray:
    """Run the configured algorithm, with the corrector unless disabled.

    mixmeanupdown splits the trace by alternation (even-indexed samples
    feed mean, odd-indexed feed updown) so recorded traces reproduce;
    each sub-stream is corrected, the streams are XORed up to the
    shorter length, and apply_vn controls the final correction pass.
    The mean half needs k + 2 samples, so the trace needs 2k + 3.
    """
    if cfg.algorithm == "mixmeanupdown":
        k = cfg.window_k
        if len(trace) < 2 * k + 3:
            raise InsufficientSamplesError(
                f"mixmeanupdown with k={k} needs at least {2 * k + 3} samples")
        mean_bits = von_neumann(raw_mean(SampleTrace(trace.values[0::2]), k))
        updown_bits = von_neumann(raw_updown(SampleTrace(trace.values[1::2])))
        n = min(mean_bits.size, updown_bits.size)
        mixed = mean_bits[:n] ^ updown_bits[:n]
        return von_neumann(mixed) if cfg.apply_vn else mixed

    if cfg.algorithm == "mean":
        raw = raw_mean(trace, cfg.window_k)
    elif cfg.algorithm == "updown":
        raw = raw_updown(trace)
    elif cfg.algorithm == "leastsign":
        raw = raw_leastsign(trace)
    else:
        raw = raw_twoleastsign(trace)
    return von_neumann(raw) if cfg.apply_vn else raw


def write_bits(bits: Sequence[int] | np.ndarray, path: str | PathLike) -> None:
    """Write a bit file: ASCII '0'/'1', 80 bits per line, each ending in a newline."""
    bits = as_bit_array(bits)           # before opening: a bad input leaves the file alone
    lines = bits[:bits.size - bits.size % BITS_PER_LINE].reshape(-1, BITS_PER_LINE)
    rows = np.full((min(len(lines), _WRITE_LINES), BITS_PER_LINE + 1), ord("\n"), np.uint8)
    with _open_output(path) as fh:
        for i in range(0, len(lines), _WRITE_LINES):     # the last may fill part of rows
            np.add(lines[i:i + _WRITE_LINES], ord("0"), out=rows[:len(lines) - i, :-1])
            fh.write(rows[:len(lines) - i])
        fh.write((bits[lines.size:] + ord("0")).tobytes() + b"\n" * (lines.size < bits.size))


def read_bits(path: str | PathLike) -> np.ndarray:
    """Read a bit file; whitespace (including newlines) is ignored."""
    # No name holds the file's bytes, so they are freed before the subtraction.
    bits = np.frombuffer(_read_input(path).replace(b"\n", b""), np.uint8) - ord("0")
    return bits if bits.max(initial=0) <= 1 else _text_bits(path, _read_input(path))


def _text_bits(path: str | PathLike, data: bytes) -> np.ndarray:
    """`read_bits` past its bytes check, where any byte but '0', '1', '\\n' wraps above 1.
    `_read_input` ends every line in '\\n', so lines count as `load_values` counts them."""
    text = data.decode("utf-8", "surrogateescape")
    digits = "".join(text.split())     # split() drops exactly what isspace() accepts
    rest = digits.translate(str.maketrans("", "", "01"))    # all but the bits
    if rest:
        ch = rest[0]                    # only bits and whitespace precede its first occurrence
        lineno = text.count("\n", 0, text.index(ch)) + 1
        what = "not UTF-8" if _undecodable(ch) else f"invalid character {ch!r}"
        raise InputFormatError(f"{path}: line {lineno}: {what}")
    return np.frombuffer(digits.encode("ascii"), dtype=np.uint8) - ord("0")
