"""Reference computations that the benchmark checks randpipe's outputs against.

Everything here is written from the file formats and definitions that
randpipe documents, not from its source, so a wrong fast path in the
program cannot agree with the check by sharing code with it. The FIPS
bounds are randpipe's documented ones (run length 4 may occur 223..403
times, a run of 34 still passes), which its own tests fix.
"""

from __future__ import annotations

import hashlib

import numpy as np

MODULUS = 2**31 - 1
MULTIPLIER = 16807

FIPS_BITS = 20000
BITS_PER_LINE = 80
RUN_BOUNDS = ((2267, 2733), (1079, 1421), (502, 748), (223, 403), (90, 223), (90, 223))


def digest(data: bytes) -> str:
    return digest_parts([data])


def digest_parts(parts) -> str:
    """The digest of the concatenated byte strings, without building the concatenation."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()[:32]


# --- sample and bit files -------------------------------------------------

def parse_samples(text: str) -> np.ndarray:
    """Values of a sample file: one decimal per line, '#' and blank lines skipped."""
    vals = [int(t) for t in (line.strip() for line in text.splitlines())
            if t and not t.startswith("#")]
    return np.array(vals, dtype=np.int64)


def bit_file(bits: np.ndarray) -> bytes:
    """The bytes of a bit file: ASCII 0/1, 80 per line, each line newline-ended."""
    chars = (np.asarray(bits, dtype=np.uint8) + ord("0")).tobytes()
    if not chars:
        return b""
    lines = [chars[i:i + BITS_PER_LINE] for i in range(0, len(chars), BITS_PER_LINE)]
    return b"\n".join(lines) + b"\n"


# --- extraction -----------------------------------------------------------

def von_neumann(bits: np.ndarray) -> np.ndarray:
    pairs = bits[: bits.size // 2 * 2].reshape(-1, 2)
    return pairs[pairs[:, 0] != pairs[:, 1], 0]


def _raw_mean(v: np.ndarray, k: int) -> np.ndarray:
    # The window holds the last k of v[:k] followed by v[k], v[k+2], ...;
    # raw bit j compares v[k+2j+1] with the ceiling of that window's mean.
    count = (v.size - k) // 2
    fed = np.concatenate((v[:k], v[k:k + 2 * count:2]))
    csum = np.zeros(fed.size + 1, dtype=np.int64)
    np.cumsum(fed, out=csum[1:])
    sums = csum[k + 1:k + 1 + count] - csum[1:1 + count]
    sums += k - 1               # in place: sums are never negative, so this is the ceiling
    sums //= k
    return (v[k + 1:k + 2 * count:2] > sums).astype(np.uint8)


def raw_bits(v: np.ndarray, algo: str, k: int) -> np.ndarray:
    if algo == "leastsign":
        return (v & 1).astype(np.uint8)
    if algo == "twoleastsign":
        return ((v ^ (v >> 1)) & 1).astype(np.uint8)
    if algo == "updown":
        return (v[1:] > v[0]).astype(np.uint8)
    if algo == "mean":
        return _raw_mean(v, k)
    raise ValueError(f"no raw stream for {algo!r}")


def extract(v: np.ndarray, algo: str, k: int = 64) -> np.ndarray:
    """Corrected output bits of `randpipe extract --algo <algo>`."""
    if algo == "mixmeanupdown":
        mean_bits = von_neumann(_raw_mean(v[0::2], k))
        updown_bits = von_neumann(raw_bits(v[1::2], "updown", k))
        n = min(mean_bits.size, updown_bits.size)
        return von_neumann(mean_bits[:n] ^ updown_bits[:n])
    return von_neumann(raw_bits(v, algo, k))


def extract_stdout(n_samples: int, n_bits: int, rate: float | None = None) -> str:
    ratio = n_bits / n_samples
    text = f"samples-in: {n_samples}\nbits-out: {n_bits}\nyield-ratio: {ratio:.6f}\n"
    if rate is not None:
        text += f"estimated-bps: {ratio * rate:.2f}\n"
    return text


def int_bits(v: np.ndarray) -> np.ndarray:
    """Each 10-bit sample as 10 bits, most significant first."""
    shifts = np.arange(9, -1, -1, dtype=np.uint16)
    return ((v.astype(np.uint16)[:, None] >> shifts) & 1).astype(np.uint8).ravel()


# --- FIPS-140-1 -------------------------------------------------------------

def fips_report(bits: np.ndarray) -> tuple[int, str]:
    """(exit code, stdout) of `randpipe fipstest` on one 20000-bit block."""
    if bits.size != FIPS_BITS:
        raise ValueError(f"block has {bits.size} bits")
    b = bits.astype(np.int64)
    n1 = int(b.sum())
    n0 = FIPS_BITS - n1
    x1 = (n0 - n1) ** 2 / FIPS_BITS
    mono = 9654 < n1 < 10346

    hands = b.reshape(-1, 4) @ np.array([8, 4, 2, 1])
    counts = np.bincount(hands, minlength=16)
    x3 = (16 / hands.size) * float((counts * counts).sum()) - hands.size
    poker = 1.03 < x3 < 57.4

    edges = np.flatnonzero(np.diff(b)) + 1
    starts = np.concatenate(([0], edges))
    lengths = np.diff(np.concatenate((starts, [FIPS_BITS])))
    capped = np.minimum(lengths, 6)
    blocks = np.bincount(capped[b[starts] == 1], minlength=7)[1:]
    gaps = np.bincount(capped[b[starts] == 0], minlength=7)[1:]
    runs_ok = all(lo <= blocks[i] <= hi and lo <= gaps[i] <= hi
                  for i, (lo, hi) in enumerate(RUN_BOUNDS))
    x4 = 0.0
    for i in range(1, 7):
        e = (FIPS_BITS - i + 3) / 2 ** (i + 2)
        x4 += (blocks[i - 1] - e) ** 2 / e + (gaps[i - 1] - e) ** 2 / e
    longest = int(lengths.max())
    long_ok = longest <= 34

    def verdict(ok: bool) -> str:
        return "PASS" if ok else "FAIL"

    overall = mono and poker and runs_ok and long_ok
    lines = [f"n0: {n0}", f"n1: {n1}", f"x1: {x1:.4f}", "monobit_df: 1",
             f"monobit: {verdict(mono)}", f"x3: {x3:.4f}", "poker_df: 15",
             f"poker: {verdict(poker)}"]
    lines += [f"block_{i}: {blocks[i - 1]}" for i in range(1, 7)]
    lines += [f"gap_{i}: {gaps[i - 1]}" for i in range(1, 7)]
    lines += [f"x4: {x4:.4f}", "runs_df: 16", f"runs: {verdict(runs_ok)}",
              f"longest_run: {longest}", f"long_runs: {verdict(long_ok)}",
              f"OVERALL: {verdict(overall)}"]
    return (0 if overall else 1), "\n".join(lines) + "\n"


# --- the generator and seed recovery ----------------------------------------

def lcg_outputs(seed: int, start: int, count: int) -> list[int]:
    """Outputs start+1 .. start+count of the generator seeded with `seed`."""
    x = max(seed % MODULUS, 1) * pow(MULTIPLIER, start, MODULUS) % MODULUS
    out = []
    for _ in range(count):
        x = x * MULTIPLIER % MODULUS
        out.append(x)
    return out


def check_crack_stdout(stdout: str, window: list[int]) -> str | None:
    """None when a printed `seed=S offset=C` regenerates the window, else why not.

    Any (seed, offset) that regenerates the window is a valid answer: the
    candidate streams are arcs of one cycle, so more than one may exist.
    """
    fields = dict(part.split("=", 1) for part in stdout.split() if "=" in part)
    try:
        seed, offset = int(fields["seed"]), int(fields["offset"])
    except (KeyError, ValueError):
        return f"no seed=/offset= answer in {stdout!r}"
    if not 0 <= seed <= 1023 or offset < 0:
        return f"answer out of range: seed={seed} offset={offset}"
    if lcg_outputs(seed, offset, len(window)) != window:
        return f"seed={seed} offset={offset} does not regenerate the window"
    return None
