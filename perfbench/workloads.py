"""The benchmark's workloads: generated inputs and the checked operations of one pass.

Each workload builds its inputs from the workload seed, writes them into
the run's working directory (the current directory while it runs) and
returns the list of operations that make up one pass. An operation is one
`randpipe` command run in-process through `randpipe.cli.main`, or for
`recover` one library call to the stream audit. The program receives only
files and argv; every expected output comes from `oracle`, never from
randpipe itself.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

BLOCK_LINES = oracle.FIPS_BITS // oracle.BITS_PER_LINE
SAMPLES_PER_BLOCK = oracle.FIPS_BITS // 10      # intbits: 10 bits per sample
CAPTURE_CHUNK = 50000
QUALIFY_SAMPLES = 10**6
QUALIFY_ALGOS = ("leastsign", "twoleastsign", "updown", "mean", "mixmeanupdown")
RECOVER_SAMPLES = 4000
RECOVER_JOBS = 100
RECOVER_K = 100
RECOVER_MAX_OFFSET = 1100      # why 1100: see recover()
EXHAUSTED_JOBS = (12, 37, 62, 87)      # job indices whose step budget runs out
EXHAUSTED_BUDGET = 50000               # below the 1024*k steps of the first phase
AUDIT_PREFIX = 3
AUDIT_HORIZON = 10**5


@dataclass
class Outcome:
    value: object               # exit code, or the return value of a library call
    stdout: str
    stderr: str
    start: float                # perf_counter() when the operation started
    seconds: float
    files: dict[str, str] = field(default_factory=dict)   # output path -> digest


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[Outcome], str | None]     # None when the outcome is right
    files: tuple[str, ...] = ()                 # outputs that enter the digest
    after: Callable[[Outcome], None] | None = None   # untimed follow-up work
    cli: bool = True
    key: Callable[[object], object] = lambda value: value   # a library result's digested form


@dataclass
class Workload:
    ops: list[Op]
    sizes: dict[str, int]       # capture sizes, recorded with every result
    seeded_inputs: bool = True  # False when the inputs do not depend on the seed


def _resolve(x):
    return x() if callable(x) else x


def cli_op(cli, label: str, command: str, rc, stdout=None, files=None,
           extra=None, after=None) -> Op:
    """A checked `randpipe <command>` operation.

    rc and stdout are the expected exit code and output; stdout, and the
    expected digest of each output file in `files`, may be callables
    evaluated at check time. A file expected as None enters only the
    recorded digest. `extra` adds a check of its own.
    """
    argv = shlex.split(command)
    files = files or {}

    def check(out: Outcome) -> str | None:
        if out.value != rc:
            return f"exit code {out.value}, expected {rc}: {out.stderr.strip()[:200]}"
        if stdout is not None and out.stdout != _resolve(stdout):
            return f"unexpected output {out.stdout[:120]!r}"
        for path, want in files.items():
            want = _resolve(want)
            if want is not None and out.files.get(path) != want:
                return f"{path} differs from the expected output"
        return extra(out) if extra else None

    return Op(label, lambda: cli.main(argv), check, tuple(files), after)


def _write_samples(path: str, values: np.ndarray, header: str, mark_every: int) -> None:
    """A sample file with a comment header and a blank and a comment line every mark_every values."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        for i in range(0, values.size, mark_every):
            if i:
                fh.write(f"\n# sample {i}\n")
            fh.write("\n".join(map(str, values[i:i + mark_every].tolist())))
            fh.write("\n")


def _capture(rng: np.random.Generator, n: int, sigma: float) -> np.ndarray:
    """Rounded normal readings around a random centre, as int16.

    The first reading is the centre itself, so the updown stream (every
    reading compared with the first) keeps the same size for every seed.
    The readings are drawn in chunks, which gives the same values as one
    draw, so that the float temporaries stay small.
    """
    center = int(rng.integers(300, 724))
    values = np.empty(n, dtype=np.int16)
    for i in range(0, n, CAPTURE_CHUNK):
        chunk = rng.normal(center, sigma, size=min(CAPTURE_CHUNK, n - i))
        values[i:i + chunk.size] = np.clip(np.rint(chunk), 0, 1023)
    values[0] = center
    return values


def _write_blocks(path: str, count: int) -> None:
    """Cut a bit file into `count` 20000-bit block files path.0, path.1, ...

    Reads one block at a time, so the benchmark's own memory stays small
    next to the program's.
    """
    size = BLOCK_LINES * (oracle.BITS_PER_LINE + 1)
    with open(path, "rb") as fh:
        for j in range(count):
            Path(f"{path}.{j}").write_bytes(fh.read(size))


# --- readme ---------------------------------------------------------------

def readme(cli, crack, rng: np.random.Generator) -> Workload:
    """The README's five steps, exactly as documented; the inputs ignore the seed."""
    memo: dict = {}

    def from_file(path: str, fn):
        data = Path(path).read_bytes()
        key = (fn, oracle.digest(data))
        if key not in memo:
            memo[key] = fn(oracle.parse_samples(data.decode()))
        return memo[key]

    def in_band(path: str, n: int, lo: int, hi: int):
        def band_error(v):
            if v.size != n or v.min() < lo or v.max() > hi:
                return f"{path}: {v.size} samples in [{v.min()}, {v.max()}], expected {n} in [{lo}, {hi}]"
            return None
        return lambda out: from_file(path, band_error)

    def stats_stdout(v):
        return f"samples: {v.size}\ndistinct: {np.unique(v).size}\nmin: {v.min()}\nmax: {v.max()}\n"

    def hist_digest(v):
        values, counts = np.unique(v, return_counts=True)
        rows = "".join(f"{a},{b}\n" for a, b in zip(values.tolist(), counts.tolist()))
        return oracle.digest(f"value,count\n{rows}".encode())

    def fips(v):
        return oracle.fips_report(oracle.int_bits(v))

    def parity(v):
        return oracle.extract(v, "twoleastsign")

    cap, wide = "capture.txt", "wide.txt"
    window = oracle.lcg_outputs(338, 40, 100)
    lcg_text = "".join(f"{x}\n" for x in oracle.lcg_outputs(338, 0, 140))

    def tail_to_observed(out: Outcome) -> None:
        Path("observed.txt").write_text("".join(f"{x}\n" for x in out.stdout.split()[-100:]))

    def crack_check(out: Outcome) -> str | None:
        return oracle.check_crack_stdout(out.stdout, window)

    ops = [
        cli_op(cli, "simulate-capture",
               "simulate --model band --center 338 --halfwidth 3 --n 2000 --seed 7 --out capture.txt",
               0, "", {cap: None}, extra=in_band(cap, 2000, 335, 341)),
        cli_op(cli, "stats", "stats --in capture.txt --hist-out capture_hist.csv", 0,
               lambda: from_file(cap, stats_stdout),
               {"capture_hist.csv": lambda: from_file(cap, hist_digest)}),
        cli_op(cli, "intbits", "intbits --in capture.txt --out raw_bits.txt", 0,
               "samples-in: 2000\nbits-out: 20000\n",
               {"raw_bits.txt": lambda: oracle.digest(oracle.bit_file(from_file(cap, oracle.int_bits)))}),
        cli_op(cli, "fipstest", "fipstest --in raw_bits.txt", 1,
               lambda: from_file(cap, fips)[1],
               extra=lambda out: None if from_file(cap, fips)[0] == 1 else "the oracle passes raw_bits.txt"),
        cli_op(cli, "simulate-wide",
               "simulate --model band --center 512 --halfwidth 40 --stickiness 0.7 "
               "--noise-width 2 --n 100000 --seed 1 --out wide.txt",
               0, "", {wide: None}, extra=in_band(wide, 100000, 472, 552)),
        cli_op(cli, "extract", "extract --in wide.txt --algo twoleastsign --out bits.txt --rate 10000",
               0, lambda: oracle.extract_stdout(100000, from_file(wide, parity).size, 10000.0),
               {"bits.txt": lambda: oracle.digest(oracle.bit_file(from_file(wide, parity)))}),
        cli_op(cli, "lcg", "lcg --seed 338 --count 140", 0, lcg_text, after=tail_to_observed),
        cli_op(cli, "crack", "crack --sequence observed.txt --samples capture.txt", 0,
               "seed=338 offset=40\n", extra=crack_check),
    ]
    return Workload(ops, {"capture": 2000, "wide": 100000}, seeded_inputs=False)


# --- qualify --------------------------------------------------------------

def qualify(cli, crack, rng: np.random.Generator) -> Workload:
    """The defender side at capture scale: every extractor, intbits, fipstest on every block."""
    values = _capture(rng, QUALIFY_SAMPLES, sigma=30)
    _write_samples("capture.txt", values, f"qualify capture, {values.size} samples", 50000)

    ops: list[Op] = []

    def add_output(label: str, command: str, out_path: str, file_digest: str,
                   reports: list[tuple[int, str]], stdout: str) -> None:
        ops.append(cli_op(cli, label, command, 0, stdout, {out_path: file_digest},
                          after=lambda out: _write_blocks(out_path, len(reports))))
        for j, (rc, report) in enumerate(reports):
            ops.append(cli_op(cli, f"fipstest {out_path}.{j}", f"fipstest --in {out_path}.{j}",
                              rc, report))

    def block_reports(bits: np.ndarray) -> list[tuple[int, str]]:
        return [oracle.fips_report(bits[j:j + oracle.FIPS_BITS])
                for j in range(0, bits.size - oracle.FIPS_BITS + 1, oracle.FIPS_BITS)]

    for algo in QUALIFY_ALGOS:
        bits = oracle.extract(values, algo)
        add_output(f"extract {algo}", f"extract --in capture.txt --algo {algo} --out {algo}.bits",
                   f"{algo}.bits", oracle.digest(oracle.bit_file(bits)), block_reports(bits),
                   oracle.extract_stdout(values.size, bits.size))
    # intbits writes ten times as many bits as there are samples; the
    # expected file is digested block by block (a block is whole lines) so
    # that the benchmark never holds it, or its 10x-wider temporaries.
    reports: list[tuple[int, str]] = []

    def int_bit_lines():
        for i in range(0, values.size, SAMPLES_PER_BLOCK):
            bits = oracle.int_bits(values[i:i + SAMPLES_PER_BLOCK])
            if bits.size == oracle.FIPS_BITS:
                reports.append(oracle.fips_report(bits))
            yield oracle.bit_file(bits)

    file_digest = oracle.digest_parts(int_bit_lines())
    add_output("intbits", "intbits --in capture.txt --out int.bits", "int.bits", file_digest, reports,
               f"samples-in: {values.size}\nbits-out: {values.size * 10}\n")
    return Workload(ops, {"capture": int(values.size)})


# --- recover --------------------------------------------------------------

def audit_key(found) -> list[list[tuple[int, int]]]:
    """The audit's result with each target's pairs sorted: their order is not documented."""
    return [sorted((int(seed), int(offset)) for seed, offset in pairs) for pairs in found]


def recover(cli, crack, rng: np.random.Generator) -> Workload:
    """The attacker side: crack jobs over offsets 0..1100, then one stream audit.

    Seeds are drawn by their frequency in the capture, one job in ten from
    values the capture never shows; odd jobs use --optimized. Offsets are
    stratified over 0..1100, so every seed gets the same mix of shallow
    and deep jobs. Search cost rises in steps, one step per round of the
    search; with 1100 rather than 1000 the median job sits inside a step,
    not on its edge, so the median latency does not jump between seeds.
    """
    values = _capture(rng, RECOVER_SAMPLES, sigma=20)
    _write_samples("capture.txt", values, f"recover capture, {values.size} samples", 2000)
    counts = np.bincount(values, minlength=1024)
    unobserved = np.flatnonzero(counts == 0)
    normal = [i for i in range(RECOVER_JOBS) if i not in EXHAUSTED_JOBS]

    ops: list[Op] = []
    targets, origins = [], []
    for i in range(RECOVER_JOBS):
        if i % 20 in (4, 15):
            seed = int(rng.choice(unobserved))
        else:
            seed = int(rng.choice(1024, p=counts / counts.sum()))
        if i in EXHAUSTED_JOBS:
            # A window no candidate produces at offset 0 cannot be found
            # within the first phase, so the search must exhaust its budget.
            offset = int(rng.integers(1, RECOVER_MAX_OFFSET + 1))
            while oracle.lcg_outputs(seed, offset - 1, 1)[0] < 1024:
                offset += 1
        else:
            rank = normal.index(i)
            offset = int((rank + rng.random()) * (RECOVER_MAX_OFFSET + 1) / len(normal))
        window = oracle.lcg_outputs(seed, offset, RECOVER_K)
        path = f"window{i:03d}.txt"
        Path(path).write_text(f"# job {i}\n" + "".join(f"{x}\n" for x in window))
        targets.append(window[:AUDIT_PREFIX])
        origins.append((seed, offset))

        command = f"crack --sequence {path} --samples capture.txt"
        if i % 2:
            command += " --optimized"
        if i in EXHAUSTED_JOBS:
            ops.append(cli_op(cli, f"crack {i}", f"{command} --max-steps {EXHAUSTED_BUDGET}", 1, ""))
        else:
            ops.append(cli_op(cli, f"crack {i}", command, 0,
                              extra=lambda out, w=window: oracle.check_crack_stdout(out.stdout, w)))

    def audit_check(out: Outcome) -> str | None:
        found = out.value
        if not isinstance(found, list) or len(found) != len(targets):
            return "audit returned no list per target"
        for t, origin, pairs in zip(targets, origins, found):
            if origin not in pairs:
                return f"audit misses {origin} for target {t}"
            for seed, offset in pairs:
                if offset + len(t) > AUDIT_HORIZON or oracle.lcg_outputs(seed, offset, len(t)) != t:
                    return f"audit pair {(seed, offset)} does not produce {t}"
        return None

    ops.append(Op("audit", lambda: crack.audit_candidate_streams(targets, horizon=AUDIT_HORIZON),
                  audit_check, cli=False, key=audit_key))
    return Workload(ops, {"capture": int(values.size), "jobs": RECOVER_JOBS, "k": RECOVER_K})


WORKLOADS = {"readme": readme, "qualify": qualify, "recover": recover}
