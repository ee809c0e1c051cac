"""Command line front end.

Subcommands: simulate, extract, fipstest, intbits, lcg, crack, stats.
Exit codes are uniform: 0 success / test passed, 1 domain failure
(test rejected, seed not found, insufficient data, write failure) or
stdout closed by its reader (as under `| head`), 2 usage or input format
error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from datetime import datetime, timezone

from . import avrprng, crack, extract, fips, samples


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


# The places each float field prints to; _emit refuses a float whose key is not here.
_PLACES = {"yield-ratio": 6, "estimated-bps": 2, "x1": 4, "x3": 4, "x4": 4}


def _emit(fields: dict) -> None:
    """Write fields in order as `key: value` lines, in one write. A bool prints as PASS or
    FAIL, a float to its `_PLACES`, and a dict as space-separated `k=v` pairs."""
    lines = []
    for key, v in fields.items():
        if type(v) is float:
            v = f"{v:.{_PLACES[key]}f}"
        elif type(v) is dict:
            v = " ".join([f"{k}={x}" for k, x in v.items()])
        lines.append(f"{key}: {'PASS' if v is True else 'FAIL' if v is False else v}\n")
    sys.stdout.write("".join(lines))


_LCG_CHUNK = 1 << 16      # outputs per stream call in lcg; bounds its memory


def cmd_simulate(args: argparse.Namespace) -> int:
    replay_values = None
    if args.replay_file:
        replay_values = tuple(samples.load_trace(args.replay_file).values.tolist())
    model = samples.SynthModel(
        kind=args.model, rng_seed=args.seed, replay_values=replay_values,
        **{name: getattr(args, name) for name in samples.MODEL_OPTIONS})
    trace = samples.synth_trace(model, args.n)
    header = None
    if args.stamp:
        header = (f"model={args.model} n={args.n} rng_seed={args.seed} "
                  f"generated={datetime.now(timezone.utc).isoformat()}")
    samples.save_trace(trace, args.out, header=header)
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    if args.rate is not None and not 0 < args.rate < math.inf:
        raise ValueError(f"--rate must be positive and finite, got {args.rate}")
    trace = samples.load_trace(args.infile)
    cfg = extract.ExtractorConfig(
        algorithm=args.algo, window_k=args.k, apply_vn=not args.no_vn
    )
    if len(trace) == 0:
        raise extract.InsufficientSamplesError(f"{args.infile}: no samples")
    bits = extract.extract(trace, cfg)
    extract.write_bits(bits, args.out)
    ratio = bits.size / len(trace)
    fields = {"samples-in": len(trace), "bits-out": bits.size, "yield-ratio": ratio}
    if args.rate is not None:
        fields["estimated-bps"] = ratio * args.rate
    _emit(fields)
    return 0


def cmd_fipstest(args: argparse.Namespace) -> int:
    bits = extract.read_bits(args.infile)
    if bits.size != fips.REQUIRED_LENGTH:
        raise ValueError(
            f"{args.infile}: {bits.size} bits; need exactly {fips.REQUIRED_LENGTH}")
    report = fips.fips_suite(bits)
    _emit(fips.format_report(report))
    return 0 if report.overall else 1


def cmd_intbits(args: argparse.Namespace) -> int:
    trace = samples.load_trace(args.infile)
    bits = fips.ints_to_bits(trace)
    extract.write_bits(bits, args.out)
    _emit({"samples-in": len(trace), "bits-out": bits.size})
    return 0


def cmd_lcg(args: argparse.Namespace) -> int:
    # One write per line, not one for all: under `python -u` a single large
    # write to a pipe its reader closes ends partway with no error. Each chunk
    # goes on from the last output x of the one before, as srandom(x) == x.
    seed, left = args.seed, args.count
    while chunk := avrprng.stream(seed, min(left, _LCG_CHUNK)):
        sys.stdout.writelines(f"{v}\n" for v in chunk)
        seed, left = chunk[-1], left - len(chunk)
    return 0


def cmd_crack(args: argparse.Namespace) -> int:
    if args.t is not None and not args.optimized:
        raise ValueError("--t needs --optimized")
    # Python ints: find_seed and verify_seed each check every value.
    seq = samples.load_values(args.sequence, 1, avrprng.MODULUS - 1).tolist()
    trace = samples.load_trace(args.samples)
    t = (crack.CrackConfig.t if args.t is None else args.t) if args.optimized else 1
    cfg = crack.CrackConfig(m=args.m, t=t, max_total_steps=args.max_steps)
    if not seq:
        raise ValueError(f"{args.sequence}: no observed values")
    result = crack.find_seed(seq, cfg, trace)
    if args.stats:
        _emit({"stats": {"total-steps": result.total_steps}})
    if result.seed is None:
        _err(f"seed not found within {cfg.max_total_steps} steps")
        return 1
    if not crack.verify_seed(result.seed, seq, result.offset):
        _err(f"candidate seed {result.seed} failed verification")
        return 1
    print(f"seed={result.seed} offset={result.offset}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    trace = samples.load_trace(args.infile)
    if len(trace) == 0:
        raise extract.InsufficientSamplesError(f"{args.infile}: no samples")
    st = samples.trace_stats(trace)
    seen = st.counts.nonzero()[0]
    with samples._open_output(args.out) as fh:
        fh.write(("value,count\n" + "".join(
            f"{v},{c}\n" for v, c in zip(seen.tolist(), st.counts[seen].tolist()))).encode())
    _emit({"samples": st.total, "distinct": st.distinct, "min": st.min_value, "max": st.max_value})
    return 0


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The whole parser, and each subcommand's own parser by name. They are built
    once and shared for the life of the process: do not add to them."""
    parser = argparse.ArgumentParser(
        prog="randpipe",
        description="Sample-stream randomness toolkit: simulate traces, extract "
                    "bits, run FIPS-140-1 tests, and recover LCG seeds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic sample trace")
    p.add_argument("--model", required=True, choices=samples.SYNTH_KINDS)
    p.add_argument("--n", required=True, type=int, help="number of samples")
    p.add_argument("--seed", type=int, default=samples.SynthModel.rng_seed,
                   help="model RNG seed")
    p.add_argument("--out", required=True, help="output sample file")
    for name in samples.MODEL_OPTIONS:
        default = getattr(samples.SynthModel, name)
        p.add_argument(f"--{name.replace('_', '-')}", type=type(default), default=default)
    p.add_argument("--replay-file", help="sample file to cycle (replay model)")
    p.add_argument("--stamp", action="store_true",
                   help="include a metadata comment with a timestamp")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("extract", help="extract a bit stream from a sample file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--algo", required=True, choices=extract.ALGORITHMS)
    p.add_argument("--k", type=int, default=extract.ExtractorConfig.window_k,
                   help="mean window size")
    p.add_argument("--no-vn", action="store_true",
                   help="skip the von Neumann corrector")
    p.add_argument("--out", required=True, help="output bit file")
    p.add_argument("--rate", type=float,
                   help="sample rate in Hz for the bps estimate")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("fipstest", help="run the FIPS-140-1 tests on a bit file")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_fipstest)

    p = sub.add_parser("intbits", help="expand 10-bit samples into bits, MSB first")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_intbits)

    p = sub.add_parser("lcg", help="emit avr-libc generator outputs")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--count", required=True, type=int)
    p.set_defaults(func=cmd_lcg)

    p = sub.add_parser("crack", help="recover the seed behind an output sequence")
    p.add_argument("--sequence", required=True,
                   help="observed outputs, one decimal per line")
    p.add_argument("--samples", required=True,
                   help="sample trace for the candidate frequency ranking")
    p.add_argument("--m", type=int, default=crack.CrackConfig.m,
                   help="step budget per candidate per visit")
    p.add_argument("--t", type=int, help="weight for observed candidates (needs --optimized)")
    p.add_argument("--optimized", action="store_true",
                   help="spend t times more steps on observed candidates")
    p.add_argument("--max-steps", type=int, default=crack.CrackConfig.max_total_steps)
    p.add_argument("--stats", action="store_true", help="print step counters")
    p.set_defaults(func=cmd_crack)

    p = sub.add_parser("stats", help="histogram summary of a sample file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--hist-out", dest="out", metavar="HIST_OUT", required=True,
                   help="output CSV (value,count)")
    p.set_defaults(func=cmd_stats)

    return parser, sub.choices


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace of `_parsers()[0].parse_args(argv)`; see `main`."""
    parser, commands = _parsers()
    if argv and argv[0] in commands:
        args, rest = commands[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; map its errors to exit codes and stderr lines.

    The named subcommand's own parser parses argv (sys.argv[1:] if None); the
    whole parser runs only if argv names none or arguments are left over.

    Reads turn OSError into a format error, so an OSError that reaches
    here comes from writing: to the output file, as `samples._open_output` marks it,
    or else to stdout. A stdout pipe whose reader has gone exits 1 without
    a message, as a reader that stops early is not an error to report.
    """
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        rc = args.func(args)
        sys.stdout.flush()
        return rc
    except extract.InsufficientSamplesError as exc:
        _err(str(exc))
        return 1
    except ValueError as exc:
        _err(str(exc))
        return 2
    except BrokenPipeError:
        # With stdout on devnull, Python's own flush at exit cannot fail.
        null = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(null, sys.stdout.fileno())
        finally:
            os.close(null)
        return 1
    except OSError as exc:
        _err(f"cannot write {getattr(exc, 'out_file', '<stdout>')}: {exc}")
        return 1
