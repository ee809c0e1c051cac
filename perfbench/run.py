"""randpipe benchmark: closed-loop CLI workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {readme,qualify,recover} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. One process, one thread: each operation is
one `randpipe` command called in-process through `randpipe.cli.main`, and
the next starts when it returns. Passes over the workload's operations
repeat until the next pass would end after --seconds. Every operation's
exit code and outputs are checked; the last line of stdout is one JSON
object {correct, attempted, failed, metrics}. With --trace 0 the metrics
are the end-to-end ones. With --trace 1 every other operation is traced,
alternating between passes, and the metrics are the per-layer ones per
pass, plus the tracing overhead. Times are scaled to a reference machine
speed measured by speed.py during the run. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One thread: numpy's BLAS pool is idle in randpipe but starts a thread per
# core at import, which made a fresh import take anywhere from 0.10 to
# 0.23 s on a loaded 2-vCPU machine. Set before numpy is imported, here
# and in the interpreters that setup_s starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle
from speed import SpeedProbe
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, Outcome

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 1
SETUP_IMPORTS = 11

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_s", "s"),
    ("cmd_p50_ms", "ms"),
    ("cmd_p90_ms", "ms"),
    ("cmds_per_s", "1/s"),
)

LAYER_KEYS = (("busy_s", "s"), ("self_s", "s"), ("calls", "count"), ("failures", "count"))
FUNCTION_METRICS = (
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"), ("cli.build_parser.busy_s", "s"),
    ("samples.load_trace.busy_s", "s"), ("samples.load_trace.lines", "count"),
    ("samples.save_trace.busy_s", "s"), ("samples.synth_trace.busy_s", "s"),
    ("samples.trace_stats.busy_s", "s"),
    ("extract.extract.self_s", "s"), ("extract.raw_mean.busy_s", "s"),
    ("extract.von_neumann.busy_s", "s"), ("extract.von_neumann.keep_ratio", "ratio"),
    ("extract.write_bits.busy_s", "s"), ("extract.write_bits.bits", "count"),
    ("extract.read_bits.busy_s", "s"), ("extract.read_bits.bits", "count"),
    ("fips.fips_suite.busy_s", "s"), ("fips.fips_suite.calls", "count"),
    ("fips.fips_suite.pass_ratio", "ratio"), ("fips.ints_to_bits.busy_s", "s"),
    ("fips.format_report.busy_s", "s"),
    ("avrprng.stream.busy_s", "s"), ("avrprng.stream.outputs", "count"),
    ("crack.build_prob_dist.busy_s", "s"), ("crack.find_seed.busy_s", "s"),
    ("crack.find_seed_opt.busy_s", "s"), ("crack.verify_seed.busy_s", "s"),
    ("crack.audit_candidate_streams.busy_s", "s"),
    ("crack.total_steps", "count"), ("crack.steps_per_s", "1/s"),
    ("crack.useful_step_ratio", "ratio"),
)
TRACE_METRICS = (
    ("trace.untraced_pass_s", "s"), ("trace.traced_pass_s", "s"),
    ("trace.overhead_ratio", "ratio"), ("trace.self_sum_s", "s"),
)


def per_layer_names() -> list[tuple[str, str]]:
    layer = [(f"{name}.{key}", unit) for name in LAYERS for key, unit in LAYER_KEYS]
    return layer + list(FUNCTION_METRICS) + list(TRACE_METRICS)


def run_op(op, digests: dict) -> tuple[Outcome, str | None]:
    """Run one operation and record its digest; the error is None when it is right."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            value = op.run()
        except SystemExit as exc:
            value = exc.code
        except Exception:
            value = None
            err.write(traceback.format_exc())
        seconds = perf_counter() - t0
    outcome = Outcome(value, out.getvalue(), err.getvalue(), t0, seconds)
    for path in op.files:
        with contextlib.suppress(OSError):
            outcome.files[path] = oracle.digest(Path(path).read_bytes())
    try:
        error = op.check(outcome)
    except Exception as exc:          # a check that cannot read its input fails the op
        error = f"check raised {exc!r}"
    if op.after is not None:
        try:
            op.after(outcome)
        except OSError as exc:
            error = error or f"cannot use its output: {exc}"
    if op.cli:
        parts = [str(value), outcome.stdout, outcome.stderr] + [outcome.files.get(p, "-") for p in op.files]
    else:
        try:
            parts = [repr(op.key(value))]
        except Exception:             # a malformed result has failed its check already
            parts = [repr(value)]
    digests[op.label] = oracle.digest("\x00".join(parts).encode())
    return outcome, error


@dataclass
class Pass:
    """One pass over a workload's operations."""

    op_start: list[float] = field(default_factory=list)    # per operation, in order
    op_seconds: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)       # per operation
    errors: list[str] = field(default_factory=list)        # one per failed operation


def run_pass(ops, digests: dict, recorded: dict | None = None,
             tracer: Tracer | None = None, parity: int = 0,
             probe: SpeedProbe | None = None) -> Pass:
    """Run and check every operation once, in order.

    With a tracer, every other operation is traced, starting at the
    second one when parity is 0 and at the first when it is 1; two passes
    of opposite parity trace each operation once. An operation fails when
    its check fails or, given recorded digests, when its output digest
    differs from the recorded one. The speed probe, if any, runs between
    operations.
    """
    result = Pass()
    for i, op in enumerate(ops):
        if probe is not None:
            probe.between_operations()
        traced = tracer is not None and (i + parity) % 2 == 1
        with tracer if traced else contextlib.nullcontext():
            outcome, error = run_op(op, digests)
        if error is None and recorded is not None and digests[op.label] != recorded.get(op.label):
            error = "output digest differs from the recorded one"
        if error is not None:
            result.errors.append(f"{op.label}: {error}")
        result.op_start.append(outcome.start)
        result.op_seconds.append(outcome.seconds)
        result.traced.append(traced)
    return result


def setup_seconds(probe: SpeedProbe) -> tuple[float, float]:
    """Median time to import randpipe.cli in a fresh interpreter, after one warm-up.

    Returns the median unscaled and the median scaled to the reference
    machine; the probe runs before and after each import.
    """
    code = "import time; t = time.perf_counter(); import randpipe.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, scaled_times = [], []
    for i in range(SETUP_IMPORTS + 1):
        probe.measure()
        start = perf_counter()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True, timeout=60)
        end = perf_counter()
        probe.measure()
        if i:
            seconds = float(done.stdout.strip().splitlines()[-1])
            raw.append(seconds)
            scaled_times.append(seconds * probe.factor(start, end))
    return statistics.median(raw), statistics.median(scaled_times)


def environment(args, sizes: dict, passes: int) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "workload": args.workload, "seed": args.seed,
            "capture_sizes": sizes, "seconds": args.seconds, "trace": args.trace,
            "passes": passes}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"store this run's output digests as the reference (seed {DEFAULT_SEED} only)")
    args = parser.parse_args(argv)

    if not (SRC / "randpipe" / "cli.py").is_file():
        print(f"error: no randpipe sources under {SRC}; run from a randpipe checkout",
              file=sys.stderr)
        return 2
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error(f"--record-digests needs --seed {DEFAULT_SEED}")
    sys.path.insert(0, str(SRC))
    import randpipe
    import randpipe.cli
    import randpipe.crack
    if Path(randpipe.__file__).resolve().parent != SRC / "randpipe":
        print(f"error: imported randpipe from {randpipe.__file__}, not {SRC}", file=sys.stderr)
        return 2
    probe = SpeedProbe()
    setup_s, setup_scaled = (None, None) if args.trace else setup_seconds(probe)

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    home = Path.cwd()
    os.chdir(workdir)
    try:
        workload = WORKLOADS[args.workload](randpipe.cli, randpipe.crack,
                                            np.random.default_rng(args.seed))
        harness_rss_mb = peak_rss_mb()     # the benchmark's own peak, before the program runs
        recorded = json.loads(DIGESTS.read_text()).get(args.workload) if DIGESTS.is_file() else None
        check_digests = (recorded is not None and not args.record_digests
                         and (args.seed == DEFAULT_SEED or not workload.seeded_inputs))
        tracer = Tracer() if args.trace else None

        # A traced run goes in pairs of passes, so that each operation is
        # traced as often as it runs untraced.
        passes: list[Pass] = []
        digests: dict[str, str] = {}
        start = perf_counter()
        while True:
            unit_start = perf_counter()
            for parity in range(2 if tracer else 1):
                passes.append(run_pass(workload.ops, digests,
                                       recorded if check_digests else None, tracer, parity,
                                       probe))
            if perf_counter() - start + perf_counter() - unit_start > args.seconds:
                break
        probe.measure()

        if args.record_digests:
            table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
            table[args.workload] = digests
            DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")

        if tracer is None:
            is_cli = [op.cli for op in workload.ops]
            raw = end_to_end(passes, is_cli, setup_s)
            metrics = end_to_end(passes, is_cli, setup_scaled, probe)
        else:
            raw = per_layer(passes, tracer)
            metrics = scaled(raw, probe.run_factor())
        env = environment(args, workload.sizes, len(passes))
        env.update(probe_s=statistics.median(probe.times), probes=len(probe.times),
                   harness_rss_mb=harness_rss_mb,
                   unscaled={name: m["value"] for name, m in raw.items()})
        if tracer is not None:
            trace_file = WORK / f"trace-{args.workload}-{args.seed}.json"
            trace_file.write_text(json.dumps({"env": env, "metrics": metrics,
                                              "spans": tracer.spans()}))
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)

    errors = [e for p in passes for e in p.errors]
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": not errors, "attempted": sum(len(p.op_seconds) for p in passes),
                      "failed": len(errors), "metrics": metrics}))
    return 0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def scaled(metrics: dict, factor: float) -> dict:
    """Times (s, ms) multiplied by the speed factor, rates (1/s) divided by it."""
    per_unit = {"s": factor, "ms": factor, "1/s": 1 / factor}
    return {name: {"value": m["value"] * per_unit.get(m["unit"], 1.0), "unit": m["unit"]}
            for name, m in metrics.items()}


def end_to_end(passes: list[Pass], is_cli: list[bool], setup_s: float,
               probe: SpeedProbe | None = None) -> dict:
    """End-to-end metrics of the untraced passes.

    Every metric is computed from each operation's typical time: its
    median across the passes, so a slow spell of the machine during one
    pass counts once, not in full. Given the speed probe, each time is
    first scaled to the reference machine.
    """
    def scale(start, seconds):
        return seconds * probe.factor(start, start + seconds) if probe else seconds

    times = zip(*([scale(a, t) for a, t in zip(p.op_start, p.op_seconds)] for p in passes))
    typical = [statistics.median(op_times) for op_times in times]
    commands = [t for t, cli in zip(typical, is_cli) if cli]
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "pass_s": sum(typical),
        "cmd_p50_ms": statistics.median(commands) * 1e3,
        "cmd_p90_ms": statistics.quantiles(commands, n=10, method="inclusive")[8] * 1e3,
        "cmds_per_s": len(commands) / sum(commands),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(passes: list[Pass], tracer: Tracer) -> dict:
    """Per-layer metrics per pass, and the tracing overhead.

    Each operation ran traced in half of the passes, so sums over the
    traced operations are divided by half the number of passes.
    """
    n = len(passes) / 2
    traced = sum(t for p in passes for t, tr in zip(p.op_seconds, p.traced) if tr) / n
    untraced = sum(t for p in passes for t, tr in zip(p.op_seconds, p.traced) if not tr) / n
    s = tracer.summary()
    c = tracer.counters
    lines = 0
    for path, calls in tracer.load_paths.items():
        with contextlib.suppress(OSError):
            lines += calls * Path(path).read_bytes().count(b"\n")
    crack_s = s.get("crack.find_seed.busy_s", 0.0) + s.get("crack.find_seed_opt.busy_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    totals = dict(s, **{
        "samples.load_trace.lines": lines,
        "extract.write_bits.bits": c["extract.write_bits.bits"],
        "extract.read_bits.bits": c["extract.read_bits.bits"],
        "avrprng.stream.outputs": c["avrprng.stream.outputs"],
        "crack.total_steps": c["crack.total_steps"],
        "trace.self_sum_s": sum(v for k, v in s.items()
                                if k.count(".") == 1 and k.endswith(".self_s")),
    })
    # Ratios and the pass times are final; the totals are divided by n.
    final = {
        "extract.von_neumann.keep_ratio": ratio(c["extract.von_neumann.kept"], c["extract.von_neumann.pairs"]),
        "fips.fips_suite.pass_ratio": ratio(c["fips.fips_suite.passed"], s.get("fips.fips_suite.calls", 0)),
        "crack.steps_per_s": ratio(c["crack.total_steps"], crack_s),
        "crack.useful_step_ratio": ratio(c["crack.useful_steps"], c["crack.total_steps"]),
        "trace.untraced_pass_s": untraced,
        "trace.traced_pass_s": traced,
        "trace.overhead_ratio": traced / untraced - 1,
    }
    return {name: {"value": final[name] if name in final else totals.get(name, 0) / n,
                   "unit": unit}
            for name, unit in per_layer_names()}


if __name__ == "__main__":
    sys.exit(main())
