"""Acceptance criteria, one test per criterion.

Each test prints one `[ACCEPTANCE] criterion N (...): PASS|FAIL` line
(visible with `pytest -s` or on failure). Expensive fixtures are shared.
"""

import functools
import random as pyrandom
import time

import numpy as np

from randpipe.avrprng import stream
from randpipe.cli import main as cli_main
from randpipe.crack import (
    CrackConfig,
    audit_candidate_streams,
    find_seed,
    verify_seed,
)
from randpipe.extract import raw_twoleastsign, von_neumann
from randpipe.fips import fips_suite, ints_to_bits
from randpipe.samples import SynthModel, synth_trace

from test_fips import crypto_bits, naive_scan, naive_x3, naive_x4

def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"[ACCEPTANCE] criterion {num} ({name}): {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_1_lcg_exactness():
    # Expected values frozen from an independent wide-integer modular
    # multiplication oracle evaluated before the build:
    #   16807^2 mod (2^31 - 1) = 282475249
    #   16807^3 mod (2^31 - 1) = 1622650073
    expected = [16807, 282475249, 1622650073]
    stream(1, 3)                       # warm-up
    t0 = time.perf_counter()
    got = stream(1, 3)
    elapsed = time.perf_counter() - t0
    report(1, "LCG exactness", got == expected and elapsed < 1e-3,
           f"stream(1,3)={got}, {elapsed * 1e6:.0f}us")


def test_criterion_2_fips_deterministic_fixtures():
    zeros = np.zeros(20000, dtype=np.uint8)
    alt = np.tile([0, 1], 10000).astype(np.uint8)

    z = fips_suite(zeros)
    ok = (z.monobit, z.poker, z.runs, z.long_runs) == (False, False, False, False)
    ok &= abs(z.x1 - 20000.0) < 1e-9
    ok &= abs(z.x3 - 75000.0) < 1e-9

    a = fips_suite(alt)
    ok &= a.monobit and a.long_runs
    ok &= not a.poker and not a.runs
    ok &= abs(a.x3 - 75000.0) < 1e-9
    ok &= a.x1 == 0.0 and a.longest_run == 1
    report(2, "FIPS deterministic fixtures", ok,
           f"zeros x3={z.x3}, alternating x3={a.x3}")


def test_criterion_3_fips_calibration():
    t0 = time.perf_counter()
    passes = sum(
        fips_suite(crypto_bits(f"calibration-{i}", 20000)).overall
        for i in range(100)
    )
    elapsed = time.perf_counter() - t0
    report(3, "FIPS calibration", passes >= 95 and elapsed < 10.0,
           f"{passes}/100 passed in {elapsed:.1f}s")


def test_criterion_4_brute_force_equivalence():
    rng = np.random.default_rng(20260401)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        bits = rng.integers(0, 2, 20000, dtype=np.int64).astype(np.uint8)
        n1, pcounts, blocks, gaps, longest, _ = naive_scan(bits.tolist())

        r = fips_suite(bits)

        same = (
            r.n1 == n1
            and abs(r.x1 - (20000 - 2 * n1) ** 2 / 20000) < 1e-9
            and r.poker_counts == tuple(pcounts)
            and abs(r.x3 - naive_x3(pcounts)) < 1e-9
            and r.block_counts == tuple(blocks)
            and r.gap_counts == tuple(gaps)
            and abs(r.x4 - naive_x4(blocks, gaps)) < 1e-9
            and r.longest_run == longest
        )
        mismatches += not same
    elapsed = time.perf_counter() - t0
    report(4, "brute-force equivalence", mismatches == 0 and elapsed < 60.0,
           f"{mismatches} mismatches over 1000 strings in {elapsed:.1f}s")


def test_criterion_5_von_neumann_debiasing():
    t0 = time.perf_counter()
    ok = True
    details = []
    for p in (0.3, 0.5, 0.7, 0.9):
        rng = np.random.default_rng(int(p * 1000))
        raw = (rng.random(100_000) < p).astype(np.uint8)
        out = von_neumann(raw)
        frac = float(out.mean())
        ratio = out.size / raw.size
        ok &= abs(frac - 0.5) < 0.01
        ok &= abs(ratio - p * (1 - p)) < 0.02
        details.append(f"p={p}: frac={frac:.4f} ratio={ratio:.4f}")
    elapsed = time.perf_counter() - t0
    report(5, "von Neumann debiasing", ok and elapsed < 5.0,
           "; ".join(details))


# ----- criteria 6 and 7 share one frozen set of recovery fixtures -----

RECOVERY_MODEL = SynthModel(kind="band", center=512, halfwidth=40,
                            stickiness=0.7, noise_width=2, rng_seed=99)
RECOVERY_TRIALS = 100
K = 100


@functools.lru_cache(maxsize=1)
def recovery_fixtures():
    """(true_seed, d, observed window) per trial, plus the trace that ranks the seeds."""
    trace = synth_trace(RECOVERY_MODEL, 4000)
    values = trace.values.tolist()
    rng = pyrandom.Random(20260806)
    fixtures = []
    for _ in range(RECOVERY_TRIALS):
        d = rng.randint(1, 1000)
        g = rng.choice(values)
        s = stream(g, d + K)[d:]
        fixtures.append((g, d, tuple(s)))
    return fixtures, trace


def _run_recovery(cfg):
    fixtures, trace = recovery_fixtures()
    recovered = verified = 0
    t0 = time.perf_counter()
    for g, d, s in fixtures:
        result = find_seed(list(s), cfg, trace)
        if result.seed is None or not verify_seed(result.seed, list(s), result.offset):
            continue
        verified += 1
        if (result.seed, result.offset) == (g, d):
            recovered += 1
    mean_s = (time.perf_counter() - t0) / len(fixtures)
    return recovered, verified, mean_s


def test_criterion_6_seed_recovery():
    rec_p, ver_p, mean_p = _run_recovery(CrackConfig(m=100, t=1))
    rec_o, ver_o, mean_o = _run_recovery(CrackConfig(m=100, t=4))
    ok = (
        ver_p == RECOVERY_TRIALS and ver_o == RECOVERY_TRIALS
        and rec_p == RECOVERY_TRIALS and rec_o == RECOVERY_TRIALS
        and mean_p <= 10.0 and mean_o <= 10.0
    )
    report(6, "seed recovery", ok,
           f"t=1 {ver_p}/100 verified, {rec_p}/100 recovered ({mean_p:.2f}s/trial), "
           f"t=4 {ver_o}/100 verified, {rec_o}/100 recovered ({mean_o:.2f}s/trial)")


def test_criterion_7_stream_collision_audit():
    """Exhaustive check: the 3-value prefixes of criterion 6's target
    windows must occur nowhere among the first 10^6 outputs of the 1024
    candidate streams except at the generating (seed, offset).

    Seeds 0 and 1 share one stream (srandom maps 0 to state 1), so an
    occurrence at seed 1 is mirrored at seed 0; the generating seeds here
    all lie in [472, 552], which keeps that pair out of the picture.
    """
    horizon = 10**6
    fixtures, _ = recovery_fixtures()
    targets = [s[:3] for _, _, s in fixtures]
    t0 = time.perf_counter()
    occurrences = audit_candidate_streams(targets, horizon=horizon)
    elapsed = time.perf_counter() - t0

    collisions = []
    for i, (g, d, _) in enumerate(fixtures):
        for seed, off in occurrences[i]:
            if (seed, off) != (g, d):
                collisions.append((i, seed, off))

    detail = (f"{len(collisions)} duplicate occurrences across "
              f"{len(fixtures)} windows, audit took {elapsed:.0f}s")
    if collisions:
        i, seed, off = collisions[0]
        g, d, _ = fixtures[i]
        detail += (f"; e.g. window {i} (from seed {g} at offset {d}) also "
                   f"occurs in candidate {seed}'s stream at offset {off}. "
                   "All 2^31-2 nonzero states form a single multiplier "
                   "cycle, so candidate streams are arcs of one orbit and "
                   "any window reappears wherever another candidate's arc "
                   "covers its cycle position; with 1024 arcs of 10^6 "
                   "outputs about 48 such coverings are expected. Every "
                   "duplicate is a true continuation of the stream (it "
                   "passes verify_seed), so soundness is unaffected, but "
                   "zero duplicates within this horizon is unattainable.")
    report(7, "stream collision audit",
           len(collisions) == 0 and elapsed < 300.0, detail)


def test_criterion_8_analogread_rejection_pipeline(tmp_path):
    trace_file = tmp_path / "band.txt"
    bits_file = tmp_path / "band_bits.txt"
    rc_sim = cli_main(["simulate", "--model", "band", "--center", "338",
                       "--halfwidth", "3", "--stickiness", "0.9",
                       "--n", "2000", "--seed", "5", "--out", str(trace_file)])
    rc_bits = cli_main(["intbits", "--in", str(trace_file),
                        "--out", str(bits_file)])
    rc_fips = cli_main(["fipstest", "--in", str(bits_file)])
    ok = rc_sim == 0 and rc_bits == 0 and rc_fips == 1
    report(8, "analogRead rejection pipeline", ok,
           f"exit codes: simulate={rc_sim} intbits={rc_bits} fipstest={rc_fips}")


def test_criterion_9_extractor_behavioral_contrast():
    passes = 0
    raw_failures = 0
    for seed in (101, 102, 103):
        model = SynthModel(kind="band", center=512, halfwidth=40,
                           stickiness=0.7, noise_width=2, rng_seed=seed)
        trace = synth_trace(model, 100_000)
        corrected = von_neumann(raw_twoleastsign(trace))
        assert corrected.size >= 20000
        if fips_suite(corrected[:20000]).overall:
            passes += 1
        if not fips_suite(ints_to_bits(trace)[:20000]).overall:
            raw_failures += 1
    ok = passes >= 1 and raw_failures == 3
    report(9, "extractor behavioral contrast", ok,
           f"twoleastsign+vN passed {passes}/3, raw intbits failed {raw_failures}/3")
