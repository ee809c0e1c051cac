import dataclasses
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from randpipe import cli, crack, samples
from randpipe.avrprng import stream
from randpipe.cli import main
from randpipe.crack import CrackConfig, CrackResult
from randpipe.extract import ExtractorConfig, read_bits
from randpipe.samples import SampleTrace, SynthModel, load_trace, synth_trace

from test_fips import crypto_bits


def run(*argv):
    return main(list(argv))


def write_lines(path, values):
    path.write_text("".join(f"{v}\n" for v in values))


def stderr_of(capsys):
    """The stderr written so far, with stdout required to be empty."""
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def missing(path):
    return f"{path}: cannot read: [Errno 2] No such file or directory: '{path}'"


ZEROS_REPORT = """\
n0: 20000
n1: 0
x1: 20000.0000
monobit_df: 1
monobit: FAIL
x3: 75000.0000
poker_df: 15
poker: FAIL
block_1: 0
block_2: 0
block_3: 0
block_4: 0
block_5: 0
block_6: 0
gap_1: 0
gap_2: 0
gap_3: 0
gap_4: 0
gap_5: 0
gap_6: 1
x4: 9842.3019
runs_df: 16
runs: FAIL
longest_run: 20000
long_runs: FAIL
OVERALL: FAIL
"""

ALTERNATING_REPORT = """\
n0: 10000
n1: 10000
x1: 0.0000
monobit_df: 1
monobit: PASS
x3: 75000.0000
poker_df: 15
poker: FAIL
block_1: 10000
block_2: 0
block_3: 0
block_4: 0
block_5: 0
block_6: 0
gap_1: 10000
gap_2: 0
gap_3: 0
gap_4: 0
gap_5: 0
gap_6: 0
x4: 49836.2899
runs_df: 16
runs: FAIL
longest_run: 1
long_runs: PASS
OVERALL: FAIL
"""


PASSING_REPORT = """\
n0: 10013
n1: 9987
x1: 0.0338
monobit_df: 1
monobit: PASS
x3: 20.2368
poker_df: 15
poker: PASS
block_1: 2545
block_2: 1276
block_3: 605
block_4: 311
block_5: 143
block_6: 163
gap_1: 2525
gap_2: 1308
gap_3: 607
gap_4: 285
gap_5: 160
gap_6: 158
x4: 183.0120
runs_df: 16
runs: PASS
longest_run: 15
long_runs: PASS
OVERALL: PASS
"""


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            run("lcg", "--seed", "1", "--count", "1", "--frob")
        assert exc.value.code == 2

    def test_unknown_algorithm(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("extract", "--in", "x", "--algo", "nope", "--out", "y")
        assert exc.value.code == 2


class TestSimulate:
    def test_band_file(self, tmp_path):
        out = tmp_path / "t.txt"
        assert run("simulate", "--model", "band", "--center", "338",
                   "--halfwidth", "3", "--n", "50000", "--seed", "7",
                   "--out", str(out)) == 0
        t = load_trace(out)
        assert len(t) == 50000
        assert t.values.min() >= 335 and t.values.max() <= 341

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert run("simulate", "--model", "band", "--n", "1000",
                       "--seed", "3", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_halfwidth(self, tmp_path, capsys):
        assert run("simulate", "--model", "band", "--halfwidth", "-1",
                   "--n", "10", "--out", str(tmp_path / "t.txt")) == 2
        assert stderr_of(capsys) == "error: halfwidth must be >= 0\n"
        assert run("simulate", "--model", "band", "--n", "0",
                   "--out", str(tmp_path / "t.txt")) == 2
        assert stderr_of(capsys) == "error: n must be positive\n"
        nope = tmp_path / "nope.txt"
        assert run("simulate", "--model", "replay", "--replay-file", str(nope),
                   "--n", "5", "--out", str(tmp_path / "t.txt")) == 2
        assert stderr_of(capsys) == f"error: {missing(nope)}\n"
        assert not (tmp_path / "t.txt").exists()

    def test_period_too_small_for_n(self, tmp_path, capsys):
        # 2*pi*49/1e-308 overflows: the sinusoid has no phase to take.
        out = tmp_path / "t.txt"
        assert run("simulate", "--model", "interference", "--period", "1e-308",
                   "--n", "50", "--out", str(out)) == 2
        assert stderr_of(capsys) == \
            "error: period 1e-308 is too small for n=50: the phase overflows\n"
        assert not out.exists()

    def test_stamp_adds_comment(self, tmp_path):
        out = tmp_path / "t.txt"
        assert run("simulate", "--model", "band", "--n", "10",
                   "--out", str(out), "--stamp") == 0
        assert out.read_text().startswith("# model=band")
        assert len(load_trace(out)) == 10

    # sha256 of the README's two simulate outputs: how a trace is drawn may
    # change, its bytes may not.
    @pytest.mark.parametrize("argv,digest", [
        (["--center", "338", "--halfwidth", "3", "--n", "2000", "--seed", "7"],
         "c59e6170dd90a62f118c1b109a65fb506f433ff9bfe0f4624c204ff34d49e033"),
        (["--center", "512", "--halfwidth", "40", "--stickiness", "0.7",
          "--noise-width", "2", "--n", "100000", "--seed", "1"],
         "cfa2e0cc6eefc33309153304d9e553d127c6638f2ffe31ba0f1d76d7dc772ad0"),
    ], ids=["capture", "wide"])
    def test_readme_digest(self, tmp_path, argv, digest):
        out = tmp_path / "t.txt"
        assert run("simulate", "--model", "band", *argv, "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # sha256 of one output of each other model, away from its defaults and
    # clipped at 0 or SAMPLE_MAX: the drop term, numpy's sin and the replay
    # cycle must give the bytes the per-sample loops gave.
    @pytest.mark.parametrize("model,argv,digest", [
        ("drop", ["--center", "900", "--halfwidth", "20", "--stickiness", "0.6",
          "--transient-start", "0", "--decay", "0.9993", "--noise-width", "4",
          "--seed", "3"],
         "52e2535cb85e4f6c0c39663fd62d674dcf7a67e7498247e38c9f597048e1c211"),
        ("interference", ["--center", "1005", "--halfwidth", "12",
          "--stickiness", "0.75", "--amplitude", "37.5", "--period", "33.3",
          "--noise-width", "5", "--seed", "9"],
         "05c04cac2567e3e4debc7bf4cf8812e0ad247b4d4d929f614352d5c4c639cac6"),
        ("replay", [], "ce049e1f1b9e01abb09d66082dc6e1cac62a770ee7a40d77e5b2622634522692"),
    ], ids=["drop", "interference", "replay"])
    def test_model_digest(self, tmp_path, model, argv, digest):
        if model == "replay":
            replay = tmp_path / "replay.txt"
            write_lines(replay, [i * 389 % 1024 for i in range(1, 38)])
            argv = ["--replay-file", str(replay)]
        out = tmp_path / "t.txt"
        assert run("simulate", "--model", model, *argv, "--n", "100000",
                   "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_replay_model(self, tmp_path):
        src = tmp_path / "src.txt"
        write_lines(src, [7, 8, 9])
        out = tmp_path / "t.txt"
        assert run("simulate", "--model", "replay", "--replay-file", str(src),
                   "--n", "5", "--out", str(out)) == 0
        assert load_trace(out).values.tolist() == [7, 8, 9, 7, 8]

    def test_replay_file_needs_the_replay_model(self, tmp_path, capsys):
        src = tmp_path / "src.txt"
        write_lines(src, [7, 8, 9])
        out = tmp_path / "t.txt"
        assert run("simulate", "--model", "band", "--replay-file", str(src),
                   "--n", "3", "--out", str(out)) == 2
        assert stderr_of(capsys) == "error: replay_values is not read by the band model\n"
        assert not out.exists()

    @pytest.mark.parametrize("model,argv", [
        ("band", ["--decay", "5", "--amplitude", "-3"]),
        ("drop", ["--period", "7"]),
        ("interference", ["--transient-start", "0", "--noise-width", "1"]),
        ("replay", ["--halfwidth", "-1", "--stickiness", "9", "--replay-file", "REPLAY"]),
    ], ids=["band", "drop", "interference", "replay"])
    def test_option_the_model_ignores_refused(self, tmp_path, capsys, model, argv):
        out = tmp_path / "t.txt"
        replay = tmp_path / "replay.txt"
        write_lines(replay, [7, 8, 9])
        argv = [str(replay) if a == "REPLAY" else a for a in argv]
        assert run("simulate", "--model", model, *argv, "--n", "3", "--out", str(out)) == 2
        field = argv[0][2:].replace("-", "_")
        assert stderr_of(capsys) == f"error: {field} is not read by the {model} model\n"
        assert not out.exists()

    def test_replay_file_read_before_the_model_is_built(self, tmp_path, capsys):
        out = tmp_path / "t.txt"
        nope = tmp_path / "nope.txt"
        assert run("simulate", "--model", "replay", "--replay-file", str(nope),
                   "--decay", "5", "--n", "3", "--out", str(out)) == 2
        assert stderr_of(capsys) == f"error: {missing(nope)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("model", ["band", "replay"])
    def test_empty_replay_file_path_is_read(self, tmp_path, capsys, model):
        # "" names no file; it is read and refused like any other path, not taken as absent.
        out = tmp_path / "t.txt"
        assert run("simulate", "--model", model, "--replay-file", "",
                   "--n", "3", "--out", str(out)) == 2
        assert stderr_of(capsys) == f"error: {missing('')}\n"
        assert not out.exists()

    def test_seed_and_default_values_pass_for_every_model(self, tmp_path):
        src = tmp_path / "src.txt"
        write_lines(src, [7, 8, 9])
        out = tmp_path / "t.txt"
        assert run("simulate", "--model", "replay", "--replay-file", str(src), "--seed", "4",
                   "--center", "512", "--decay", "0.999", "--stamp", "--n", "4",
                   "--out", str(out)) == 0
        assert out.read_text().startswith("# model=replay n=4 rng_seed=4 ")
        assert load_trace(out).values.tolist() == [7, 8, 9, 7]


SIMULATE_HELP = """\
usage: randpipe simulate [-h] --model {band,drop,interference,replay} --n N
                         [--seed SEED] --out OUT [--center CENTER]
                         [--halfwidth HALFWIDTH] [--stickiness STICKINESS]
                         [--transient-start TRANSIENT_START] [--decay DECAY]
                         [--amplitude AMPLITUDE] [--period PERIOD]
                         [--noise-width NOISE_WIDTH]
                         [--replay-file REPLAY_FILE] [--stamp]

options:
  -h, --help            show this help message and exit
  --model {band,drop,interference,replay}
  --n N                 number of samples
  --seed SEED           model RNG seed
  --out OUT             output sample file
  --center CENTER
  --halfwidth HALFWIDTH
  --stickiness STICKINESS
  --transient-start TRANSIENT_START
  --decay DECAY
  --amplitude AMPLITUDE
  --period PERIOD
  --noise-width NOISE_WIDTH
  --replay-file REPLAY_FILE
                        sample file to cycle (replay model)
  --stamp               include a metadata comment with a timestamp
"""

SIMULATE_ARGV = ["simulate", "--model", "band", "--n", "1", "--out", "x"]


class TestSimulateOptions:
    """simulate's model options are built from SynthModel's fields."""

    def test_help_text(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            run("simulate", "-h")
        assert exc.value.code == 0
        assert capsys.readouterr() == (SIMULATE_HELP, "")

    @pytest.mark.parametrize("option,text,value", [
        ("--center", "500", 500), ("--halfwidth", "3", 3), ("--stickiness", "0.7", 0.7),
        ("--transient-start", "900", 900), ("--decay", "0.99", 0.99),
        ("--amplitude", "8.5", 8.5), ("--period", "40", 40.0), ("--noise-width", "2", 2),
    ])
    def test_value_has_the_field_type(self, option, text, value):
        got = getattr(cli._parse(SIMULATE_ARGV + [option, text]), option[2:].replace("-", "_"))
        assert got == value and type(got) is type(value)

    @pytest.mark.parametrize("option,text,kind", [
        ("--center", "5.5", "int"), ("--noise-width", "2.5", "int"),
        ("--transient-start", "1e3", "int"), ("--decay", "x", "float"),
    ])
    def test_value_of_another_type_rejected(self, capsys, option, text, kind):
        with pytest.raises(SystemExit) as exc:
            run(*SIMULATE_ARGV, option, text)
        assert exc.value.code == 2
        assert stderr_of(capsys).endswith(
            f"error: argument {option}: invalid {kind} value: '{text}'\n")

    def test_options_are_the_other_fields(self):
        # A new SynthModel field must be placed on purpose: as an option, or in cmd_simulate.
        names = [f.name for f in dataclasses.fields(SynthModel)]
        options = samples.MODEL_OPTIONS
        assert set(options) | {"kind", "rng_seed", "replay_values"} == set(names)
        assert list(options) == [n for n in names if n in options]

    @pytest.mark.parametrize("kind,fields", [
        ("drop", dict(center=340, halfwidth=3, stickiness=0.5, transient_start=900,
                      decay=0.99, noise_width=1)),
        ("interference", dict(center=500, halfwidth=10, amplitude=25.5, period=40.0,
                              noise_width=5)),
    ], ids=["drop", "interference"])
    def test_every_option_reaches_the_model(self, tmp_path, kind, fields):
        out = tmp_path / "t.txt"
        options = [a for name, v in fields.items() for a in (f"--{name.replace('_', '-')}", str(v))]
        assert run("simulate", "--model", kind, "--n", "3000", "--seed", "4", *options,
                   "--out", str(out)) == 0
        model = SynthModel(kind=kind, rng_seed=4, **fields)
        assert load_trace(out).values.tolist() == synth_trace(model, 3000).values.tolist()


class TestExtract:
    def test_leastsign_yield(self, tmp_path, capsys):
        trace_file = tmp_path / "t.txt"
        rng = np.random.default_rng(83)
        write_lines(trace_file, rng.integers(0, 1024, 40000).tolist())
        out = tmp_path / "bits.txt"
        assert run("extract", "--in", str(trace_file), "--algo", "leastsign",
                   "--out", str(out)) == 0
        bits = read_bits(out)
        assert 9600 <= bits.size <= 10400
        printed = capsys.readouterr().out
        assert "samples-in: 40000" in printed
        assert f"bits-out: {bits.size}" in printed

    def test_mean_raw_bit_count(self, tmp_path):
        trace_file = tmp_path / "t.txt"
        rng = np.random.default_rng(89)
        write_lines(trace_file, rng.integers(0, 1024, 20000).tolist())
        out = tmp_path / "bits.txt"
        assert run("extract", "--in", str(trace_file), "--algo", "mean",
                   "--k", "64", "--no-vn", "--out", str(out)) == 0
        assert read_bits(out).size == (20000 - 64) // 2

    def test_insufficient_samples(self, tmp_path, capsys):
        trace_file = tmp_path / "t.txt"
        write_lines(trace_file, [5])
        assert run("extract", "--in", str(trace_file), "--algo", "updown",
                   "--out", str(tmp_path / "b.txt")) == 1
        assert stderr_of(capsys) == "error: updown needs at least 2 samples\n"
        assert run("extract", "--in", str(trace_file), "--algo", "mean",
                   "--out", str(tmp_path / "b.txt")) == 1
        assert stderr_of(capsys) == "error: mean with k=64 needs at least 66 samples\n"
        write_lines(trace_file, range(130))
        assert run("extract", "--in", str(trace_file), "--algo", "mixmeanupdown",
                   "--out", str(tmp_path / "b.txt")) == 1
        assert stderr_of(capsys) == "error: mixmeanupdown with k=64 needs at least 131 samples\n"
        trace_file.write_text("# no samples\n\n")
        assert run("extract", "--in", str(trace_file), "--algo", "leastsign",
                   "--out", str(tmp_path / "b.txt")) == 1
        assert stderr_of(capsys) == f"error: {trace_file}: no samples\n"
        assert not (tmp_path / "b.txt").exists()

    def test_bps_estimate(self, tmp_path, capsys):
        trace_file = tmp_path / "t.txt"
        write_lines(trace_file, [0, 1] * 500)
        assert run("extract", "--in", str(trace_file), "--algo", "leastsign",
                   "--no-vn", "--out", str(tmp_path / "b.txt"),
                   "--rate", "10000") == 0
        assert "estimated-bps: 10000.00" in capsys.readouterr().out

    @pytest.mark.parametrize("rate", ["-5", "0", "nan", "inf"])
    def test_rate_must_be_positive_and_finite(self, tmp_path, capsys, rate):
        trace_file = tmp_path / "t.txt"
        write_lines(trace_file, [0, 1] * 500)
        out = tmp_path / "b.txt"
        assert run("extract", "--in", str(trace_file), "--algo", "leastsign",
                   "--out", str(out), "--rate", rate) == 2
        assert stderr_of(capsys) == \
            f"error: --rate must be positive and finite, got {float(rate)}\n"
        assert not out.exists()

    def test_malformed_trace(self, tmp_path, capsys):
        trace_file = tmp_path / "t.txt"
        trace_file.write_text("1\nbogus\n")
        assert run("extract", "--in", str(trace_file), "--algo", "leastsign",
                   "--out", str(tmp_path / "b.txt")) == 2
        assert stderr_of(capsys) == f"error: {trace_file}: line 2: not an integer: 'bogus'\n"
        trace_file.write_bytes(b"1\n\xff\n")
        assert run("extract", "--in", str(trace_file), "--algo", "leastsign",
                   "--out", str(tmp_path / "b.txt")) == 2
        assert stderr_of(capsys) == f"error: {trace_file}: line 2: not UTF-8\n"
        trace_file.write_bytes(b"abc\n\xff\n")          # the first bad line counts
        assert run("extract", "--in", str(trace_file), "--algo", "leastsign",
                   "--out", str(tmp_path / "b.txt")) == 2
        assert stderr_of(capsys) == f"error: {trace_file}: line 1: not an integer: 'abc'\n"
        nope = tmp_path / "nope.txt"
        assert run("extract", "--in", str(nope), "--algo", "leastsign",
                   "--out", str(tmp_path / "b.txt")) == 2
        assert stderr_of(capsys) == f"error: {missing(nope)}\n"
        write_lines(trace_file, [1, 2, 3])
        assert run("extract", "--in", str(trace_file), "--algo", "mean",
                   "--k", "0", "--out", str(tmp_path / "b.txt")) == 2
        assert stderr_of(capsys) == "error: window_k must be >= 1\n"

    @pytest.mark.parametrize("algo", ["leastsign", "twoleastsign", "updown"])
    @pytest.mark.parametrize("k", ["5", "0"])
    def test_k_refused_by_algorithms_that_do_not_read_it(self, tmp_path, capsys, algo, k):
        trace_file = tmp_path / "t.txt"
        write_lines(trace_file, list(range(100)))
        out = tmp_path / "b.txt"
        assert run("extract", "--in", str(trace_file), "--algo", algo, "--k", k,
                   "--out", str(out)) == 2
        assert stderr_of(capsys) == f"error: window_k is not read by the {algo} algorithm\n"
        assert not out.exists()
        assert run("extract", "--in", str(trace_file), "--algo", algo, "--k", "64",
                   "--out", str(out)) == 0


class TestFipstest:
    def test_all_zero_bits_fail(self, tmp_path, capsys):
        bit_file = tmp_path / "b.txt"
        bit_file.write_text(("0" * 80 + "\n") * 250)
        assert run("fipstest", "--in", str(bit_file)) == 1
        out = capsys.readouterr().out
        assert out.strip().endswith("OVERALL: FAIL")

    def test_wrong_bit_count(self, tmp_path, capsys):
        bit_file = tmp_path / "b.txt"
        bit_file.write_text("0" * 19999)
        assert run("fipstest", "--in", str(bit_file)) == 2
        assert stderr_of(capsys) == f"error: {bit_file}: 19999 bits; need exactly 20000\n"
        bit_file.write_text("01\n0120\n")
        assert run("fipstest", "--in", str(bit_file)) == 2
        assert stderr_of(capsys) == f"error: {bit_file}: line 2: invalid character '2'\n"
        bit_file.write_bytes(b"01\r\n01\r\n0\xc3\n")
        assert run("fipstest", "--in", str(bit_file)) == 2
        assert stderr_of(capsys) == f"error: {bit_file}: line 3: not UTF-8\n"
        bit_file.write_bytes(b"01\n0120\n\xff\n")
        assert run("fipstest", "--in", str(bit_file)) == 2
        assert stderr_of(capsys) == f"error: {bit_file}: line 2: invalid character '2'\n"

    def test_reference_bits_pass(self, tmp_path, capsys):
        bit_file = tmp_path / "b.txt"
        bit_file.write_text("".join(map(str, crypto_bits("cli", 20000))))
        assert run("fipstest", "--in", str(bit_file)) == 0
        assert capsys.readouterr().out.strip().endswith("OVERALL: PASS")

    @pytest.mark.parametrize("bits,expected", [
        ("0" * 20000, ZEROS_REPORT),
        ("01" * 10000, ALTERNATING_REPORT),
    ], ids=["zeros", "alternating"])
    def test_report_text(self, tmp_path, capsys, bits, expected):
        bit_file = tmp_path / "b.txt"
        bit_file.write_text(bits + "\n")
        assert run("fipstest", "--in", str(bit_file)) == 1
        captured = capsys.readouterr()
        assert captured.out == expected
        assert captured.err == ""

    def test_missing_file(self, tmp_path, capsys):
        nope = tmp_path / "nope.txt"
        assert run("fipstest", "--in", str(nope)) == 2
        assert stderr_of(capsys) == f"error: {missing(nope)}\n"
        assert run("intbits", "--in", str(nope), "--out", str(tmp_path / "b.txt")) == 2
        assert stderr_of(capsys) == f"error: {missing(nope)}\n"


class TestIntbits:
    def test_single_value(self, tmp_path):
        trace_file = tmp_path / "t.txt"
        trace_file.write_text("512\n")
        out = tmp_path / "b.txt"
        assert run("intbits", "--in", str(trace_file), "--out", str(out)) == 0
        assert out.read_text().strip() == "1000000000"

    def test_2000_samples_give_20000_bits(self, tmp_path):
        trace_file = tmp_path / "t.txt"
        rng = np.random.default_rng(97)
        write_lines(trace_file, rng.integers(0, 1024, 2000).tolist())
        out = tmp_path / "b.txt"
        assert run("intbits", "--in", str(trace_file), "--out", str(out)) == 0
        assert read_bits(out).size == 20000

    def test_band_trace_rejected_by_fips(self, tmp_path):
        # low-entropy 10-bit conversions must fail the suite
        trace_file = tmp_path / "t.txt"
        bit_file = tmp_path / "b.txt"
        assert run("simulate", "--model", "band", "--center", "338",
                   "--halfwidth", "3", "--n", "2000", "--seed", "1",
                   "--out", str(trace_file)) == 0
        assert run("intbits", "--in", str(trace_file), "--out", str(bit_file)) == 0
        assert run("fipstest", "--in", str(bit_file)) == 1


class TestLcg:
    def test_two_values(self, capsys):
        assert run("lcg", "--seed", "1", "--count", "2") == 0
        assert capsys.readouterr().out == "16807\n282475249\n"

    def test_seed_zero_equals_seed_one(self, capsys):
        run("lcg", "--seed", "0", "--count", "1")
        zero = capsys.readouterr().out
        run("lcg", "--seed", "1", "--count", "1")
        one = capsys.readouterr().out
        assert zero == one == "16807\n"

    def test_zero_count_prints_nothing(self, capsys):
        assert run("lcg", "--seed", "1", "--count", "0") == 0
        assert capsys.readouterr() == ("", "")

    def test_negative_seed(self, capsys):
        assert run("lcg", "--seed", "-3", "--count", "1") == 2
        assert stderr_of(capsys) == "error: seed must be non-negative\n"
        assert run("lcg", "--seed", "3", "--count", "-1") == 2
        assert stderr_of(capsys) == "error: count must be non-negative\n"

    @pytest.mark.parametrize("extra", [-1, 0, 1, cli._LCG_CHUNK + 1])
    @pytest.mark.parametrize("seed", [0, 338, 2**31 - 2])
    def test_chunks_continue_the_stream(self, capsys, seed, extra):
        count = cli._LCG_CHUNK + extra
        assert run("lcg", "--seed", str(seed), "--count", str(count)) == 0
        assert capsys.readouterr() == ("".join(f"{v}\n" for v in stream(seed, count)), "")

    def test_memory_does_not_grow_with_count(self, monkeypatch):
        monkeypatch.setattr(cli, "_LCG_CHUNK", 1000)
        with open(os.devnull, "w") as devnull:
            monkeypatch.setattr(sys, "stdout", devnull)
            tracemalloc.start()
            try:
                assert run("lcg", "--seed", "1", "--count", "100000") == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # A list of all 10^5 outputs alone takes over 3 MB.
        assert peak < 1_000_000


class TestCrack:
    def make_instance(self, tmp_path, seed=338, d=37):
        samples_file = tmp_path / "samples.txt"
        write_lines(samples_file, [335, 338, 338, 338, 340] * 40)
        seq_file = tmp_path / "seq.txt"
        write_lines(seq_file, stream(seed, d + 100)[d:])
        return seq_file, samples_file

    def test_end_to_end(self, tmp_path, capsys):
        seq_file, samples_file = self.make_instance(tmp_path, seed=338, d=37)
        assert run("crack", "--sequence", str(seq_file),
                   "--samples", str(samples_file)) == 0
        assert "seed=338 offset=37" in capsys.readouterr().out

    def test_budget_exhaustion(self, tmp_path, capsys):
        seq_file, samples_file = self.make_instance(tmp_path, seed=620, d=900)
        assert run("crack", "--sequence", str(seq_file),
                   "--samples", str(samples_file), "--max-steps", "10") == 1
        assert stderr_of(capsys) == "error: seed not found within 10 steps\n"

    def test_optimized_t1_same_step_count(self, tmp_path, capsys):
        seq_file, samples_file = self.make_instance(tmp_path, seed=340, d=450)
        assert run("crack", "--sequence", str(seq_file),
                   "--samples", str(samples_file), "--stats") == 0
        plain = capsys.readouterr().out
        assert run("crack", "--sequence", str(seq_file),
                   "--samples", str(samples_file), "--optimized", "--t", "1",
                   "--stats") == 0
        opt = capsys.readouterr().out
        assert plain == opt
        assert "stats: total-steps=" in plain

    @pytest.mark.parametrize("flags", [[], ["--optimized"]], ids=["plain", "optimized"])
    def test_t_checked_without_optimized(self, tmp_path, capsys, flags):
        # The plain search runs at t = 1, so --t alone is refused rather than ignored.
        seq_file, samples_file = self.make_instance(tmp_path)
        assert run("crack", "--sequence", str(seq_file),
                   "--samples", str(samples_file), "--t", "0", *flags) == 2
        assert stderr_of(capsys) == (
            "error: t must be >= 1\n" if flags else "error: --t needs --optimized\n")
        if not flags:
            assert run("crack", "--sequence", str(seq_file),
                       "--samples", str(samples_file), "--t", "4") == 2
            assert stderr_of(capsys) == "error: --t needs --optimized\n"

    def test_malformed_sequence(self, tmp_path, capsys):
        seq_file = tmp_path / "seq.txt"
        seq_file.write_text("16807\n0\n")          # 0 is not a valid output
        samples_file = tmp_path / "samples.txt"
        write_lines(samples_file, [1, 2, 3])
        assert run("crack", "--sequence", str(seq_file),
                   "--samples", str(samples_file)) == 2
        assert stderr_of(capsys) == f"error: {seq_file}: line 2: value 0 outside [1, 2147483646]\n"
        seq_file.write_text("# window\n16807\n\n2147483647\n")
        assert run("crack", "--sequence", str(seq_file),
                   "--samples", str(samples_file)) == 2
        assert stderr_of(capsys) == (
            f"error: {seq_file}: line 4: value 2147483647 outside [1, 2147483646]\n")
        seq_file.write_text("16807\n" + "9" * 5000 + "\n")
        assert run("crack", "--sequence", str(seq_file),
                   "--samples", str(samples_file)) == 2
        assert stderr_of(capsys) == (
            f"error: {seq_file}: line 2: value {'9' * 5000} outside [1, 2147483646]\n")
        for text in ("0x10", "+282475249", "282_475_249", "\u0661\u0662"):
            seq_file.write_text(f"16807\n{text}\n")
            assert run("crack", "--sequence", str(seq_file),
                       "--samples", str(samples_file)) == 2
            assert stderr_of(capsys) == f"error: {seq_file}: line 2: not an integer: {text!r}\n"
        seq_file.write_bytes(b"# \xe9t\xe9\n16807\n")
        assert run("crack", "--sequence", str(seq_file),
                   "--samples", str(samples_file)) == 2
        assert stderr_of(capsys) == f"error: {seq_file}: line 1: not UTF-8\n"
        nope = tmp_path / "nope.txt"
        assert run("crack", "--sequence", str(nope),
                   "--samples", str(samples_file)) == 2
        assert stderr_of(capsys) == f"error: {missing(nope)}\n"
        seq_file.write_text("16807\n")
        assert run("crack", "--sequence", str(seq_file),
                   "--samples", str(nope)) == 2
        assert stderr_of(capsys) == f"error: {missing(nope)}\n"
        samples_file.write_text("1\n1024\n")
        assert run("crack", "--sequence", str(seq_file),
                   "--samples", str(samples_file)) == 2
        assert stderr_of(capsys) == (
            f"error: {samples_file}: line 2: value 1024 outside [0, 1023]\n")
        write_lines(samples_file, [1, 2, 3])
        assert run("crack", "--sequence", str(seq_file),
                   "--samples", str(samples_file), "--m", "0") == 2
        assert stderr_of(capsys) == "error: m must be >= 1\n"

    def test_empty_sequence_file(self, tmp_path, capsys):
        seq_file = tmp_path / "seq.txt"
        seq_file.write_text("# nothing here\n")
        samples_file = tmp_path / "samples.txt"
        write_lines(samples_file, [1, 2, 3])
        assert run("crack", "--sequence", str(seq_file),
                   "--samples", str(samples_file)) == 2
        assert stderr_of(capsys) == f"error: {seq_file}: no observed values\n"

    def test_candidate_failing_verification(self, tmp_path, capsys, monkeypatch):
        # verify_seed rejects a search result whose offset is not where the window sits.
        seq_file, samples_file = self.make_instance(tmp_path, seed=338, d=37)
        monkeypatch.setattr(crack, "find_seed", lambda seq, cfg, trace: CrackResult(
            seed=338, offset=36, total_steps=1))
        assert run("crack", "--sequence", str(seq_file), "--samples", str(samples_file)) == 1
        assert stderr_of(capsys) == "error: candidate seed 338 failed verification\n"

    def test_window_checked_without_a_per_value_loop(self, tmp_path, capsys, monkeypatch):
        # The window file's int64 array is checked whole; a loop over its 100 values in
        # find_seed and verify_seed would call _as_int 200 times more.
        seq_file, samples_file = self.make_instance(tmp_path)
        calls = []
        as_int = crack._as_int
        monkeypatch.setattr(crack, "_as_int", lambda value: calls.append(value) or as_int(value))
        assert run("crack", "--sequence", str(seq_file), "--samples", str(samples_file)) == 0
        assert capsys.readouterr().out == "seed=338 offset=37\n"
        assert len(calls) < 10

    def test_window_not_an_arc(self, tmp_path, capsys):
        # No candidate stream holds a window whose values are not
        # consecutive outputs; the search reports the default budget spent.
        seq_file, samples_file = self.make_instance(tmp_path)
        seq_file.write_text("16807\n16807\n")
        assert run("crack", "--sequence", str(seq_file),
                   "--samples", str(samples_file), "--stats") == 1
        captured = capsys.readouterr()
        assert captured.out == "stats: total-steps=1000091648\n"
        assert captured.err == "error: seed not found within 1000000000 steps\n"


class TestStats:
    def test_histogram_csv(self, tmp_path, capsys):
        trace_file = tmp_path / "t.txt"
        write_lines(trace_file, [5, 5, 7])
        hist = tmp_path / "h.csv"
        assert run("stats", "--in", str(trace_file), "--hist-out", str(hist)) == 0
        assert hist.read_text() == "value,count\n5,2\n7,1\n"
        out = capsys.readouterr().out
        assert "distinct: 2" in out and "min: 5" in out and "max: 7" in out

    def test_constant_trace_single_row(self, tmp_path):
        trace_file = tmp_path / "t.txt"
        write_lines(trace_file, [42] * 100)
        hist = tmp_path / "h.csv"
        assert run("stats", "--in", str(trace_file), "--hist-out", str(hist)) == 0
        assert hist.read_text() == "value,count\n42,100\n"

    def test_malformed_input(self, tmp_path, capsys):
        trace_file = tmp_path / "t.txt"
        trace_file.write_text("99999\n")
        assert run("stats", "--in", str(trace_file),
                   "--hist-out", str(tmp_path / "h.csv")) == 2
        assert stderr_of(capsys) == f"error: {trace_file}: line 1: value 99999 outside [0, 1023]\n"
        trace_file.write_text("5\n-1\n")
        assert run("stats", "--in", str(trace_file),
                   "--hist-out", str(tmp_path / "h.csv")) == 2
        assert stderr_of(capsys) == f"error: {trace_file}: line 2: value -1 outside [0, 1023]\n"
        trace_file.write_text("# header only\n")
        assert run("stats", "--in", str(trace_file),
                   "--hist-out", str(tmp_path / "h.csv")) == 1
        assert stderr_of(capsys) == f"error: {trace_file}: no samples\n"
        assert not (tmp_path / "h.csv").exists()


# Golden outputs of the README run, recorded before any refactor of the
# subcommands, so that a change to how they print shows up byte for byte.
README_HIST = ("value,count\n335,343\n336,320\n337,367\n338,332\n339,266\n"
               "340,200\n341,172\n")


@pytest.fixture(scope="module")
def readme_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("readme")
    assert run("simulate", "--model", "band", "--center", "338", "--halfwidth", "3",
               "--n", "2000", "--seed", "7", "--out", str(d / "capture.txt")) == 0
    assert run("simulate", "--model", "band", "--center", "512", "--halfwidth", "40",
               "--stickiness", "0.7", "--noise-width", "2", "--n", "20000",
               "--seed", "1", "--out", str(d / "wide.txt")) == 0
    write_lines(d / "observed.txt", stream(338, 140)[40:])
    write_lines(d / "constant.txt", [500] * 20000)
    return d


def captured(capsys, rc):
    out = capsys.readouterr()
    return rc, out.out, out.err


GOLDEN_EXTRACT = {
    "mean": (["--algo", "mean"], "842\nyield-ratio: 0.042100\n",
             "4beb9e7ef41dd2848aa46ab496dba14bc4432dbe850c77b6f6ed08e2c81231d7"),
    "updown": (["--algo", "updown"], "89\nyield-ratio: 0.004450\n",
               "a55fc8597aa4492cac666df6323afcad797d97b69ac6d6e4f26c01cb07c1a3be"),
    "mixmeanupdown": (["--algo", "mixmeanupdown"], "19\nyield-ratio: 0.000950\n",
                      "3b62ed86567c870a5b7a76c96bff51f3fd23504749defa97f5021075e24701bf"),
    "leastsign": (["--algo", "leastsign"], "5006\nyield-ratio: 0.250300\n",
                  "135db002381acc8c9f8b525400a54c199ba77cef0a99bc61bbef2131dcca0662"),
    "twoleastsign": (["--algo", "twoleastsign"], "4971\nyield-ratio: 0.248550\n",
                     "9ce3a6bb14d1ed5c4842f2d09feb4fc1565e7b061ef189b51053bfe6f486f952"),
    "rate": (["--algo", "twoleastsign", "--rate", "10000"],
             "4971\nyield-ratio: 0.248550\nestimated-bps: 2485.50\n",
             "9ce3a6bb14d1ed5c4842f2d09feb4fc1565e7b061ef189b51053bfe6f486f952"),
    "no-vn": (["--algo", "mean", "--no-vn"], "9968\nyield-ratio: 0.498400\n",
              "58c90478fe1b083db9ff8d72658461a0ba8059fd9be71c88f941ff2a8fe71227"),
    # A constant trace has no pair of unequal bits for the corrector to keep.
    "constant": (["--algo", "leastsign"], "0\nyield-ratio: 0.000000\n",
                 "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}
# Every extract table entry reads wide.txt unless named here.
GOLDEN_EXTRACT_INPUT = {"constant": "constant.txt"}

GOLDEN_CRACK = {
    "plain": ([], (0, "stats: total-steps=102840\nseed=338 offset=40\n", "")),
    "optimized": (["--optimized"],
                  (0, "stats: total-steps=104040\nseed=338 offset=40\n", "")),
    "exhausted": (["--max-steps", "50000"], (1, "stats: total-steps=102400\n",
                                             "error: seed not found within 50000 steps\n")),
}


def assert_golden_extract(files, capsys, tmp_path, name):
    flags, stdout, digest = GOLDEN_EXTRACT[name]
    bits = tmp_path / "b.txt"
    infile = files / GOLDEN_EXTRACT_INPUT.get(name, "wide.txt")
    rc = run("extract", "--in", str(infile), *flags, "--out", str(bits))
    assert captured(capsys, rc) == (0, "samples-in: 20000\nbits-out: " + stdout, "")
    assert hashlib.sha256(bits.read_bytes()).hexdigest() == digest


def assert_golden_crack(files, capsys, name):
    flags, expected = GOLDEN_CRACK[name]
    rc = run("crack", "--sequence", str(files / "observed.txt"),
             "--samples", str(files / "capture.txt"), "--stats", *flags)
    assert captured(capsys, rc) == expected


class TestGoldenOutput:
    def test_stats(self, readme_files, capsys, tmp_path):
        hist = tmp_path / "h.csv"
        rc = run("stats", "--in", str(readme_files / "capture.txt"),
                 "--hist-out", str(hist))
        assert captured(capsys, rc) == (
            0, "samples: 2000\ndistinct: 7\nmin: 335\nmax: 341\n", "")
        assert hist.read_text() == README_HIST

    def test_intbits(self, readme_files, capsys, tmp_path):
        rc = run("intbits", "--in", str(readme_files / "capture.txt"),
                 "--out", str(tmp_path / "b.txt"))
        assert captured(capsys, rc) == (0, "samples-in: 2000\nbits-out: 20000\n", "")

    def test_fipstest_passing_report(self, capsys, tmp_path):
        bit_file = tmp_path / "b.txt"
        bit_file.write_text("".join(map(str, crypto_bits("good", 20000))))
        rc = run("fipstest", "--in", str(bit_file))
        assert captured(capsys, rc) == (0, PASSING_REPORT, "")

    @pytest.mark.parametrize("name", GOLDEN_EXTRACT)
    def test_extract(self, readme_files, capsys, tmp_path, name):
        assert_golden_extract(readme_files, capsys, tmp_path, name)

    @pytest.mark.parametrize("name", GOLDEN_CRACK)
    def test_crack_stats(self, readme_files, capsys, name):
        assert_golden_crack(readme_files, capsys, name)


def test_records_hold_numbers(readme_files, capsys, tmp_path, monkeypatch):
    """Every record a subcommand hands to _emit holds numbers, not text, and comes back
    unchanged from JSON: how a value prints is decided by _emit alone."""
    records = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda fields: records.append(fields) or emit(fields))
    good, zeros = tmp_path / "good.txt", tmp_path / "zeros.txt"
    good.write_text("".join(map(str, crypto_bits("good", 20000))))
    zeros.write_text("0" * 20000)
    capture, out = str(readme_files / "capture.txt"), str(tmp_path / "out.txt")
    for argv, rc in [
        (["extract", "--in", capture, "--algo", "leastsign", "--rate", "10000", "--out", out], 0),
        (["intbits", "--in", capture, "--out", out], 0),
        (["fipstest", "--in", str(good)], 0),
        (["fipstest", "--in", str(zeros)], 1),
        (["stats", "--in", capture, "--hist-out", out], 0),
        (["crack", "--sequence", str(readme_files / "observed.txt"), "--samples", capture,
          "--stats"], 0),
    ]:
        assert run(*argv) == rc
    capsys.readouterr()
    assert len(records) == 6
    values = [v for fields in records for v in fields.values()]
    values += [v for d in values if type(d) is dict for v in d.values()]
    assert {type(v) for v in values} == {int, float, bool, dict}
    assert all(json.loads(json.dumps(fields)) == fields for fields in records)


def test_emit_refuses_a_float_without_places(capsys):
    # A float whose places are not in cli._PLACES would print at full precision.
    with pytest.raises(KeyError):
        cli._emit({"samples-in": 3, "ratio": 0.5})
    assert capsys.readouterr().out == ""


class TestParserReuse:
    """main parses every call with one parser; no call may change what a later one gets."""

    def test_one_parser_per_process(self):
        assert cli._parsers() is cli._parsers()

    @pytest.mark.parametrize("first,then", [("rate", "twoleastsign"), ("no-vn", "mean")])
    def test_extract_flag_then_default(self, readme_files, capsys, tmp_path, first, then):
        assert_golden_extract(readme_files, capsys, tmp_path, first)
        assert_golden_extract(readme_files, capsys, tmp_path, then)

    def test_crack_optimized_then_plain(self, readme_files, capsys):
        assert_golden_crack(readme_files, capsys, "optimized")
        assert_golden_crack(readme_files, capsys, "plain")

    def test_usage_error_then_valid_command(self, readme_files, capsys):
        # --optimized and --max-steps are parsed before the missing --samples is found.
        with pytest.raises(SystemExit) as exc:
            run("crack", "--sequence", str(readme_files / "observed.txt"),
                "--optimized", "--max-steps", "50000", "--stats")
        assert exc.value.code == 2
        err = stderr_of(capsys)
        assert err.startswith("usage: randpipe crack ")
        assert err.endswith("error: the following arguments are required: --samples\n")
        assert_golden_crack(readme_files, capsys, "plain")

    def test_help_twice(self, capsys):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                run("--help")
            assert exc.value.code == 0
            out = capsys.readouterr()
            assert out.err == ""
            texts.append(out.out)
        assert texts[0].startswith("usage: randpipe ") and texts[0] == texts[1]


VALID_ARGV = {
    "simulate": ["simulate", "--model", "band", "--n", "10", "--out", "t.txt", "--stamp"],
    "extract": ["extract", "--in", "t.txt", "--algo", "mean", "--k", "8", "--out", "b.txt"],
    "fipstest": ["fipstest", "--in", "b.txt"],
    "intbits": ["intbits", "--in", "t.txt", "--out", "b.txt"],
    "lcg": ["lcg", "--seed", "-5", "--count", "3"],
    "crack": ["crack", "--sequence", "s.txt", "--samples", "t.txt", "--optimized"],
    "stats": ["stats", "--in", "t.txt", "--hist-out", "h.csv"],
    "abbreviated": ["extract", "--in", "t.txt", "--al", "mean", "--out", "b.txt"],
}
# The whole parser prints these itself: argv names no subcommand, or leaves some over.
WHOLE_PARSER_ARGV = {
    "empty": [],
    "help": ["-h"],
    "unknown command": ["nope"],
    "extra argument": ["fipstest", "--in", "x", "extra"],
    "unknown flag": ["fipstest", "--in", "x", "--bogus"],
}
# The subcommand's own parser exits on these, inside the whole parser as well.
SUBPARSER_EXIT_ARGV = {
    "missing --in": ["fipstest"],
    "subcommand help": ["fipstest", "-h"],
}
ROUTED_ARGV = {**VALID_ARGV, **WHOLE_PARSER_ARGV, **SUBPARSER_EXIT_ARGV}
# Which parser ends a "--" differs between Python versions; the outcome must not.
ALL_ARGV = {**ROUTED_ARGV, "double dash": ["fipstest", "--", "--in", "x"]}


def parse_outcome(parse, argv, capsys):
    """(namespace as a dict or None, exit code or None, stdout, stderr) of one parse."""
    try:
        result, code = vars(parse(list(argv))), None
    except SystemExit as exc:
        result, code = None, exc.code
    out = capsys.readouterr()
    return result, code, out.out, out.err


class TestParserDispatch:
    """main parses with the named subcommand's own parser, and gets what the whole parser gets."""

    @pytest.mark.parametrize("argv", ALL_ARGV.values(), ids=list(ALL_ARGV))
    def test_same_outcome_as_whole_parser(self, argv, capsys):
        dispatched = parse_outcome(cli._parse, argv, capsys)
        assert dispatched == parse_outcome(cli._parsers()[0].parse_args, argv, capsys)

    @pytest.mark.parametrize("argv", ROUTED_ARGV.values(), ids=list(ROUTED_ARGV))
    def test_whole_parser_runs_only_where_needed(self, argv, monkeypatch):
        class WholeParserRan(Exception):
            pass

        class WholeParser:
            def parse_args(self, argv):
                raise WholeParserRan

        commands = cli._parsers()[1]
        monkeypatch.setattr(cli, "_parsers", lambda: (WholeParser(), commands))
        if argv in VALID_ARGV.values():
            args = cli._parse(argv)
            assert args.command == argv[0] and args.func is getattr(cli, f"cmd_{argv[0]}")
        else:
            expected = WholeParserRan if argv in WHOLE_PARSER_ARGV.values() else SystemExit
            with pytest.raises(expected):
                cli._parse(argv)

    def test_main_reads_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["randpipe", "lcg", "--seed", "1", "--count", "2"])
        assert main() == 0
        assert capsys.readouterr().out == "16807\n282475249\n"


def test_cli_defaults_match_library_defaults():
    # Names listed here, not taken from samples.MODEL_OPTIONS, so a slip there cannot hide.
    def defaults(cls):
        return {f.name: f.default for f in dataclasses.fields(cls)}

    parse = cli._parsers()[0].parse_args
    sim = vars(parse(["simulate", "--model", "band", "--n", "1", "--out", "x"]))
    model = defaults(SynthModel)
    for name in ("center", "halfwidth", "stickiness", "transient_start", "decay",
                 "amplitude", "period", "noise_width"):
        assert sim[name] == model[name], name
    assert sim["seed"] == model["rng_seed"]
    ext = parse(["extract", "--in", "x", "--algo", "mean", "--out", "y"])
    assert ext.k == defaults(ExtractorConfig)["window_k"]
    crk = parse(["crack", "--sequence", "x", "--samples", "y"])
    cfg = defaults(CrackConfig)
    # --t has no default, so that it can be refused without --optimized; cmd_crack
    # takes CrackConfig's t when --optimized comes alone.
    assert (crk.m, crk.t, crk.max_steps) == (cfg["m"], None, cfg["max_total_steps"])


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "band", "--n", "10", "--out"],
    ["extract", "--in", "TRACE", "--algo", "leastsign", "--no-vn", "--out"],
    ["intbits", "--in", "TRACE", "--out"],
    ["stats", "--in", "TRACE", "--hist-out"],
], ids=lambda argv: argv[0])
def test_unwritable_output(tmp_path, capsys, argv):
    trace_file = tmp_path / "t.txt"
    write_lines(trace_file, [0, 1] * 50)
    out = tmp_path / "a_directory"
    out.mkdir()
    argv = [str(trace_file) if a == "TRACE" else a for a in argv]
    assert run(*argv, str(out)) == 1
    err = stderr_of(capsys)
    assert err.startswith(f"error: cannot write {out}: ")
    assert err.endswith("\n") and err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "band", "--n", "10", "--out"],
    ["extract", "--in", "TRACE", "--algo", "leastsign", "--no-vn", "--out"],
    ["intbits", "--in", "TRACE", "--out"],
    ["stats", "--in", "TRACE", "--hist-out"],
], ids=lambda argv: argv[0])
def test_full_output_file(tmp_path, capsys, argv):
    # A write that fails after open() succeeds names the file, as an open() failure does;
    # an output this small fails only when the file is closed.
    trace_file = tmp_path / "t.txt"
    write_lines(trace_file, [0, 1] * 50)
    argv = [str(trace_file) if a == "TRACE" else a for a in argv]
    assert run(*argv, "/dev/full") == 1
    assert stderr_of(capsys) == (
        "error: cannot write /dev/full: [Errno 28] No space left on device\n")


class FullStdout(io.StringIO):
    """A stdout whose write or flush fails as a full disk does."""

    def __init__(self, failing):
        super().__init__()
        self.failing = failing

    def fail(self, name):
        if name == self.failing:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(self, text):
        self.fail("write")
        return super().write(text)

    def flush(self):
        self.fail("flush")


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize("argv", [
    ["extract", "--in", "TRACE", "--algo", "leastsign", "--out", "OUT"],
    ["intbits", "--in", "TRACE", "--out", "OUT"],
    ["stats", "--in", "TRACE", "--hist-out", "OUT"],
    ["lcg", "--seed", "1", "--count", "5"],
], ids=lambda argv: argv[0])
def test_failed_stdout_write_names_stdout(tmp_path, capsys, monkeypatch, argv, failing):
    trace_file, out = tmp_path / "t.txt", tmp_path / "out.txt"
    write_lines(trace_file, [0, 1] * 50)
    argv = [{"TRACE": str(trace_file), "OUT": str(out)}.get(a, a) for a in argv]
    assert run(*argv) == 0
    expected = out.read_bytes() if out.exists() else None
    capsys.readouterr()
    out.unlink(missing_ok=True)
    monkeypatch.setattr(sys, "stdout", FullStdout(failing))
    assert run(*argv) == 1
    assert capsys.readouterr().err == (
        f"error: cannot write <stdout>: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
    assert (out.read_bytes() if out.exists() else None) == expected


def crlf_open(file, mode="r", *args, **kwargs):
    """open() as Windows opens a text file: without newline=, '\\n' is written as '\\r\\n'."""
    if "b" not in mode:
        kwargs.setdefault("newline", "\r\n")
    return open(file, mode, *args, **kwargs)


def test_written_lines_end_in_lf_on_every_platform(tmp_path, monkeypatch):
    probe = tmp_path / "probe.txt"
    with crlf_open(probe, "w") as fh:
        fh.write("1\n")
    assert probe.read_bytes() == b"1\r\n"
    monkeypatch.setattr(samples, "open", crlf_open, raising=False)
    trace_file, hist = tmp_path / "t.txt", tmp_path / "h.csv"
    samples.save_trace(SampleTrace(np.array([5, 5, 7])), trace_file, header="capture\nnotes")
    assert trace_file.read_bytes() == b"# capture\n# notes\n5\n5\n7\n"
    assert run("stats", "--in", str(trace_file), "--hist-out", str(hist)) == 0
    assert hist.read_bytes() == b"value,count\n5,2\n7,1\n"


def src_env(**env_vars):
    """os.environ with this checkout's src first on PYTHONPATH, and env_vars set."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p), **env_vars)


def test_module_run_exits_with_main_code(tmp_path):
    def module_run(*argv):
        proc = subprocess.run([sys.executable, "-m", "randpipe", *argv],
                              capture_output=True, env=src_env(), timeout=60)
        return proc.returncode, proc.stdout, proc.stderr

    assert module_run("lcg", "--seed", "1", "--count", "2") == (0, b"16807\n282475249\n", b"")
    bit_file = tmp_path / "b.txt"
    bit_file.write_text("0101\n")
    assert module_run("fipstest", "--in", str(bit_file)) == (
        2, b"", f"error: {bit_file}: 4 bits; need exactly 20000\n".encode())


def closed_pipe_outcome(launcher=("-m", "randpipe"), **env_vars):
    """(exit code, stderr) of `python <launcher> lcg ...` whose reader closes after one line."""
    proc = subprocess.Popen(
        [sys.executable, *launcher, "lcg", "--seed", "1", "--count", "200000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env(**env_vars))
    assert proc.stdout.readline() == b"16807\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    return proc.returncode, err


def test_closed_stdout_pipe_exits_quietly():
    # A reader that stops early, as `randpipe lcg ... | head -1` does, gets
    # exit code 1 and no traceback or message on stderr.
    assert closed_pipe_outcome() == (1, b"")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_either_buffering(unbuffered):
    # Unbuffered (`python -u`), one large write to a pipe whose reader has
    # gone can end short without an error, so the output must not be one write.
    assert closed_pipe_outcome(PYTHONUNBUFFERED=unbuffered) == (1, b"")


# Runs cli.main on its argv, recording every fd that os.open returns, and then
# prints how many there were and which of them are still open.
FD_PROBE = """
import os, sys
from randpipe import cli

def still_open(fd):
    try:
        os.fstat(fd)
    except OSError:
        return False
    return True

opened, os_open = [], os.open
os.open = lambda *args: opened.append(os_open(*args)) or opened[-1]
rc = cli.main()
os.open = os_open
print(len(opened), [fd for fd in opened if still_open(fd)], file=sys.stderr)
sys.exit(rc)
"""


def test_closed_stdout_pipe_leaves_no_fd_open():
    # main points stdout at os.devnull through one fd of its own, and must close it:
    # an in-process caller would otherwise leak one fd per closed pipe.
    assert closed_pipe_outcome(("-c", FD_PROBE)) == (1, b"1 []\n")
