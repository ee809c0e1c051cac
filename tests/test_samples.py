import random as pyrandom

import numpy as np
import pytest

from randpipe.samples import (
    SampleTrace,
    SynthModel,
    TraceFormatError,
    load_trace,
    save_trace,
    synth_trace,
    trace_stats,
)


def write(tmp_path, text, name="trace.txt"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestSampleTrace:
    def test_valid_range(self):
        t = SampleTrace(np.array([0, 1023, 512]))
        assert len(t) == 3
        t = SampleTrace([])
        assert len(t) == 0 and t.values.dtype == np.int64

    # [True] stands alone: [512, True] would be an integer array
    @pytest.mark.parametrize(
        "values", [[512, -1], [512, 1024], [512, 5000], [1.7], ["5"], [True]],
        ids=["-1", "1024", "5000", "1.7", "5", "True"],
    )
    def test_out_of_range_rejected(self, values):
        # non-integers are rejected before a cast could turn them into samples
        with pytest.raises(ValueError):
            SampleTrace(np.array(values))

    def test_values_immutable(self):
        t = SampleTrace(np.array([1, 2, 3]))
        with pytest.raises(ValueError):
            t.values[0] = 9

    def test_caller_array_stays_writeable(self, tmp_path):
        a = np.array([1, 2, 3])
        t = SampleTrace(a)
        a[0] = 5
        assert t.values.tolist() == [1, 2, 3]
        assert not load_trace(write(tmp_path, "1\n2\n")).values.flags.writeable


class TestLoadTrace:
    def test_plain(self, tmp_path):
        t = load_trace(write(tmp_path, "512\n513\n"))
        assert t.values.tolist() == [512, 513]

    def test_comments_and_boundaries(self, tmp_path):
        t = load_trace(write(tmp_path, "# hdr\n0\n1023\n"))
        assert t.values.tolist() == [0, 1023]

    def test_blank_lines_ignored(self, tmp_path):
        t = load_trace(write(tmp_path, "\n7\n\n8\n\n"))
        assert t.values.tolist() == [7, 8]

    def test_out_of_range_reports_line(self, tmp_path):
        with pytest.raises(TraceFormatError, match="line 1"):
            load_trace(write(tmp_path, "1024\n"))
        with pytest.raises(TraceFormatError, match=r"line 2: value -3 outside \[0, 1023\]"):
            load_trace(write(tmp_path, "5\n-3\n"))
        # past int()'s 4300-digit limit; leading zeros do not count
        for text, value in (("9" * 5000, "9" * 5000), ("-" + "9" * 5000, "-" + "9" * 5000),
                            ("0" * 5000 + "1024", "1024"), ("-" + "0" * 5000 + "3", "-3")):
            with pytest.raises(TraceFormatError) as exc:
                load_trace(write(tmp_path, f"1\n{text}\n"))
            assert str(exc.value).endswith(f"line 2: value {value} outside [0, 1023]")

    def test_non_integer_reports_line(self, tmp_path):
        with pytest.raises(TraceFormatError, match="line 3"):
            load_trace(write(tmp_path, "1\n2\nxyz\n"))
        # int() takes the first three; the sample grammar is -?[0-9]+ only
        for text in ("1_0", "+5", "\u0661\u0662", "-", "--5", "- 5", "5.0", "\u00b2"):
            with pytest.raises(TraceFormatError) as exc:
                load_trace(write(tmp_path, f"1\n\n{text}\n"))
            assert str(exc.value).endswith(f"line 3: not an integer: {text!r}")
        assert load_trace(write(tmp_path, "007\n  12 \n")).values.tolist() == [7, 12]
        assert load_trace(write(tmp_path, "0" * 5000 + "7\n-" + "0" * 5000 + "\n")
                          ).values.tolist() == [7, 0]

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFormatError):
            load_trace(tmp_path / "nope.txt")


def test_save_load_round_trip(tmp_path):
    t = SampleTrace(np.array([0, 5, 1023, 338, 338]))
    p = tmp_path / "t.txt"
    save_trace(t, p)
    back = load_trace(p)
    assert np.array_equal(back.values, t.values)
    # and the re-saved file is byte-identical
    p2 = tmp_path / "t2.txt"
    save_trace(back, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_save_header_comment_round_trips(tmp_path):
    t = SampleTrace(np.array([1, 2]))
    p = tmp_path / "t.txt"
    save_trace(t, p, header="capture notes")
    assert p.read_text().startswith("# capture notes\n")
    assert load_trace(p).values.tolist() == [1, 2]


class TestSynthModels:
    def test_determinism(self):
        m = SynthModel(kind="band", center=338, halfwidth=3, stickiness=0.9,
                       rng_seed=42)
        a = synth_trace(m, 1000)
        b = synth_trace(m, 1000)
        assert np.array_equal(a.values, b.values)

    def test_band_clipping(self):
        m = SynthModel(kind="band", center=338, halfwidth=3, stickiness=0.9,
                       rng_seed=7)
        t = synth_trace(m, 10_000)
        assert t.values.min() >= 335 and t.values.max() <= 341

    def test_band_distinct_bounded_by_width(self):
        m = SynthModel(kind="band", center=500, halfwidth=50, stickiness=0.5,
                       rng_seed=3)
        t = synth_trace(m, 50_000)
        assert trace_stats(t).distinct <= 101

    def test_drop_transient(self):
        m = SynthModel(kind="drop", center=340, halfwidth=3, stickiness=0.9,
                       transient_start=900, decay=0.9995, rng_seed=11)
        t = synth_trace(m, 50_000)
        v = t.values
        assert v[0] >= v[-1]
        # hand-simulate the decay recurrence: every value must stay under
        # the decaying envelope, which approaches the band monotonically
        offset = float(900 - 340)
        prev_env = None
        for i in range(len(v)):
            env = 340 + 3 + (round(offset) if abs(offset) >= 0.5 else 0)
            assert v[i] <= env
            if prev_env is not None:
                assert env <= prev_env
            prev_env = env
            offset *= 0.9995

    def test_drop_settles_into_band(self):
        m = SynthModel(kind="drop", center=340, halfwidth=3, stickiness=0.9,
                       transient_start=900, decay=0.99, rng_seed=11)
        t = synth_trace(m, 10_000)
        tail = t.values[5000:]
        assert tail.min() >= 337 and tail.max() <= 343

    def test_interference_bounds(self):
        m = SynthModel(kind="interference", center=500, halfwidth=10,
                       stickiness=0.8, amplitude=25.0, period=40.0, rng_seed=5)
        t = synth_trace(m, 20_000)
        assert t.values.min() >= 500 - 10 - 25
        assert t.values.max() <= 500 + 10 + 25
        # the sinusoid must actually widen the band
        assert t.values.max() - t.values.min() > 20

    def test_replay_cycles(self):
        m = SynthModel(kind="replay", replay_values=(9, 8, 7))
        t = synth_trace(m, 7)
        assert t.values.tolist() == [9, 8, 7, 9, 8, 7, 9]

    def test_n_must_be_positive(self):
        m = SynthModel(kind="band")
        with pytest.raises(ValueError):
            synth_trace(m, 0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="nosuch"),
            dict(kind="band", halfwidth=-1),
            dict(kind="band", center=5, halfwidth=10),        # band below 0
            dict(kind="band", center=1020, halfwidth=10),     # band above 1023
            dict(kind="band", stickiness=1.5),
            dict(kind="band", halfwidth=3, noise_width=4),
            dict(kind="drop", decay=1.0),
            dict(kind="drop", transient_start=2000),
            dict(kind="interference", period=0.0),
            dict(kind="interference", amplitude=-1.0),
            dict(kind="replay"),
            dict(kind="replay", replay_values=(1, 2000)),
            dict(kind="interference", amplitude=float("nan")),
            dict(kind="interference", amplitude=float("inf")),
            dict(kind="interference", period=float("nan")),
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            SynthModel(**kwargs)


class TestTraceStats:
    def test_counting(self):
        st = trace_stats(SampleTrace(np.array([5, 5, 7])))
        assert st.distinct == 2
        assert st.counts[5] == 2 and st.counts[7] == 1
        assert st.min_value == 5 and st.max_value == 7

    def test_constant_trace(self):
        st = trace_stats(SampleTrace(np.array([42] * 100)))
        assert st.distinct == 1 and st.total == 100

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            trace_stats(SampleTrace(np.array([], dtype=np.int64)))

    def test_frequencies_sum_to_length(self):
        rng = pyrandom.Random(99)
        for _ in range(20):
            vals = [rng.randrange(1024) for _ in range(rng.randrange(1, 500))]
            st = trace_stats(SampleTrace(np.array(vals)))
            assert int(st.counts.sum()) == len(vals)
            assert st.distinct == len(set(vals))
