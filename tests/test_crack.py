import random as pyrandom
from dataclasses import replace

import numpy as np
import pytest

from randpipe import crack
from randpipe.avrprng import MODULUS, stream
from randpipe.crack import (
    GROUP_ORDER,
    SEED_SPACE,
    CrackConfig,
    audit_candidate_streams,
    find_seed,
    verify_seed,
)
from randpipe.samples import SampleTrace

from crack_oracle import audit_scan, prob_dist_sort, search_loop, verify_scan
from test_avrprng import NON_INTEGERS


def trace(vals):
    return SampleTrace(np.array(vals, dtype=np.int64))


def search_ranks(capture, seeds, k=2):
    """Each seed's place in the search's ranking of capture, read off a phase-1 win.

    A window at offset 0 of seed v's stream (v >= 2; seeds 0 and 1 share a
    stream) is found in phase 1 right after the windows of the rank(v)
    candidates before v, so total_steps is (rank(v) + 1) * k.
    """
    ranks = []
    for v in seeds:
        result = find_seed(stream(v, k), CrackConfig(), capture)
        assert (result.seed, result.offset) == (v, 0)
        assert result.total_steps % k == 0
        ranks.append(result.total_steps // k - 1)
    return ranks


def search_observed(capture, k=2):
    """The number of observed values, read off one weighted phase-2 round.

    A window that is no arc is never found, so a budget of 1024*k steps
    ends the search after round 0, whose quotas weigh observed candidates t times.
    """
    cfg = CrackConfig(m=1, t=4, max_total_steps=1024 * k)
    total = find_seed([1] * k, cfg, capture).total_steps
    q = total - 1024 * k
    assert q % (cfg.m + k) == 0
    return (q // (cfg.m + k) - 1024) // (cfg.t - 1)


def assert_ranked_as_oracle(vals, seeds=range(2, SEED_SPACE)):
    capture = trace(vals)
    order, observed = prob_dist_sort(capture)
    rank = {v: i for i, v in enumerate(order)}
    assert search_ranks(capture, seeds) == [rank[v] for v in seeds]
    assert search_observed(capture) == observed


class TestRanking:
    """The search visits candidates by descending count, ties by value."""

    def test_frequency_then_value_order(self):
        capture = trace([5, 5, 7])
        assert search_ranks(capture, (5, 7, 2, 3, 4, 6, 8)) == [0, 1, 4, 5, 6, 7, 8]
        assert search_observed(capture) == 2

    def test_empty_trace(self):
        capture = trace([])
        assert search_ranks(capture, range(2, SEED_SPACE)) == list(range(2, SEED_SPACE))
        assert search_observed(capture) == 0

    def test_all_values_equal_frequency(self):
        capture = trace(list(range(SEED_SPACE)))
        assert search_ranks(capture, range(2, SEED_SPACE)) == list(range(2, SEED_SPACE))
        assert search_observed(capture) == SEED_SPACE

    def test_order_is_permutation(self):
        rng = pyrandom.Random(71)
        vals = [rng.randrange(1024) for _ in range(5000)]
        seeds = range(2, SEED_SPACE)
        ranks = search_ranks(trace(vals), seeds)
        assert len(set(ranks)) == len(ranks)
        counts = np.bincount(vals, minlength=SEED_SPACE)
        by_rank = [int(counts[v]) for _, v in sorted(zip(ranks, seeds))]
        assert by_rank == sorted(by_rank, reverse=True)

    @pytest.mark.parametrize("vals", [
        [3, 3, 1, 1, 2, 2, 900, 900, 0],
        [881] * 7,
        [],
        list(range(SEED_SPACE)),
        list(range(SEED_SPACE)) * 2 + [5, 1023, 1023, 0],
    ], ids=["ties", "single-value", "empty", "all-values", "all-values-ties"])
    def test_matches_sort_oracle(self, vals):
        assert_ranked_as_oracle(vals)

    def test_seeded_traces_match_sort_oracle(self):
        # 0 to 4000 samples over bands of 1 to 1024 values: most have tied counts.
        # Each trace checks 16 of its own values and 16 drawn from all seeds.
        for seed in range(50):
            rng = np.random.default_rng(seed)
            width = int(rng.integers(1, SEED_SPACE + 1))
            lo = int(rng.integers(0, SEED_SPACE - width + 1))
            vals = rng.integers(lo, lo + width, int(rng.integers(0, 4001))).tolist()
            drawn = rng.choice(np.arange(2, SEED_SPACE), 16, replace=False).tolist()
            seeds = sorted(set(vals[:16] + drawn) - {0, 1})
            assert_ranked_as_oracle(vals, seeds)


class TestConfig:
    @pytest.mark.parametrize("kwargs", [dict(m=0), dict(t=0),
                                        dict(max_total_steps=0)])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CrackConfig(**kwargs)

    @pytest.mark.parametrize("name", ["m", "t", "max_total_steps"])
    def test_rejects_non_integers(self, name):
        for bad in NON_INTEGERS:
            with pytest.raises(TypeError):
                CrackConfig(**{name: bad})

    def test_numpy_integers_become_ints(self):
        cfg = CrackConfig(m=np.int64(5), t=np.uint8(2), max_total_steps=np.int32(10**6))
        assert (cfg.m, cfg.t, cfg.max_total_steps) == (5, 2, 10**6)
        assert {type(v) for v in (cfg.m, cfg.t, cfg.max_total_steps)} == {int}


def band_trace(center=338):
    """Ranks center first, then center - 3, center - 1 and center + 2."""
    vals = [center - 3, center - 1, center, center, center, center + 2]
    return trace(vals * 50)


class TestNonIntegerInputs:
    """Sequence values and offsets are integers as given, never truncated or parsed."""

    WINDOW = stream(338, 5)
    BAD = {"float": [v + 0.7 for v in WINDOW], "str": [str(v) for v in WINDOW],
           "True": [True] * 5, "False": [False] * 5, "np.True_": [np.True_] * 5,
           "None": [None] * 5}

    @pytest.mark.parametrize("t", [1, 4], ids=["t1", "t4"])
    @pytest.mark.parametrize("bad", BAD)
    def test_search_rejects(self, t, bad):
        with pytest.raises(TypeError):
            find_seed(self.BAD[bad], CrackConfig(t=t), band_trace())

    @pytest.mark.parametrize("bad", BAD)
    def test_verify_and_audit_reject(self, bad):
        with pytest.raises(TypeError):
            verify_seed(338, self.BAD[bad], 0)
        with pytest.raises(TypeError):
            audit_candidate_streams([self.BAD[bad]], horizon=10)

    def test_fractional_max_offset_and_horizon_rejected(self):
        for bad in NON_INTEGERS:
            with pytest.raises(TypeError):
                verify_seed(338, self.WINDOW, bad)
            with pytest.raises(TypeError):
                audit_candidate_streams([self.WINDOW], horizon=bad)
            with pytest.raises(TypeError):
                audit_candidate_streams([[1, 1]], horizon=bad)     # not an arc: horizon unused

    def test_numpy_integers_accepted(self):
        window = np.array(self.WINDOW)
        assert find_seed(window, CrackConfig(), band_trace()).seed == 338
        assert verify_seed(338, window, np.int64(0)) is True
        assert (338, 0) in audit_candidate_streams([window], horizon=10)[0]


class TestFindSeed:
    def test_phase1_direct_match(self):
        s = stream(881, 100)
        result = find_seed(s, CrackConfig(m=100), trace([881]))
        assert result.seed == 881
        assert result.offset == 0

    def test_offset_three(self):
        s = stream(777, 103)[3:]
        for t in (1, 4):
            result = find_seed(s, CrackConfig(m=100, t=t), trace([777]))
            assert result.seed == 777
            assert result.offset == 3
            assert verify_seed(result.seed, s, 3) is True

    def test_budget_exhaustion(self):
        for t in (1, 4):
            result = find_seed([1], CrackConfig(m=100, t=t, max_total_steps=1024), trace([]))
            assert result.seed is None and result.offset is None
            assert result.total_steps > 1024

    def test_unobserved_seed_still_found(self):
        # 700 never appears in the sample trace, so it ranks in the
        # unobserved tail; completeness over all 1024 candidates finds it.
        capture = band_trace()
        assert 700 not in capture.values
        s = stream(700, 105)[5:]
        for t in (1, 4):
            result = find_seed(s, CrackConfig(m=100, t=t), capture)
            assert result.seed == 700
            assert result.offset == 5

    def test_soundness_random_trials(self):
        rng = pyrandom.Random(73)
        capture = band_trace()
        for _ in range(10):
            d = rng.randint(1, 400)
            g = rng.choice((338, 335, 337, 340))
            s = stream(g, d + 60)[d:]
            for t in (1, 4):
                result = find_seed(s, CrackConfig(m=50, t=t), capture)
                assert result.seed is not None
                assert verify_seed(result.seed, s, result.offset) is True

    def test_determinism(self):
        capture = band_trace()
        s = stream(338, 350)[250:]
        for t in (1, 4):
            a = find_seed(s, CrackConfig(m=50, t=t), capture)
            b = find_seed(s, CrackConfig(m=50, t=t), capture)
            assert (a.seed, a.offset, a.total_steps) == (b.seed, b.offset, b.total_steps)

    def test_rejects_invalid_sequence_values(self):
        capture = trace([])
        with pytest.raises(ValueError):
            find_seed([0], CrackConfig(), capture)
        with pytest.raises(ValueError):
            find_seed([MODULUS], CrackConfig(), capture)
        with pytest.raises(ValueError):
            find_seed([], CrackConfig(), capture)

    def test_t1_schedule_identical_to_plain(self):
        # At t = 1 every candidate gets the quota m + k, so which values the
        # trace holds counts only through the order. Both captures rank 338,
        # 335, 337 and 340 first and the rest ascending; one holds all 1024.
        capture = band_trace()
        everything = trace(capture.values.tolist() + list(range(SEED_SPACE)))
        s = stream(335, 800)[700:]   # round 1 even at t = 4
        plain = find_seed(s, CrackConfig(m=50, t=1), capture)
        assert fields(plain) == fields(find_seed(s, CrackConfig(m=50, t=1), everything))
        assert fields(plain) == fields(search_loop(s, CrackConfig(m=50, t=1), capture))
        assert (plain.seed, plain.offset) == (335, 700)
        weighted = [find_seed(s, CrackConfig(m=50, t=4), c) for c in (capture, everything)]
        assert weighted[0].total_steps != weighted[1].total_steps

    def test_observed_seed_needs_no_more_slides(self):
        capture = band_trace()
        g = 337
        s = stream(g, 700)[600:]
        plain = find_seed(s, CrackConfig(m=50, t=1), capture)
        weighted = find_seed(s, CrackConfig(m=50, t=4), capture)
        assert plain.seed == g and weighted.seed == g
        assert weighted.offset == plain.offset
        assert weighted.total_steps <= plain.total_steps

    @pytest.mark.parametrize("t", [1, 4], ids=["t1", "t4"])
    def test_unobserved_seed_completeness(self, t):
        capture = band_trace()
        s = stream(901, 104)[4:]
        result = find_seed(s, CrackConfig(m=100, t=t), capture)
        assert result.seed == 901
        assert result.offset == 4


def result_types(result):
    return tuple(type(v) for v in (result.seed, result.offset, result.total_steps))


class TestResultTypes:
    """seed, offset and total_steps are Python ints (or None) on every path."""

    @pytest.mark.parametrize("t", [1, 4], ids=["t1", "t4"])
    @pytest.mark.parametrize("window,budget,offset", [
        (stream(881, 5), 10**9, 0),                       # phase-1 hit
        (stream(700, 300)[295:], 10**9, 295),             # phase-2 hit
        (stream(700, 300)[295:], 1024 * 5 - 1, None),     # out after phase 1
        (stream(700, 300)[295:], 1024 * 5 + 1, None),     # out in phase 2
        (stream(700, 300)[295:-1] + [1], 10**9, None),    # not an arc
    ], ids=["phase-1", "phase-2", "budget-phase-1", "budget-phase-2", "non-arc"])
    def test_python_ints(self, t, window, budget, offset):
        result = find_seed(window, CrackConfig(m=1, t=t, max_total_steps=budget), band_trace(881))
        assert result.offset == offset
        if offset is None:
            assert result_types(result) == (type(None), type(None), int)
        else:
            assert result_types(result) == (int, int, int)


class TestHugeQuotas:
    """Quotas whose round sum passes int64 still count steps exactly."""

    @pytest.mark.parametrize("t", [1, 4], ids=["t1", "t4"])
    def test_winner_and_budget(self, t):
        # A quota of at least 2^31 - 2 covers a whole stream, so the first
        # candidate wins in its first visit, wherever its window lies.
        capture = band_trace()
        k = 3
        cfg = CrackConfig(m=2**62, t=t, max_total_steps=1024 * k)
        s = stream(700, 5 + k)[5:]
        result = find_seed(s, cfg, capture)
        assert result.seed == 338
        assert verify_seed(result.seed, s, result.offset) is True
        assert result.total_steps == 1024 * k + result.offset
        result = find_seed(broken(s, pyrandom.Random(3)), cfg, capture)
        assert result.seed is None
        assert result.total_steps == 1024 * k + (cfg.m + k) * (t * 4 + 1024 - 4)


class TestVerifySeed:
    def test_offset_zero(self):
        s = stream(42, 20)
        assert verify_seed(42, s, 0) is True

    def test_unrelated_seed_none(self):
        s = stream(42, 20)
        assert verify_seed(43, s, 0) is False
        # Every window recurs in every stream; seed 43's holds this one
        # 504370384 outputs in, and verify_seed steps none of those before it.
        assert verify_seed(43, s, 504370384) is True
        assert verify_seed(43, s, 504370383) is verify_seed(43, s, 504370385) is False

    def test_smallest_offset_returned(self):
        s = stream(99, 130)[30:]
        assert verify_seed(99, s, 30) is True
        assert not any(verify_seed(99, s, c) for c in range(30))

    def test_window_slides_match_direct_generation(self):
        # the slide mechanics must agree with plain stream slicing
        rng = pyrandom.Random(79)
        for _ in range(20):
            g = rng.randrange(1024)
            j = rng.randrange(0, 500)
            k = rng.randrange(1, 30)
            s = stream(g, j + k)[j:]
            assert verify_seed(g, s, j) is True

    def test_rejects_negative_max_offset(self):
        with pytest.raises(ValueError):
            verify_seed(1, [16807], -1)

    def test_takes_no_logarithm(self, monkeypatch):
        # The post-check is independent of the search's logarithms.
        def no_logarithm(*args):
            raise AssertionError("verify_seed took a logarithm")

        monkeypatch.setattr(crack, "_dlog", no_logarithm)
        monkeypatch.setattr(crack, "_seed_logs", no_logarithm)
        for g in (777, 5, 2**40):
            s = stream(g, 103)[3:]
            assert verify_seed(g, s, 3) is True
            assert verify_seed(g, s, 4) is False
            assert verify_seed(g + 1, s, 3) is False
            assert verify_seed(g, broken(s, pyrandom.Random(g)), 3) is False

    def test_range_errors_name_the_first_bad_value(self):
        good = stream(338, 3)
        cases = [([0] + good, 0), (good + [MODULUS, -5], MODULUS), (good + [-5, 0], -5),
                 (np.array(good + [2**40, 0]), 2**40)]
        for s, bad in cases:
            for check in (lambda: verify_seed(338, s, 0),
                          lambda: find_seed(s, CrackConfig(), band_trace())):
                with pytest.raises(ValueError) as exc:
                    check()
                assert str(exc.value) == f"sequence value {bad} outside [1, {MODULUS - 1}]"
        for check in (lambda: verify_seed(338, [], 0),
                      lambda: find_seed([], CrackConfig(), band_trace())):
            with pytest.raises(ValueError, match="^observed sequence must not be empty$"):
                check()

    def test_rejects_negative_seed(self):
        # -5 and 2^31 - 6 are congruent mod 2^31 - 1; srandom refuses the former
        with pytest.raises(ValueError, match="seed must be non-negative"):
            verify_seed(-5, stream(2**31 - 6, 5), 0)


class TestAudit:
    def test_finds_planted_windows(self):
        # windows taken straight from two candidate streams must be found
        # at their planted positions
        w1 = tuple(stream(17, 8)[5:])     # seed 17, offset 5
        w2 = tuple(stream(900, 3))        # seed 900, offset 0
        found = audit_candidate_streams([w1, w2], horizon=2000)
        assert (17, 5) in found[0]
        assert (900, 0) in found[1]
        for occurrences in found:
            for seed, off in occurrences:
                got = stream(seed, off + 3)[off:]
                assert tuple(got) in (w1, w2)

    def test_window_must_fit_horizon(self):
        w = tuple(stream(5, 103)[100:])
        found = audit_candidate_streams([w], horizon=101)
        assert found[0] == []
        found = audit_candidate_streams([w], horizon=103)
        assert (5, 100) in found[0]

    def test_seed_zero_shares_seed_one_stream(self):
        w = tuple(stream(1, 3))
        found = audit_candidate_streams([w], horizon=100)
        assert (0, 0) in found[0] and (1, 0) in found[0]

    @pytest.mark.parametrize("targets", [[], [[]], [stream(1, 3), []]],
                             ids=["no-targets", "empty-window", "one-empty-window"])
    def test_rejects_empty_targets(self, targets):
        with pytest.raises(ValueError, match="targets must be non-empty windows"):
            audit_candidate_streams(targets, horizon=10)


def fields(result):
    return (result.seed, result.offset, result.total_steps)


def assert_matches_loop(s, cfg, capture, optimized):
    """find_seed against the loop with cfg as `crack` runs it: t = 1 without --optimized."""
    cfg = cfg if optimized else replace(cfg, t=1)
    assert fields(find_seed(s, cfg, capture)) == fields(search_loop(s, cfg, capture))


def round_steps(k, cfg, capture, optimized):
    """Q: the steps of one phase-2 round, the sum of the quotas."""
    weight = cfg.t if optimized else 1
    observed = len(set(capture.values.tolist()))
    return (cfg.m + k) * (weight * observed + 1024 - observed)


def broken(window, rng):
    """window with one value changed, so it is no arc of the generator."""
    out = list(window)
    i = rng.randrange(len(out))
    out[i] = out[i] % (MODULUS - 1) + 1
    return out


def test_dlog_inverts_the_multiplier_power():
    subgroup_generators = [pow(16807, GROUP_ORDER // q, MODULUS) for q in crack._PRIME_POWERS]
    rng = pyrandom.Random(29)
    ys = [1, 16807, MODULUS - 1] + subgroup_generators + [
        rng.randrange(1, MODULUS) for _ in range(500)]
    for y in ys:
        e = crack._dlog(y)
        assert 0 <= e < GROUP_ORDER and pow(16807, e, MODULUS) == y, y


class TestClosedFormAgainstLoop:
    """find_seed against the stepped round-robin search."""

    def test_random_instances(self):
        rng = pyrandom.Random(83)
        captures = [band_trace(), trace([]), trace([1, 1, 0, 700])]
        for _ in range(40):
            capture = rng.choice(captures)
            k = rng.choice((1, 3, 100))
            g = rng.choice((0, 1, 335, 338, 700, 901, rng.randrange(1024)))
            d = rng.choice((0, rng.randint(1, 300)))
            cfg = CrackConfig(m=rng.choice((1, 10, 100)), t=rng.choice((1, 4)))
            s = stream(g, d + k)[d:]
            assert_matches_loop(s, cfg, capture, optimized=rng.random() < 0.5)

    @pytest.mark.parametrize("observed", [[0, 0, 1], [1, 1, 0]])
    def test_seeds_zero_and_one_share_a_stream(self, observed):
        # srandom maps seed 0 to state 1, so the first of 0 and 1 in the
        # ranking wins, with the same offset either way.
        capture = trace(observed)
        for d in (0, 5, 250):
            s = stream(1, d + 3)[d:]
            for optimized in (False, True):
                assert_matches_loop(s, CrackConfig(m=1, t=4), capture, optimized)
                assert find_seed(s, CrackConfig(m=1), capture).seed == observed[0]

    @pytest.mark.parametrize("optimized", [False, True])
    def test_match_at_last_slide_of_a_visit(self, optimized):
        # An offset that is a multiple of the quota matches on the visit's
        # last slide, one round earlier than the offset after it.
        capture = band_trace()
        for k in (1, 3):
            cfg = CrackConfig(m=5, t=4)
            for g, weight in ((338, cfg.t if optimized else 1), (700, 1)):
                quota = weight * (cfg.m + k)
                for d in (quota, 2 * quota, 2 * quota + 1):
                    assert_matches_loop(stream(g, d + k)[d:], cfg, capture, optimized)

    @pytest.mark.parametrize("k", [1, 3, 100])
    @pytest.mark.parametrize("optimized", [False, True])
    def test_budgets_at_round_boundaries(self, k, optimized):
        # The budget is checked after phase 1 (T1 = 1024*k steps) and after
        # each round of Q steps; the window sits in round 2 of seed 700.
        capture = band_trace()
        cfg = CrackConfig(m=5, t=4)
        q = round_steps(k, cfg, capture, optimized)
        t1 = 1024 * k
        s = stream(700, 2 * (cfg.m + k) + 2 + k)[2 * (cfg.m + k) + 2:]
        for budget in (t1 - 1, t1, t1 + 1, *(t1 + r * q + e for r in (1, 2, 3)
                                             for e in (-1, 0, 1))):
            cfg = CrackConfig(m=5, t=4, max_total_steps=budget)
            assert_matches_loop(s, cfg, capture, optimized)

    def test_inconsistent_windows_under_small_budgets(self):
        rng = pyrandom.Random(89)
        capture = band_trace()
        for k in (2, 3, 100):
            window = broken(stream(rng.randrange(1024), k + 7)[7:], rng)
            for optimized in (False, True):
                cfg = CrackConfig(m=1, t=4)
                q = round_steps(k, cfg, capture, optimized)
                for budget in (1, 1024 * k, 1024 * k + 1, 1024 * k + 3 * q + 1):
                    cfg = CrackConfig(m=1, t=4, max_total_steps=budget)
                    assert_matches_loop(window, cfg, capture, optimized)
                    assert find_seed(window, cfg, capture).seed is None


class TestAuditAgainstScan:
    """audit_candidate_streams against the block-by-block stream scan."""

    def test_matches_scan(self):
        rng = pyrandom.Random(97)
        targets = []
        for width in (1, 2, 3, 5):
            for _ in range(4):
                g, off = rng.randrange(1024), rng.randrange(0, 4990)
                targets.append(stream(g, off + width)[off:])
        targets += [broken(stream(17, 9)[4:], rng), broken(stream(1, 2), rng),
                    [0], [MODULUS], [MODULUS + 16807], [-5, 3], [16807, 0],
                    stream(0, 3), stream(300, 4995)[4990:]]
        for horizon in (1, 3, 2000, 4995, 5000):
            ends = [stream(g, horizon)[horizon - w:] for g, w in ((9, 1), (512, 3))
                    if horizon >= w]
            found = audit_candidate_streams(targets + ends, horizon=horizon)
            expected = audit_scan(targets + ends, horizon=horizon)
            assert [set(f) for f in found] == [set(e) for e in expected]
            assert all(f == sorted(f) for f in found)
            assert (9, horizon - 1) in found[len(targets)]
        assert (300, 4990) in found[len(targets) - 1]

    def test_offsets_repeat_with_the_cycle(self):
        w = stream(338, 43)[40:]
        found = audit_candidate_streams([w], horizon=43 + 2 * GROUP_ORDER)
        assert [o for o in found[0] if o[0] == 338] == \
            [(338, 40), (338, 40 + GROUP_ORDER), (338, 40 + 2 * GROUP_ORDER)]


class TestVerifySeedAgainstScan:
    def test_matches_and_misses(self):
        rng = pyrandom.Random(101)
        for _ in range(30):
            g = rng.randrange(1024)
            d = rng.randrange(0, 400)
            k = rng.choice((1, 3, 20))
            s = stream(g, d + k)[d:]
            for offset in (d, d + 1, max(d - 1, 0), d + rng.randint(1, 50)):
                assert verify_seed(g, s, offset) is verify_scan(g, s, offset)
            other = rng.randrange(1024)
            assert verify_seed(other, s, d) is verify_scan(other, s, d)
            if k > 1:
                b = broken(s, rng)
                assert verify_seed(g, b, d) is verify_scan(g, b, d) is False

    def test_seeds_past_the_seed_table(self):
        # MODULUS + 700 and MODULUS reduce to states 700 and 1.
        for g in (1024, 10**9, MODULUS - 1, MODULUS, MODULUS + 700, 2**40):
            s = stream(g, 57)[50:]
            for offset, found in ((50, True), (49, False), (51, False), (50 + GROUP_ORDER, True)):
                assert verify_seed(g, s, offset) is verify_scan(g, s, offset) is found

    def test_smallest_offset_past_a_cycle(self):
        # A window recurs every 2^31 - 2 outputs, so it is found again
        # whole cycles past its smallest offset.
        s = stream(99, 130)[30:]
        assert verify_seed(99, s, 30 + GROUP_ORDER) is True
        assert verify_seed(99, s, 29 + GROUP_ORDER) is False
        assert verify_seed(0, stream(1, 3), 2 * GROUP_ORDER) is True
