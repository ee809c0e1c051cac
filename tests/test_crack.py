import random as pyrandom

import numpy as np
import pytest

from randpipe.avrprng import MODULUS, stream
from randpipe.crack import (
    GROUP_ORDER,
    SEED_SPACE,
    CrackConfig,
    ProbDist,
    audit_candidate_streams,
    build_prob_dist,
    find_seed,
    find_seed_opt,
    verify_seed,
)
from randpipe.samples import SampleTrace

from crack_oracle import audit_scan, prob_dist_sort, search_loop, verify_scan


def trace(vals):
    return SampleTrace(np.array(vals, dtype=np.int64))


def assert_same_dist(got, want):
    assert np.array_equal(got.order, want.order)
    assert got.order.dtype == np.int64
    assert not got.order.flags.writeable
    assert got.observed_count == want.observed_count
    assert np.array_equal(got.counts, want.counts)
    assert type(got.observed_count) is int


class TestBuildProbDist:
    def test_frequency_then_value_order(self):
        dist = build_prob_dist(trace([5, 5, 7]))
        assert dist.order[:9].tolist() == [5, 7, 0, 1, 2, 3, 4, 6, 8]
        assert dist.observed_count == 2

    def test_empty_trace(self):
        dist = build_prob_dist(trace([]))
        assert dist.order.tolist() == list(range(1024))
        assert dist.observed_count == 0

    def test_all_values_equal_frequency(self):
        dist = build_prob_dist(trace(list(range(1024))))
        assert dist.order.tolist() == list(range(1024))
        assert dist.observed_count == 1024

    def test_order_is_permutation(self):
        rng = pyrandom.Random(71)
        vals = [rng.randrange(1024) for _ in range(5000)]
        dist = build_prob_dist(trace(vals))
        assert sorted(dist.order) == list(range(1024))
        counts = dist.counts
        freqs = [int(counts[v]) for v in dist.order[: dist.observed_count]]
        assert freqs == sorted(freqs, reverse=True)
        assert all(f > 0 for f in freqs)
        assert all(counts[v] == 0 for v in dist.order[dist.observed_count:])

    @pytest.mark.parametrize("vals", [
        [3, 3, 1, 1, 2, 2, 900, 900, 0],
        [881] * 7,
        [],
        list(range(SEED_SPACE)),
        list(range(SEED_SPACE)) * 2 + [5, 1023, 1023, 0],
    ], ids=["ties", "single-value", "empty", "all-values", "all-values-ties"])
    def test_matches_sort_oracle(self, vals):
        assert_same_dist(build_prob_dist(trace(vals)), prob_dist_sort(trace(vals)))

    def test_seeded_traces_match_sort_oracle(self):
        # 0 to 4000 samples over bands of 1 to 1024 values: most have tied counts.
        for seed in range(50):
            rng = np.random.default_rng(seed)
            width = int(rng.integers(1, SEED_SPACE + 1))
            lo = int(rng.integers(0, SEED_SPACE - width + 1))
            vals = rng.integers(lo, lo + width, int(rng.integers(0, 4001))).tolist()
            assert_same_dist(build_prob_dist(trace(vals)), prob_dist_sort(trace(vals)))


class TestProbDistFields:
    COUNTS = np.bincount([5, 5, 7], minlength=SEED_SPACE)
    ORDER = build_prob_dist(trace([5, 5, 7])).order

    @pytest.mark.parametrize("field, order, counts, observed", [
        ("order", tuple(range(SEED_SPACE)), COUNTS, 2),
        ("order", np.arange(5), COUNTS, 2),
        ("order", np.r_[0, 0, np.arange(2, SEED_SPACE)], COUNTS, 2),
        ("order", np.arange(SEED_SPACE, dtype=float), COUNTS, 2),
        ("order", np.arange(SEED_SPACE).reshape(32, 32), COUNTS, 2),
        ("counts", ORDER, COUNTS[:5], 2),
        ("observed_count", ORDER, COUNTS, 3),
    ], ids=["tuple", "short", "duplicate", "float", "2-d", "short-counts", "wrong-count"])
    def test_bad_field_is_named(self, field, order, counts, observed):
        with pytest.raises(ValueError, match=f"^{field} must"):
            ProbDist(order=order, counts=counts, observed_count=observed)

    def test_compare_and_hash_by_identity(self):
        a, b = build_prob_dist(trace([5, 5, 7])), build_prob_dist(trace([5, 5, 7]))
        assert a == a and a != b
        assert len({a, b, a}) == 2


class TestConfig:
    @pytest.mark.parametrize("kwargs", [dict(m=0), dict(t=0),
                                        dict(max_total_steps=0)])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CrackConfig(**kwargs)


def band_dist(center=338):
    vals = [center - 3, center - 1, center, center, center, center + 2]
    return build_prob_dist(trace(vals * 50))


class TestFindSeed:
    def test_phase1_direct_match(self):
        s = stream(881, 100)
        result = find_seed(s, CrackConfig(m=100), build_prob_dist(trace([881])))
        assert result.seed == 881
        assert result.offset == 0

    def test_offset_three(self):
        s = stream(777, 103)[3:]
        result = find_seed(s, CrackConfig(m=100), build_prob_dist(trace([777])))
        assert result.seed == 777
        assert result.offset == 3
        assert verify_seed(result.seed, s, 10) == 3

    def test_budget_exhaustion(self):
        result = find_seed([1], CrackConfig(m=100, max_total_steps=1024),
                           build_prob_dist(trace([])))
        assert result.seed is None and result.offset is None
        assert result.total_steps > 1024

    def test_unobserved_seed_still_found(self):
        # 700 never appears in the sample trace, so it ranks in the
        # unobserved tail; completeness over all 1024 candidates finds it.
        dist = band_dist()
        assert 700 not in dist.order[: dist.observed_count]
        s = stream(700, 105)[5:]
        result = find_seed(s, CrackConfig(m=100), dist)
        assert result.seed == 700
        assert result.offset == 5

    def test_soundness_random_trials(self):
        rng = pyrandom.Random(73)
        dist = band_dist()
        for _ in range(10):
            d = rng.randint(1, 400)
            g = rng.choice(dist.order[:4])
            s = stream(g, d + 60)[d:]
            result = find_seed(s, CrackConfig(m=50), dist)
            assert result.seed is not None
            assert verify_seed(result.seed, s, result.offset) == result.offset

    def test_determinism(self):
        dist = band_dist()
        s = stream(338, 350)[250:]
        a = find_seed(s, CrackConfig(m=50), dist)
        b = find_seed(s, CrackConfig(m=50), dist)
        assert (a.seed, a.offset, a.total_steps) == (b.seed, b.offset, b.total_steps)

    def test_rejects_invalid_sequence_values(self):
        dist = build_prob_dist(trace([]))
        with pytest.raises(ValueError):
            find_seed([0], CrackConfig(), dist)
        with pytest.raises(ValueError):
            find_seed([MODULUS], CrackConfig(), dist)
        with pytest.raises(ValueError):
            find_seed([], CrackConfig(), dist)


class TestFindSeedOpt:
    def test_t1_schedule_identical_to_plain(self):
        dist = band_dist()
        s = stream(335, 400)[300:]   # forces phase 2
        plain = find_seed(s, CrackConfig(m=50, t=4), dist)
        opt = find_seed_opt(s, CrackConfig(m=50, t=1), dist)
        assert plain.seed == opt.seed
        assert plain.offset == opt.offset
        assert plain.total_steps == opt.total_steps

    def test_observed_seed_needs_no_more_slides(self):
        dist = band_dist()
        g = dist.order[2]
        s = stream(g, 700)[600:]
        plain = find_seed(s, CrackConfig(m=50), dist)
        opt = find_seed_opt(s, CrackConfig(m=50, t=4), dist)
        assert plain.seed == g and opt.seed == g
        assert opt.offset == plain.offset
        assert opt.total_steps <= plain.total_steps

    def test_unobserved_seed_completeness(self):
        dist = band_dist()
        s = stream(901, 104)[4:]
        result = find_seed_opt(s, CrackConfig(m=100, t=4), dist)
        assert result.seed == 901
        assert result.offset == 4


def result_types(result):
    return tuple(type(v) for v in (result.seed, result.offset, result.total_steps))


class TestResultTypes:
    """seed, offset and total_steps are Python ints (or None) on every path."""

    @pytest.mark.parametrize("search", [find_seed, find_seed_opt])
    @pytest.mark.parametrize("window,budget,offset", [
        (stream(881, 5), 10**9, 0),                       # phase-1 hit
        (stream(700, 300)[295:], 10**9, 295),             # phase-2 hit
        (stream(700, 300)[295:], 1024 * 5 - 1, None),     # out after phase 1
        (stream(700, 300)[295:], 1024 * 5 + 1, None),     # out in phase 2
        (stream(700, 300)[295:-1] + [1], 10**9, None),    # not an arc
    ], ids=["phase-1", "phase-2", "budget-phase-1", "budget-phase-2", "non-arc"])
    def test_python_ints(self, search, window, budget, offset):
        result = search(window, CrackConfig(m=1, max_total_steps=budget), band_dist(881))
        assert result.offset == offset
        if offset is None:
            assert result_types(result) == (type(None), type(None), int)
        else:
            assert result_types(result) == (int, int, int)


class TestHugeQuotas:
    """Quotas whose round sum passes int64 still count steps exactly."""

    @pytest.mark.parametrize("optimized", [False, True])
    def test_winner_and_budget(self, optimized):
        # A quota of at least 2^31 - 2 covers a whole stream, so the first
        # candidate wins in its first visit, wherever its window lies.
        dist = band_dist()
        k, weight = 3, 4 if optimized else 1
        cfg = CrackConfig(m=2**62, t=4, max_total_steps=1024 * k)
        search = find_seed_opt if optimized else find_seed
        s = stream(700, 5 + k)[5:]
        result = search(s, cfg, dist)
        assert result.seed == dist.order[0]
        assert verify_seed(result.seed, s, result.offset) == result.offset
        assert result.total_steps == 1024 * k + result.offset
        result = search(broken(s, pyrandom.Random(3)), cfg, dist)
        assert result.seed is None
        assert result.total_steps == 1024 * k + (cfg.m + k) * (
            weight * dist.observed_count + 1024 - dist.observed_count)


class TestVerifySeed:
    def test_offset_zero(self):
        s = stream(42, 20)
        assert verify_seed(42, s, 0) == 0

    def test_unrelated_seed_none(self):
        s = stream(42, 20)
        assert verify_seed(43, s, 5) is None
        # Every window recurs in every stream; seed 43's holds this one
        # 504370384 outputs in. Neither answer scans the offsets before it.
        assert verify_seed(43, s, 10**8) is None
        assert verify_seed(43, s, 10**9) == 504370384

    def test_smallest_offset_returned(self):
        s = stream(99, 130)[30:]
        assert verify_seed(99, s, 1000) == 30

    def test_window_slides_match_direct_generation(self):
        # the slide mechanics must agree with plain stream slicing
        rng = pyrandom.Random(79)
        for _ in range(20):
            g = rng.randrange(1024)
            j = rng.randrange(0, 500)
            k = rng.randrange(1, 30)
            s = stream(g, j + k)[j:]
            assert verify_seed(g, s, j) == j

    def test_rejects_negative_max_offset(self):
        with pytest.raises(ValueError):
            verify_seed(1, [16807], -1)

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


def fields(result):
    return (result.seed, result.offset, result.total_steps)


def assert_matches_loop(s, cfg, dist, optimized):
    search = find_seed_opt if optimized else find_seed
    assert fields(search(s, cfg, dist)) == fields(search_loop(s, cfg, dist, optimized))


def round_steps(k, cfg, dist, optimized):
    """Q: the steps of one phase-2 round, the sum of the quotas."""
    weight = cfg.t if optimized else 1
    return (cfg.m + k) * (weight * dist.observed_count + 1024 - dist.observed_count)


def broken(window, rng):
    """window with one value changed, so it is no arc of the generator."""
    out = list(window)
    i = rng.randrange(len(out))
    out[i] = out[i] % (MODULUS - 1) + 1
    return out


class TestClosedFormAgainstLoop:
    """find_seed/find_seed_opt against the stepped round-robin search."""

    def test_random_instances(self):
        rng = pyrandom.Random(83)
        dists = [band_dist(), build_prob_dist(trace([])),
                 build_prob_dist(trace([1, 1, 0, 700]))]
        for _ in range(40):
            dist = rng.choice(dists)
            k = rng.choice((1, 3, 100))
            g = rng.choice((0, 1, 335, 338, 700, 901, rng.randrange(1024)))
            d = rng.choice((0, rng.randint(1, 300)))
            cfg = CrackConfig(m=rng.choice((1, 10, 100)), t=rng.choice((1, 4)))
            s = stream(g, d + k)[d:]
            assert_matches_loop(s, cfg, dist, optimized=rng.random() < 0.5)

    @pytest.mark.parametrize("observed", [[0, 0, 1], [1, 1, 0]])
    def test_seeds_zero_and_one_share_a_stream(self, observed):
        # srandom maps seed 0 to state 1, so the first of 0 and 1 in the
        # ranking wins, with the same offset either way.
        dist = build_prob_dist(trace(observed))
        for d in (0, 5, 250):
            s = stream(1, d + 3)[d:]
            for optimized in (False, True):
                assert_matches_loop(s, CrackConfig(m=1, t=4), dist, optimized)
                assert find_seed(s, CrackConfig(m=1), dist).seed == observed[0]

    @pytest.mark.parametrize("optimized", [False, True])
    def test_match_at_last_slide_of_a_visit(self, optimized):
        # An offset that is a multiple of the quota matches on the visit's
        # last slide, one round earlier than the offset after it.
        dist = band_dist()
        for k in (1, 3):
            cfg = CrackConfig(m=5, t=4)
            for g, weight in ((338, cfg.t if optimized else 1), (700, 1)):
                quota = weight * (cfg.m + k)
                for d in (quota, 2 * quota, 2 * quota + 1):
                    assert_matches_loop(stream(g, d + k)[d:], cfg, dist, optimized)

    @pytest.mark.parametrize("k", [1, 3, 100])
    @pytest.mark.parametrize("optimized", [False, True])
    def test_budgets_at_round_boundaries(self, k, optimized):
        # The budget is checked after phase 1 (T1 = 1024*k steps) and after
        # each round of Q steps; the window sits in round 2 of seed 700.
        dist = band_dist()
        cfg = CrackConfig(m=5, t=4)
        q = round_steps(k, cfg, dist, optimized)
        t1 = 1024 * k
        s = stream(700, 2 * (cfg.m + k) + 2 + k)[2 * (cfg.m + k) + 2:]
        for budget in (t1 - 1, t1, t1 + 1, *(t1 + r * q + e for r in (1, 2, 3)
                                             for e in (-1, 0, 1))):
            cfg = CrackConfig(m=5, t=4, max_total_steps=budget)
            assert_matches_loop(s, cfg, dist, optimized)

    def test_inconsistent_windows_under_small_budgets(self):
        rng = pyrandom.Random(89)
        dist = band_dist()
        for k in (2, 3, 100):
            window = broken(stream(rng.randrange(1024), k + 7)[7:], rng)
            for optimized in (False, True):
                cfg = CrackConfig(m=1, t=4)
                q = round_steps(k, cfg, dist, optimized)
                for budget in (1, 1024 * k, 1024 * k + 1, 1024 * k + 3 * q + 1):
                    cfg = CrackConfig(m=1, t=4, max_total_steps=budget)
                    assert_matches_loop(window, cfg, dist, optimized)
                    assert find_seed(window, cfg, dist).seed is None


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
            for max_offset in (d, d + rng.randint(1, 50), max(d - 1, 0)):
                assert verify_seed(g, s, max_offset) == verify_scan(g, s, max_offset)
            other = rng.randrange(1024)
            assert verify_seed(other, s, d) == verify_scan(other, s, d)
            if k > 1:
                b = broken(s, rng)
                assert verify_seed(g, b, d) is None
                assert verify_scan(g, b, d) is None

    def test_smallest_offset_past_a_cycle(self):
        # A match at max_offset recurs every 2^31 - 2 outputs; the
        # smallest offset is max_offset reduced by whole cycles.
        s = stream(99, 130)[30:]
        assert verify_seed(99, s, 30 + GROUP_ORDER) == 30
        assert verify_seed(0, stream(1, 3), 2 * GROUP_ORDER) == 0
