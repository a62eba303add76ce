"""AUC, Mann-Whitney U, bootstrap CI, consistency, overhead summaries."""

import itertools
import time

import numpy as np
import pytest
import scipy.stats

from seedsched import (
    BernoulliArmsEnv,
    OverheadSummary,
    auc,
    bootstrap_ci,
    consistency,
    coverage_timeline,
    make_scheduler,
    mann_whitney_u,
    overhead_summary,
    run_bandit_trial,
)


class TestAuc:
    def test_constant_timeline(self):
        assert auc([(0, 100), (10, 100)]) == 1000.0

    def test_linear_ramp(self):
        assert auc([(0, 0), (10, 10)]) == 50.0

    def test_mixed_segments(self):
        # 10*(0+100)/2 + 10*(100+100)/2
        assert auc([(0, 0), (10, 100), (20, 100)]) == 1500.0

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            auc([(0, 1)])

    def test_steps_must_increase(self):
        with pytest.raises(ValueError):
            auc([(0, 1), (0, 2)])
        with pytest.raises(ValueError):
            auc([(5, 1), (3, 2)])


class TestCoverageTimeline:
    def _log(self, steps):
        env = BernoulliArmsEnv((0.5, 0.9))
        return run_bandit_trial(env, make_scheduler("sample", 2, 0), steps, 0)

    def test_keeps_interval_points_plus_ends(self):
        log = self._log(250)
        points = coverage_timeline(log, interval=100)
        assert [s for s, _ in points] == [1, 100, 200, 250]

    def test_interval_one_keeps_everything(self):
        log = self._log(5)
        assert len(coverage_timeline(log, interval=1)) == 5

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            coverage_timeline(self._log(5), interval=0)

    def test_feeds_auc(self):
        log = self._log(300)
        value = auc(coverage_timeline(log, interval=50))
        # coverage is 2 from step 1 on (both arms bootstrap-covered)
        assert value == pytest.approx(2.0 * (300 - 1))


class TestMannWhitney:
    def test_complete_separation(self):
        a = [10.0 + i for i in range(10)]
        b = [float(i) for i in range(10)]
        u, p = mann_whitney_u(a, b)
        assert u == 100.0
        assert p < 1e-3

    def test_u_symmetry_sums_to_nm(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 5, size=12).tolist()
        b = rng.integers(0, 5, size=9).tolist()
        u_ab, _ = mann_whitney_u(a, b)
        u_ba, _ = mann_whitney_u(b, a)
        assert u_ab + u_ba == len(a) * len(b)

    def test_identical_samples_give_p_one(self):
        a = [3.0] * 10
        u, p = mann_whitney_u(a, a)
        assert u == 50.0
        assert p == 1.0

    def test_exact_small_sample(self):
        # 10 possible splits; only the two extremes reach |s - mean| >= observed
        u, p = mann_whitney_u([1.0, 2.0], [3.0, 4.0, 5.0])
        assert u == 0.0
        assert p == pytest.approx(0.2)

    def test_exact_with_ties_symmetric_case(self):
        # pooled [1,1,1,2]: every split is equally far from the null mean
        u, p = mann_whitney_u([1.0, 1.0], [1.0, 2.0])
        assert p == 1.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])

    def test_matches_scipy_asymptotic(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 8, size=30).tolist()
        b = rng.integers(1, 9, size=25).tolist()
        u, p = mann_whitney_u(a, b)
        ref = scipy.stats.mannwhitneyu(
            a, b, alternative="two-sided", method="asymptotic", use_continuity=True
        )
        assert u == pytest.approx(float(ref.statistic))
        assert p == pytest.approx(float(ref.pvalue), rel=1e-9)

    def test_matches_scipy_exact_without_ties(self):
        a = [0.31, 1.17, 0.64]
        b = [0.02, 0.85, 1.93, 0.44]
        u, p = mann_whitney_u(a, b)
        ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided", method="exact")
        assert u == pytest.approx(float(ref.statistic))
        assert p == pytest.approx(float(ref.pvalue))


def _brute_force_p(a, b) -> float:
    """Two-sided permutation p over every way to pick len(a) of the pooled
    values, by doubled midranks: 2 * (number below) + (number equal) + 1."""
    pooled = list(a) + list(b)
    n, n_a = len(pooled), len(a)
    ranks2 = [2 * sum(w < v for w in pooled) + sum(w == v for w in pooled) + 1 for v in pooled]
    center = n_a * (n + 1)
    observed = abs(sum(ranks2[:n_a]) - center)
    splits = list(itertools.combinations(ranks2, n_a))
    extreme = sum(abs(sum(split) - center) >= observed for split in splits)
    return extreme / len(splits)


def _small_samples():
    rng = np.random.default_rng(20)
    for n_a in range(1, 6):
        for n_b in range(1, 8):
            for levels in (2, 3, 9):
                a = rng.integers(0, levels, n_a) / 2
                b = rng.integers(0, levels, n_b) / 2
                yield pytest.param(a.tolist(), b.tolist(), id=f"{n_a}-{n_b}-levels{levels}")
    # group a large, group b small: still the exact test, by b's splits
    yield pytest.param([0, 1, 1, 2, 3, 3, 3, 4, 5], [1, 3, 6], id="9-3")
    yield pytest.param([2] * 10, [2, 2], id="all-tied")


class TestExactMannWhitney:
    @pytest.mark.parametrize("a,b", _small_samples())
    def test_matches_brute_force_enumeration(self, a, b):
        assert mann_whitney_u(a, b)[1] == _brute_force_p(a, b)
        assert mann_whitney_u(b, a)[1] == _brute_force_p(b, a)

    def test_a_small_sample_against_a_large_one_is_fast(self):
        rng = np.random.default_rng(3)
        a, b = rng.integers(0, 50, 3).tolist(), rng.integers(0, 50, 1600).tolist()
        start = time.perf_counter()
        _, p = mann_whitney_u(a, b)
        _, p_swapped = mann_whitney_u(b, a)
        # the dict-based count took 0.33 s one way and minutes the other
        assert time.perf_counter() - start < 1.0
        assert p == p_swapped and 0.0 < p <= 1.0


class TestBootstrap:
    def test_degenerate_data_collapses(self):
        assert bootstrap_ci([5.0] * 10) == (5.0, 5.0)

    def test_seeded_and_reproducible(self):
        data = [1.0, 2.0, 3.0, 4.0, 10.0]
        assert bootstrap_ci(data, seed=3) == bootstrap_ci(data, seed=3)
        assert bootstrap_ci(data, seed=3) != bootstrap_ci(data, seed=4)

    def test_interval_brackets_the_mean(self):
        rng = np.random.default_rng(1)
        data = rng.normal(10.0, 2.0, size=40)
        lo, hi = bootstrap_ci(data)
        assert lo < data.mean() < hi
        assert hi - lo < 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], confidence=1.0)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], resamples=0)


def test_consistency_reference_value():
    assert consistency(238, 29, 10) == pytest.approx(0.82, abs=0.005)


def test_consistency_validation():
    with pytest.raises(ValueError):
        consistency(-1, 5, 2)
    with pytest.raises(ValueError):
        consistency(10, 0, 2)
    with pytest.raises(ValueError):
        consistency(10, 5, 0)


def test_overhead_summary_population_variance():
    out = overhead_summary([1.0, 3.0])
    assert out == OverheadSummary(count=2, mean=2.0, variance=1.0)
    flat = overhead_summary([4, 4, 4, 4])
    assert flat.variance == 0.0
    with pytest.raises(ValueError):
        overhead_summary([])
