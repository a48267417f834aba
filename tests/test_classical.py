import math

import numpy as np
import pytest
from scipy.special import gammaln

from weibull_estlab import (
    DegenerateSampleError,
    PercentileConfig,
    SortedSample,
    WeibullParams,
    fit_lm,
    fit_mlm,
    fit_mm,
    fit_pm,
    quantile,
    sample,
    sample_lmoments,
)

from weibull_estlab.classical import _ANCHOR_P, QUANTILE_RULES, _sorted_quantile, fit_mm_batch
from weibull_estlab.core import draw_sorted
from weibull_estlab.regression import LogStats

from conftest import random_positive_sample, uniform_rows


def cv_ratio(a):
    return math.exp(float(gammaln(1 + 2 / a) - 2 * gammaln(1 + 1 / a))) - 1.0


class TestSampleLMoments:
    def test_two_points(self):
        lm = sample_lmoments(SortedSample.from_data([1.0, 2.0]))
        assert lm.m1 == pytest.approx(1.5, rel=1e-15)
        assert lm.m2 == pytest.approx(0.5, rel=1e-15)

    def test_degenerate(self):
        lm = sample_lmoments(SortedSample.from_data([4.0] * 6))
        assert lm.m1 == pytest.approx(4.0, rel=1e-15)
        assert lm.m2 == pytest.approx(0.0, abs=1e-14)

    def test_pairwise_difference_oracle(self, rng):
        # m2 equals half the mean absolute difference over unordered pairs
        for _ in range(100):
            data = random_positive_sample(rng, n=int(rng.integers(2, 200)))
            s = SortedSample.from_data(data)
            diffs = np.abs(s.values[:, None] - s.values[None, :])
            n = s.n
            oracle = diffs.sum() / (2 * n * (n - 1))  # half the off-diagonal mean
            assert sample_lmoments(s).m2 == pytest.approx(oracle, rel=1e-12, abs=1e-14)


class TestFitLM:
    def test_two_point_hand_value(self):
        r = fit_lm(SortedSample.from_data([1.0, 2.0]))
        expected_shape = math.log(2) / (math.log(3) - math.log(2))
        assert r.shape == pytest.approx(expected_shape, rel=1e-12)
        expected_scale = 1.5 / math.exp(float(gammaln(1 / expected_shape + 1)))
        assert r.scale == pytest.approx(expected_scale, rel=1e-12)

    def test_lifetime_dataset(self, lifetime_sample):
        r = fit_lm(lifetime_sample)
        assert r.shape == pytest.approx(4.9512, abs=0.005)
        assert r.scale == pytest.approx(26.9055, abs=0.005)

    def test_exponential_fixed_point(self):
        # {1, 3}: m1 = 2, m2 = 1, so m2/m1 = 1 - 2^(-1) and shape = 1 exactly
        r = fit_lm(SortedSample.from_data([1.0, 3.0]))
        assert r.shape == pytest.approx(1.0, rel=1e-14)

    def test_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            fit_lm(SortedSample.from_data([2.0, 2.0, 2.0]))

    def test_sums_that_overflow(self, lifetime_sample):
        # the sum of these 48 values overflows; a power of two scales exactly
        big = lifetime_sample.scaled(2.0 ** 1017)
        r, r_big = fit_lm(lifetime_sample), fit_lm(big)
        assert r_big.shape == r.shape
        assert r_big.scale == r.scale * 2.0 ** 1017
        lm, lm_big = sample_lmoments(lifetime_sample), sample_lmoments(big)
        assert (lm_big.m1, lm_big.m2) == (lm.m1 * 2.0 ** 1017, lm.m2 * 2.0 ** 1017)

    def test_consistency_large_sample(self):
        s = sample(WeibullParams(2.5, 2.5), 100_000, np.random.default_rng(99))
        r = fit_lm(s)
        assert r.shape == pytest.approx(2.5, rel=0.02)
        assert r.scale == pytest.approx(2.5, rel=0.02)


class TestFitMLM:
    def test_lifetime_dataset(self, lifetime_sample):
        r = fit_mlm(lifetime_sample)
        assert r.shape == pytest.approx(5.3119, abs=0.01)
        assert r.scale == pytest.approx(26.7771, abs=0.01)

    def test_unit_fixed_point(self):
        # two points whose log-variance is exactly pi^2/6 give shape 1
        gap = math.pi * math.sqrt(2.0 / 6.0)
        s = SortedSample.from_data([1.0, math.exp(gap)])
        assert fit_mlm(s).shape == pytest.approx(1.0, rel=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            fit_mlm(SortedSample.from_data([5.0, 5.0]))


class TestFitPM:
    def test_self_consistency_against_quantile(self):
        # data placed at the exact model quantiles of the rule's plotting points
        n = 4001
        p = WeibullParams(2.0, 3.0)
        cfg = PercentileConfig(p=0.31, quantile_rule="median_unbiased")
        positions = (np.arange(1, n + 1) - 1 / 3) / (n + 1 / 3)
        s = SortedSample.from_data(quantile(p, positions))
        r = fit_pm(s, cfg)
        assert r.shape == pytest.approx(2.0, abs=1e-6)
        assert r.scale == pytest.approx(3.0, abs=1e-6)

    @pytest.mark.parametrize("rule", QUANTILE_RULES)
    def test_sorted_quantile_is_numpy_quantile(self, rule):
        # the virtual index is evaluated in numpy's order, so it rounds alike
        # at every n, including where it lands next to an integer
        rng = np.random.default_rng(31)
        probs = (0.01, 0.1, 0.31, 0.5, 0.6, _ANCHOR_P)
        for n in range(2, 1001):
            values = np.sort(np.exp(rng.normal(0.0, 1.0, (3, n))), axis=1)
            values[2] = np.round(values[2], 1)  # ties
            got = np.array([_sorted_quantile(values, p, rule) for p in probs])
            want = np.quantile(values, probs, axis=1, method=rule)
            assert got.tobytes() == want.tobytes(), (rule, n)

    def test_lifetime_linear_rule(self, lifetime_sample):
        r = fit_pm(lifetime_sample, PercentileConfig(p=0.31, quantile_rule="linear"))
        assert r.shape == pytest.approx(5.9767, abs=0.005)
        assert r.scale == pytest.approx(25.8461, abs=0.005)

    def test_scale_equivariance(self, lifetime_sample):
        base = fit_pm(lifetime_sample)
        scaled = fit_pm(lifetime_sample.scaled(7.25))
        assert scaled.shape == pytest.approx(base.shape, rel=1e-12)
        assert scaled.scale == pytest.approx(7.25 * base.scale, rel=1e-12)

    def test_degenerate_quantiles(self):
        with pytest.raises(DegenerateSampleError):
            fit_pm(SortedSample.from_data([2.0, 2.0, 2.0, 2.0]))

    @pytest.mark.parametrize("p", [0.0, 0.6322, 0.9, -0.1])
    def test_config_validation(self, p):
        with pytest.raises(ValueError):
            PercentileConfig(p=p)

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            PercentileConfig(quantile_rule="nearest-ish")


class TestFitMM:
    def test_unit_cv_gives_exponential_shape(self):
        # x2/x1 = 3 + 2 sqrt(2) makes S^2 equal Xbar^2, the exponential CV
        s = SortedSample.from_data([1.0, 3.0 + 2.0 * math.sqrt(2.0)])
        assert fit_mm(s).shape == pytest.approx(1.0, abs=1e-8)

    def test_lifetime_dataset(self, lifetime_sample):
        r = fit_mm(lifetime_sample)
        assert r.shape == pytest.approx(4.9150, abs=0.01)
        assert r.scale == pytest.approx(26.9169, abs=0.01)

    def test_residual_oracle(self, rng):
        for _ in range(25):
            data = random_positive_sample(rng, n=int(rng.integers(3, 100)))
            s = SortedSample.from_data(data)
            try:
                r = fit_mm(s)
            except DegenerateSampleError:
                continue
            target = s.values.var(ddof=1) / s.values.mean() ** 2
            assert cv_ratio(r.shape) == pytest.approx(target, abs=1e-8, rel=1e-8)

    def test_cv_ratio_strictly_decreasing(self):
        grid = np.geomspace(0.05, 100.0, 220)
        values = [cv_ratio(a) for a in grid]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > 0.0  # decreasing toward the limit, never crossing below 0

    def test_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            fit_mm(SortedSample.from_data([1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("shape", [0.1, 0.5, 2.5, 20.0, 60.0])
    def test_newton_settles_in_two_steps_from_the_tabled_start(self, shape):
        # the start lies just above the root, inside its seed bracket, and
        # Newton's first step from it lands just below: two scores vouch for
        # both bracket ends, and the second step is below the solver's
        # tolerance
        rngs = [np.random.default_rng([4, r]) for r in range(40)]
        values, logs = draw_sorted(WeibullParams(shape, 1.0), uniform_rows(rngs, 30))
        fit = fit_mm_batch(LogStats(values, logs))
        assert not fit.errors and not np.any(fit.fallback)
        assert np.all(fit.iterations == 2)

    def test_start_above_a_hundred_settles_without_widening(self):
        # the seed bracket follows the start, so a shape far above 100 needs
        # no widened bracket and no restart from its midpoint (that took
        # 16-18 steps when MM's seed bracket was a fixed [0.05, 100])
        rngs = [np.random.default_rng([4, r]) for r in range(40)]
        values, logs = draw_sorted(WeibullParams(300.0, 1.0), uniform_rows(rngs, 30))
        fit = fit_mm_batch(LogStats(values, logs))
        assert not fit.errors and not np.any(fit.fallback)
        assert np.all(fit.iterations <= 3)
        np.testing.assert_allclose(fit.bracket[1] / fit.bracket[0], 25.0, rtol=1e-12)


class TestScaleEquivariance:
    @pytest.mark.parametrize("fitter", [fit_lm, fit_mlm, fit_mm])
    def test_closed_form_fitters(self, fitter, lifetime_sample):
        base = fitter(lifetime_sample)
        for c in (0.01, 5.0, 2000.0):
            scaled = fitter(lifetime_sample.scaled(c))
            tol = 1e-8 if fitter is fit_mm else 1e-12
            assert scaled.shape == pytest.approx(base.shape, rel=tol)
            assert scaled.scale == pytest.approx(c * base.scale, rel=tol)
