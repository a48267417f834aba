import math
import threading

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from weibull_estlab import (
    DataError,
    SortedSample,
    WeibullParams,
    cdf,
    pdf,
    quantile,
    raw_moment,
    sample,
)
from weibull_estlab import core
from weibull_estlab.core import LOG_TWO, PSI_ONE, TRIGAMMA_ONE, draw_sorted

from conftest import OneZeroGenerator


class TestWeibullParams:
    @pytest.mark.parametrize("shape,scale", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                                             (math.inf, 1.0), (1.0, math.nan)])
    def test_rejects_bad_parameters(self, shape, scale):
        with pytest.raises(ValueError):
            WeibullParams(shape, scale)

    @pytest.mark.parametrize("shape,scale,bad", [
        (True, 2.5, "shape"), (2.5, np.bool_(True), "scale"), ("2.5", 1, "shape"),
        (10 ** 400, 1, "shape"),
    ], ids=["boolean", "numpy-boolean", "string", "oversized-integer"])
    def test_rejects_what_is_not_a_finite_real(self, shape, scale, bad):
        # a boolean or a string is no real number, and 10**400 has no float value
        with pytest.raises(ValueError, match=f"{bad} must be a positive finite real, got "):
            WeibullParams(shape, scale)


class TestSpecialConstants:
    def test_values(self):
        # exactly the floats scipy.special gives, which the MLM and USTAT outputs
        # and acceptance criterion 5 were recorded with; math.pi ** 2 / 6 is one
        # ulp below TRIGAMMA_ONE
        assert PSI_ONE == float(special.digamma(1.0))
        assert TRIGAMMA_ONE == float(special.polygamma(1, 1))
        assert TRIGAMMA_ONE == math.pi ** 2 / 6 + 2.0 ** -52
        assert LOG_TWO == math.log(2.0)


class TestPdf:
    def test_exponential_special_case(self):
        assert pdf(WeibullParams(1, 1), 0.5) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_hand_values(self):
        assert pdf(WeibullParams(2, 1), 1.0) == pytest.approx(2 * math.exp(-1), rel=1e-12)
        assert pdf(WeibullParams(2, 3), 3.0) == pytest.approx(2 / 3 * math.exp(-1), rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0])
    def test_domain_error(self, x):
        with pytest.raises(ValueError):
            pdf(WeibullParams(2, 3), x)

    @pytest.mark.parametrize("shape,scale", [(0.5, 2.0), (1.0, 1.0), (3.5, 0.7)])
    def test_integrates_to_one(self, shape, scale):
        p = WeibullParams(shape, scale)
        upper = quantile(p, 1 - 1e-12)
        total, err = quad(lambda x: pdf(p, x), 1e-300, upper, limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)


class TestCdf:
    def test_at_scale_for_any_shape(self):
        for shape in (0.3, 1.0, 2.0, 7.5):
            assert cdf(WeibullParams(shape, 4.2), 4.2) == pytest.approx(1 - math.exp(-1), rel=1e-12)

    def test_lower_limit(self):
        assert cdf(WeibullParams(1, 1), 1e-300) == pytest.approx(0.0, abs=1e-290)

    def test_hand_value(self):
        assert cdf(WeibullParams(2, 3), 6.0) == pytest.approx(1 - math.exp(-4), rel=1e-12)

    def test_monotone(self, rng):
        p = WeibullParams(1.7, 2.2)
        x = np.sort(rng.uniform(0.01, 20.0, 200))
        f = cdf(p, x)
        assert np.all(np.diff(f) >= 0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            cdf(WeibullParams(1, 1), -2.0)


class TestQuantile:
    def test_fixed_point_at_scale(self):
        prob = 1 - math.exp(-1)
        assert quantile(WeibullParams(2, 3), prob) == pytest.approx(3.0, rel=1e-12)
        assert quantile(WeibullParams(0.5, 2), prob) == pytest.approx(2.0, rel=1e-12)

    def test_exponential_median(self):
        assert quantile(WeibullParams(1, 1), 0.5) == pytest.approx(math.log(2), rel=1e-12)

    @pytest.mark.parametrize("prob", [0.0, 1.0, -0.1, 1.1, math.nan, [0.5, math.nan]])
    def test_domain_error(self, prob):
        with pytest.raises(ValueError):
            quantile(WeibullParams(1, 1), prob)

    def test_round_trip_grid(self):
        probs = np.arange(0.01, 1.0, 0.01)
        for shape in (0.2, 0.7, 2.0, 5.0, 10.0):
            for scale in (0.2, 1.0, 10.0):
                p = WeibullParams(shape, scale)
                err = np.abs(cdf(p, quantile(p, probs)) - probs)
                assert err.max() < 1e-10

    def test_scale_equivariance(self):
        probs = np.linspace(0.05, 0.95, 19)
        base = quantile(WeibullParams(1.8, 1.0), probs)
        for c in (0.25, 3.0, 1e4):
            scaled = quantile(WeibullParams(1.8, c), probs)
            np.testing.assert_allclose(scaled, c * base, rtol=1e-15)


class TestSample:
    def test_same_seed_same_sample(self):
        p = WeibullParams(2, 5)
        s1 = sample(p, 1000, np.random.default_rng(7))
        s2 = sample(p, 1000, np.random.default_rng(7))
        np.testing.assert_array_equal(s1.values, s2.values)

    def test_law_of_large_numbers(self):
        n = 1_000_000
        s = sample(WeibullParams(1, 1), n, np.random.default_rng(11))
        # Exp(1): mean 1, sd 1
        assert abs(s.values.mean() - 1.0) < 4.0 / math.sqrt(n)

    def test_empirical_cdf_at_scale(self):
        n = 1_000_000
        s = sample(WeibullParams(2, 5), n, np.random.default_rng(13))
        frac = np.searchsorted(s.values, 5.0) / n
        assert abs(frac - (1 - math.exp(-1))) < 0.002

    def test_power_transform_law(self):
        # X ~ (shape, scale) implies X^k ~ (shape/k, scale^k)
        n = 100_000
        s = sample(WeibullParams(2, 5), n, np.random.default_rng(17))
        k = 2.0
        transformed = np.sort(s.values ** k)
        target = WeibullParams(2 / k, 5.0 ** k)
        ecdf = np.arange(1, n + 1) / n
        sup = np.max(np.abs(cdf(target, transformed) - ecdf))
        assert sup < 0.01

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            sample(WeibullParams(1, 1), 1, np.random.default_rng(1))

    def test_zero_uniform_is_a_data_error(self):
        # the 0.0 uniform sorts first, so the sample's observation 1 is x = 0
        with pytest.raises(DataError, match=r"^observation 1 is not a positive finite real \(0\.0\)$"):
            sample(WeibullParams(1.5, 2.0), 8, OneZeroGenerator(11, 3))


class TestDrawSorted:
    P = WeibullParams(1.5, 2.0)

    def test_zero_uniform_gives_a_zero_first_in_its_row_only(self):
        # u = 0 maps to x = 0, log -inf, with no warning (the suite turns
        # RuntimeWarnings into errors); rows 0 and 2 map as if it had not
        u = np.random.default_rng(10).random((3, 8))
        u[1, 3] = 0.0
        kept = np.delete(u[1], 3)
        others = draw_sorted(self.P, u[[0, 2]])
        values, logs = draw_sorted(self.P, u)
        assert values[1, 0] == 0.0 and logs[1, 0] == -np.inf
        np.testing.assert_array_equal(values[1, 1:], np.sort(quantile(self.P, kept)))
        np.testing.assert_array_equal(logs[1, 1:], np.log(values[1, 1:]))
        np.testing.assert_array_equal(values[[0, 2]], others[0])
        np.testing.assert_array_equal(logs[[0, 2]], others[1])

    def test_maps_the_uniforms_in_place_and_logs_receive_the_result(self):
        u = np.random.default_rng(4).random((4, 30))
        fresh = draw_sorted(self.P, u.copy())
        logs = np.empty((4, 30))
        got = draw_sorted(self.P, u, logs)
        assert got[0] is u and got[1] is logs
        np.testing.assert_array_equal(got[0], fresh[0])
        np.testing.assert_array_equal(got[1], fresh[1])

    @pytest.mark.parametrize("shape", [(30,), (4, 1), (2, 3, 4)])
    def test_rejects_anything_but_a_matrix_with_two_columns_or_more(self, shape):
        with pytest.raises(ValueError, match="R x n matrix"):
            draw_sorted(self.P, np.full(shape, 0.5))

    def test_sample_inverts_one_row_of_its_generator(self):
        values, logs = draw_sorted(self.P, np.random.default_rng(8).random((1, 12)))
        s = sample(self.P, 12, np.random.default_rng(8))
        np.testing.assert_array_equal(s.values, values[0])
        np.testing.assert_array_equal(s.logs, logs[0])


class TestSubstreams:
    """core.substreams equals numpy's SeedSequence for every spawn-key prefix."""

    # the last seed has more entropy words than the pool holds
    @pytest.mark.parametrize("seed", [0, 1, 1729, 2**32, 2**64 + 5, 2**96 + 12345, 2**160 + 7])
    def test_weight_family_equals_seed_sequence(self, seed):
        for n in (2, 5, 30, 48, 1000, 2**32 - 1):
            rng, = core.substreams(seed, (core.WEIGHTS,), range(n, n + 1))
            oracle = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(core.WEIGHTS, n)))
            assert rng.bit_generator.state == oracle.bit_generator.state, n
            assert np.array_equal(rng.standard_exponential(8), oracle.standard_exponential(8))

    @pytest.mark.parametrize("key", [(), (core.REPLICATIONS, 5), (3, 2**40)])
    def test_any_key_prefix_equals_seed_sequence(self, key):
        for seed in (0, 2**64 + 5, 2**160 + 7):
            for i, rng in enumerate(core.substreams(seed, key, range(40))):
                oracle = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key + (i,)))
                assert rng.bit_generator.state == oracle.bit_generator.state, (seed, i)


class TestScratch:
    def test_reused_per_tag_and_fresh_above_the_cap(self):
        a = core.scratch("test.a", (4, 5))
        assert a.shape == (4, 5) and a.dtype == np.float64
        assert np.shares_memory(a, core.scratch("test.a", (2, 10)))
        assert not np.shares_memory(a, core.scratch("test.b", (4, 5)))
        big = (2, core._SCRATCH_MAX_VALUES // 2 + 1)
        assert not np.shares_memory(core.scratch("test.big", big), core.scratch("test.big", big))

    def test_each_thread_has_its_own_buffers(self):
        mine = core.scratch("test.a", (4, 5))
        theirs = []
        t = threading.Thread(target=lambda: theirs.append(core.scratch("test.a", (4, 5))))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        assert not np.shares_memory(mine, theirs[0])


class TestRawMoment:
    def test_exponential_moments(self):
        p = WeibullParams(1, 1)
        assert raw_moment(p, 1) == pytest.approx(1.0, rel=1e-12)
        assert raw_moment(p, 2) == pytest.approx(2.0, rel=1e-12)

    def test_gamma_table_value(self):
        assert raw_moment(WeibullParams(2, 1), 1) == pytest.approx(0.8862269254527581, rel=1e-12)

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            raw_moment(WeibullParams(0.01, 1.0), 5)
        with pytest.raises(OverflowError):
            raw_moment(WeibullParams(1.0, 1e308), 2)

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            raw_moment(WeibullParams(1, 1), 0)


class TestSortedSample:
    def test_sorts_and_logs(self):
        s = SortedSample.from_data([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(s.values, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(s.logs, np.log([1.0, 2.0, 3.0]))
        assert s.n == 3

    def test_rejects_short(self):
        with pytest.raises(DataError):
            SortedSample.from_data([1.0])

    def test_rejects_nonpositive_with_indices(self):
        with pytest.raises(DataError,
                           match=r"^observation 2 is not a positive finite real \(-2\.0\)$"):
            SortedSample.from_data([1.0, -2.0, 3.0, 0.0])
        with pytest.raises(DataError, match=r"observation 3 .*\(nan\)"):
            SortedSample.from_data([1.0, 2.0, math.nan])

    def test_values_read_only(self):
        s = SortedSample.from_data([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 5.0

    def test_scaled(self):
        s = SortedSample.from_data([1.0, 4.0, 9.0])
        t = s.scaled(2.0)
        np.testing.assert_allclose(t.values, [2.0, 8.0, 18.0])
