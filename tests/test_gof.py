import numpy as np
import pytest

from weibull_estlab import (
    GofReport,
    WeibullParams,
    cvm_distance,
    gof_report,
    gof_reports,
    ks_distance,
    quantile,
)


def lone_distances(x, p):
    """The oracle: one model's KS and CvM distances, row by row as a lone
    evaluation of the formulas computes them."""
    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    f = -np.expm1(-((x / p.scale) ** p.shape))
    i = np.arange(1, n + 1, dtype=float)
    ks = float(np.max(np.maximum(i / n - f, f - (i - 1) / n)))
    cvm = float(1.0 / (12 * n) + np.sum(((2 * i - 1) / (2 * n) - f) ** 2))
    return ks, cvm


def random_params(rng, count):
    """Models of every kind: shapes of 2 and 0.5 exactly (numpy squares and
    takes the root there), integers, and shapes and scales whose cdf
    saturates to 1.0 or is tiny at part of the data."""
    params = []
    for _ in range(count):
        kind = rng.integers(0, 5)
        if kind == 0:
            shape = [2.0, 0.5, 1.0, 2, 3][rng.integers(0, 5)]
        elif kind == 1:
            shape = float(rng.uniform(20.0, 80.0))
        else:
            shape = float(np.exp(rng.normal(0.0, 1.5)))
        params.append(WeibullParams(shape, float(np.exp(rng.normal(0.0, 2.0)))))
    return params


class TestKs:
    def test_centered_plotting_points(self):
        n = 37
        p = WeibullParams(1.7, 4.0)
        x = quantile(p, (2 * np.arange(1, n + 1) - 1) / (2 * n))
        assert ks_distance(x, p) == pytest.approx(1 / (2 * n), abs=1e-12)

    def test_single_point_at_median(self):
        p = WeibullParams(2.0, 3.0)
        assert ks_distance([quantile(p, 0.5)], p) == pytest.approx(0.5, abs=1e-12)

    def test_accepts_sorted_sample(self, lifetime_sample):
        p = WeibullParams(4.5922, 26.9452)
        direct = ks_distance(lifetime_sample.values, p)
        assert ks_distance(lifetime_sample, p) == direct

    def test_invariant_under_power_transform(self, lifetime_sample):
        p = WeibullParams(4.5922, 26.9452)
        base = ks_distance(lifetime_sample, p)
        for k in (0.5, 2.0, 3.0):
            transformed = lifetime_sample.values ** k
            q = WeibullParams(p.shape / k, p.scale ** k)
            assert ks_distance(transformed, q) == pytest.approx(base, abs=1e-12)


class TestCvm:
    def test_minimum_attained(self):
        n = 23
        p = WeibullParams(0.8, 2.0)
        x = quantile(p, (2 * np.arange(1, n + 1) - 1) / (2 * n))
        assert cvm_distance(x, p) == pytest.approx(1 / (12 * n), rel=1e-10)

    def test_lower_bound_fuzz(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 50))
            data = np.exp(rng.normal(0, 1, n))
            p = WeibullParams(rng.uniform(0.2, 8.0), rng.uniform(0.1, 20.0))
            assert cvm_distance(data, p) >= 1 / (12 * n) - 1e-15

    def test_continuity_in_parameters(self, lifetime_sample):
        p = WeibullParams(4.5922, 26.9452)
        q = WeibullParams(4.5922 + 1e-9, 26.9452 - 1e-9)
        assert abs(cvm_distance(lifetime_sample, p) - cvm_distance(lifetime_sample, q)) < 1e-6
        assert abs(ks_distance(lifetime_sample, p) - ks_distance(lifetime_sample, q)) < 1e-6


class TestReport:
    def test_report_bundles_both(self, lifetime_sample):
        p = WeibullParams(4.7099, 26.6979)
        rep = gof_report(lifetime_sample, p)
        assert rep.n == 48
        assert rep.ks == ks_distance(lifetime_sample, p)
        assert rep.cvm == cvm_distance(lifetime_sample, p)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            ks_distance([], WeibullParams(1, 1))


class TestBatch:
    """gof_reports scores many models from one cdf matrix; each row keeps the
    bits of the oracle, alone, in any order and in any company."""

    @pytest.mark.filterwarnings("ignore:overflow encountered in power")
    def test_rows_equal_the_oracle_bit_for_bit(self, rng):
        saturated = tiny = 0
        for trial in range(400):
            n = int(rng.choice([1, 2, 7, 8, 9, 48, 128, 129, 1000, 20000])) if trial % 4 == 0 \
                else int(rng.integers(1, 60))
            x = np.exp(rng.normal(0.0, rng.uniform(0.1, 4.0), n))
            params = random_params(rng, int(rng.integers(1, 12)))
            reports = gof_reports(x, params)
            assert [(r.ks, r.cvm, r.n) for r in reports] == \
                [lone_distances(x, p) + (n,) for p in params]
            for p in params:
                f = -np.expm1(-((np.sort(x) / p.scale) ** p.shape))
                saturated += bool(np.any(f == 1.0))
                tiny += bool(np.any((f > 0.0) & (f < 1e-12)))
        assert saturated > 100 and tiny > 100

    def test_a_row_keeps_its_bits_alone_in_any_order_and_company(self, rng):
        x = np.exp(rng.normal(0.0, 1.0, 48))
        params = random_params(rng, 10)
        batch = gof_reports(x, params)
        assert [gof_report(x, p) for p in params] == batch
        order = rng.permutation(len(params))
        assert gof_reports(x, [params[k] for k in order]) == [batch[k] for k in order]
        company = random_params(rng, 7)
        mixed = gof_reports(x, company[:3] + params[4:5] + company[3:])
        assert mixed[3] == batch[4]
        assert gof_reports(x, params + params) == batch + batch

    def test_reports_and_scalar_calls_agree(self, lifetime_sample):
        p = WeibullParams(4.5922, 26.9452)
        (report,) = gof_reports(lifetime_sample, [p])
        assert isinstance(report, GofReport) and type(report.ks) is float
        assert report == gof_report(lifetime_sample.values[::-1], p)
        assert (report.ks, report.cvm) == (ks_distance(lifetime_sample, p),
                                           cvm_distance(lifetime_sample, p))
        assert gof_reports(lifetime_sample, []) == []

    @pytest.mark.parametrize("data", [[], [1.0, 0.0, 2.0], [1.0, -3.0], [1.0, np.inf],
                                      [np.nan, 1.0]],
                             ids=["empty", "zero", "negative", "infinite", "nan"])
    def test_bad_data_rejected(self, data):
        p = WeibullParams(1.5, 2.0)
        for call in (lambda: gof_reports(data, [p, p]), lambda: gof_report(data, p),
                     lambda: ks_distance(data, p), lambda: cvm_distance(data, p)):
            with pytest.raises(ValueError):
                call()

    @pytest.mark.parametrize("shape, scale", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                                              (1.0, -2.0), (np.inf, 1.0), (1.0, np.nan)])
    def test_non_positive_or_non_finite_parameters_rejected(self, shape, scale):
        with pytest.raises(ValueError):
            gof_reports([1.0, 2.0], [WeibullParams(shape, scale)])
