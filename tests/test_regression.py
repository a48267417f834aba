import math
import pydoc
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from weibull_estlab import (
    DegenerateSampleError,
    PlottingPositions,
    SortedSample,
    WeibullParams,
    build_positions,
    fit_gls1,
    fit_gls2,
    fit_wls,
    sample,
)
from weibull_estlab.core import row_dot
from weibull_estlab.regression import (
    GLS1_SLOPE,
    PAIR_MINIMA,
    PLOTTING_RULES,
    LogStats,
    _apply_precision,
    _gls_operator,
    mean_corrected_transform,
    plot_transform,
    v_diagonal,
)

from conftest import dense_reference, dense_system, dense_v, random_positive_sample


def exact_line_sample(n, rule, shape=3.0, scale=2.0):
    """Data whose log lies exactly on the regression line in the plain design."""
    pos = build_positions(n, rule)
    y = math.log(scale) + plot_transform(pos.values) / shape
    return SortedSample.from_data(np.exp(y)), pos


class TestPositions:
    def test_rule_one_n3(self):
        pos = build_positions(3, "i/(n+1)")
        np.testing.assert_allclose(pos.values, [0.25, 0.5, 0.75], rtol=1e-15)

    def test_rule_two_n3(self):
        pos = build_positions(3, "(i-0.3)/(n+0.4)")
        np.testing.assert_allclose(pos.values, [0.2059, 0.5, 0.7941], atol=5e-5)

    @pytest.mark.parametrize("rule", ["i/(n+1)", "(i-0.3)/(n+0.4)"])
    @pytest.mark.parametrize("n", [2, 17, 200])
    def test_strictly_increasing_in_unit_interval(self, rule, n):
        v = build_positions(n, rule).values
        assert np.all(np.diff(v) > 0)
        assert v[0] > 0.0 and v[-1] < 1.0

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            build_positions(5, "i/n")


class TestBuildV:
    """The dense V of the test oracle against the paper's hand values."""

    def test_hand_values_n2(self):
        v = dense_v(2)
        assert v[0, 0] == pytest.approx(0.5 / math.log(2 / 3) ** 2, rel=1e-12)
        assert v[0, 1] == pytest.approx(0.5 / (math.log(2 / 3) * math.log(1 / 3)), rel=1e-12)
        assert v[1, 1] == pytest.approx(2.0 / math.log(1 / 3) ** 2, rel=1e-12)
        assert v[0, 0] == pytest.approx(3.041, abs=5e-4)
        assert v[0, 1] == pytest.approx(1.122, abs=5e-4)
        assert v[1, 1] == pytest.approx(1.657, abs=5e-4)

    @pytest.mark.parametrize("n", [2, 5, 10, 30, 50, 100, 200])
    def test_symmetric_positive_definite(self, n):
        v = dense_v(n)
        assert np.array_equal(v, v.T)
        assert np.all(v > 0.0)
        eigs = np.linalg.eigvalsh(v)
        assert eigs.min() > 0.0

    def test_diagonal_shortcut(self):
        for n in (2, 7, 48):
            np.testing.assert_allclose(v_diagonal(n), np.diag(dense_v(n)), rtol=1e-14)


class TestClosedFormPrecision:
    def test_times_dense_v_is_identity(self):
        for n in range(2, 201):
            err = np.abs(_apply_precision(n, dense_v(n)) - np.eye(n)).max()
            assert err < 1e-12, n

    @pytest.mark.parametrize("n", [1000, 4000])
    def test_fits_match_dense_cholesky(self, n):
        s = sample(WeibullParams(2.5, 7.0), n, np.random.default_rng(n))
        sys = dense_system(s)
        factor = cho_factor(sys.cov_v, lower=True, overwrite_a=True)
        x, z, y = sys.design_x, sys.design_z, sys.response_y
        vi_z = cho_solve(factor, z)
        xw = x / sys.weights_w[:, None]
        cases = [
            (fit_gls1(s), np.linalg.solve(z.T @ vi_z, vi_z.T @ y)),
            (fit_gls2(s), np.linalg.solve(z.T @ cho_solve(factor, x), vi_z.T @ y)),
            (fit_wls(s), np.linalg.solve(xw.T @ x, xw.T @ y)),
        ]
        for fitted, b in cases:
            assert fitted.shape == pytest.approx(1 / b[1], rel=1e-10), fitted.method
            assert fitted.scale == pytest.approx(math.exp(b[0]), rel=1e-10), fitted.method

    def test_cold_fit_memory_is_linear(self):
        # a dense V alone would take 8 n^2 = 200 MB at this size
        s = sample(WeibullParams(2.5, 7.0), 5000, np.random.default_rng(5))
        _gls_operator.cache_clear()
        tracemalloc.start()
        try:
            fit_gls1(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5e6


class TestExactLineRecovery:
    def test_gls2(self):
        # the instrumented solve reproduces any response lying in the design span
        s, pos = exact_line_sample(25, "i/(n+1)")
        r = fit_gls2(s, pos)
        assert r.shape == pytest.approx(3.0, abs=1e-10)
        assert r.scale == pytest.approx(2.0, abs=1e-10)
        assert abs(r.residual) < 1e-10

    def test_wls(self):
        s, pos = exact_line_sample(25, "i/(n+1)")
        r = fit_wls(s, pos)
        assert r.shape == pytest.approx(3.0, abs=1e-10)
        assert r.scale == pytest.approx(2.0, abs=1e-10)


class TestDenseOracle:
    @pytest.mark.parametrize("n", [5, 17, 50])
    def test_all_fitters_match_explicit_inverse(self, n, rng):
        for _ in range(10):
            s = SortedSample.from_data(random_positive_sample(rng, n=n))
            sys = dense_system(s)
            v = sys.cov_v
            cases = [
                (fit_gls1(s), sys.design_z, sys.design_z),
                (fit_gls2(s), sys.design_x, sys.design_z),
            ]
            for fitted, design, instrument in cases:
                b = dense_reference(design, instrument, v, sys.response_y)
                assert fitted.shape == pytest.approx(1 / b[1], rel=1e-8)
                assert fitted.scale == pytest.approx(math.exp(b[0]), rel=1e-8)
            w = np.diag(v_diagonal(n))
            b = dense_reference(sys.design_x, sys.design_x, w, sys.response_y)
            assert fit_wls(s).shape == pytest.approx(1 / b[1], rel=1e-8)
            assert fit_wls(s).scale == pytest.approx(math.exp(b[0]), rel=1e-8)


class TestWlsReductions:
    def test_unit_weights_reduce_to_ols(self, lifetime_sample):
        sys = dense_system(lifetime_sample)
        x, y = sys.design_x, sys.response_y
        ols = np.linalg.solve(x.T @ x, x.T @ y)
        w_unit = dense_reference(x, x, np.eye(lifetime_sample.n), y)
        np.testing.assert_allclose(w_unit, ols, rtol=1e-12)


class TestFitProperties:
    def test_lifetime_values_match_published_rows(self, lifetime_sample):
        r1 = fit_gls1(lifetime_sample)
        assert r1.shape == pytest.approx(4.7548, abs=0.05)
        assert r1.scale == pytest.approx(26.9926, abs=0.05)
        r2 = fit_gls2(lifetime_sample)
        assert r2.shape == pytest.approx(4.3035, abs=0.1)
        assert r2.scale == pytest.approx(26.9788, abs=0.1)
        rw = fit_wls(lifetime_sample)
        assert rw.shape == pytest.approx(4.7099, abs=0.02)
        assert rw.scale == pytest.approx(26.6979, abs=0.02)

    @pytest.mark.parametrize("fitter", [fit_gls1, fit_gls2, fit_wls])
    def test_scale_equivariance(self, fitter, lifetime_sample):
        base = fitter(lifetime_sample)
        for c in (0.02, 9.0):
            scaled = fitter(lifetime_sample.scaled(c))
            assert scaled.shape == pytest.approx(base.shape, rel=1e-10)
            assert scaled.scale == pytest.approx(c * base.scale, rel=1e-10)

    def test_tie_note_attached(self):
        s = SortedSample.from_data([1.0, 2.0, 2.0, 3.0, 5.0])
        r = fit_wls(s)
        assert any("tied" in note for note in r.notes)

    def test_lifetime_data_has_tie_note(self, lifetime_sample):
        # 23.47 appears twice in the bundled data
        assert any("tied" in note for note in fit_gls1(lifetime_sample).notes)

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSampleError):
            fit_wls(SortedSample.from_data([4.0, 4.0, 4.0]))

    def test_position_size_mismatch(self, lifetime_sample):
        with pytest.raises(ValueError):
            fit_gls1(lifetime_sample, build_positions(10))

    @pytest.mark.parametrize("fitter", [fit_gls1, fit_gls2, fit_wls])
    def test_hand_rolled_positions_are_refused(self, fitter, lifetime_sample):
        # the fits use the columns cached for the declared rule, so values that
        # are not that rule's would be silently ignored
        hand_rolled = PlottingPositions(rule="i/(n+1)", values=np.linspace(0.01, 0.99, 48))
        with pytest.raises(ValueError, match="do not match their declared rule"):
            fitter(lifetime_sample, hand_rolled)
        # equal values built by hand are accepted
        same = PlottingPositions(rule="i/(n+1)", values=np.arange(1, 49) / 49.0)
        assert fitter(lifetime_sample, same) == fitter(lifetime_sample, build_positions(48))


class TestBuildSystem:
    def test_design_column_strictly_increasing(self, lifetime_sample):
        sys = dense_system(lifetime_sample)
        assert np.all(np.diff(sys.design_x[:, 1]) > 0)


class TestTransforms:
    def test_corrected_column_approaches_plain_away_from_edges(self):
        # the O(1/n) curvature term vanishes in the bulk; the extreme order
        # statistics keep an O(1) correction by construction
        n = 5000
        pos = build_positions(n).values
        gap = np.abs(mean_corrected_transform(pos, n) - plot_transform(pos))
        middle = gap[n // 10: -n // 10]
        assert middle.max() < 5e-3
        assert np.median(gap) < 1e-3


class TestSharedProduct:
    """LogStats.products, one wide row_dot, against the narrow products the fits
    made on their own before they shared it: GLS1 and GLS2 multiplied the logs
    by the column-major n x 2 V^-1 Z, WLS by W^-1 X, and USTAT by the 1-d
    pair-minimum weights. Equal bytes, so a change in how einsum sums a column
    of a wider operand fails here."""

    @pytest.mark.parametrize("rule", PLOTTING_RULES)
    @pytest.mark.parametrize("n", [2, 5, 10, 30, 48, 129, 1000, 4000])
    def test_each_column_is_summed_as_alone(self, n, rule):
        columns = _gls_operator(n, rule).columns
        narrow = [np.asfortranarray(columns[:, 0:2]), np.asfortranarray(columns[:, 2:4]),
                  np.arange(n - 1, -1, -1, dtype=float),
                  np.ascontiguousarray(columns[:, GLS1_SLOPE])]
        rng = np.random.default_rng(n)
        for rows in (1, 7, 400):
            values = np.sort(rng.weibull(1.7, (rows, n)) * 3.0, axis=1)
            logs = np.log(values)
            wide = LogStats(values, logs, rule).products
            assert wide.shape == (rows, 6)
            assert wide[:, 0:2].tobytes() == row_dot(logs, narrow[0]).tobytes()
            assert wide[:, 2:4].tobytes() == row_dot(logs, narrow[1]).tobytes()
            assert wide[:, PAIR_MINIMA].tobytes() == row_dot(logs, narrow[2]).tobytes()
            assert wide[:, GLS1_SLOPE].tobytes() == row_dot(logs, narrow[3]).tobytes()

    @pytest.mark.parametrize("n", [2, 5, 48, 1000])
    def test_start_column_is_the_default_rule_gls1_slope(self, n):
        s = SortedSample.from_data(random_positive_sample(np.random.default_rng(n), n))
        for rule in PLOTTING_RULES:
            assert _gls_operator(n, rule).columns[:, GLS1_SLOPE].tobytes() == \
                _gls_operator(n, PLOTTING_RULES[0]).columns[:, GLS1_SLOPE].tobytes()
            slope = LogStats.of(s, build_positions(n, rule)).products[0, GLS1_SLOPE]
            assert 1.0 / slope == pytest.approx(fit_gls1(s).shape, rel=1e-12)


def test_log_stats_statistics_read_from_the_class():
    # read from the class, a statistic is its descriptor, so help() lists it
    text = pydoc.render_doc(LogStats, renderer=pydoc.plaintext)
    for name in ("products", "totals", "ties"):
        statistic = getattr(LogStats, name)
        assert statistic.__doc__ and statistic.__doc__.splitlines()[0] in text, name
