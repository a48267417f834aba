import math

import numpy as np
import pytest

from weibull_estlab import (
    DegenerateSampleError,
    SortedSample,
    build_positions,
    build_v,
    fit_gls1,
    fit_gls2,
    fit_wls,
)
from weibull_estlab.regression import (
    build_system,
    mean_corrected_transform,
    plot_transform,
    v_diagonal,
)

from conftest import random_positive_sample


def dense_reference(design, instrument, v, y):
    """Explicit-inverse solve used as the linear-algebra oracle."""
    vi = np.linalg.inv(v)
    return np.linalg.solve(instrument.T @ vi @ design, instrument.T @ vi @ y)


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
    def test_hand_values_n2(self):
        v = build_v(2)
        assert v[0, 0] == pytest.approx(0.5 / math.log(2 / 3) ** 2, rel=1e-12)
        assert v[0, 1] == pytest.approx(0.5 / (math.log(2 / 3) * math.log(1 / 3)), rel=1e-12)
        assert v[1, 1] == pytest.approx(2.0 / math.log(1 / 3) ** 2, rel=1e-12)
        assert v[0, 0] == pytest.approx(3.041, abs=5e-4)
        assert v[0, 1] == pytest.approx(1.122, abs=5e-4)
        assert v[1, 1] == pytest.approx(1.657, abs=5e-4)

    @pytest.mark.parametrize("n", [2, 5, 10, 30, 50, 100, 200])
    def test_symmetric_positive_definite(self, n):
        v = build_v(n)
        assert np.array_equal(v, v.T)
        assert np.all(v > 0.0)
        eigs = np.linalg.eigvalsh(v)
        assert eigs.min() > 0.0

    def test_diagonal_shortcut(self):
        for n in (2, 7, 48):
            np.testing.assert_allclose(v_diagonal(n), np.diag(build_v(n)), rtol=1e-14)


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
            sys = build_system(s)
            v = build_v(n)
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
        sys = build_system(lifetime_sample)
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


class TestBuildSystem:
    def test_design_column_strictly_increasing(self, lifetime_sample):
        sys = build_system(lifetime_sample)
        assert np.all(np.diff(sys.design_x[:, 1]) > 0)

    def test_carries_v_and_its_diagonal(self, lifetime_sample):
        sys = build_system(lifetime_sample)
        np.testing.assert_allclose(sys.weights_w, np.diag(sys.cov_v), rtol=1e-14)
        assert sys.response_y is lifetime_sample.logs


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
