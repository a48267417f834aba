import math

import numpy as np
import pytest

from weibull_estlab import (
    DegenerateSampleError,
    SortedSample,
    WeibullParams,
    estimate_u,
    kernel_h1,
    kernel_h2,
    sample,
)
from weibull_estlab.core import LOG_TWO, PSI_ONE
from weibull_estlab.ustat import pair_means_naive, pair_means_sorted

from conftest import random_positive_sample


class TestKernels:
    @pytest.mark.parametrize("x", [0.3, 1.0, 7.0, 1e6])
    def test_equal_pair(self, x):
        assert kernel_h1(x, x) == pytest.approx(0.0, abs=1e-15)
        assert kernel_h2(x, x) == pytest.approx(math.log(x), rel=1e-12)

    def test_hand_values(self):
        assert kernel_h1(1.0, math.e) == pytest.approx(1 / (2 * LOG_TWO), rel=1e-12)
        assert kernel_h1(2.0, 8.0) == pytest.approx(1.0, rel=1e-12)
        assert kernel_h2(1.0, math.e) == pytest.approx(0.5 - PSI_ONE / (2 * LOG_TWO), rel=1e-12)

    def test_symmetry_and_sign(self, rng):
        for _ in range(200):
            x1, x2 = rng.uniform(0.01, 100, 2)
            assert kernel_h1(x1, x2) == kernel_h1(x2, x1)
            assert kernel_h2(x1, x2) == kernel_h2(x2, x1)
            assert kernel_h1(x1, x2) >= 0.0

    def test_h2_algebraic_identity(self, rng):
        for _ in range(200):
            x1, x2 = rng.uniform(0.01, 100, 2)
            expected = (math.log(x1) + math.log(x2)) / 2 - PSI_ONE * kernel_h1(x1, x2)
            assert kernel_h2(x1, x2) == pytest.approx(expected, abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kernel_h1(0.0, 1.0)
        with pytest.raises(ValueError):
            kernel_h2(1.0, -2.0)

    def test_pair_record(self):
        # log 8 = 3 log 2: h1 = (1 + 3)/2 - 1 and h2 = 2 log 2 - psi(1) h1
        assert kernel_h1(2.0, 8.0) == pytest.approx(1.0, rel=1e-15)
        assert kernel_h2(2.0, 8.0) == pytest.approx(2 * LOG_TWO - PSI_ONE, rel=1e-15)


class TestEstimate:
    def test_single_pair(self):
        s = SortedSample.from_data([1.0, math.e])
        est = estimate_u(s)
        assert est.u_alpha == pytest.approx(1 / (2 * LOG_TWO), rel=1e-12)
        assert est.alpha_hat == pytest.approx(2 * LOG_TWO, rel=1e-12)

    def test_lifetime_dataset(self, lifetime_sample):
        est = estimate_u(lifetime_sample)
        assert est.alpha_hat == pytest.approx(5.1575, abs=0.005)
        assert est.beta_hat == pytest.approx(26.8644, abs=0.005)

    def test_fast_path_matches_naive(self, rng):
        for _ in range(200):
            data = random_positive_sample(rng, n=int(rng.integers(2, 60)))
            s = SortedSample.from_data(data)
            ua_fast, ub_fast = pair_means_sorted(s)
            ua_naive, ub_naive = pair_means_naive(s)
            assert ua_fast == pytest.approx(ua_naive, rel=1e-12, abs=1e-14)
            assert ub_fast == pytest.approx(ub_naive, rel=1e-12, abs=1e-14)

    def test_degenerate_sample_raises(self):
        with pytest.raises(DegenerateSampleError):
            estimate_u(SortedSample.from_data([3.0, 3.0, 3.0]))


class TestProperties:
    def test_scale_invariance(self, rng):
        data = random_positive_sample(rng, n=40)
        s = SortedSample.from_data(data)
        base = estimate_u(s)
        for c in (0.001, 3.7, 1e5):
            scaled = estimate_u(s.scaled(c))
            assert scaled.alpha_hat == pytest.approx(base.alpha_hat, rel=1e-12)
            assert scaled.beta_hat == pytest.approx(c * base.beta_hat, rel=1e-12)

    def test_power_equivariance(self, rng):
        data = random_positive_sample(rng, n=40)
        s = SortedSample.from_data(data)
        base = estimate_u(s)
        for k in (0.5, 2.0, 3.0):
            powered = estimate_u(SortedSample.from_data(data ** k))
            assert powered.u_alpha == pytest.approx(k * base.u_alpha, rel=1e-12)

    def test_unbiased_for_both_targets(self):
        # smaller sibling of the acceptance run: 2000 replications at n=50
        reps, n = 2000, 50
        p = WeibullParams(2.0, 1.0)
        u_alpha = np.empty(reps)
        u_logbeta = np.empty(reps)
        root = np.random.SeedSequence(915)
        for r, ss in enumerate(root.spawn(reps)):
            s = sample(p, n, np.random.default_rng(ss))
            est = estimate_u(s)
            u_alpha[r] = est.u_alpha
            u_logbeta[r] = est.u_logbeta
        for values, target in ((u_alpha, 0.5), (u_logbeta, 0.0)):
            se = values.std(ddof=1) / math.sqrt(reps)
            assert abs(values.mean() - target) < 4 * se

    def test_root_n_consistency(self):
        # sd at n=400 should be about half the sd at n=100
        reps = 3000
        p = WeibullParams(2.0, 1.0)
        sds = []
        for n, key in ((100, 1), (400, 2)):
            vals = np.empty(reps)
            root = np.random.SeedSequence(77, spawn_key=(key,))
            for r, ss in enumerate(root.spawn(reps)):
                vals[r] = estimate_u(sample(p, n, np.random.default_rng(ss))).u_alpha
            sds.append(vals.std(ddof=1))
        ratio = sds[1] / sds[0]
        assert 0.45 < ratio < 0.55
