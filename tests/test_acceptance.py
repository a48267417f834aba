"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line per criterion (run with `pytest -s` to
see them inline). Deterministic reproduction targets carry absolute
tolerances; Monte Carlo targets carry standard-error based ones.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import gamma as gamma_dist

from weibull_estlab import (
    PercentileConfig,
    SimulationConfig,
    SortedSample,
    WeibullParams,
    build_positions,
    cvm_distance,
    estimate_u,
    fit_gls1,
    fit_gls2,
    fit_lm,
    fit_method,
    fit_mle,
    fit_mlm,
    fit_mm,
    fit_pm,
    fit_ustat,
    fit_wls,
    ks_distance,
    run_experiment,
    sample,
    simulate_weight_medians,
)
from weibull_estlab.core import LOG_TWO, TRIGAMMA_ONE
from weibull_estlab.methods import METHOD_NAMES
from weibull_estlab.ustat import pair_means_naive, pair_means_sorted

from conftest import dense_system, dense_v, random_positive_sample


def report(criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def record(criterion, detail):
    print(f"[criterion {criterion}] RECORDED - {detail}")


class TestCriterion1DeterministicRows:
    def test_closed_form_and_mle_rows(self, lifetime_sample):
        started = time.perf_counter()
        targets = {
            "USTAT": (fit_ustat, 5.1575, 26.8644),
            "MLE": (fit_mle, 4.5922, 26.9452),
            "LM": (fit_lm, 4.9512, 26.9055),
            "MLM": (fit_mlm, 5.3119, 26.7771),
            "MM": (fit_mm, 4.9150, 26.9169),
        }
        worst = 0.0
        for name, (fitter, alpha, beta) in targets.items():
            r = fitter(lifetime_sample)
            ok = abs(r.shape - alpha) <= 0.01 and abs(r.scale - beta) <= 0.02
            report("1", ok, f"{name} fitted ({r.shape:.4f}, {r.scale:.4f}) "
                            f"vs ({alpha}, {beta}) within (0.01, 0.02)")
            worst = max(worst, abs(r.shape - alpha), abs(r.scale - beta))
        elapsed = time.perf_counter() - started
        report("1", elapsed < 1.0, f"five deterministic rows in {elapsed:.3f}s (< 1s); "
                                   f"worst deviation {worst:.5f}")


class TestCriterion2RegressionRows:
    def test_gls1_wls_under_a_recorded_rule(self, lifetime_sample):
        matches = {}
        for rule in ("i/(n+1)", "(i-0.3)/(n+0.4)"):
            pos = build_positions(48, rule)
            g = fit_gls1(lifetime_sample, pos)
            w = fit_wls(lifetime_sample, pos)
            ok_rule = (abs(g.shape - 4.7548) <= 0.05 and abs(g.scale - 26.9926) <= 0.05
                       and abs(w.shape - 4.7099) <= 0.05 and abs(w.scale - 26.6979) <= 0.05)
            matches[rule] = (ok_rule, g, w)
        winning = [rule for rule, (ok, _, _) in matches.items() if ok]
        detail = "; ".join(
            f"{rule}: GLS1 ({g.shape:.4f}, {g.scale:.4f}), WLS ({w.shape:.4f}, {w.scale:.4f})"
            for rule, (_, g, w) in matches.items()
        )
        report("2", bool(winning), f"GLS1/WLS within 0.05 under rule(s) {winning}; {detail}")
        record("2", f"matching plotting rule recorded: {winning[0]}")

    def test_gls2_within_loose_tolerance_or_flagged(self, lifetime_sample):
        r = fit_gls2(lifetime_sample)
        ok = abs(r.shape - 4.3035) <= 0.1 and abs(r.scale - 26.9788) <= 0.1
        if ok:
            report("2", True, f"GLS2 ({r.shape:.4f}, {r.scale:.4f}) within 0.1 of (4.3035, 26.9788)")
        else:
            record("2", f"GLS2 flagged: ({r.shape:.4f}, {r.scale:.4f}) outside 0.1 "
                        f"of (4.3035, 26.9788) - instrument-column ambiguity")

    def test_pm_row_investigated_not_gated(self, lifetime_sample):
        for p in (0.15, 0.31):
            for rule in ("median_unbiased", "linear"):
                r = fit_pm(lifetime_sample, PercentileConfig(p=p, quantile_rule=rule))
                record("2", f"PM p={p} rule={rule}: ({r.shape:.4f}, {r.scale:.4f}) "
                            f"vs published (5.9767, 25.8461)")
        exact = fit_pm(lifetime_sample, PercentileConfig(p=0.31, quantile_rule="linear"))
        record("2", f"PM p=0.31 with the 'linear' convention reproduces the published row "
                    f"to {max(abs(exact.shape - 5.9767), abs(exact.scale - 25.8461)):.1e}")


class TestCriterion3GoodnessOfFit:
    def test_ks_cvm_rows_and_wls_best(self, lifetime_sample):
        mle = fit_mle(lifetime_sample)
        ks_mle = ks_distance(lifetime_sample, mle.params)
        cvm_mle = cvm_distance(lifetime_sample, mle.params)
        report("3", abs(ks_mle - 0.0920) <= 0.002 and abs(cvm_mle - 0.0713) <= 0.002,
               f"MLE KS/CVM ({ks_mle:.4f}, {cvm_mle:.4f}) vs (0.0920, 0.0713) within 0.002")

        wls = fit_wls(lifetime_sample)
        ks_wls = ks_distance(lifetime_sample, wls.params)
        cvm_wls = cvm_distance(lifetime_sample, wls.params)
        report("3", abs(ks_wls - 0.0777) <= 0.002 and abs(cvm_wls - 0.0482) <= 0.002,
               f"WLS KS/CVM ({ks_wls:.4f}, {cvm_wls:.4f}) vs (0.0777, 0.0482) within 0.002")

        weights = simulate_weight_medians(48, 100_000, np.random.default_rng(4817))
        distances = {}
        for name in METHOD_NAMES:
            fit = fit_method(name, lifetime_sample,
                             weights=weights if name == "WMLE" else None)
            distances[name] = (ks_distance(lifetime_sample, fit.params),
                               cvm_distance(lifetime_sample, fit.params))
        best_ks = min(distances, key=lambda m: distances[m][0])
        best_cvm = min(distances, key=lambda m: distances[m][1])
        report("3", best_ks == "WLS" and best_cvm == "WLS",
               f"WLS ranks best on both criteria (best KS: {best_ks}, best CVM: {best_cvm})")


class TestCriterion4Unbiasedness:
    def test_mean_kernel_averages(self):
        started = time.perf_counter()
        reps, n = 10_000, 50
        p = WeibullParams(2.0, 1.0)
        u_alpha = np.empty(reps)
        u_logbeta = np.empty(reps)
        root = np.random.SeedSequence(20260810)
        for r, ss in enumerate(root.spawn(reps)):
            est = estimate_u(sample(p, n, np.random.default_rng(ss)))
            u_alpha[r] = est.u_alpha
            u_logbeta[r] = est.u_logbeta
        elapsed = time.perf_counter() - started
        se_a = u_alpha.std(ddof=1) / math.sqrt(reps)
        se_b = u_logbeta.std(ddof=1) / math.sqrt(reps)
        dev_a = abs(u_alpha.mean() - 0.5)
        dev_b = abs(u_logbeta.mean() - 0.0)
        report("4", dev_a < 4 * se_a,
               f"mean u_alpha {u_alpha.mean():.5f} within 4 SE ({4 * se_a:.5f}) of 0.5")
        report("4", dev_b < 4 * se_b,
               f"mean u_logbeta {u_logbeta.mean():.5f} within 4 SE ({4 * se_b:.5f}) of 0")
        report("4", elapsed < 30.0, f"10,000 replications in {elapsed:.1f}s (< 30s)")


class TestCriterion5VarianceBound:
    def test_empirical_variance_below_bound(self):
        pairs = 100_000
        rng = np.random.default_rng(55)
        for alpha in (0.5, 1.0, 2.5):
            x1 = rng.weibull(alpha, pairs)
            x2 = rng.weibull(alpha, pairs)
            l1, l2 = np.log(x1), np.log(x2)
            h1 = (l1 + l2) / (2 * LOG_TWO) - np.minimum(l1, l2) / LOG_TWO
            bound = TRIGAMMA_ONE / (2 * alpha ** 2 * LOG_TWO ** 2)
            var = float(h1.var(ddof=1))
            report("5", var <= bound,
                   f"alpha={alpha}: Var(H1) {var:.5f} <= bound {bound:.5f} "
                   f"(ratio {var / bound:.3f}) over {pairs} pairs")


class TestCriterion6LargeNBiasOrdering:
    def test_ustat_beats_gls1_at_n1000(self):
        started = time.perf_counter()
        cfg = SimulationConfig(
            methods=("USTAT", "GLS1"),
            sample_sizes=(1000,),
            param_levels=(WeibullParams(2.5, 2.5),),
            replications=2000,
            master_seed=31415,
        )
        table = run_experiment(cfg)
        elapsed = time.perf_counter() - started
        bias = {r.method: r.bias_alpha for r in table.rows}
        report("6", abs(bias["USTAT"]) < abs(bias["GLS1"]),
               f"|bias_alpha| ordering: USTAT {bias['USTAT']:+.5f} vs GLS1 {bias['GLS1']:+.5f}")
        report("6", abs(bias["USTAT"]) < 0.03 and abs(bias["GLS1"]) < 0.03,
               f"both magnitudes < 0.03 (published desk values 0.0036 vs 0.00846)")
        report("6", elapsed < 300.0, f"2000 replications at n=1000 in {elapsed:.1f}s (< 5 min)")


class TestCriterion7OracleEquivalence:
    def test_a_fast_vs_naive_pairs(self, rng):
        worst = 0.0
        for _ in range(200):
            s = SortedSample.from_data(random_positive_sample(rng, n=int(rng.integers(2, 80))))
            ua_f, ub_f = pair_means_sorted(s)
            ua_n, ub_n = pair_means_naive(s)
            worst = max(worst,
                        abs(ua_f - ua_n) / max(abs(ua_n), 1e-30),
                        abs(ub_f - ub_n) / max(abs(ub_n), 1e-30))
        report("7a", worst < 1e-12, f"sorted vs quadratic pair sums, worst rel diff {worst:.2e}")

    def test_b_mle_vs_grid_bisection(self):
        from test_likelihood import mle_grid_bisection_oracle

        worst = 0.0
        for seed in range(6):
            s = sample(WeibullParams(1.7, 4.0), 80, np.random.default_rng(seed + 100))
            worst = max(worst, abs(fit_mle(s).shape - mle_grid_bisection_oracle(s.values)))
        report("7b", worst < 1e-6, f"profile-root vs grid+bisection likelihood, worst |delta| {worst:.2e}")

    def test_c_lmoment_pairwise_oracle(self, rng):
        from weibull_estlab import sample_lmoments

        worst = 0.0
        for _ in range(100):
            s = SortedSample.from_data(random_positive_sample(rng, n=int(rng.integers(2, 200))))
            diffs = np.abs(s.values[:, None] - s.values[None, :])
            oracle = diffs.sum() / (2 * s.n * (s.n - 1))
            m2 = sample_lmoments(s).m2
            worst = max(worst, abs(m2 - oracle) / max(abs(oracle), 1e-30))
        report("7c", worst < 1e-12, f"rank-weighted m2 vs pairwise-difference oracle, worst rel {worst:.2e}")

    def test_d_regression_vs_dense_solve(self, rng):
        worst = 0.0
        for n in (5, 20, 50):
            for _ in range(5):
                s = SortedSample.from_data(random_positive_sample(rng, n=n))
                pos = build_positions(n)
                sysm = dense_system(s, pos)
                vi = np.linalg.inv(sysm.cov_v)
                ref = {}
                for tag, design, instrument, vv in (
                    ("GLS1", sysm.design_z, sysm.design_z, vi),
                    ("GLS2", sysm.design_x, sysm.design_z, vi),
                    ("WLS", sysm.design_x, sysm.design_x, np.diag(1 / sysm.weights_w)),
                ):
                    b = np.linalg.solve(instrument.T @ vv @ design, instrument.T @ vv @ sysm.response_y)
                    ref[tag] = (1 / b[1], math.exp(b[0]))
                fits = {"GLS1": fit_gls1(s, pos), "GLS2": fit_gls2(s, pos), "WLS": fit_wls(s, pos)}
                for tag, fit in fits.items():
                    worst = max(worst,
                                abs(fit.shape - ref[tag][0]) / abs(ref[tag][0]),
                                abs(fit.scale - ref[tag][1]) / abs(ref[tag][1]))
        report("7d", worst < 1e-8, f"factorized vs explicit-inverse solves, worst rel {worst:.2e}")


class TestCriterion8PivotValidation:
    @pytest.mark.parametrize("n", [5, 30, 200])
    def test_w1_median_matches_gamma_quantile(self, n):
        pair = simulate_weight_medians(n, 100_000, np.random.default_rng(800 + n))
        expected = float(gamma_dist.ppf(0.5, a=n, scale=1 / n))
        report("8", abs(pair.w1 - expected) <= 0.005,
               f"n={n}: median W1 {pair.w1:.5f} vs Gamma(n, 1/n) median {expected:.5f} within 0.005")


class TestCriterion9PropertySuites:
    def test_scale_equivariance_all_ten(self, lifetime_sample):
        weights = simulate_weight_medians(48, 10_000, np.random.default_rng(9))
        scale_factor = 3.5
        scaled = lifetime_sample.scaled(scale_factor)
        worst = 0.0
        for name in METHOD_NAMES:
            w = weights if name == "WMLE" else None
            base = fit_method(name, lifetime_sample, weights=w)
            moved = fit_method(name, scaled, weights=w)
            dev = max(abs(moved.shape / base.shape - 1.0),
                      abs(moved.scale / (scale_factor * base.scale) - 1.0))
            worst = max(worst, dev)
        report("9", worst < 1e-7,
               f"scale equivariance over all ten methods, worst rel dev {worst:.2e}")

    def test_v_positive_definite_up_to_200(self):
        worst = math.inf
        for n in range(2, 201):
            eigs = np.linalg.eigvalsh(dense_v(n))
            worst = min(worst, float(eigs.min()))
        report("9", worst > 0.0, f"V positive definite for 2 <= n <= 200, smallest eigenvalue {worst:.3e}")

    def test_cvm_lower_bound_fuzz(self):
        rng = np.random.default_rng(99)
        violations = 0
        for _ in range(10_000):
            n = int(rng.integers(1, 40))
            data = np.exp(rng.normal(0.0, rng.uniform(0.1, 2.0), n))
            p = WeibullParams(rng.uniform(0.2, 8.0), rng.uniform(0.05, 30.0))
            if cvm_distance(data, p) < 1 / (12 * n) - 1e-15:
                violations += 1
        report("9", violations == 0, f"CVM >= 1/(12n) on 10,000 fuzz cases ({violations} violations)")

    def test_determinism_across_worker_counts(self):
        cfg = dict(
            methods=("USTAT", "LM", "WLS"),
            sample_sizes=(12,),
            param_levels=(WeibullParams(2.0, 3.0),),
            replications=300,
            master_seed=2718,
        )
        t1 = run_experiment(SimulationConfig(**cfg, workers=1))
        t2 = run_experiment(SimulationConfig(**cfg, workers=3))
        report("9", t1 == t2, "identical MetricTable for 1 and 3 workers")
