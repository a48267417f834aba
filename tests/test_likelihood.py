import math
import os
import re
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import gamma as gamma_dist

from weibull_estlab import (
    DegenerateSampleError,
    SortedSample,
    WeibullParams,
    WeightPair,
    fit_mle,
    fit_wmle,
    profile_score,
    sample,
    simulate_weight_medians,
)
from weibull_estlab import likelihood
from weibull_estlab.core import cdf, pdf
from weibull_estlab.methods import fit_method
from weibull_estlab.likelihood import (
    DEFAULT_WEIGHT_REPLICATIONS,
    WEIGHT_TABLE_HEADER,
    WeightStore,
    read_weight_table,
    seeded_weight_medians,
    write_weight_table,
)

from conftest import random_positive_sample


def loglik_profile_oracle(values, alpha):
    """Full log-likelihood at (alpha, scale(alpha)); independent of the score path."""
    scale = (np.sum(values ** alpha) / values.size) ** (1.0 / alpha)
    return float(np.sum(np.log(pdf(WeibullParams(alpha, scale), values))))


def mle_grid_bisection_oracle(values, lo=0.1, hi=50.0):
    """Dense grid argmax of the profile likelihood refined by golden section."""
    grid = np.geomspace(lo, hi, 400)
    ll = np.array([loglik_profile_oracle(values, a) for a in grid])
    k = int(np.argmax(ll))
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    phi = (math.sqrt(5) - 1) / 2
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = loglik_profile_oracle(values, c), loglik_profile_oracle(values, d)
    for _ in range(80):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = loglik_profile_oracle(values, c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = loglik_profile_oracle(values, d)
    return (a + b) / 2


class TestProfileScore:
    def test_two_point_closed_form(self):
        s = SortedSample.from_data([1.0, math.e])
        for alpha in (0.3, 1.0, 2.7, 10.0):
            expected = 1 / alpha + 0.5 - math.exp(alpha) / (1 + math.exp(alpha))
            assert profile_score(s, alpha) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_strictly_decreasing(self, rng):
        grid = np.geomspace(1e-2, 1e2, 50)
        for _ in range(100):
            data = random_positive_sample(rng)
            if np.unique(data).size == 1:
                continue
            s = SortedSample.from_data(data)
            values = [profile_score(s, a) for a in grid]
            assert all(u > v for u, v in zip(values, values[1:]))

    def test_rejects_nonpositive_alpha(self, lifetime_sample):
        with pytest.raises(ValueError):
            profile_score(lifetime_sample, 0.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_rejects_nonfinite_alpha(self, lifetime_sample, alpha):
        with pytest.raises(ValueError, match="positive and finite"):
            profile_score(lifetime_sample, alpha)


class TestFitMLE:
    def test_lifetime_dataset(self, lifetime_sample):
        r = fit_mle(lifetime_sample)
        assert r.shape == pytest.approx(4.5922, abs=0.005)
        assert r.scale == pytest.approx(26.9452, abs=0.005)
        assert abs(r.residual) < 1e-10

    def test_root_residual_small(self, rng):
        for _ in range(20):
            s = SortedSample.from_data(random_positive_sample(rng))
            r = fit_mle(s)
            assert abs(profile_score(s, r.shape)) < 1e-9

    def test_matches_grid_bisection_oracle(self, rng):
        for seed in range(8):
            s = sample(WeibullParams(2.0, 3.0), 60, np.random.default_rng(seed))
            ours = fit_mle(s).shape
            oracle = mle_grid_bisection_oracle(s.values)
            assert abs(ours - oracle) < 1e-6

    def test_scale_equivariance(self, lifetime_sample):
        base = fit_mle(lifetime_sample)
        for c in (0.05, 12.0):
            scaled = fit_mle(lifetime_sample.scaled(c))
            assert scaled.shape == pytest.approx(base.shape, rel=1e-8)
            assert scaled.scale == pytest.approx(c * base.scale, rel=1e-8)

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSampleError):
            fit_mle(SortedSample.from_data([2.0] * 5))

    def test_overflow_robustness(self):
        wide = SortedSample.from_data(np.geomspace(1e-8, 1e8, 40))
        r = fit_mle(wide)
        assert math.isfinite(r.shape) and math.isfinite(r.scale)
        # nearly-equal data drive the shape estimate past 50; still finite
        tight = SortedSample.from_data(np.geomspace(1.0, 1.05, 40))
        r2 = fit_mle(tight)
        assert r2.shape > 50.0 and math.isfinite(r2.scale)

    def test_stationarity_of_scale_equation(self, lifetime_sample):
        # at the fit, d(loglik)/d(scale) = 0 <=> sum((x/scale)^shape) = n
        r = fit_mle(lifetime_sample)
        z = (lifetime_sample.values / r.scale) ** r.shape
        assert float(z.sum()) == pytest.approx(lifetime_sample.n, rel=1e-10)


class TestWeightSimulation:
    def test_single_observation_median(self):
        # with n = 1 the first weight is Exp(1): median log 2
        pair = simulate_weight_medians(1, 100_000, np.random.default_rng(5))
        assert pair.w1 == pytest.approx(math.log(2), abs=0.01)
        assert pair.w2 == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [5, 30])
    def test_gamma_quantile_oracle(self, n):
        pair = simulate_weight_medians(n, 100_000, np.random.default_rng(n))
        expected = float(gamma_dist.ppf(0.5, a=n, scale=1 / n))
        assert pair.w1 == pytest.approx(expected, abs=0.005)

    def test_asymptotic_limits(self):
        pair = simulate_weight_medians(10_000, 2_000, np.random.default_rng(3))
        assert pair.w1 == pytest.approx(1.0, abs=0.02)
        assert pair.w2 == pytest.approx(1.0, abs=0.02)

    def test_pivot_is_parameter_free(self):
        # medians from transformed true-model data equal the Exp(1) ones
        # within Monte Carlo error (4 x the combined median standard error)
        reps, n = 40_000, 12
        p = WeibullParams(0.5, 0.5)
        rng = np.random.default_rng(21)
        w1 = np.empty(reps)
        w2 = np.empty(reps)
        for r in range(reps):
            x = sample(p, n, rng).values
            e = -np.log1p(-cdf(p, x))
            log_e = np.log(e)
            w1[r] = e.mean()
            w2[r] = (e * log_e).sum() / e.sum() - log_e.mean()
        direct = simulate_weight_medians(n, reps, np.random.default_rng(22))
        for values, other in ((w1, direct.w1), (w2, direct.w2)):
            # ~1.25 sd/sqrt(reps) for a median of a roughly normal statistic
            se = 1.2533 * values.std(ddof=1) / math.sqrt(reps)
            assert abs(float(np.median(values)) - other) < 4 * math.sqrt(2) * se

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_weight_medians(0, 5000, np.random.default_rng(1))
        with pytest.raises(ValueError):
            simulate_weight_medians(5, 999, np.random.default_rng(1))


def whole_block_weight_pivots(n, replications, rng):
    """W1 and W2 of every replication, drawn in blocks of ~32 MB with
    whole-array temporaries."""
    w1 = np.empty(replications)
    w2 = np.empty(replications)
    chunk = max(1, (1 << 22) // n)
    done = 0
    while done < replications:
        k = min(chunk, replications - done)
        e = rng.standard_exponential((k, n))
        log_e = np.log(e)
        w1[done:done + k] = e.mean(axis=1)
        w2[done:done + k] = (e * log_e).sum(axis=1) / e.sum(axis=1) - log_e.mean(axis=1)
        done += k
    return w1, w2


def whole_block_weight_medians(n, replications, rng):
    """The medians of :func:`whole_block_weight_pivots`: the oracle for the
    buffered production version."""
    w1, w2 = whole_block_weight_pivots(n, replications, rng)
    return float(np.median(w1)), float(np.median(w2))


class TestWeightSimulationOracle:
    @pytest.mark.parametrize("n", [1, 2, 5, 7, 8, 9, 30, 48, 1000, 10000])
    def test_bitwise_equal_to_whole_block_simulation(self, n):
        reps = 2000 if n >= 1000 else DEFAULT_WEIGHT_REPLICATIONS
        for seed in (11, 12):
            pair = simulate_weight_medians(n, reps, np.random.default_rng(seed))
            assert (pair.w1, pair.w2) == whole_block_weight_medians(
                n, reps, np.random.default_rng(seed))

    def test_independent_of_block_size(self, monkeypatch):
        n, reps = 30, 10_000
        default = simulate_weight_medians(n, reps, np.random.default_rng(5))
        # 7 rows per block, which does not divide the replications
        monkeypatch.setattr(likelihood, "_WEIGHT_BLOCK_VALUES", 7 * n + 3)
        assert simulate_weight_medians(n, reps, np.random.default_rng(5)) == default

    def test_traced_peak_memory(self):
        rng = np.random.default_rng(6)
        tracemalloc.start()
        try:
            simulate_weight_medians(30, 100_000, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("n", [2, 5, 10, 30, 100])
    def test_w2_mean_is_one_minus_one_over_n(self, n):
        # E[W2] = psi(2) - psi(n + 1) + psi(n) + gamma = 1 - 1/n exactly: a
        # wrong statistic would still match the oracle bit for bit
        reps = 20_000
        _, w2 = whole_block_weight_pivots(n, reps, np.random.default_rng(100 + n))
        se = w2.std(ddof=1) / math.sqrt(reps)
        assert abs(w2.mean() - (1.0 - 1.0 / n)) < 4 * se


class StubGenerator:
    """A seeded generator that records the thread of every standard_exponential
    call, sleeps ``delay`` seconds in each, and raises on call number
    ``fail_on`` after 0.2 s, late enough that the other threads of the
    simulation are already waiting at the lock."""

    def __init__(self, seed, fail_on=None, delay=0.0):
        self._rng = np.random.default_rng(seed)
        self.fail_on = fail_on
        self.delay = delay
        self.threads = []

    def standard_exponential(self, out):
        self.threads.append(threading.get_ident())
        time.sleep(self.delay)
        if len(self.threads) == self.fail_on:
            time.sleep(0.2)
            raise RuntimeError(f"draw {self.fail_on} failed")
        return self._rng.standard_exponential(out=out)


def call_with_timeout(fn, *args, timeout=20.0):
    """fn(*args) on a thread joined with a timeout: {"result": ...} or {"error": ...}."""
    box = {}

    def target():
        try:
            box["result"] = fn(*args)
        except Exception as exc:
            box["error"] = exc

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), f"no return within {timeout} s"
    return box


class LazyPool:
    """A ThreadPoolExecutor stand-in that runs a task on the thread asking for
    its result, and only then: a helper thread that never gets a CPU. It
    notes how many draws ``rng`` had made when each task started."""

    def __init__(self, rng):
        self.rng = rng
        self.started_after = []

    def __call__(self, max_workers):  # stands in for the executor class
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        def result():
            self.started_after.append(len(self.rng.threads))
            return fn(*args)
        return SimpleNamespace(result=result)


class TestWeightSimulationThreads:
    """Two threads share every weight simulation; the draws stay in stream order."""

    # the oracle is one thread drawing the whole stream in order
    @pytest.mark.parametrize("n, reps", [(1, 100_000), (5, 100_000), (48, 100_000), (48, 12_345)])
    def test_two_threads_equal_one(self, monkeypatch, n, reps):
        oracle = whole_block_weight_medians(n, reps, np.random.default_rng(n))
        for threads in (2, 3):
            monkeypatch.setattr(likelihood, "_WEIGHT_THREADS", threads)
            rng = StubGenerator(n)
            pair = simulate_weight_medians(n, reps, rng)
            assert (pair.w1, pair.w2) == oracle
            assert len(set(rng.threads)) <= threads

    def test_any_thread_count_and_block_size(self, monkeypatch):
        n, reps = 30, 10_000
        one_thread = simulate_weight_medians(n, reps, np.random.default_rng(5))
        # 7 rows per block, which does not divide the replications
        monkeypatch.setattr(likelihood, "_WEIGHT_BLOCK_VALUES", 7 * n + 3)
        for threads in (2, 3):
            monkeypatch.setattr(likelihood, "_WEIGHT_THREADS", threads)
            rng = StubGenerator(5)
            assert simulate_weight_medians(n, reps, rng) == one_thread
            assert len(set(rng.threads)) <= threads

    def test_one_block_matches_the_oracle_on_either_thread(self):
        # 1001 rows of 5 are one block, which the caller or the helper draws
        before = set(threading.enumerate())
        rng = StubGenerator(1)
        pair = simulate_weight_medians(5, 1001, rng)
        assert len(rng.threads) == 1
        assert (pair.w1, pair.w2) == whole_block_weight_medians(5, 1001, np.random.default_rng(1))
        assert set(threading.enumerate()) == before

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="no CPU affinity call on this platform")
    def test_one_cpu_equals_the_oracle(self):
        # the helper thread inherits the one-CPU mask of the thread that starts it
        cpus = os.sched_getaffinity(0)
        before = threading.active_count()
        os.sched_setaffinity(0, {min(cpus)})
        try:
            pair = simulate_weight_medians(48, 100_000, np.random.default_rng(48))
            after = threading.active_count()
        finally:
            os.sched_setaffinity(0, cpus)
        assert (pair.w1, pair.w2) == whole_block_weight_medians(48, 100_000,
                                                                 np.random.default_rng(48))
        assert after == before

    def test_no_thread_outlives_a_call(self):
        before = set(threading.enumerate())
        rng = StubGenerator(2)
        simulate_weight_medians(30, 10_000, rng)
        assert len(set(rng.threads)) <= 2
        assert set(threading.enumerate()) == before

    def test_a_waiting_helper_draws(self):
        # each draw holds the lock for 20 ms, so the helper is waiting at the
        # lock each time the caller releases it and claims some of the ten
        # blocks while the caller reduces its own
        rng = StubGenerator(4, delay=0.02)
        box = call_with_timeout(simulate_weight_medians, 30, 10_000, rng)
        assert len(set(rng.threads)) == 2
        assert box.get("result") == simulate_weight_medians(30, 10_000, np.random.default_rng(4))

    def test_a_helper_that_never_starts_costs_no_blocks(self, monkeypatch):
        expected = simulate_weight_medians(30, 10_000, np.random.default_rng(4))
        rng = StubGenerator(4)
        pool = LazyPool(rng)
        monkeypatch.setattr(likelihood, "ThreadPoolExecutor", pool)
        box = call_with_timeout(simulate_weight_medians, 30, 10_000, rng)
        assert box.get("result") == expected
        # the caller alone drew all ten blocks before the helper, then the w2
        # median, ran, and the helper found nothing left to draw
        assert len(rng.threads) == 10
        assert pool.started_after == [10, 10]

    # the failing draw may be any thread's; the failure must reach the caller
    # and stop every thread waiting at the lock
    @pytest.mark.parametrize("threads, fail_on", [(2, 3), (2, 4), (3, 4), (3, 5), (3, 6)])
    def test_failure_in_either_thread_reaches_the_caller(self, monkeypatch, threads, fail_on):
        monkeypatch.setattr(likelihood, "_WEIGHT_THREADS", threads)
        before = threading.active_count()
        rng = StubGenerator(3, fail_on=fail_on)
        box = call_with_timeout(simulate_weight_medians, 30, 10_000, rng)
        assert isinstance(box.get("error"), RuntimeError)
        assert str(box["error"]) == f"draw {fail_on} failed"
        # no thread drew after the failure, and every helper is gone
        assert len(rng.threads) == fail_on
        assert len(set(rng.threads)) <= threads
        assert threading.active_count() == before

    def test_concurrent_callers_match_serial_calls(self):
        cases = [(5, 20_000, 1), (10, 20_000, 2), (30, 20_000, 3), (48, 20_000, 4)]
        serial = [simulate_weight_medians(n, reps, np.random.default_rng(seed))
                  for n, reps, seed in cases]
        results = [None] * len(cases)

        def call(i):
            n, reps, seed = cases[i]
            results[i] = simulate_weight_medians(n, reps, np.random.default_rng(seed))

        callers = [threading.Thread(target=call, args=(i,)) for i in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == serial


class TestFitWMLE:
    def test_unit_weights_reduce_to_mle(self, lifetime_sample):
        unit = WeightPair(w1=1.0, w2=1.0, n=48, replications=0)
        wmle = fit_wmle(lifetime_sample, unit)
        mle = fit_mle(lifetime_sample)
        assert wmle.shape == pytest.approx(mle.shape, rel=1e-10)
        assert wmle.scale == pytest.approx(mle.scale, rel=1e-10)

    def test_lifetime_dataset(self, lifetime_sample):
        weights = simulate_weight_medians(48, 100_000, np.random.default_rng(4817))
        r = fit_wmle(lifetime_sample, weights)
        assert r.shape == pytest.approx(4.5141, abs=0.05)
        assert r.scale == pytest.approx(26.9370, abs=0.05)

    def test_converges_to_mle(self):
        s = sample(WeibullParams(2.0, 3.0), 2000, np.random.default_rng(31))
        weights = simulate_weight_medians(2000, 20_000, np.random.default_rng(32))
        wmle = fit_wmle(s, weights)
        mle = fit_mle(s)
        assert abs(wmle.shape - mle.shape) < 0.01 * mle.shape

    def test_scale_equivariance(self, lifetime_sample):
        weights = simulate_weight_medians(48, 10_000, np.random.default_rng(77))
        base = fit_wmle(lifetime_sample, weights)
        scaled = fit_wmle(lifetime_sample.scaled(4.0), weights)
        assert scaled.shape == pytest.approx(base.shape, rel=1e-8)
        assert scaled.scale == pytest.approx(4.0 * base.scale, rel=1e-8)

    def test_sample_size_mismatch(self, lifetime_sample):
        with pytest.raises(ValueError):
            fit_wmle(lifetime_sample, WeightPair(w1=1.0, w2=1.0, n=10, replications=0))

    def test_by_name_without_weights_raises(self, lifetime_sample):
        with pytest.raises(ValueError, match="^WMLE requires a WeightPair for the sample size$"):
            fit_method("WMLE", lifetime_sample)

    def test_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            fit_wmle(SortedSample.from_data([1.0, 1.0]), WeightPair(1.0, 1.0, 2, 0))


class TestWeightTable:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "weights.txt"
        records = {
            (5, 100000, 42): WeightPair(w1=0.935058123456789, w2=0.7050612345678901,
                                        n=5, replications=100000),
            (48, 100000, 42): WeightPair(w1=0.993672, w2=0.968697, n=48, replications=100000),
            (48, 2000, 7): WeightPair(w1=0.1 + 0.2, w2=1 / 3, n=48, replications=2000),
        }
        write_weight_table(path, records)
        back = read_weight_table(path)
        # records are keyed by (n, replications, seed) and floats round-trip exactly
        assert back == records
        # the file is replaced through a temporary that does not stay behind
        assert [p.name for p in tmp_path.iterdir()] == ["weights.txt"]

    def test_read_rejects_malformed(self, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("5 0.9 0.7\n")
        with pytest.raises(ValueError, match="expected 5 fields"):
            read_weight_table(path)
        # every malformed record is named by file and line
        for record, message in [
            ("48 0.99 garbage", "expected 5 fields"),
            ("48 0.99 x 100000 1729", "could not convert string to float: 'x'"),
            ("48.5 0.99 0.97 100000 1729", "invalid literal for int"),
            ("48 0.99 0.97 1e5 1729", "invalid literal for int"),
            # records that parse but cannot be weights
            ("0 0.99 0.97 100000 1729", "n must be >= 1"),
            ("48 0.99 0.97 999 1729", "replications must be >= 1000"),
            ("48 0.99 0.97 -3 1729", "replications must be >= 1000"),
            ("48 0.99 0.97 100000 -1", "seed must be >= 0"),
            ("48 nan -5.0 100000 1729", "w1 must be finite and positive"),
            ("48 0.0 0.97 100000 1729", "w1 must be finite and positive"),
            ("48 -0.5 0.97 100000 1729", "w1 must be finite and positive"),
            ("48 inf 0.97 100000 1729", "w1 must be finite and positive"),
            ("48 0.99 nan 100000 1729", "w2 must be finite and positive"),
            ("48 0.99 -inf 100000 1729", "w2 must be finite and positive"),
            # W2 >= 0 for every draw, equal to 0 only if all n draws are equal,
            # so no simulation makes a median w2 <= 0
            ("48 0.98 0.0 100000 1729", "w2 must be finite and positive"),
            ("48 0.98 -0.5 100000 1729", "w2 must be finite and positive"),
        ]:
            path.write_text(f"{WEIGHT_TABLE_HEADER}\n{record}\n")
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: .*{message}"):
                read_weight_table(path)

    def test_older_rounded_layout_is_not_read(self, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("5 0.935058123456 0.705061234567 100000 42\n")
        assert read_weight_table(path) == {}
        # the store simulates the record again and rewrites the file in the new layout
        pair = WeightStore(path=path, seed=42).get(5)
        assert pair == seeded_weight_medians(5, 42)
        assert path.read_text().splitlines()[0] == WEIGHT_TABLE_HEADER
        assert read_weight_table(path) == {(5, 100000, 42): pair}

    def test_store_simulates_then_caches(self, tmp_path):
        path = tmp_path / "weights.txt"
        store = WeightStore(path=path, seed=9)
        pair = store.get(6)
        assert path.exists()
        # a second store reads the file instead of re-simulating, exactly
        other = WeightStore(path=path, seed=9)
        assert other.get(6) == pair

    def test_store_looks_up_only_the_fixed_replication_count(self, tmp_path):
        path = tmp_path / "weights.txt"
        other = WeightPair(w1=0.9, w2=0.7, n=5, replications=2000)
        write_weight_table(path, {(5, 2000, 9): other})
        pair = WeightStore(path=path, seed=9).get(5)
        assert pair == seeded_weight_medians(5, 9)
        # the record of the other count stays in the file
        assert read_weight_table(path) == {(5, 2000, 9): other, (5, 100000, 9): pair}

    def test_store_returns_the_simulated_pair_when_it_cannot_write(self, tmp_path):
        # the cache's parent is a file: the write fails, and the store still answers
        blocker = tmp_path / "blocker"
        blocker.write_text("x\n")
        pair = WeightStore(path=blocker / "weights.txt", seed=9).get(5)
        assert pair == seeded_weight_medians(5, 9)
        assert blocker.read_text() == "x\n" and list(tmp_path.iterdir()) == [blocker]

    def test_store_defaults_to_the_command_line_seed(self, tmp_path):
        # fit, weights and the lab default to seed 1729, and so does a store
        pair = WeightStore(path=tmp_path / "weights.txt").get(5)
        assert pair == seeded_weight_medians(5, 1729)

    def test_store_respects_env_default(self, tmp_path, monkeypatch):
        target = tmp_path / "env-weights.txt"
        monkeypatch.setenv("WEIBULL_ESTLAB_WEIGHTS", str(target))
        store = WeightStore(seed=3)
        store.get(5)
        assert target.exists()
