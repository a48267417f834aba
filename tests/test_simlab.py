import concurrent.futures
import dataclasses
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from weibull_estlab import (
    METHOD_NAMES,
    EstimationError,
    MetricRow,
    MetricTable,
    SimulationConfig,
    WeibullParams,
    emit_plot_data,
    rank_methods,
    run_experiment,
    write_metric_csv,
)
from weibull_estlab import core, likelihood, methods, simlab
from weibull_estlab.cli import PRESETS
from weibull_estlab.core import DEFAULT_SEED, REPLICATIONS, BatchFit, draw_sorted, substreams
from weibull_estlab.likelihood import seeded_weight_medians
from weibull_estlab.methods import FitOptions, fit_batch
from weibull_estlab.simlab import CSV_HEADER, default_replications

from conftest import OneZeroGenerator, replication_rng, uniform_rows


def tiny_config(**overrides):
    base = dict(
        methods=("USTAT", "LM", "MLM"),
        sample_sizes=(10,),
        param_levels=(WeibullParams(2.0, 3.0),),
        replications=200,
        master_seed=77,
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestConfigValidation:
    def test_zero_replications_rejected(self):
        with pytest.raises(ValueError, match="replications"):
            tiny_config(replications=0)

    def test_empty_methods_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(methods=())

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            tiny_config(methods=("USTAT", "NOPE"))

    def test_small_sample_size_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(sample_sizes=(1,))

    def test_negative_master_seed_rejected(self):
        with pytest.raises(ValueError, match="master_seed"):
            tiny_config(master_seed=-1)

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(workers=0)

    @pytest.mark.parametrize("field, value", [
        ("sample_sizes", (5.7,)), ("replications", 150.5), ("workers", 1.5),
        ("master_seed", 77.5), ("master_seed", "77"), ("workers", True),
    ])
    def test_non_integral_count_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            tiny_config(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("methods", "MLE"), ("sample_sizes", 10), ("param_levels", 2.5),
        ("param_levels", {"shape": 2.0, "scale": 3.0}),
    ])
    def test_non_list_field_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a list"):
            tiny_config(**{field: value})

    def test_level_must_be_a_pair(self):
        with pytest.raises(ValueError, match=r"param_levels\[0\] must be a list"):
            tiny_config(param_levels=(2.0, 3.0))
        with pytest.raises(ValueError, match=r"param_levels\[1\] must be a \(shape, scale\) pair"):
            tiny_config(param_levels=((2.0, 3.0), (2.0, 3.0, 4.0)))

    @pytest.mark.parametrize("level, message", [
        (("2.5", 1.0), r"param_levels\[1\]: shape must be a positive finite real, got '2.5'"),
        ((True, 2.5), r"param_levels\[1\]: shape must be a positive finite real, got True"),
        ((2.5, np.bool_(True)), r"param_levels\[1\]: scale must be a positive finite real"),
        ((0.0, 1.0), r"param_levels\[1\]: shape must be a positive finite real"),
        ((2.5, float("nan")), r"param_levels\[1\]: scale must be a positive finite real"),
    ], ids=["string", "boolean", "numpy-boolean", "zero-shape", "nan-scale"])
    def test_bad_level_is_named(self, level, message):
        with pytest.raises(ValueError, match=message):
            tiny_config(param_levels=((2.0, 3.0), level))

    @pytest.mark.parametrize("field, value, entry", [
        ("methods", ("LM", "USTAT", "LM"), "'LM'"),
        ("sample_sizes", (5, 10, 5.0), "5"),
        ("param_levels", ((2.0, 3.0), WeibullParams(2.0, 3.0)), "WeibullParams(shape=2.0"),
    ], ids=["methods", "sample_sizes", "param_levels"])
    def test_repeated_entry_rejected_by_name(self, field, value, entry):
        with pytest.raises(ValueError, match=rf"{field} repeats the entry {re.escape(entry)}"):
            tiny_config(**{field: value})

    def test_integral_floats_become_ints(self):
        cfg = tiny_config(sample_sizes=(10.0,), replications=1e4, workers=2.0, master_seed=77.0)
        counts = (cfg.sample_sizes[0], cfg.replications, cfg.workers, cfg.master_seed)
        assert counts == (10, 10_000, 2, 77)
        assert all(type(c) is int for c in counts)

    def test_unknown_plotting_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown plotting rule 'bogus'"):
            tiny_config(plotting_rule="bogus")

    def test_levels_coerced_from_tuples(self):
        cfg = tiny_config(param_levels=((2.0, 3.0),))
        assert cfg.param_levels[0] == WeibullParams(2.0, 3.0)

    def test_default_replication_rule(self):
        assert default_replications(5) == 10_000
        assert default_replications(200) == 10_000
        assert default_replications(1000) == 2_000


class TestConfigMapping:
    """from_mapping and as_mapping are the config-file schema."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_preset_round_trip(self, preset):
        cfg = SimulationConfig.from_mapping(PRESETS[preset])
        assert SimulationConfig.from_mapping(cfg.as_mapping()) == cfg

    def test_every_field_round_trip(self):
        raw = {"methods": ["WMLE", "GLS1"], "sample_sizes": [7, 12],
               "param_levels": [[0.5, 2.5], [3.0, 1.5]], "replications": 300,
               "master_seed": 2**64 + 5, "workers": 2, "plotting_rule": "(i-0.3)/(n+0.4)"}
        cfg = SimulationConfig.from_mapping(raw)
        assert cfg.as_mapping() == raw
        assert SimulationConfig.from_mapping(cfg.as_mapping()) == cfg
        assert cfg.options == FitOptions(plotting_rule="(i-0.3)/(n+0.4)")

    def test_omitted_fields_take_constructor_defaults(self):
        raw = {"methods": ["LM"], "sample_sizes": [10], "param_levels": [[2.0, 3.0]]}
        assert SimulationConfig.from_mapping(raw) == SimulationConfig(
            methods=("LM",), sample_sizes=(10,), param_levels=((2.0, 3.0),))

    def test_unknown_field_named(self):
        for name, value in (("metric", "BOTH"), ("weight_replications", 100_000)):
            raw = {"methods": ["LM"], "sample_sizes": [10], "param_levels": [[2.0, 3.0]],
                   name: value}
            with pytest.raises(ValueError, match=rf"unknown field\(s\) \['{name}'\]"):
                SimulationConfig.from_mapping(raw)

    def test_missing_field_named(self):
        with pytest.raises(ValueError, match=r"missing field\(s\) \['sample_sizes'\]"):
            SimulationConfig.from_mapping({"methods": ["LM"], "param_levels": [[2.0, 3.0]]})


class TestRunExperiment:
    def test_rows_cover_grid(self):
        cfg = tiny_config(sample_sizes=(10, 20))
        table = run_experiment(cfg)
        assert len(table.rows) == len(cfg.methods) * 2
        assert {r.n for r in table.rows} == {10, 20}
        assert all(r.reps + r.failures == 200 for r in table.rows)

    def test_rmse_dominates_bias(self):
        table = run_experiment(tiny_config(replications=300))
        for r in table.rows:
            assert r.rmse_alpha >= abs(r.bias_alpha)
            assert r.rmse_beta >= abs(r.bias_beta)

    def test_bit_identical_across_worker_counts(self):
        # three pieces in the cell, run as two row blocks: its piece sums are added in grid order
        # at both counts
        cfg = tiny_config(replications=3 * simlab._CHUNK)
        assert len(simlab._chunks(10, cfg.replications)) == 3
        assert run_experiment(cfg) == run_experiment(dataclasses.replace(cfg, workers=2))

    def test_bias_within_a_few_ulp_of_the_exact_mean_error(self):
        # the oracle refits every replication in one batch per method and
        # averages its errors in exact rational arithmetic
        reps = 1000
        cfg = SimulationConfig(methods=METHOD_NAMES, sample_sizes=(5, 30),
                               param_levels=((0.5, 2.5), (2.5, 0.5)), replications=reps)
        assert all(len(simlab._chunks(n, reps)) >= 3 for n in cfg.sample_sizes)
        rows = {(r.method, r.n, r.alpha): r for r in run_experiment(cfg).rows}
        for cell, n, level in cfg.cells():
            rngs = substreams(cfg.master_seed, (REPLICATIONS, cell), range(reps))
            values, logs = draw_sorted(level, uniform_rows(rngs, n))
            weights = seeded_weight_medians(n, DEFAULT_SEED)
            for method in cfg.methods:
                fit = fit_batch(method, values, logs, cfg.options, weights)
                ok = np.isfinite(fit.shape) & np.isfinite(fit.scale)
                row = rows[(method, n, level.shape)]
                assert row.reps == ok.sum()
                for est, truth, bias in ((fit.shape[ok], level.shape, row.bias_alpha),
                                         (fit.scale[ok], level.scale, row.bias_beta)):
                    exact = sum(map(Fraction, est.tolist())) / len(est) - Fraction(truth)
                    ulps = abs(Fraction(bias) - exact) / Fraction(math.ulp(float(exact)))
                    assert ulps <= 64, (method, n, level, float(ulps))

    def test_traced_peak_does_not_grow_with_replications(self):
        # no chunk's estimates outlive it: a reps x methods x 2 array of this
        # grid would alone be 1.28 MB. The peak counts this thread's scratch
        # buffers too, so they start empty whatever ran before.
        cfg = SimulationConfig(methods=("USTAT", "MLM", "LM", "PM"), sample_sizes=(5,),
                               param_levels=((2.5, 2.5),), replications=20_000)
        vars(core._scratch_buffers).clear()
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 19, peak

    def test_process_pool_no_larger_than_task_list(self, monkeypatch):
        sizes = []

        class RecordingPool:  # starts no process: the tasks run in this one
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def map(self, fn, tasks, chunksize):
                return map(fn, tasks)

            def shutdown(self):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        one_chunk = tiny_config(sample_sizes=(5,), replications=100, workers=8)
        assert run_experiment(one_chunk) == run_experiment(
            dataclasses.replace(one_chunk, workers=1))
        assert sizes == []  # one task runs in-process
        three_chunks = tiny_config(sample_sizes=(5, 10, 20), replications=100, workers=8)
        assert run_experiment(three_chunks) == run_experiment(
            dataclasses.replace(three_chunks, workers=1))
        assert sizes == [3]

    def test_common_random_numbers_stability(self):
        # the short run is a prefix of the long one under the same seed,
        # so the bias estimates move by less than a few standard errors
        short = run_experiment(tiny_config(replications=300))
        long = run_experiment(tiny_config(replications=600))
        for r_short, r_long in zip(short.rows, long.rows):
            se = r_short.rmse_alpha / np.sqrt(300)
            assert abs(r_short.bias_alpha - r_long.bias_alpha) < 3 * se

    def test_failure_accounting(self, monkeypatch):
        def all_rows_fail(stats, options, weights):
            nan = np.full(stats.values.shape[0], np.nan)
            errors = {r: EstimationError("injected") for r in range(stats.values.shape[0])}
            return BatchFit.build("FAIL", nan, nan, errors)

        monkeypatch.setitem(methods._REGISTRY, "FAIL", all_rows_fail)
        monkeypatch.setattr(simlab, "METHOD_NAMES", (*METHOD_NAMES, "FAIL"))
        table = run_experiment(tiny_config(methods=("FAIL", "LM"), replications=150))
        assert all(r.method != "FAIL" for r in table.rows)
        assert table.skipped == (("FAIL", 10, 2.0, 3.0, 150),)
        lm_rows = [r for r in table.rows if r.method == "LM"]
        assert len(lm_rows) == 1 and lm_rows[0].failures == 0

    def test_draw_underflow_counts_as_failure_for_every_method(self):
        # at shape 0.01 a draw can underflow to 0; that replication is a
        # failure of every method instead of an error out of the run
        cfg = SimulationConfig(methods=METHOD_NAMES, param_levels=((0.01, 1.0),),
                               sample_sizes=(30,), replications=100)
        table = run_experiment(cfg)
        assert {r.method for r in table.rows} | {s[0] for s in table.skipped} == set(METHOD_NAMES)
        for r in table.rows:
            assert r.reps + r.failures == 100
            assert r.failures >= 1

    def test_wmle_runs_with_precomputed_weights(self):
        cfg = tiny_config(methods=("WMLE",), replications=150)
        table = run_experiment(cfg)
        assert len(table.rows) == 1
        assert table.rows[0].reps > 0

    def test_wmle_uses_the_default_seed_weights_at_any_master_seed(self):
        # seed 5's samples fitted under seed 1729's weights; seed 5's own
        # weights would move the shape bias by 4e-3 to 5e-3 here
        reps = 300
        cfg = SimulationConfig(methods=("WMLE",), sample_sizes=(5, 30),
                               param_levels=((2.5, 0.5),), replications=reps, master_seed=5)
        table = run_experiment(cfg)
        rows = {r.n: r for r in table.rows}
        for cell, n, level in cfg.cells():
            values, logs = draw_sorted(level, uniform_rows(
                substreams(5, (REPLICATIONS, cell), range(reps)), n))
            fit = fit_batch("WMLE", values, logs, cfg.options,
                            seeded_weight_medians(n, DEFAULT_SEED))
            ok = np.isfinite(fit.shape) & np.isfinite(fit.scale)
            assert rows[n].reps == ok.sum()
            for est, truth, bias, rmse in (
                    (fit.shape[ok], level.shape, rows[n].bias_alpha, rows[n].rmse_alpha),
                    (fit.scale[ok], level.scale, rows[n].bias_beta, rows[n].rmse_beta)):
                assert bias == pytest.approx(np.mean(est - truth), rel=0, abs=1e-13)
                assert rmse == pytest.approx(np.sqrt(np.mean((est - truth) ** 2)), rel=1e-12)
        assert table.weights == tuple(seeded_weight_medians(n, DEFAULT_SEED) for n in (5, 30))

    def test_weights_are_simulated_once_per_n_per_process(self, monkeypatch):
        calls = []
        simulate = likelihood.simulate_weight_medians

        def counting(n, *args):
            calls.append(n)
            return simulate(n, *args)

        monkeypatch.setattr(likelihood, "simulate_weight_medians", counting)
        likelihood.seeded_weight_medians.cache_clear()
        grid = dict(sample_sizes=(5, 10), param_levels=((2.0, 3.0),), replications=100)
        for seed in (5, 6):
            run_experiment(SimulationConfig(methods=("WMLE", "LM"), master_seed=seed, **grid))
        assert sorted(calls) == [5, 10]
        # a size the cache has not seen, and no WMLE: no simulation
        table = run_experiment(SimulationConfig(methods=("MLE", "LM"), sample_sizes=(7,),
                                                param_levels=((2.0, 3.0),), replications=100))
        assert sorted(calls) == [5, 10]
        assert table.weights == ()

    def test_large_n_bias_small_for_every_method(self):
        # consistency sanity at n=4000, (0.5, 0.5): every method's shape bias
        # sits well under 0.02
        cfg = SimulationConfig(
            methods=tuple(["USTAT", "MLE", "WMLE", "GLS1", "GLS2", "WLS",
                           "LM", "MLM", "PM", "MM"]),
            sample_sizes=(4000,),
            param_levels=(WeibullParams(0.5, 0.5),),
            replications=200,
            master_seed=606,
        )
        table = run_experiment(cfg)
        assert len(table.rows) == 10
        for r in table.rows:
            assert abs(r.bias_alpha) < 0.02, (r.method, r.bias_alpha)


class TestBlockSeeding:
    """Rows seeded a block at a time by core.substreams equal one SeedSequence
    per replication."""

    LEVEL = WeibullParams(2.0, 3.0)

    def oracle_rows(self, master, cell, reps, n=3):
        rngs = [replication_rng(master, cell, r) for r in reps]
        return draw_sorted(self.LEVEL, uniform_rows(rngs, n))[0]

    def block_rows(self, master, cell, reps):
        rngs = substreams(master, (REPLICATIONS, cell), reps)
        return draw_sorted(self.LEVEL, uniform_rows(rngs, 3))[0]

    @pytest.mark.parametrize("master", [0, 1, 1729, 2**32 - 1, 2**32, 2**64 + 5, 172900017])
    def test_rows_equal_per_replication_seeding(self, master):
        for cell in (0, 11):
            expected = self.oracle_rows(master, cell, range(300))
            for block in (1, 255, 256, 257):
                rows = np.concatenate([
                    self.block_rows(master, cell, range(first, min(first + block, 300)))
                    for first in range(0, 300, block)])
                assert np.array_equal(rows, expected), (cell, block)
            last = range(2**32 - 1, 2**32)
            assert np.array_equal(self.block_rows(master, cell, last),
                                  self.oracle_rows(master, cell, last))

    def test_index_beyond_one_entropy_word_rejected(self):
        with pytest.raises(ValueError):
            substreams(1, (REPLICATIONS, 0), range(2**32 - 1, 2**32 + 1))

    def test_negative_master_seed_rejected(self):
        with pytest.raises(ValueError):
            substreams(-1, (REPLICATIONS, 0), range(3))

    def test_chunk_split_into_row_blocks(self, monkeypatch):
        # at n = 4000 a piece is _BLOCK_VALUES // n = 32 replications, one row block each
        drawn = []

        def recording_draw(level, u, logs=None):
            values, logs = draw_sorted(level, u, logs)
            drawn.append(values.copy())  # the block draws into reused work arrays
            return values, logs

        monkeypatch.setattr(simlab, "draw_sorted", recording_draw)
        n, master, cell = 4000, 1729, 5
        chunks = simlab._chunks(n, 40)
        assert chunks == [range(0, 32), range(32, 40)]
        for chunk in chunks:
            piece = (cell, self.LEVEL.shape, self.LEVEL.scale, chunk.start, chunk.stop)
            simlab._run_block((n, ("LM",), FitOptions(), None, master, (piece,)))
        assert [v.shape[0] for v in drawn] == [32, 8]
        assert np.array_equal(np.concatenate(drawn), self.oracle_rows(master, cell, range(40), n))


class TestRowBlocks:
    """Pieces (the reduction unit) are packed into row blocks (the compute
    unit) that span the levels of one sample size; no output bit moves."""

    @pytest.mark.parametrize("cfg", [
        SimulationConfig.from_mapping(PRESETS["table1"]),
        SimulationConfig.from_mapping(PRESETS["table3"]),
        tiny_config(sample_sizes=(5, 300, 1000), param_levels=((2.0, 3.0), (0.5, 1.0)),
                    replications=700),
    ], ids=["table1", "table3", "mixed-n"])
    def test_packing(self, cfg):
        blocks = simlab._row_blocks(cfg)
        pieces = [(cell, level.shape, level.scale, chunk.start, chunk.stop)
                  for cell, n, level in cfg.cells()
                  for chunk in simlab._chunks(n, cfg.replications or default_replications(n))]
        assert [p for _, block in blocks for p in block] == pieces  # grid order
        size_of = {cell: n for cell, n, _ in cfg.cells()}
        for (n, block), after in zip(blocks, blocks[1:] + [(None, ())]):
            assert {size_of[cell] for cell, *_ in block} == {n}
            rows = sum(stop - start for *_, start, stop in block)
            assert len(block) == 1 or (rows <= simlab._BLOCK_ROWS
                                       and rows * n <= simlab._BLOCK_VALUES)
            if after[0] == n:  # a block ends only where the next piece does not fit
                more = rows + after[1][0][4] - after[1][0][3]
                assert more > simlab._BLOCK_ROWS or more * n > simlab._BLOCK_VALUES
            if n >= 1000:
                assert len(block) == 1
        assert simlab._row_blocks(dataclasses.replace(cfg, workers=2)) == blocks

    def test_block_split_changes_no_byte(self, monkeypatch):
        cfg = SimulationConfig(methods=METHOD_NAMES, sample_sizes=(5, 30),
                               param_levels=((0.5, 2.5), (2.5, 0.5)), replications=600)
        assert all(len(simlab._chunks(n, 600)) == 3 for n in cfg.sample_sizes)
        cells = [{cell for cell, *_ in block} for _, block in simlab._row_blocks(cfg)]
        assert any(len(c) > 1 for c in cells)  # a block spans two cells
        assert any(a & b for a, b in zip(cells, cells[1:]))  # and a cell spans two blocks
        packed = [run_experiment(dataclasses.replace(cfg, workers=w)) for w in (1, 2)]
        monkeypatch.setattr(simlab, "_BLOCK_ROWS", simlab._CHUNK)
        assert all(len(block) == 1 for _, block in simlab._row_blocks(cfg))
        for w in (1, 2):
            assert run_experiment(dataclasses.replace(cfg, workers=w)) == packed[0] == packed[1]

    def test_cell_rows_do_not_depend_on_the_other_levels(self):
        # cell 1's piece alone, after cell 0's, and before it: the same sums
        n, methods, seed = 10, METHOD_NAMES, 1729
        weights = seeded_weight_medians(n, DEFAULT_SEED)
        first, second = (0, 0.5, 2.5, 0, 100), (1, 2.5, 0.5, 100, 250)

        def run(*pieces):
            return dict(simlab._run_block((n, methods, FitOptions(), weights, seed, pieces)))

        alone = run(second)[1]
        for pieces in ((first, second), (second, first)):
            assert np.array_equal(run(*pieces)[1], alone, equal_nan=True)

    def test_failures_stay_per_cell_in_a_mixed_block(self):
        # shape 0.01 draws underflow or overflow; the normal cell beside it
        # in the same row block neither loses rows nor changes a bit
        normal, extreme = WeibullParams(2.0, 3.0), WeibullParams(0.01, 1.0)
        cfg = SimulationConfig(methods=METHOD_NAMES, sample_sizes=(30,),
                               param_levels=(normal, extreme), replications=100)
        assert simlab._row_blocks(cfg) == [(30, ((0, 2.0, 3.0, 0, 100), (1, 0.01, 1.0, 0, 100)))]
        rngs = substreams(cfg.master_seed, (REPLICATIONS, 1), range(100))
        values = draw_sorted(extreme, uniform_rows(rngs, 30))[0]
        bad_draws = np.count_nonzero((values[:, 0] == 0.0) | ~np.isfinite(values[:, -1]))
        assert bad_draws >= 1
        table = run_experiment(cfg)
        extreme_failures = {r.method: r.failures for r in table.rows if r.alpha == 0.01}
        extreme_failures.update({s[0]: s[4] for s in table.skipped if s[2] == 0.01})
        assert set(extreme_failures) == set(METHOD_NAMES)
        assert all(f >= bad_draws for f in extreme_failures.values()), extreme_failures
        alone = run_experiment(dataclasses.replace(cfg, param_levels=(normal,)))
        assert tuple(r for r in table.rows if r.alpha == 2.0) == alone.rows
        assert all(s[2] != 2.0 for s in table.skipped) and alone.skipped == ()

    def test_zero_uniform_fails_its_replication_for_every_method(self, monkeypatch):
        # one 0.0 uniform in replication 7 of cell 2 (n 10, shape 2) draws
        # x = 0: each method fails that replication once more, and every other
        # cell's rows keep every bit
        cfg = SimulationConfig(methods=METHOD_NAMES, sample_sizes=(5, 10),
                               param_levels=((2.0, 3.0), (0.5, 1.0)), replications=100)
        target = (10, 2.0, 3.0)
        plain = run_experiment(cfg)
        real = simlab.substreams

        def one_zero(seed, key, indices):
            rngs = real(seed, key, indices)
            if key == (REPLICATIONS, 2) and 7 in indices:
                rngs[7 - indices.start] = OneZeroGenerator(rngs[7 - indices.start], 4)
            return rngs

        monkeypatch.setattr(simlab, "substreams", one_zero)
        zeroed = run_experiment(cfg)
        assert plain.skipped == zeroed.skipped == ()

        def split(table):
            rows = {r.method: r for r in table.rows if (r.n, r.alpha, r.beta) == target}
            return rows, [repr(r) for r in table.rows if (r.n, r.alpha, r.beta) != target]

        (before, others), (after, zeroed_others) = split(plain), split(zeroed)
        assert set(before) == set(after) == set(METHOD_NAMES)
        for method in METHOD_NAMES:
            assert after[method].failures == before[method].failures + 1
            assert after[method].reps == before[method].reps - 1
        assert len(others) == 30 and zeroed_others == others


class TestWorkBuffers:
    """A warm row block draws and fits in reused per-thread work arrays."""

    def chunk(self, start, stop):
        return simlab._run_block((4000, ("MLE", "LM"), FitOptions(), None, 1729,
                                  ((5, 2.0, 3.0, start, stop),)))

    def test_warm_chunk_allocates_nothing_large(self):
        # a 32 x 4000 block's draw alone is two 1 MB matrices
        self.chunk(0, 32)
        tracemalloc.start()
        try:
            [(_, sums)] = self.chunk(32, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (sums[:, 0] == 32).all()  # every row of both methods finite
        assert peak < 1 << 20, peak


class TestRankMethods:
    def make_table(self):
        rows = (
            MetricRow("LM", 10, 2.0, 3.0, -0.05, 0.01, 0.3, 0.2, 100, 0),
            MetricRow("USTAT", 10, 2.0, 3.0, 0.02, -0.04, 0.25, 0.21, 100, 0),
            MetricRow("MM", 10, 2.0, 3.0, -0.02, 0.05, 0.28, 0.22, 100, 0),
        )
        return MetricTable(rows=rows)

    def test_orders_by_magnitude_with_name_ties(self):
        ranked = rank_methods(self.make_table(), "ALPHA_BIAS")
        assert [m for m, _ in ranked] == ["MM", "USTAT", "LM"]

    def test_row_order_invariance(self):
        table = self.make_table()
        shuffled = MetricTable(rows=tuple(reversed(table.rows)))
        assert rank_methods(table, "BETA_BIAS") == rank_methods(shuffled, "BETA_BIAS")

    def test_single_method(self):
        table = MetricTable(rows=(MetricRow("LM", 10, 2, 3, 0.1, 0.1, 0.2, 0.2, 50, 0),))
        assert rank_methods(table, "ALPHA_RMSE") == [("LM", 0.2)]

    def test_empty_cell_errors(self):
        with pytest.raises(ValueError):
            rank_methods(MetricTable(rows=()), "ALPHA_BIAS")
        with pytest.raises(ValueError):
            rank_methods(self.make_table(), "ALPHA_BIAS", n=99)

    def test_level_selects_the_cell(self):
        other = tuple(MetricRow(r.method, 10, 0.5, 1.0, -r.bias_alpha / 10, 0.0, 0.1, 0.1, 100, 0)
                      for r in self.make_table().rows)
        table = MetricTable(rows=self.make_table().rows + other)
        ranked = rank_methods(table, "ALPHA_BIAS", n=10, level=WeibullParams(2.0, 3.0))
        assert ranked == rank_methods(self.make_table(), "ALPHA_BIAS")
        assert rank_methods(table, "ALPHA_BIAS", level=WeibullParams(0.5, 1.0)) == \
            [("MM", 0.002), ("USTAT", -0.002), ("LM", 0.005)]

    def test_ambiguous_cell_errors(self):
        rows = self.make_table().rows + (MetricRow("LM", 20, 2.0, 3.0, 0.1, 0.1, 0.2, 0.2, 50, 0),)
        with pytest.raises(ValueError, match="ambiguous"):
            rank_methods(MetricTable(rows=rows), "ALPHA_BIAS")

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            rank_methods(self.make_table(), "GAMMA_BIAS")


class TestEmission:
    def test_file_count_by_metric(self, tmp_path):
        table = run_experiment(tiny_config(replications=120))
        files = emit_plot_data(table, tmp_path / "plot")
        assert [f.name for f in files] == ["plot_bias_alpha.csv", "plot_bias_beta.csv",
                                           "plot_rmse_alpha.csv", "plot_rmse_beta.csv"]

    def test_empty_table_header_only(self, tmp_path):
        files = emit_plot_data(MetricTable(rows=()), tmp_path / "empty")
        assert len(files) == 4
        for f in files:
            assert f.read_text() == "method,n,value\n"

    def test_round_trip_exact(self, tmp_path):
        table = run_experiment(tiny_config(replications=150))
        (path_a, *_rest) = emit_plot_data(table, tmp_path / "rt")
        lines = path_a.read_text().splitlines()
        assert lines[0] == "method,n,value"
        parsed = {}
        for line in lines[1:]:
            method, n, value = line.split(",")
            parsed[(method, int(n))] = float(value)
        for r in table.rows:
            assert parsed[(r.method, r.n)] == r.bias_alpha  # exact, not approx

    def test_metric_csv_schema(self, tmp_path):
        table = run_experiment(tiny_config(replications=120))
        path = write_metric_csv(table, tmp_path / "metrics.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(table.rows)
        first = lines[1].split(",")
        assert first[0] == table.rows[0].method
        assert int(first[1]) == table.rows[0].n
