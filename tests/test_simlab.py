import concurrent.futures
import dataclasses
import re
import tracemalloc

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
from weibull_estlab import methods, simlab
from weibull_estlab.cli import PRESETS
from weibull_estlab.core import REPLICATIONS, BatchFit, draw_sorted, substreams
from weibull_estlab.methods import FitOptions
from weibull_estlab.simlab import CSV_HEADER, default_replications

from conftest import replication_rng


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
        t1 = run_experiment(tiny_config(workers=1))
        t2 = run_experiment(tiny_config(workers=2))
        assert t1 == t2

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
        def all_rows_fail(values, logs, options, weights):
            nan = np.full(values.shape[0], np.nan)
            errors = {r: EstimationError("injected") for r in range(values.shape[0])}
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
        return draw_sorted(self.LEVEL, n, [replication_rng(master, cell, r) for r in reps])[0]

    def block_rows(self, master, cell, reps):
        return draw_sorted(self.LEVEL, 3, substreams(master, (REPLICATIONS, cell), reps))[0]

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
        # at n = 4000 a chunk is one row block of _BLOCK_VALUES // n = 32 replications
        drawn = []

        def recording_draw(level, n, rngs, out=None):
            values, logs = draw_sorted(level, n, rngs, out=out)
            drawn.append(values.copy())  # the chunk draws into reused work arrays
            return values, logs

        monkeypatch.setattr(simlab, "draw_sorted", recording_draw)
        n, master, cell = 4000, 1729, 5
        chunks = simlab._chunks(n, 40)
        assert chunks == [range(0, 32), range(32, 40)]
        for chunk in chunks:
            simlab._run_chunk((cell, n, self.LEVEL.shape, self.LEVEL.scale, ("LM",),
                               FitOptions(), None, master, chunk.start, chunk.stop))
        assert [v.shape[0] for v in drawn] == [32, 8]
        assert np.array_equal(np.concatenate(drawn), self.oracle_rows(master, cell, range(40), n))


class TestWorkBuffers:
    """A warm chunk draws and fits in reused per-thread work arrays."""

    def chunk(self, start, stop):
        return simlab._run_chunk((5, 4000, 2.0, 3.0, ("MLE", "LM"), FitOptions(), None,
                                  1729, start, stop))

    def test_warm_chunk_allocates_nothing_large(self):
        # a 32 x 4000 chunk's draw alone is two 1 MB matrices
        self.chunk(0, 32)
        tracemalloc.start()
        try:
            _, _, est = self.chunk(32, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(est).all()
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
