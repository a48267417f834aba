import hashlib
import json
from importlib import resources

import numpy as np
import pytest

from weibull_estlab import (
    DataError,
    PercentileConfig,
    SortedSample,
    WeibullParams,
    fit_lm,
    gof_report,
    lifetime48,
    load_dataset,
    parse_dataset,
)
from weibull_estlab import cli, likelihood
from weibull_estlab.cli import EXIT_METHOD_FAILED, EXIT_OK, EXIT_USAGE, PRESETS, main
from weibull_estlab.likelihood import (WEIGHT_TABLE_HEADER, read_weight_table,
                                       seeded_weight_medians)
from weibull_estlab.methods import METHOD_NAMES
from weibull_estlab.regression import LogStats

LIFETIME_SHA256 = "6c20ae678d915be9f5e09e3474677af4d5439ce8ef75e75c4cdbcb9cf661bc23"


def run_cli(argv):
    """Invoke the CLI in-process; returns (exit_code,)"""
    try:
        return main(argv)
    except SystemExit as exc:  # argparse paths
        return int(exc.code or 0)


def method_entries(report, names):
    """The report's entries of the named methods, each value as json writes it."""
    doc = json.loads(report.read_text())
    return {key: json.dumps(value) for key, value in doc.items()
            if key.split(".")[0] in names and "." in key}


def unreadable_cache(path, kind):
    """A weight cache that cannot be read: a directory, or bytes that are not UTF-8."""
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff" + WEIGHT_TABLE_HEADER.encode() + b"\n")
    return path


class TestParseDataset:
    def test_one_per_line(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("1.5\n2.5\n")
        ds = parse_dataset(f)
        np.testing.assert_array_equal(ds.observations, [1.5, 2.5])

    def test_mixed_separators_and_comments(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("# header\n1.0, 2.0 3e0\n\n4.0\n")
        ds = parse_dataset(f)
        np.testing.assert_array_equal(ds.observations, [1.0, 2.0, 3.0, 4.0])

    def test_positivity_violation_names_entry(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("1.0\n-1.0\n")
        with pytest.raises(DataError, match="observation 2"):
            parse_dataset(f)

    def test_parse_error_names_line(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("1.0\nbogus\n")
        with pytest.raises(DataError, match=":2:"):
            parse_dataset(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("# nothing\n")
        with pytest.raises(DataError, match="no observations"):
            parse_dataset(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            parse_dataset(tmp_path / "nope.txt")


class TestBundledDataset:
    def test_shape_and_endpoints(self):
        ds = lifetime48()
        assert ds.n == 48
        assert ds.observations[0] == 30.20
        assert ds.observations[-1] == 27.23

    def test_fixture_hash_pinned(self):
        raw = resources.files("weibull_estlab.data").joinpath("lifetime48.txt").read_bytes()
        assert hashlib.sha256(raw).hexdigest() == LIFETIME_SHA256

    def test_loader_spec(self):
        assert load_dataset("bundled:lifetime48").n == 48
        with pytest.raises(DataError):
            load_dataset("bundled:unknown")


class TestFitCommand:
    def test_all_methods_on_bundled(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("WEIBULL_ESTLAB_WEIGHTS", str(tmp_path / "w.txt"))
        code = run_cli(["fit", "--methods", "all"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        for name in ("USTAT", "MLE", "WMLE", "GLS1", "GLS2", "WLS", "LM", "MLM", "PM", "MM"):
            assert name in out

    def test_degenerate_sample_exits_2(self, tmp_path, capsys):
        f = tmp_path / "flat.txt"
        f.write_text("3.0\n3.0\n3.0\n")
        code = run_cli(["fit", "--data", str(f), "--methods", "USTAT"])
        out = capsys.readouterr().out
        assert code == EXIT_METHOD_FAILED
        assert "failed" in out and "DegenerateSampleError" in out

    def test_failed_method_is_reported_after_the_others(self, tmp_path, monkeypatch, capsys):
        # PM's two quantiles coincide on this sample; the nine others fit it,
        # print in order and write the values a run without PM writes
        monkeypatch.setenv("WEIBULL_ESTLAB_WEIGHTS", str(tmp_path / "w.txt"))
        f = tmp_path / "ties.txt"
        f.write_text("1\n1\n1\n1\n2\n")
        out = tmp_path / "r.json"
        code = run_cli(["fit", "--data", str(f), "--methods", "all", "--out", str(out)])
        lines = capsys.readouterr().out.splitlines()
        assert code == EXIT_METHOD_FAILED
        others = [m for m in METHOD_NAMES if m != "PM"]
        assert [line.split()[0] for line in lines[3:-1]] == others + ["PM"]
        assert lines[-2].startswith("PM       failed: DegenerateSampleError: ")
        doc = json.loads(out.read_text())
        assert doc["PM.status"] == "failed" and doc["PM.error"].startswith("DegenerateSampleError")
        partial = tmp_path / "partial.json"
        assert run_cli(["fit", "--data", str(f), "--methods", ",".join(others),
                        "--out", str(partial)]) == EXIT_OK
        assert method_entries(partial, others) == method_entries(out, others)

    @pytest.mark.parametrize("methods", ["WMLE", "WMLE,MLE", "MLE,LM"])
    def test_a_method_writes_the_same_bytes_in_any_company(self, methods, tmp_path,
                                                            monkeypatch, capsys):
        # MLE and WMLE share one solve when both are asked for: alone, in
        # either order or beside all the others, each writes the same values
        monkeypatch.setenv("WEIBULL_ESTLAB_WEIGHTS", str(tmp_path / "w.txt"))
        every, some = tmp_path / "all.json", tmp_path / "some.json"
        assert run_cli(["fit", "--methods", "all", "--out", str(every)]) == EXIT_OK
        assert run_cli(["fit", "--methods", methods, "--out", str(some)]) == EXIT_OK
        names = methods.split(",")
        assert method_entries(some, names) == method_entries(every, names)
        assert len(method_entries(some, names)) == 5 * len(names)

    def test_one_log_stats_and_one_likelihood_solve_per_invocation(self, tmp_path,
                                                                     monkeypatch, capsys):
        monkeypatch.setenv("WEIBULL_ESTLAB_WEIGHTS", str(tmp_path / "w.txt"))
        built, solves = [], []
        init, solve = LogStats.__init__, likelihood.solve_rows
        monkeypatch.setattr(LogStats, "__init__",
                            lambda self, *args: built.append(args) or init(self, *args))
        monkeypatch.setattr(likelihood, "solve_rows",
                            lambda *args: solves.append(args) or solve(*args))
        assert run_cli(["fit", "--methods", "all"]) == EXIT_OK
        assert (len(built), len(solves)) == (1, 1)
        # the solve's rows: the sample's once for MLE and once for WMLE
        assert solves[0][1].size == 2

    @pytest.mark.parametrize("data, scored, code", [
        (None, METHOD_NAMES, EXIT_OK),
        ("1\n1\n1\n1\n2\n", tuple(m for m in METHOD_NAMES if m != "PM"), EXIT_METHOD_FAILED),
        ("3\n3\n3\n", (), EXIT_METHOD_FAILED),
    ], ids=["lifetime48", "pm-fails", "all-fail"])
    def test_one_gof_batch_over_the_fitted_methods(self, data, scored, code, tmp_path,
                                                   monkeypatch, capsys):
        # every method that fits is scored by one gof_reports call, in order;
        # a failed one is left out, and with none fitted no GOF runs at all
        monkeypatch.setenv("WEIBULL_ESTLAB_WEIGHTS", str(tmp_path / "w.txt"))
        calls, batch = [], cli.gof_reports
        monkeypatch.setattr(cli, "gof_reports",
                            lambda s, params: calls.append(params) or batch(s, params))
        monkeypatch.setattr(cli, "gof_report", None)
        out, source = tmp_path / "r.json", "bundled:lifetime48"
        if data is not None:
            source = tmp_path / "d.txt"
            source.write_text(data)
        assert run_cli(["fit", "--data", str(source), "--methods", "all",
                        "--out", str(out)]) == code
        doc = json.loads(out.read_text())
        fitted = [WeibullParams(doc[f"{m}.alpha"], doc[f"{m}.beta"]) for m in scored]
        assert calls == ([fitted] if scored else [])
        s = SortedSample.from_data(load_dataset(str(source)).observations)
        for name, params in zip(scored, fitted):  # each the bits of a lone report
            lone = gof_report(s, params)
            assert (doc[f"{name}.ks"], doc[f"{name}.cvm"]) == (lone.ks, lone.cvm)
        assert [k for k in doc if k.endswith(".status") and doc[k] == "ok"] == \
            [f"{m}.status" for m in sorted(scored)]

    def test_unknown_method_exits_64(self, capsys):
        code = run_cli(["fit", "--methods", "XYZ"])
        assert code == EXIT_USAGE

    def test_repeated_method_exits_64(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli(["fit", "--methods", "MLE,LM,mle", "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "argument --methods: method(s) named more than once: MLE" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_small_weight_reps_exits_64(self, tmp_path, monkeypatch, capsys):
        # the weight precision is fixed: --weight-reps is no flag of fit
        monkeypatch.setenv("WEIBULL_ESTLAB_WEIGHTS", str(tmp_path / "w.txt"))
        out = tmp_path / "r.json"
        argv = ["fit", "--methods", "WMLE", "--weight-reps", "10", "--out", str(out)]
        assert run_cli(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "fit: error: unrecognized arguments: --weight-reps 10" in err
        assert list(tmp_path.iterdir()) == []

    def test_out_round_trip_and_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert run_cli(["fit", "--methods", "LM", "--out", str(out1)]) == EXIT_OK
        assert run_cli(["fit", "--methods", "LM", "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        r = fit_lm(SortedSample.from_data(lifetime48().observations))
        assert doc["LM.alpha"] == r.shape  # exact round trip
        assert doc["LM.beta"] == r.scale
        assert doc["LM.status"] == "ok"
        assert "timestamp" not in " ".join(doc.keys())

    def test_pm_flags_respected(self, tmp_path, capsys):
        out = tmp_path / "pm.json"
        run_cli(["fit", "--methods", "PM", "--pm-p", "0.31", "--pm-rule", "linear",
                 "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["PM.alpha"] == pytest.approx(5.9767, abs=0.005)
        assert doc["pm_rule"] == "linear"

    def test_pm_defaults_are_percentile_config_defaults(self, tmp_path, capsys):
        out = tmp_path / "pm.json"
        assert run_cli(["fit", "--methods", "PM", "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        default = PercentileConfig()
        assert (doc["pm_p"], doc["pm_rule"]) == (default.p, default.quantile_rule)


class TestWeightCache:
    def fit_wmle(self, seed, out, cache, monkeypatch):
        monkeypatch.setenv("WEIBULL_ESTLAB_WEIGHTS", str(cache))
        argv = ["fit", "--methods", "WMLE", "--seed", str(seed), "--out", str(out)]
        assert run_cli(argv) == EXIT_OK
        return out.read_bytes()

    def test_cold_and_warm_cache_write_identical_reports(self, tmp_path, monkeypatch, capsys):
        cache = tmp_path / "w.txt"
        cold = self.fit_wmle(1, tmp_path / "cold.json", cache, monkeypatch)
        assert cache.exists()
        warm = self.fit_wmle(1, tmp_path / "warm.json", cache, monkeypatch)
        assert warm == cold

    def test_other_seed_uses_its_own_weights(self, tmp_path, monkeypatch, capsys):
        cache = tmp_path / "w.txt"
        seed1 = self.fit_wmle(1, tmp_path / "s1.json", cache, monkeypatch)
        after_seed1 = self.fit_wmle(2, tmp_path / "s2.json", cache, monkeypatch)
        fresh = self.fit_wmle(2, tmp_path / "fresh.json", tmp_path / "fresh.txt", monkeypatch)
        assert after_seed1 == fresh
        assert json.loads(after_seed1)["WMLE.alpha"] != json.loads(seed1)["WMLE.alpha"]
        assert len(read_weight_table(cache)) == 2

    def test_cache_in_older_rounded_layout_is_simulated_again(self, tmp_path, monkeypatch,
                                                                capsys):
        cold = self.fit_wmle(1, tmp_path / "cold.json", tmp_path / "fresh.txt", monkeypatch)
        # the record a warm fit would use, in the header-less layout with
        # floats rounded to 12 significant digits
        pair = seeded_weight_medians(48, 1)
        cache = tmp_path / "w.txt"
        cache.write_text(f"48 {pair.w1:.12g} {pair.w2:.12g} 100000 1\n")
        assert self.fit_wmle(1, tmp_path / "warm.json", cache, monkeypatch) == cold
        assert read_weight_table(cache) == {(48, 100000, 1): pair}

    @pytest.mark.parametrize("record", ["48 0.99 garbage", "48 0.99 x 100000 1729"])
    def test_malformed_cache_exits_64(self, record, tmp_path, monkeypatch, capsys):
        cache = tmp_path / "w.txt"
        cache.write_text(f"{WEIGHT_TABLE_HEADER}\n{record}\n")
        monkeypatch.setenv("WEIBULL_ESTLAB_WEIGHTS", str(cache))
        out = tmp_path / "r.json"
        argv = ["fit", "--methods", "WMLE", "--out", str(out)]
        assert run_cli(argv) == EXIT_USAGE
        assert f"{cache}:2: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cache]

    def test_cache_record_that_cannot_be_weights_exits_64(self, tmp_path, monkeypatch, capsys):
        cache = tmp_path / "w.txt"
        cache.write_text(f"{WEIGHT_TABLE_HEADER}\n48 nan -5.0 100000 1729\n")
        monkeypatch.setenv("WEIBULL_ESTLAB_WEIGHTS", str(cache))
        out = tmp_path / "r.json"
        assert run_cli(["fit", "--methods", "WMLE,MLE", "--out", str(out)]) == EXIT_USAGE
        assert f"{cache}:2: w1 must be finite and positive" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cache]

    def test_cache_record_with_negative_w2_exits_64(self, tmp_path, monkeypatch, capsys):
        # the record names the file and line, rather than failing the WMLE fit
        cache = tmp_path / "w.txt"
        cache.write_text(f"{WEIGHT_TABLE_HEADER}\n48 0.98 -0.5 100000 1729\n")
        monkeypatch.setenv("WEIBULL_ESTLAB_WEIGHTS", str(cache))
        out = tmp_path / "r.json"
        assert run_cli(["fit", "--methods", "WMLE,MLE", "--out", str(out)]) == EXIT_USAGE
        assert f"{cache}:2: w2 must be finite and positive" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cache]

    @pytest.mark.parametrize("kind", ["directory", "undecodable"])
    def test_unreadable_cache_exits_64(self, kind, tmp_path, monkeypatch, capsys):
        cache = unreadable_cache(tmp_path / "w.txt", kind)
        monkeypatch.setenv("WEIBULL_ESTLAB_WEIGHTS", str(cache))
        out = tmp_path / "r.json"
        argv = ["fit", "--methods", "WMLE", "--out", str(out)]
        assert run_cli(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"{cache}: cannot read weight table: " in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [cache]


class TestGofCommand:
    def test_prints_distances(self, capsys):
        code = run_cli(["gof", "--alpha", "4.5922", "--beta", "26.9452"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "KS" in out and "CVM" in out

    def test_rejects_bad_parameters(self, capsys):
        assert run_cli(["gof", "--alpha", "-1", "--beta", "2"]) == EXIT_USAGE

    def test_overflowing_power_neither_warns_nor_moves_the_distances(self, capsys):
        # (x/20)^3000 overflows for most of lifetime48: the cdf saturates at 1
        code = run_cli(["gof", "--alpha", "3000", "--beta", "20"])
        captured = capsys.readouterr()
        assert code == EXIT_OK and captured.err == ""
        assert "KS  = 0.7708\n" in captured.out and "CVM = 7.5020\n" in captured.out


class TestSimulateCommand:
    def test_config_run_writes_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "methods": ["USTAT", "LM"],
            "sample_sizes": [10],
            "param_levels": [[2.0, 3.0]],
            "replications": 120,
        }))
        out_dir = tmp_path / "out"
        code = run_cli(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        assert (out_dir / "metrics.csv").exists()
        assert (out_dir / "manifest.json").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seed"] == 1729
        assert len(manifest["files"]) == 5  # metrics + 4 plot files
        assert manifest["wmle_weights"] == []  # no WMLE, no weights

    def test_skipped_cell_is_noted(self, tmp_path, capsys):
        # at shape 0.001 a draw underflows where E < 0.47 and overflows where
        # E > 2.03, so no replication of n = 30 draws a usable sample
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"methods": ["LM"], "sample_sizes": [30],
                                   "param_levels": [[0.001, 1.0]], "replications": 100}))
        assert run_cli(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) \
            == EXIT_OK
        assert ("note: LM produced no successful fits at n=30 (alpha=0.001, beta=1.0; "
                "100 failures)\n") in capsys.readouterr().out

    def test_unknown_preset_exits_64(self, capsys):
        assert run_cli(["simulate", "--preset", "table9"]) == EXIT_USAGE

    def test_config_and_preset_mutually_exclusive(self, tmp_path, capsys):
        assert run_cli(["simulate"]) == EXIT_USAGE

    def test_unknown_config_field_exits_64(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"methods": ["LM"], "sample_sizes": [10],
                                   "param_levels": [[2, 3]], "bogus_field": 1}))
        assert run_cli(["simulate", "--config", str(cfg)]) == EXIT_USAGE

    @pytest.mark.parametrize("field, value, entry", [
        ("methods", ["MLE", "MLE"], "'MLE'"), ("sample_sizes", [5, 10, 5], "5"),
    ], ids=["methods", "sample_sizes"])
    def test_repeated_grid_entry_in_config_exits_64(self, field, value, entry, tmp_path, capsys):
        doc = {"methods": ["MLE"], "sample_sizes": [5], "param_levels": [[1, 1]],
               "replications": 100, field: value}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        assert run_cli(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)]) == EXIT_USAGE
        assert f"{field} repeats the entry {entry}" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("field, value", [
        ("replications", 150.5), ("sample_sizes", [5.7]), ("master_seed", 1729.5),
        ("workers", 1.5),
    ])
    def test_non_integral_count_in_config_exits_64(self, field, value, tmp_path, capsys):
        doc = {"methods": ["USTAT"], "sample_sizes": [10], "param_levels": [[2.0, 3.0]],
               "replications": 120, field: value}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        assert run_cli(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)]) == EXIT_USAGE
        assert f"{field} must be an integer" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("field, value", [
        ("methods", "USTAT"), ("sample_sizes", 10), ("param_levels", 2.0),
    ])
    def test_non_list_field_in_config_exits_64(self, field, value, tmp_path, capsys):
        doc = {"methods": ["USTAT"], "sample_sizes": [10], "param_levels": [[2.0, 3.0]],
               "replications": 120, field: value}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        assert run_cli(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)]) == EXIT_USAGE
        assert f"{field} must be a list" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("levels, message", [
        ([["2.5", 1]], "param_levels[0]: shape must be a positive finite real, got '2.5'"),
        ([[2.0, 3.0], [True, 2.5]], "param_levels[1]: shape must be a positive finite real, got True"),
        ([[2.0, 3.0], [2.0, -1.0]], "param_levels[1]: scale must be a positive finite real"),
        # a JSON integer too large for a float
        ([[10 ** 400, 1]], "param_levels[0]: shape must be a positive finite real, got 1000"),
    ], ids=["string", "boolean", "negative", "oversized-integer"])
    def test_bad_level_in_config_exits_64_naming_it(self, levels, message, tmp_path, capsys):
        doc = {"methods": ["USTAT"], "sample_sizes": [10], "param_levels": levels,
               "replications": 120}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        assert run_cli(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)]) == EXIT_USAGE
        assert f"invalid experiment config: {message}" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_integral_float_counts_in_config_run(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"methods": ["USTAT"], "sample_sizes": [10.0],
                                   "param_levels": [[2.0, 3.0]], "replications": 1e3,
                                   "master_seed": 5.0, "workers": 1.0}))
        out_dir = tmp_path / "out"
        assert run_cli(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)]) == EXIT_OK
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["config"]["sample_sizes"] == [10]
        assert (manifest["config"]["replications"], manifest["config"]["workers"]) == (1000, 1)
        assert (out_dir / "metrics.csv").read_text().splitlines()[1].startswith("USTAT,10,2,3,")

    @pytest.mark.parametrize("methods", [["GLS1"], ["USTAT"]])
    def test_unknown_plotting_rule_in_config_exits_64(self, methods, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"methods": methods, "sample_sizes": [10],
                                   "param_levels": [[2.0, 3.0]], "replications": 120,
                                   "plotting_rule": "bogus"}))
        out_dir = tmp_path / "out"
        assert run_cli(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)]) == EXIT_USAGE
        assert "unknown plotting rule 'bogus'" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_metric_field_exits_64(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"methods": ["USTAT"], "sample_sizes": [10],
                                   "param_levels": [[2.0, 3.0]], "replications": 120,
                                   "metric": "BOTH"}))
        out_dir = tmp_path / "out"
        assert run_cli(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)]) == EXIT_USAGE
        assert "unknown field(s) ['metric']" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_manifest_config_reproduces_the_run(self, tmp_path, capsys):
        first, second = tmp_path / "first", tmp_path / "second"
        argv = ["simulate", "--preset", "table1", "--reps", "100", "--seed", "5"]
        assert run_cli(argv + ["--out-dir", str(first)]) == EXIT_OK
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(json.loads((first / "manifest.json").read_text())["config"]))
        assert run_cli(["simulate", "--config", str(cfg), "--out-dir", str(second)]) == EXIT_OK
        assert (second / "metrics.csv").read_bytes() == (first / "metrics.csv").read_bytes()

    def test_manifest_records_the_library_wmle_weights(self, tmp_path, capsys):
        # the default seed's weights at any master seed, in config order, and
        # the floats read back exactly
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"methods": ["LM", "WMLE"], "sample_sizes": [10, 5],
                                   "param_levels": [[2.0, 3.0]], "replications": 100}))
        out_dir = tmp_path / "out"
        argv = ["simulate", "--config", str(cfg), "--seed", "5", "--out-dir", str(out_dir)]
        assert run_cli(argv) == EXIT_OK
        manifest = json.loads((out_dir / "manifest.json").read_text())
        want = [[p.n, p.w1, p.w2, p.replications, 1729]
                for p in (seeded_weight_medians(n, 1729) for n in (10, 5))]
        assert manifest["wmle_weights"] == want
        assert manifest["config"]["master_seed"] == 5

    def test_preset_structure(self):
        assert PRESETS["table1"]["sample_sizes"] == (5, 10, 30)
        assert len(PRESETS["table1"]["methods"]) == 10
        assert PRESETS["table3"]["sample_sizes"] == (1000, 4000)
        assert PRESETS["table3"]["methods"] == ("GLS1", "WLS", "GLS2", "MLE", "LM", "USTAT")
        for preset in PRESETS.values():
            assert preset["param_levels"] == ((0.5, 0.5), (0.5, 2.5), (2.5, 0.5), (2.5, 2.5))


class TestSeedValidation:
    """numpy seeds only from non-negative integers; a negative seed is a usage error."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--preset", "table1", "--reps", "100", "--seed", "-1"],
        ["fit", "--methods", "WMLE", "--seed", "-1"],
        ["weights", "--n", "5", "--seed", "-1"],
    ], ids=["simulate", "fit", "weights"])
    def test_negative_seed_exits_64(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("WEIBULL_ESTLAB_WEIGHTS", str(tmp_path / "w.txt"))
        monkeypatch.chdir(tmp_path)
        assert run_cli(argv) == EXIT_USAGE
        assert "non-negative integer" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_negative_master_seed_in_config_exits_64(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"methods": ["WMLE"], "sample_sizes": [10],
                                   "param_levels": [[2, 3]], "master_seed": -1}))
        out_dir = tmp_path / "out"
        assert run_cli(["simulate", "--config", str(cfg), "--out-dir", str(out_dir)]) == EXIT_USAGE
        assert "non-negative integer" in capsys.readouterr().err
        assert not out_dir.exists()


class TestWeightsCommand:
    def test_writes_records(self, tmp_path, capsys):
        out = tmp_path / "w.txt"
        code = run_cli(["weights", "--n", "5,10", "--out", str(out)])
        assert code == EXIT_OK
        header, *lines = out.read_text().splitlines()
        assert header == WEIGHT_TABLE_HEADER
        assert len(lines) == 2
        assert lines[0].split()[0] == "5"

    def test_reference_grid_writes_seven_records(self, tmp_path, capsys):
        out = tmp_path / "w.txt"
        code = run_cli(["weights", "--n", "5,10,15,30,50,100,200", "--out", str(out)])
        assert code == EXIT_OK
        header, *lines = out.read_text().splitlines()
        assert header == WEIGHT_TABLE_HEADER
        assert len(lines) == 7
        assert [int(l.split()[0]) for l in lines] == [5, 10, 15, 30, 50, 100, 200]

    def test_table_line_and_manifest_row_are_one_record(self, tmp_path, capsys):
        # both at the default seed 1729; the lab's at any master seed
        table = tmp_path / "w.txt"
        assert run_cli(["weights", "--n", "5,30", "--out", str(table)]) == EXIT_OK
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"methods": ["WMLE"], "sample_sizes": [5, 30],
                                   "param_levels": [[2.0, 3.0]], "replications": 100}))
        out_dir = tmp_path / "out"
        argv = ["simulate", "--config", str(cfg), "--seed", "5", "--out-dir", str(out_dir)]
        assert run_cli(argv) == EXIT_OK
        rows = json.loads((out_dir / "manifest.json").read_text())["wmle_weights"]
        lines = table.read_text().splitlines()[1:]
        assert [r[0] for r in rows] == [5, 30] and [r[4] for r in rows] == [1729, 1729]
        # the same five fields, with the same text: a float's str is its repr
        assert [" ".join(map(str, r)) for r in rows] == lines

    def test_rerun_identical_bytes(self, tmp_path, capsys):
        out = tmp_path / "w.txt"
        run_cli(["weights", "--n", "5,7", "--seed", "3", "--out", str(out)])
        first = out.read_bytes()
        run_cli(["weights", "--n", "5,7", "--seed", "3", "--out", str(out)])
        assert out.read_bytes() == first

    def test_table_holding_every_record_is_left_as_it_is(self, tmp_path, monkeypatch,
                                                          capsys):
        # a record depends only on (n, replications, seed), so one the table
        # holds is reported, not simulated again
        def forbidden(*args, **kwargs):
            raise AssertionError("simulated a record the table holds")

        out = tmp_path / "w.txt"
        out.write_text(f"{WEIGHT_TABLE_HEADER}\n5 0.9 0.7 100000 1729\n30 0.95 0.85 100000 1729\n")
        before = out.read_bytes()
        monkeypatch.setattr(likelihood, "simulate_weight_medians", forbidden)
        assert run_cli(["weights", "--n", "5,30", "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == before
        assert "n=5: w1=0.900000 w2=0.700000" in capsys.readouterr().out

    def test_rejects_n1(self, capsys):
        assert run_cli(["weights", "--n", "1,5"]) == EXIT_USAGE

    def test_rejects_small_reps(self, capsys):
        assert run_cli(["weights", "--n", "5", "--reps", "10"]) == EXIT_USAGE

    def test_malformed_cache_exits_64(self, tmp_path, capsys):
        out = tmp_path / "w.txt"
        out.write_text(f"{WEIGHT_TABLE_HEADER}\n48 0.99 x 100000 1729\n")
        before = out.read_bytes()
        assert run_cli(["weights", "--n", "5", "--out", str(out)]) == EXIT_USAGE
        assert f"{out}:2: " in capsys.readouterr().err
        assert out.read_bytes() == before
        assert list(tmp_path.iterdir()) == [out]

    def test_cache_record_that_cannot_be_weights_exits_64(self, tmp_path, capsys):
        out = tmp_path / "w.txt"
        out.write_text(f"{WEIGHT_TABLE_HEADER}\n48 0.99 0.97 -3 1729\n")
        before = out.read_bytes()
        assert run_cli(["weights", "--n", "5", "--out", str(out)]) == EXIT_USAGE
        assert f"{out}:2: replications must be >= 1000" in capsys.readouterr().err
        assert out.read_bytes() == before
        assert list(tmp_path.iterdir()) == [out]

    def test_cache_record_with_negative_w2_exits_64(self, tmp_path, capsys):
        out = tmp_path / "w.txt"
        out.write_text(f"{WEIGHT_TABLE_HEADER}\n48 0.98 -0.5 100000 1729\n")
        before = out.read_bytes()
        assert run_cli(["weights", "--n", "5", "--out", str(out)]) == EXIT_USAGE
        assert f"{out}:2: w2 must be finite and positive" in capsys.readouterr().err
        assert out.read_bytes() == before

    @pytest.mark.parametrize("kind", ["directory", "undecodable"])
    def test_unreadable_cache_exits_64(self, kind, tmp_path, capsys):
        out = unreadable_cache(tmp_path / "w.txt", kind)
        assert run_cli(["weights", "--n", "5", "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"{out}: cannot read weight table: " in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [out]

    def test_env_var_default_path(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "env.txt"
        monkeypatch.setenv("WEIBULL_ESTLAB_WEIGHTS", str(target))
        run_cli(["weights", "--n", "5"])
        assert target.exists()


class TestUnwritableOutput:
    """An output location that cannot be written is a usage error, found before any work."""

    @pytest.fixture(autouse=True)
    def no_work(self, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the output location was checked")

        for name in ("fit_block", "fit_method", "gof_report", "gof_reports", "run_experiment"):
            monkeypatch.setattr(cli, name, forbidden)
        # every weight lookup and simulation, whoever asks for it
        for name in ("seeded_weight_medians", "simulate_weight_medians"):
            monkeypatch.setattr(likelihood, name, forbidden)
        monkeypatch.setenv("WEIBULL_ESTLAB_WEIGHTS", str(tmp_path / "w.txt"))

    def assert_usage_error(self, argv, message, tmp_path, capsys, kept):
        assert run_cli(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [kept]

    @pytest.mark.parametrize("argv", [
        ["fit", "--methods", "WMLE,LM", "--out"],
        ["gof", "--alpha", "2", "--beta", "3", "--out"],
        ["simulate", "--preset", "table1", "--reps", "100", "--out-dir"],
        ["weights", "--n", "5", "--out"],
    ], ids=["fit", "gof", "simulate", "weights"])
    def test_parent_is_a_file_exits_64(self, argv, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x\n")
        target = blocker / "sub" / "out"
        self.assert_usage_error(argv + [str(target)],
                                f"cannot write {target}: {blocker} is not a directory",
                                tmp_path, capsys, kept=blocker)
        assert blocker.read_text() == "x\n"

    @pytest.mark.parametrize("argv", [
        ["fit", "--methods", "LM", "--out"],
        ["gof", "--alpha", "2", "--beta", "3", "--out"],
    ], ids=["fit", "gof"])
    def test_report_path_is_a_directory_exits_64(self, argv, tmp_path, capsys):
        target = tmp_path / "out"
        target.mkdir()
        self.assert_usage_error(argv + [str(target)], f"cannot write {target}: it is a directory",
                                tmp_path, capsys, kept=target)

    def test_out_dir_is_a_file_exits_64(self, tmp_path, capsys):
        target = tmp_path / "out"
        target.write_text("x\n")
        argv = ["simulate", "--preset", "table1", "--reps", "100", "--out-dir", str(target)]
        self.assert_usage_error(argv, f"cannot write {target}: it is not a directory",
                                tmp_path, capsys, kept=target)


class TestUsageLine:
    """Every usage error prints the usage line of its own subcommand, and writes nothing."""

    @pytest.fixture
    def files(self, tmp_path, monkeypatch):
        """Inputs that each make one subcommand fail, in an otherwise empty directory."""
        one_point = tmp_path / "one.txt"
        one_point.write_text("3.0\n")
        blocker = tmp_path / "blocker"
        blocker.write_text("x\n")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"methods": ["LM"], "sample_sizes": [10],
                                      "param_levels": [[2, 3]], "bogus_field": 1}))
        config_list = tmp_path / "list.json"
        config_list.write_text(json.dumps([["methods", ["LM"]]]))
        cache = tmp_path / "cache.txt"
        cache.write_text(f"{WEIGHT_TABLE_HEADER}\n48 0.99 x 100000 1729\n")
        monkeypatch.setenv("WEIBULL_ESTLAB_WEIGHTS", str(cache))
        monkeypatch.chdir(tmp_path)
        return {"one_point": one_point, "blocker": blocker, "config": config,
                "config_list": config_list, "cache": cache}

    @pytest.mark.parametrize("argv", [
        ["fit", "--methods", "XYZ"],
        ["fit", "--methods", "MLE,MLE"],
        ["fit", "--methods", "LM", "--weight-reps", "2000"],
        ["fit", "--methods", "PM", "--pm-p", "1.5"],
        ["fit", "--data", "{one_point}"],
        ["fit", "--data", "{blocker}/missing.txt"],
        ["fit", "--methods", "WMLE"],
        ["fit", "--methods", "LM", "--out", "{blocker}/r.json"],
        ["gof", "--alpha", "-1", "--beta", "2"],
        ["gof", "--alpha", "2", "--beta", "3", "--out", "{blocker}/g.json"],
        ["simulate", "--config", "{config}"],
        ["simulate", "--config", "{blocker}/missing.json"],
        ["simulate", "--preset", "table1", "--out-dir", "{blocker}"],
        ["simulate", "--preset", "table1", "--bogus"],
        ["weights", "--n", "1"],
        ["weights", "--n", "5", "--reps", "1000", "--out", "w.txt"],
        ["weights", "--n", "5"],
        ["weights", "--n", "5", "--out", "{blocker}/w.txt"],
    ], ids=["fit-unknown-method", "fit-repeated-method", "fit-weight-reps", "fit-pm-p",
            "fit-one-point", "fit-missing-data", "fit-malformed-cache", "fit-unwritable-out",
            "gof-parameter", "gof-unwritable-out", "simulate-config-field",
            "simulate-missing-config", "simulate-unwritable-out-dir", "simulate-unknown-flag",
            "weights-n", "weights-reps", "weights-malformed-cache", "weights-unwritable-out"])
    def test_usage_error_prints_subcommand_usage(self, argv, files, tmp_path, capsys):
        argv = [arg.format(**files) for arg in argv]
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        assert run_cli(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage: weibull-estlab {argv[0]} ")
        assert f"weibull-estlab {argv[0]}: error: " in captured.err
        assert captured.out == ""
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("argv, message", [
        (["fit", "--seed", "abc"], "seed must be a non-negative integer, got 'abc'"),
        (["weights", "--n", "5,x"], "cannot parse '5,x' as integers"),
        (["simulate", "--config", "{config_list}"], "list.json must be a JSON object"),
    ], ids=["fit-seed-not-an-integer", "weights-n-not-integers", "simulate-config-not-an-object"])
    def test_usage_error_names_the_bad_input(self, argv, message, files, tmp_path, capsys):
        argv = [arg.format(**files) for arg in argv]
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        assert run_cli(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"usage: weibull-estlab {argv[0]} ")
        assert message in err.splitlines()[-1]
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before
