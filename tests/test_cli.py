import hashlib
import json
from importlib import resources

import numpy as np
import pytest

from weibull_estlab import (
    DataError,
    SortedSample,
    fit_lm,
    lifetime48,
    load_dataset,
    parse_dataset,
)
from weibull_estlab.cli import EXIT_METHOD_FAILED, EXIT_OK, EXIT_USAGE, PRESETS, main
from weibull_estlab.likelihood import (WEIGHT_TABLE_HEADER, read_weight_table,
                                       seeded_weight_medians)

LIFETIME_SHA256 = "6c20ae678d915be9f5e09e3474677af4d5439ce8ef75e75c4cdbcb9cf661bc23"


def run_cli(argv):
    """Invoke the CLI in-process; returns (exit_code,)"""
    try:
        return main(argv)
    except SystemExit as exc:  # argparse paths
        return int(exc.code or 0)


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
        code = run_cli(["fit", "--methods", "all", "--weight-reps", "2000"])
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

    def test_unknown_method_exits_64(self, capsys):
        code = run_cli(["fit", "--methods", "XYZ"])
        assert code == EXIT_USAGE

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


class TestWeightCache:
    def fit_wmle(self, seed, out, cache, monkeypatch):
        monkeypatch.setenv("WEIBULL_ESTLAB_WEIGHTS", str(cache))
        argv = ["fit", "--methods", "WMLE", "--seed", str(seed), "--weight-reps", "2000",
                "--out", str(out)]
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
        pair = seeded_weight_medians(48, 2000, 1)
        cache = tmp_path / "w.txt"
        cache.write_text(f"48 {pair.w1:.12g} {pair.w2:.12g} 2000 1\n")
        assert self.fit_wmle(1, tmp_path / "warm.json", cache, monkeypatch) == cold
        assert read_weight_table(cache) == {(48, 2000, 1): pair}


class TestGofCommand:
    def test_prints_distances(self, capsys):
        code = run_cli(["gof", "--alpha", "4.5922", "--beta", "26.9452"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "KS" in out and "CVM" in out

    def test_rejects_bad_parameters(self, capsys):
        assert run_cli(["gof", "--alpha", "-1", "--beta", "2"]) == EXIT_USAGE


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

    def test_unknown_preset_exits_64(self, capsys):
        assert run_cli(["simulate", "--preset", "table9"]) == EXIT_USAGE

    def test_config_and_preset_mutually_exclusive(self, tmp_path, capsys):
        assert run_cli(["simulate"]) == EXIT_USAGE

    def test_unknown_config_field_exits_64(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"methods": ["LM"], "sample_sizes": [10],
                                   "param_levels": [[2, 3]], "bogus_field": 1}))
        assert run_cli(["simulate", "--config", str(cfg)]) == EXIT_USAGE

    def test_preset_structure(self):
        assert PRESETS["table1"]["sample_sizes"] == (5, 10, 30)
        assert len(PRESETS["table1"]["methods"]) == 10
        assert PRESETS["table3"]["sample_sizes"] == (1000, 4000)
        assert PRESETS["table3"]["methods"] == ("GLS1", "WLS", "GLS2", "MLE", "LM", "USTAT")
        for preset in PRESETS.values():
            assert preset["param_levels"] == ((0.5, 0.5), (0.5, 2.5), (2.5, 0.5), (2.5, 2.5))


class TestWeightsCommand:
    def test_writes_records(self, tmp_path, capsys):
        out = tmp_path / "w.txt"
        code = run_cli(["weights", "--n", "5,10", "--reps", "2000", "--out", str(out)])
        assert code == EXIT_OK
        header, *lines = out.read_text().splitlines()
        assert header == WEIGHT_TABLE_HEADER
        assert len(lines) == 2
        assert lines[0].split()[0] == "5"

    def test_reference_grid_writes_seven_records(self, tmp_path, capsys):
        out = tmp_path / "w.txt"
        code = run_cli(["weights", "--n", "5,10,15,30,50,100,200", "--reps", "2000",
                        "--out", str(out)])
        assert code == EXIT_OK
        header, *lines = out.read_text().splitlines()
        assert header == WEIGHT_TABLE_HEADER
        assert len(lines) == 7
        assert [int(l.split()[0]) for l in lines] == [5, 10, 15, 30, 50, 100, 200]

    def test_rerun_identical_bytes(self, tmp_path, capsys):
        out = tmp_path / "w.txt"
        run_cli(["weights", "--n", "5,7", "--reps", "2000", "--seed", "3", "--out", str(out)])
        first = out.read_bytes()
        run_cli(["weights", "--n", "5,7", "--reps", "2000", "--seed", "3", "--out", str(out)])
        assert out.read_bytes() == first

    def test_rejects_n1(self, capsys):
        assert run_cli(["weights", "--n", "1,5", "--reps", "2000"]) == EXIT_USAGE

    def test_rejects_small_reps(self, capsys):
        assert run_cli(["weights", "--n", "5", "--reps", "10"]) == EXIT_USAGE

    def test_env_var_default_path(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "env.txt"
        monkeypatch.setenv("WEIBULL_ESTLAB_WEIGHTS", str(target))
        run_cli(["weights", "--n", "5", "--reps", "2000"])
        assert target.exists()
