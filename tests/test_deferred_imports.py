"""What a fresh process imports.

The package needs numpy alone at run time: it computes log-gamma, gamma and
digamma itself (``gammafn``) and its root solver falls back to bisection, so
no module of it imports scipy, and it imports the process pool (for
workers > 1) only in the branch that uses it. Other test modules import
scipy themselves, so these tests run their code in a fresh interpreter,
where ``sys.modules`` shows what the package alone loaded.
"""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

from weibull_estlab import WeibullParams, fit_batch, roots
from weibull_estlab.core import draw_sorted

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
# modules the package never imports, or imports only where a run needs them
DEFERRED = ("scipy", "concurrent.futures.process")


def run_fresh(code: str, tmp_path: Path):
    """Run ``code`` in a fresh interpreter in ``tmp_path``, with the package
    source and this directory importable and the weight cache in ``tmp_path``;
    returns its last line of output, parsed as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]),
               WEIBULL_ESTLAB_WEIGHTS=str(tmp_path / "weights.txt"))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_fit_and_one_worker_simulate_load_neither_optimizer_nor_pool(tmp_path):
    loaded = run_fresh(f"""
import json, sys
import weibull_estlab
from weibull_estlab import cli
assert cli.main(["fit", "--methods", "all"]) == 0
assert cli.main(["simulate", "--preset", "table1", "--reps", "100", "--workers", "1"]) == 0
print(json.dumps([name for name in {DEFERRED!r} if name in sys.modules]))
""", tmp_path)
    assert loaded == []


def test_cli_import_and_commands_load_no_scipy_module(tmp_path):
    loaded = run_fresh("""
import json, sys
def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
loaded = {}
from weibull_estlab import cli
loaded["import weibull_estlab.cli"] = scipy_modules()
for argv in (["fit", "--methods", "all"], ["gof", "--alpha", "2", "--beta", "25"],
             ["weights", "--n", "5"],
             ["simulate", "--preset", "table3", "--reps", "100", "--workers", "1"]):
    assert cli.main(argv) == 0
    loaded[" ".join(argv)] = scipy_modules()
print(json.dumps(loaded))
""", tmp_path)
    assert len(loaded) == 5
    assert all(names == [] for names in loaded.values()), loaded


def forced_fallback() -> dict:
    """Every result of a 20 x 12 MLE batch cut off after one Newton step, so
    that its rows go on by bisection."""
    rngs = [np.random.default_rng([3, r]) for r in range(20)]
    values, logs = draw_sorted(WeibullParams(2.0, 5.0), 12, rngs)
    steps, roots.MAX_NEWTON_STEPS = roots.MAX_NEWTON_STEPS, 1
    try:
        fit = fit_batch("MLE", values, logs)
    finally:
        roots.MAX_NEWTON_STEPS = steps
    return dict(shape=fit.shape, scale=fit.scale, iterations=fit.iterations,
                residual=fit.residual, lo=fit.bracket[0], hi=fit.bracket[1],
                fallback=fit.fallback, notes=fit.notes,
                errors={r: repr(exc) for r, exc in fit.errors.items()})


def test_fallback_in_a_fresh_process_loads_no_scipy_module_and_matches(tmp_path):
    out = tmp_path / "fit.pickle"
    loaded = run_fresh(f"""
import json, pickle, sys
from test_deferred_imports import forced_fallback
fit = forced_fallback()
with open({str(out)!r}, "wb") as f:
    pickle.dump(fit, f)
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
""", tmp_path)
    assert loaded == []

    fresh, here = pickle.loads(out.read_bytes()), forced_fallback()
    assert fresh["fallback"].sum() > 10 and not fresh["errors"]
    assert fresh.keys() == here.keys()
    for key, value in here.items():
        if isinstance(value, np.ndarray):  # bit for bit, NaN included
            assert fresh[key].dtype == value.dtype and fresh[key].tobytes() == value.tobytes(), key
        else:
            assert fresh[key] == value, key


def test_cold_wmle_fit_loads_no_masked_arrays(tmp_path):
    # the weight simulation takes its medians without numpy's NaN check,
    # which imports numpy.ma on first use
    loaded = run_fresh("""
import json, sys
from weibull_estlab import cli
assert cli.main(["fit", "--methods", "WMLE"]) == 0
print(json.dumps("numpy.ma" in sys.modules))
""", tmp_path)
    assert loaded is False
