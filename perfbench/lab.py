"""Workload process of the benchmark: set-up, the timed loop and the output checks.

``run.py`` starts this file in a fresh interpreter for every set-up sample
and for the measurement, with PYTHONPATH at the checkout's ``src``, BLAS
pinned to one thread and ``WEIBULL_ESTLAB_WEIGHTS`` inside the run's own
work directory. The process prints ``ready`` once set-up is done and one
JSON object as its last line. End-to-end times in that object are scaled to
reference host speed by the calibrations of ``speed.py`` taken around them.

Modes:
  probe    set up (first-call cache fill) and report the host speed after it
  measure  set up, then run the workload until --seconds have passed
  record   write reference.json from the reference seed
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import weibull_estlab
from weibull_estlab import cli, core, regression, simlab
from weibull_estlab.errors import EstimationError
from weibull_estlab.likelihood import (
    DEFAULT_WEIGHT_REPLICATIONS,
    default_weights_path,
    simulate_weight_medians,
)
from weibull_estlab.methods import fit_method

import spec
import speed
from spans import Tracer

clock = time.perf_counter

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 1729  # the library's default seed
PASS_REPS = 100        # replications per cell in one grid pass (the lab's minimum)
# Bias/RMSE may differ from the reference by RTOL * (true parameter + reference
# RMSE). Estimates that agree to 1e-10 relative move the mean and the RMSE by
# at most 1e-10 times that scale, so a batch path passes with 100x headroom,
# while a wrong estimator moves bias by orders of magnitude more.
RTOL = 1e-8
FIT_RTOL = 1e-9


def pass_seed(seed: int, k: int) -> int:
    """Master seed of the k-th pass (grids) or invocation pair (fit)."""
    return seed * 100_000 + k


def grid_config(workload: str, master_seed: int) -> simlab.SimulationConfig:
    grid = spec.GRIDS[workload]
    preset = cli.PRESETS[grid["preset"]]
    if tuple(preset["methods"]) != grid["methods"] or tuple(preset["sample_sizes"]) != grid["sizes"]:
        raise SystemExit(f"perfbench/spec.py is out of date with preset {grid['preset']}")
    return simlab.SimulationConfig(
        methods=preset["methods"],
        sample_sizes=preset["sample_sizes"],
        param_levels=preset["param_levels"],
        replications=PASS_REPS,
        master_seed=master_seed,
        workers=1,
    )


# --- checks -----------------------------------------------------------------

def _row(r: simlab.MetricRow) -> list:
    return [r.method, r.n, r.alpha, r.beta, r.bias_alpha, r.bias_beta,
            r.rmse_alpha, r.rmse_beta, r.reps, r.failures]


def check_table(table: simlab.MetricTable, cfg: simlab.SimulationConfig) -> list[str]:
    """Invariants for any seed: every (method, cell) once, finite metrics, reps + failures."""
    problems = []
    expected = {(m, n, lv.shape, lv.scale) for m in cfg.methods for _, n, lv in cfg.cells()}
    seen = []
    for r in table.rows:
        seen.append((r.method, r.n, r.alpha, r.beta))
        if r.reps + r.failures != cfg.replications:
            problems.append(f"{r.method} n={r.n}: reps {r.reps} + failures {r.failures} "
                            f"!= {cfg.replications}")
        values = (r.bias_alpha, r.bias_beta, r.rmse_alpha, r.rmse_beta)
        if not all(math.isfinite(v) for v in values) or min(r.rmse_alpha, r.rmse_beta) < 0:
            problems.append(f"{r.method} n={r.n}: non-finite or negative metric {values}")
    for method, n, shape, scale, failures in table.skipped:
        seen.append((method, n, shape, scale))
        if failures != cfg.replications:
            problems.append(f"skipped {method} n={n}: {failures} failures != {cfg.replications}")
    if sorted(seen) != sorted(expected):
        problems.append("rows do not cover every (method, cell) exactly once")
    return problems


def compare_table(table: simlab.MetricTable, ref: dict) -> list[str]:
    """Against the reference: identity, reps and failures exact; bias/RMSE to RTOL."""
    rows = [_row(r) for r in table.rows]
    if len(rows) != len(ref["rows"]):
        return [f"{len(rows)} rows, reference has {len(ref['rows'])}"]
    problems = []
    for got, want in zip(rows, ref["rows"]):
        if got[:4] != want[:4] or got[8:] != want[8:]:
            problems.append(f"row {got[:4]} reps/failures {got[8:]} != reference {want}")
            continue
        for i, (truth, rmse) in ((4, (2, 6)), (5, (3, 7)), (6, (2, 6)), (7, (3, 7))):
            scale = abs(want[truth]) + abs(want[rmse])
            if not abs(got[i] - want[i]) <= RTOL * scale:
                problems.append(f"row {got[:4]} field {i}: {got[i]!r} != reference {want[i]!r}")
    if [list(s) for s in table.skipped] != ref["skipped"]:
        problems.append(f"skipped cells {table.skipped} != reference {ref['skipped']}")
    return problems


def check_fit_doc(doc: dict, seed: int, ref: dict) -> list[str]:
    """Every method ok with finite positive values; estimates and KS/CVM match the
    reference (WMLE's only at the reference seed, since its weights depend on the seed)."""
    problems = []
    if set(doc) != set(ref):
        return [f"fit document keys differ from the reference: {sorted(set(doc) ^ set(ref))}"]
    for key, want in ref.items():
        got = doc[key]
        method, _, field = key.partition(".")
        if key == "seed":
            if got != seed:
                problems.append(f"seed {got} != {seed}")
        elif field in ("alpha", "beta", "ks", "cvm"):
            if not (isinstance(got, float) and math.isfinite(got) and got > 0):
                problems.append(f"{key} = {got!r} is not a finite positive number")
            elif (method != "WMLE" or seed == REFERENCE_SEED) and \
                    not abs(got - want) <= FIT_RTOL * abs(want):
                problems.append(f"{key} = {got!r} != reference {want!r}")
        elif got != want:
            problems.append(f"{key} = {got!r} != reference {want!r}")
    return problems


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE_PATH.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot read {REFERENCE_PATH}: {exc}")


# --- grid workloads -----------------------------------------------------------

class Grid:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.out_dir = work / "simlab-out"
        self.cfg = grid_config(workload, REFERENCE_SEED)
        self.n_cells = len(self.cfg.cells())
        self.weights: dict = {}
        self.operator_fill_s: dict[int, float] = {}
        self.clock = time.perf_counter  # run_units swaps in the speed sampler's

    def setup(self) -> None:
        """The first call: fills the caches of a fresh process."""
        self.fill(np.random.default_rng(self.seed))

    def fill(self, rng: np.random.Generator) -> float:
        """First call at every n: one fit per method (WMLE weights included), which
        fills the regression operator cache. Returns the elapsed milliseconds."""
        level = self.cfg.param_levels[0]
        t0 = self.clock()
        for n in self.cfg.sample_sizes:
            s = core.sample(level, n, rng)
            if "WMLE" in self.cfg.methods:
                self.weights[n] = simulate_weight_medians(n, DEFAULT_WEIGHT_REPLICATIONS, rng)
            for m in self.cfg.methods:
                t = self.clock()
                try:
                    fit_method(m, s, self.cfg.options, self.weights.get(n))
                except EstimationError:
                    pass
                if m == "GLS1":  # the first regression fit at n builds the operator
                    self.operator_fill_s[n] = self.clock() - t
        return (self.clock() - t0) * 1e3

    def cold_fill(self, k: int) -> float:
        """The first-call fill again, in this process, with every memo cache of the
        regression layer emptied first. Returns the elapsed milliseconds."""
        for obj in vars(regression).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
        return self.fill(np.random.default_rng(pass_seed(self.seed, k)))

    def unit(self, k: int, tracer: Tracer | None) -> dict:
        """One pass: run_experiment over the grid plus the CSV writers, then a cold
        fill timed apart from the pass. Its warm fit time is the pass time per
        replication, every method fitted on one sample; its cold fit time is the
        cold fill's."""
        cfg = grid_config(self.workload, pass_seed(self.seed, k))
        fits = self.n_cells * PASS_REPS * len(cfg.methods)
        before = (tracer.total("core.sample."), tracer.total("methods.fit.")) if tracer else None
        ctx = tracer.active() if tracer else contextlib.nullcontext()
        t0 = self.clock()
        try:
            with ctx:
                table = simlab.run_experiment(cfg)
        except Exception as exc:  # a failed pass is counted, never retried
            print(f"pass {k} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            return {"seconds": self.clock() - t0, "samples": 0, "attempted": fits, "failed": fits,
                    "problems": [], "pass_error": type(exc).__name__}
        t1 = self.clock()
        simlab.write_metric_csv(table, self.out_dir / "metrics.csv")
        simlab.emit_plot_data(table, self.out_dir / "plot")
        t2 = self.clock()
        failed = sum(r.failures for r in table.rows) + sum(s[4] for s in table.skipped)
        samples = self.n_cells * PASS_REPS
        out = {"seconds": t2 - t0, "samples": samples, "attempted": fits,
               "failed": failed, "problems": check_table(table, cfg),
               "pass_s": t1 - t0, "write_s": t2 - t1, "warm_ms": (t2 - t0) * 1e3 / samples}
        if tracer:
            covered = (tracer.total("core.sample.") - before[0]) + (tracer.total("methods.fit.") - before[1])
            out["remainder_share"] = (out["pass_s"] - covered) / out["pass_s"]
        out["cold_ms"] = self.cold_fill(k)
        return out

    def verify(self, ref: dict) -> list[str]:
        cfg = grid_config(self.workload, REFERENCE_SEED)
        try:
            table = simlab.run_experiment(cfg)
        except Exception as exc:  # reported as a mismatch, like any other wrong output
            return [f"reference pass raised {type(exc).__name__}: {exc}"]
        return compare_table(table, ref[self.workload])

    def operator_bytes(self, n: int) -> int:
        """Computed from n: the cached n x n Cholesky factor of V plus six n x 2
        operator columns and the n-vector of inverse weights, all float64."""
        return 8 * n * n + 8 * 13 * n


# --- fit workload -------------------------------------------------------------

class Fit:
    def __init__(self, seed: int, work: Path, ref: dict):
        self.seed = seed
        self.out = work / "report.json"
        self.weights_path = default_weights_path()
        if not self.weights_path.resolve().is_relative_to(work.resolve()):
            raise SystemExit(f"weight cache {self.weights_path} is outside the work directory")
        self.reference = ref["fit_dataset"]
        self.clock = time.perf_counter  # run_units swaps in the speed sampler's

    def invoke(self, seed: int, cold: bool, tracer: Tracer | None) -> tuple[float, bytes | None]:
        """One in-process `fit --methods all --out`; cold empties the weight cache first."""
        if cold:
            self.weights_path.unlink(missing_ok=True)
        self.out.unlink(missing_ok=True)
        argv = ["fit", "--methods", "all", "--seed", str(seed), "--out", str(self.out)]
        key = "likelihood.store_cold" if cold else "likelihood.store_warm"
        ctx = tracer.active(store_key=key) if tracer else contextlib.nullcontext()
        t0 = self.clock()
        try:
            with ctx, contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            print(f"fit {argv} raised {exc!r}", file=sys.stderr)
            return self.clock() - t0, None
        elapsed = self.clock() - t0
        return elapsed, self.out.read_bytes() if code == 0 else None

    def setup(self) -> list[str]:
        """First call (cold cache) at the reference seed; checked against the reference."""
        _, doc = self.invoke(REFERENCE_SEED, cold=True, tracer=None)
        if doc is None:
            return ["reference fit failed"]
        return check_fit_doc(json.loads(doc), REFERENCE_SEED, self.reference)

    def unit(self, k: int, tracer: Tracer | None) -> dict:
        """A cold invocation, then a warm one reading the cache the cold one wrote."""
        seed = pass_seed(self.seed, k)
        cold_s, cold_doc = self.invoke(seed, cold=True, tracer=tracer)
        warm_s, warm_doc = self.invoke(seed, cold=False, tracer=tracer)
        problems = []
        for doc in (cold_doc, warm_doc):
            if doc is not None:
                problems += check_fit_doc(json.loads(doc), seed, self.reference)
        return {"seconds": cold_s + warm_s, "seconds_array": cold_s, "samples": 2, "attempted": 2,
                "failed": (cold_doc is None) + (warm_doc is None), "problems": problems,
                "cold_ms": cold_s * 1e3, "warm_ms": warm_s * 1e3,
                "mismatch": int(None not in (cold_doc, warm_doc) and cold_doc != warm_doc)}


# --- measurement ---------------------------------------------------------------

def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "library": weibull_estlab.__file__,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_units(bench, seconds: float, trace: bool) -> tuple[list[dict], list[dict], Tracer | None]:
    """Units until the deadline. Traced runs alternate untraced and traced units,
    so the ratio of their rates is the tracing overhead. Untraced runs sample the
    host speed throughout, leave the samples out of the units' times and give
    each unit the (interpreter, array) ``speed`` factors that scale its times
    to reference speed (see :func:`at_reference`);
    traced runs (per-layer metrics) are not scaled, so no sample lands in a span."""
    tracer = Tracer() if trace else None
    sampler = speed.Sampler()
    plain, traced = [], []
    deadline = clock() + seconds
    k = 0
    with sampler if not trace else contextlib.nullcontext():
        if not trace:
            bench.clock = sampler.clock
        while True:
            mark = sampler.mark()
            if trace and k % 2:
                traced.append(bench.unit(k, tracer))
            else:
                plain.append(bench.unit(k, None))
            (traced if trace and k % 2 else plain)[-1]["speed"] = \
                (1.0, 1.0) if trace else sampler.factors_since(mark)
            k += 1
            if clock() >= deadline and (traced or not trace):
                break
    bench.clock = time.perf_counter
    return plain, traced, tracer


def at_reference(u: dict, field: str) -> float:
    """A time of the unit at reference host speed. Cold fits, whole-array work
    (the WMLE weight simulation; on large_n_grid the dense GLS operator), scale
    with the array kernel, everything else with the interpreter kernel;
    ``seconds_array`` is the cold share of ``seconds``."""
    interp, array = u["speed"]
    if field == "cold_ms":
        return u["cold_ms"] * array
    if field == "seconds":
        cold = u.get("seconds_array", 0.0)
        return (u["seconds"] - cold) * interp + cold * array
    return u[field] * interp


def _rate(units: list[dict]) -> float:
    """Median samples per second at reference speed."""
    return statistics.median(u["samples"] / at_reference(u, "seconds")
                             for u in units if u["samples"])


def _raw_rate(units: list[dict]) -> float:
    return statistics.median(u["samples"] / u["seconds"] for u in units if u["samples"])


def per_layer(bench, t: Tracer, units: list[dict], plain: list[dict]) -> dict[str, float]:
    """Every per-layer metric of spec.per_layer(); layers the workload skips read 0."""
    values = {m["name"]: 0.0 for m in spec.per_layer()}

    def put(name, value):
        if name not in values:
            raise SystemExit(f"metric {name} is not declared in perfbench/spec.py")
        values[name] = value

    spans = (("methods.fit.", "methods.fit_us.", 1e6), ("core.sample.", "core.sample_us.", 1e6),
             ("likelihood.weights.", "likelihood.weights_ms.", 1e3))
    for key in t.calls:
        for prefix, metric, scale in spans:
            name = metric + key.removeprefix(prefix)
            if key.startswith(prefix) and name in values:  # fits at n=48 have no metric
                put(name, t.mean(key, scale))
    for key, count in t.counts.items():
        if key.startswith("roots.iters.") and key in values:
            put(key, count / t.calls["methods.fit." + key.removeprefix("roots.iters.")])
        elif key.startswith("methods.failed."):
            values[key if key in values else "methods.failed.other"] += count
    for u in units + plain:  # a failed pass counts all its fits, traced or not
        if "pass_error" in u:
            for m in bench.cfg.methods:
                key = f"methods.failed.{m}.{u['pass_error']}"
                values[key if key in values else "methods.failed.other"] += \
                    u["attempted"] // len(bench.cfg.methods)
    put("likelihood.store_cold_ms", t.mean("likelihood.store_cold", 1e3))
    put("likelihood.store_warm_ms", t.mean("likelihood.store_warm", 1e3))
    put("gof.report_us", t.mean("gof.report", 1e6))
    put("datasets.load_ms", t.mean("datasets.load", 1e3))
    put("trace.overhead_ratio", _rate(units) / _rate(plain))
    if isinstance(bench, Grid):
        for n, seconds in bench.operator_fill_s.items():
            put(f"regression.operator_fill_s.n{n}", seconds)
            put(f"regression.operator_bytes.n{n}", bench.operator_bytes(n))
        ok = [u for u in units if u["samples"]]
        put("simlab.pass_s", statistics.median(u["pass_s"] for u in ok))
        put("simlab.write_outputs_ms", statistics.median(u["write_s"] for u in ok) * 1e3)
        put("simlab.dispatch_remainder_share", statistics.median(u["remainder_share"] for u in ok))
    else:
        put("likelihood.weight_cache_mismatch", sum(u["mismatch"] for u in units + plain))
    return values


def measure(args, probe: bool) -> dict:
    ref = load_reference()
    problems: list[str] = []
    if args.workload == "fit_dataset":
        bench = Fit(args.seed, args.work, ref)
        problems += bench.setup()
    else:
        bench = Grid(args.workload, args.seed, args.work)
        bench.setup()
    print("ready", flush=True)
    # the host speed next to set-up, taken after ready so set-up time leaves it out
    result = {"ready_cal_s": speed.calibrate(), "problems": problems, "attempted": 0, "failed": 0}
    if probe:
        return result

    plain, traced, tracer = run_units(bench, args.seconds, bool(args.trace))
    units = traced if args.trace else plain
    for u in plain + traced:
        result["attempted"] += u["attempted"]
        result["failed"] += u["failed"]
        problems += u["problems"]
    result["units"] = len(units)
    result["failed_units"] = sum(1 for u in units if not u["samples"])
    if not any(u["samples"] for u in units):
        problems.append("every unit failed")
        return result
    result["reps_per_s"] = _rate(units)
    result["raw_reps_per_s"] = _raw_rate(units)
    result["speed"] = [statistics.median(u["speed"][i] for u in units) for i in (0, 1)]
    result["warm_ms"] = [at_reference(u, "warm_ms") for u in units if u["samples"]]
    result["cold_ms"] = [at_reference(u, "cold_ms") for u in units if "cold_ms" in u]
    if args.trace:
        result["per_layer"] = per_layer(bench, tracer, traced, plain)
    if isinstance(bench, Fit):
        result["weight_cache_mismatch"] = sum(u["mismatch"] for u in plain + traced)
    else:
        problems += bench.verify(ref)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment(args)
    return result


def record(work: Path) -> None:
    ref = {"seed": REFERENCE_SEED, "replications": PASS_REPS}
    for workload in spec.GRIDS:
        table = simlab.run_experiment(grid_config(workload, REFERENCE_SEED))
        ref[workload] = {"rows": [_row(r) for r in table.rows],
                         "skipped": [list(s) for s in table.skipped]}
    out = work / "report.json"
    argv = ["fit", "--methods", "all", "--seed", str(REFERENCE_SEED), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise SystemExit("reference fit failed")
    ref["fit_dataset"] = json.loads(out.read_text())
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("probe", "measure", "record"))
    parser.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()
    if args.mode == "record":
        record(args.work)
        return 0
    result = measure(args, probe=args.mode == "probe")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
