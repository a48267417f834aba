"""Workloads and metric names of the benchmark, and the BENCHMARK.json they make.

Both the harness (``run.py``) and the manifest read the lists here, so a
metric printed by a run is always one the manifest declares. Regenerate the
manifest after changing this file:

    python3 perfbench/spec.py
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 30

# Monte Carlo grids from the CLI presets; sizes are duplicated here (not
# imported) so the manifest can be written without the library. After a
# change here, run `python3 perfbench/run.py --record-reference`.
GRIDS = {
    "small_n_grid": {
        "preset": "table1",
        "methods": ("USTAT", "MLE", "WMLE", "GLS1", "GLS2", "WLS", "LM", "MLM", "PM", "MM"),
        "sizes": (5, 10, 30),
    },
    "large_n_grid": {
        "preset": "table3",
        "methods": ("GLS1", "WLS", "GLS2", "MLE", "LM", "USTAT"),
        "sizes": (1000, 4000),
    },
}
FIT_N = 48  # size of the bundled lifetime48 dataset

WORKLOADS = [
    {"name": "small_n_grid",
     "why": "table1 grid, all ten methods at n 5/10/30: per-call overhead in methods, likelihood, "
            "classical and core.sample dominates, so batching shows here"},
    {"name": "large_n_grid",
     "why": "table3 grid, six methods at n 1000/4000: the dense GLS operator dominates set-up and "
            "memory, so an O(n) regression layer shows here and batching barely does"},
    {"name": "fit_dataset",
     "why": "repeated in-process fit --methods all on lifetime48, alternating an empty and a "
            "filled WMLE weight cache: the single-fit path the grids never reach"},
]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "reps_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "fit_cold_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "fit_cold_ms_p90", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "fit_warm_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "fit_warm_ms_p90", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

# The exception classes each estimator can raise on a valid sample.
FAILURE_CLASSES = {
    "USTAT": ("DegenerateSampleError",),
    "MLE": ("DegenerateSampleError", "BracketError"),
    "WMLE": ("DegenerateSampleError", "BracketError", "EstimationError"),
    "GLS1": ("DegenerateSampleError", "SingularSystemError"),
    "GLS2": ("DegenerateSampleError", "SingularSystemError"),
    "WLS": ("DegenerateSampleError", "SingularSystemError"),
    "LM": ("DegenerateSampleError", "InvalidRatioError"),
    "MLM": ("DegenerateSampleError",),
    "PM": ("DegenerateSampleError",),
    "MM": ("DegenerateSampleError", "BracketError"),
}
# A pass that raises out of run_experiment counts every fit it held as failed
# under the escaping class; DataError from an underflowing draw is the known one.
PASS_FAILURE_CLASS = "DataError"
ROOT_METHODS = ("MLE", "WMLE", "MM")


def _grid_sizes() -> list[int]:
    return [n for grid in GRIDS.values() for n in grid["sizes"]]


def per_layer() -> list[dict]:
    """Every per-layer metric a traced run prints, whatever the workload.

    A layer the workload does not reach reports 0.
    """
    out = []

    def add(name, unit, better):
        out.append({"name": name, "unit": unit, "better": better})

    for grid in GRIDS.values():
        for n in grid["sizes"]:
            for m in grid["methods"]:
                add(f"methods.fit_us.{m}.n{n}", "us", "lower")
    for n in _grid_sizes():
        add(f"core.sample_us.n{n}", "us", "lower")
    for grid in GRIDS.values():
        for n in grid["sizes"]:
            for m in ROOT_METHODS:
                if m in grid["methods"]:
                    add(f"roots.iters.{m}.n{n}", "count", "lower")
    for n in _grid_sizes() + [FIT_N]:
        add(f"likelihood.weights_ms.n{n}", "ms", "lower")
    add("likelihood.store_cold_ms", "ms", "lower")
    add("likelihood.store_warm_ms", "ms", "lower")
    add("likelihood.weight_cache_mismatch", "count", "lower")
    for n in _grid_sizes():
        add(f"regression.operator_fill_s.n{n}", "s", "lower")
    for n in _grid_sizes():
        add(f"regression.operator_bytes.n{n}", "bytes_computed", "lower")
    add("gof.report_us", "us", "lower")
    add("datasets.load_ms", "ms", "lower")
    add("simlab.pass_s", "s", "lower")
    add("simlab.write_outputs_ms", "ms", "lower")
    add("simlab.dispatch_remainder_share", "ratio", "lower")
    add("trace.overhead_ratio", "ratio", "higher")
    for m, classes in FAILURE_CLASSES.items():
        for cls in classes + (PASS_FAILURE_CLASS,):
            add(f"methods.failed.{m}.{cls}", "count", "lower")
    add("methods.failed.other", "count", "lower")
    return out


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": per_layer(),
    }


if __name__ == "__main__":
    target = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    target.write_text(json.dumps(manifest(), indent=2) + "\n")
    print(f"wrote {target}")
