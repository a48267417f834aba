"""Command-line surface: fit, gof, simulate and weights subcommands.

Every run is reproducible: randomness is seeded through --seed (fixed
default, never wall-clock), and machine-readable outputs contain no
timestamps, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .classical import QUANTILE_RULES, PercentileConfig
from .core import EstimateResult, SortedSample, WeibullParams
from .datasets import BUNDLED_LIFETIME, Dataset, load_dataset
from .errors import DataError, EstimationError
from .gof import GofReport, gof_report
from .likelihood import (
    DEFAULT_WEIGHT_REPLICATIONS,
    WeightStore,
    default_weights_path,
    read_weight_table,
    seeded_weight_medians,
    write_weight_table,
)
from .methods import METHOD_NAMES, FitOptions, fit_method
from .regression import DEFAULT_RULE, PLOTTING_RULES
from .simlab import (
    DEFAULT_SEED,
    SimulationConfig,
    emit_plot_data,
    run_experiment,
    write_metric_csv,
)

EXIT_OK = 0
EXIT_METHOD_FAILED = 2
EXIT_USAGE = 64

PRESETS = {
    "table1": dict(
        methods=METHOD_NAMES,
        sample_sizes=(5, 10, 30),
        param_levels=((0.5, 0.5), (0.5, 2.5), (2.5, 0.5), (2.5, 2.5)),
    ),
    "table3": dict(
        methods=("GLS1", "WLS", "GLS2", "MLE", "LM", "USTAT"),
        sample_sizes=(1000, 4000),
        param_levels=((0.5, 0.5), (0.5, 2.5), (2.5, 0.5), (2.5, 2.5)),
    ),
}


@dataclass(frozen=True)
class FitReport:
    """Per-method estimates and distances for one dataset run."""

    dataset: str
    source: str
    n: int
    timestamp: str
    version: str
    seed: int
    options: FitOptions
    results: dict[str, EstimateResult]
    gofs: dict[str, GofReport]
    failures: dict[str, str]


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code pinned to 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def _build_parser() -> _Parser:
    parser = _Parser(prog="weibull-estlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    fit = sub.add_parser("fit", help="fit estimators to a dataset and report KS/CVM")
    fit.add_argument("--data", default=BUNDLED_LIFETIME,
                     help=f"dataset path or '{BUNDLED_LIFETIME}' (default)")
    fit.add_argument("--methods", default="all",
                     help="comma-separated subset of " + ",".join(METHOD_NAMES) + " or 'all'")
    fit.add_argument("--out", type=Path, default=None, help="write a machine-readable report")
    fit.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help="seed for the weight simulation (WMLE)")
    fit.add_argument("--rule", choices=PLOTTING_RULES, default=DEFAULT_RULE,
                     help="plotting-position rule for the regression fits")
    fit.add_argument("--pm-p", type=float, default=0.31, help="lower percentile for PM")
    fit.add_argument("--pm-rule", choices=QUANTILE_RULES, default="median_unbiased",
                     help="empirical-quantile convention for PM")
    fit.add_argument("--weight-reps", type=int, default=DEFAULT_WEIGHT_REPLICATIONS,
                     help="replications for the WMLE weight medians")

    gof = sub.add_parser("gof", help="KS/CVM distances for given parameters")
    gof.add_argument("--data", default=BUNDLED_LIFETIME)
    gof.add_argument("--alpha", type=float, required=True, help="shape parameter")
    gof.add_argument("--beta", type=float, required=True, help="scale parameter")
    gof.add_argument("--out", type=Path, default=None)

    sim = sub.add_parser("simulate", help="run a bias/RMSE Monte Carlo experiment")
    sim.add_argument("--config", type=Path, default=None, help="JSON experiment description")
    sim.add_argument("--preset", choices=sorted(PRESETS), default=None)
    # flags override the config file only when given explicitly
    sim.add_argument("--reps", type=int, default=None, help="override replication count")
    sim.add_argument("--seed", type=int, default=None, help=f"master seed (default {DEFAULT_SEED})")
    sim.add_argument("--workers", type=int, default=None)
    sim.add_argument("--rule", choices=PLOTTING_RULES, default=None)
    sim.add_argument("--out-dir", type=Path, default=Path("simlab-out"))

    weights = sub.add_parser("weights", help="precompute WMLE weight medians")
    weights.add_argument("--n", required=True, help="comma-separated sample sizes (each >= 2)")
    weights.add_argument("--reps", type=int, default=DEFAULT_WEIGHT_REPLICATIONS)
    weights.add_argument("--seed", type=int, default=DEFAULT_SEED)
    weights.add_argument("--out", type=Path, default=None,
                         help="weight-table path (default: env override or user cache)")

    return parser


def _parse_methods(spec: str, parser: _Parser) -> tuple[str, ...]:
    if spec.strip().lower() == "all":
        return METHOD_NAMES
    names = tuple(tok.strip().upper() for tok in spec.split(",") if tok.strip())
    unknown = [m for m in names if m not in METHOD_NAMES]
    if unknown or not names:
        parser.error(f"unknown method name(s): {', '.join(unknown) or '(none given)'}; "
                     f"choose from {', '.join(METHOD_NAMES)}")
    return names


def _load_data(spec: str, parser: _Parser) -> Dataset:
    try:
        return load_dataset(spec)
    except DataError as exc:
        parser.error(str(exc))


def _flat_float(x: float) -> float:
    return float(x)


def _run_fit(args, parser: _Parser) -> int:
    dataset = _load_data(args.data, parser)
    methods = _parse_methods(args.methods, parser)
    try:
        options = FitOptions(
            plotting_rule=args.rule,
            percentile=PercentileConfig(p=args.pm_p, quantile_rule=args.pm_rule),
        )
    except ValueError as exc:
        parser.error(str(exc))
    try:
        s = SortedSample.from_data(dataset.observations)
    except DataError as exc:
        parser.error(str(exc))

    store = WeightStore(replications=args.weight_reps, seed=args.seed)
    results: dict[str, EstimateResult] = {}
    gofs: dict[str, GofReport] = {}
    failures: dict[str, str] = {}
    for name in methods:
        try:
            weights = store.get(s.n) if name == "WMLE" else None
            fit = fit_method(name, s, options, weights)
        except EstimationError as exc:
            failures[name] = f"{type(exc).__name__}: {exc}"
            continue
        results[name] = fit
        gofs[name] = gof_report(s, fit.params)

    report = FitReport(
        dataset=dataset.name,
        source=dataset.source,
        n=s.n,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        version=__version__,
        seed=args.seed,
        options=options,
        results=results,
        gofs=gofs,
        failures=failures,
    )
    _print_fit_report(report)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(_fit_report_document(report))
        print(f"wrote {args.out}")
    return EXIT_METHOD_FAILED if failures else EXIT_OK


def _print_fit_report(report: FitReport) -> None:
    print(f"dataset: {report.dataset} (n={report.n}, source {report.source})")
    print(f"run: {report.timestamp}  tool {report.version}  seed {report.seed}")
    print(f"{'method':8s} {'alpha':>9s} {'beta':>10s} {'KS':>8s} {'CVM':>8s}")
    for name in report.results:
        r = report.results[name]
        g = report.gofs[name]
        note = f"  ({'; '.join(r.notes)})" if r.notes else ""
        print(f"{name:8s} {r.shape:9.4f} {r.scale:10.4f} {g.ks:8.4f} {g.cvm:8.4f}{note}")
    for name, reason in report.failures.items():
        print(f"{name:8s} failed: {reason}")


def _fit_report_document(report: FitReport) -> str:
    """Flat key-value document; no timestamp so identical runs match byte-for-byte."""
    doc: dict[str, object] = {
        "dataset": report.dataset,
        "source": report.source,
        "n": report.n,
        "version": report.version,
        "seed": report.seed,
        "plotting_rule": report.options.plotting_rule,
        "pm_p": report.options.percentile.p,
        "pm_rule": report.options.percentile.quantile_rule,
    }
    for name, r in report.results.items():
        doc[f"{name}.status"] = "ok"
        doc[f"{name}.alpha"] = _flat_float(r.shape)
        doc[f"{name}.beta"] = _flat_float(r.scale)
        doc[f"{name}.ks"] = _flat_float(report.gofs[name].ks)
        doc[f"{name}.cvm"] = _flat_float(report.gofs[name].cvm)
    for name, reason in report.failures.items():
        doc[f"{name}.status"] = "failed"
        doc[f"{name}.error"] = reason
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def _run_gof(args, parser: _Parser) -> int:
    dataset = _load_data(args.data, parser)
    try:
        params = WeibullParams(args.alpha, args.beta)
    except ValueError as exc:
        parser.error(str(exc))
    report = gof_report(dataset.observations, params)
    print(f"dataset: {dataset.name} (n={report.n})")
    print(f"alpha={args.alpha:.6g} beta={args.beta:.6g}")
    print(f"KS  = {report.ks:.4f}")
    print(f"CVM = {report.cvm:.4f}")
    if args.out is not None:
        doc = {
            "dataset": dataset.name,
            "n": report.n,
            "alpha": args.alpha,
            "beta": args.beta,
            "ks": report.ks,
            "cvm": report.cvm,
            "version": __version__,
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        print(f"wrote {args.out}")
    return EXIT_OK


def _config_from_file(path: Path, parser: _Parser) -> dict:
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config {path}: {exc}")
    if not isinstance(raw, dict):
        parser.error(f"config {path} must be a JSON object")
    known = {"methods", "sample_sizes", "param_levels", "replications",
             "master_seed", "metric", "workers", "plotting_rule", "weight_replications"}
    unknown = set(raw) - known
    if unknown:
        parser.error(f"config {path}: unknown field(s) {sorted(unknown)}; known: {sorted(known)}")
    return raw


def _run_simulate(args, parser: _Parser) -> int:
    if (args.config is None) == (args.preset is None):
        parser.error("exactly one of --config or --preset is required")
    if args.preset is not None:
        raw = dict(PRESETS[args.preset])
    else:
        raw = _config_from_file(args.config, parser)
    if args.reps is not None:
        raw["replications"] = args.reps
    seed = args.seed if args.seed is not None else raw.get("master_seed", DEFAULT_SEED)
    workers = args.workers if args.workers is not None else raw.get("workers", 1)
    rule = args.rule if args.rule is not None else raw.get("plotting_rule", DEFAULT_RULE)
    try:
        cfg = SimulationConfig(
            methods=tuple(raw["methods"]),
            sample_sizes=tuple(raw["sample_sizes"]),
            param_levels=tuple(tuple(lv) for lv in raw["param_levels"]),
            replications=raw.get("replications"),
            master_seed=int(seed),
            metric=raw.get("metric", "BOTH"),
            workers=int(workers),
            options=FitOptions(plotting_rule=rule),
            weight_replications=int(raw.get("weight_replications", DEFAULT_WEIGHT_REPLICATIONS)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        parser.error(f"invalid experiment config: {exc}")

    started = time.perf_counter()
    table = run_experiment(cfg)
    elapsed = time.perf_counter() - started

    out_dir = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = write_metric_csv(table, out_dir / "metrics.csv")
    plot_paths = emit_plot_data(table, out_dir / "plot")
    manifest = {
        "seed": cfg.master_seed,
        "config": {
            "methods": list(cfg.methods),
            "sample_sizes": list(cfg.sample_sizes),
            "param_levels": [[lv.shape, lv.scale] for lv in cfg.param_levels],
            "replications": cfg.replications,
            "metric": cfg.metric,
            "workers": cfg.workers,
            "plotting_rule": cfg.options.plotting_rule,
            "weight_replications": cfg.weight_replications,
        },
        "wall_time_seconds": elapsed,
        "files": [str(csv_path)] + [str(p) for p in plot_paths],
        "skipped_cells": [list(item) for item in table.skipped],
        "version": __version__,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {csv_path} and {len(plot_paths)} plot file(s) in {elapsed:.1f}s")
    for item in table.skipped:
        print(f"note: {item[0]} produced no successful fits at n={item[1]} "
              f"(alpha={item[2]}, beta={item[3]}; {item[4]} failures)")
    return EXIT_OK


def _run_weights(args, parser: _Parser) -> int:
    try:
        sizes = sorted({int(tok) for tok in args.n.replace(",", " ").split()})
    except ValueError:
        parser.error(f"cannot parse --n {args.n!r} as integers")
    if not sizes or any(n < 2 for n in sizes):
        parser.error("every sample size must be an integer >= 2")
    if args.reps < 1000:
        parser.error("--reps must be >= 1000")
    path = args.out or default_weights_path()
    records = read_weight_table(path)
    for n in sizes:
        records[(n, args.reps, args.seed)] = seeded_weight_medians(n, args.reps, args.seed)
    write_weight_table(path, records)
    print(f"wrote {len(sizes)} record(s) to {path}")
    for n in sizes:
        pair = records[(n, args.reps, args.seed)]
        print(f"n={n}: w1={pair.w1:.6f} w2={pair.w2:.6f} ({pair.replications} replications)")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "fit": _run_fit,
        "gof": _run_gof,
        "simulate": _run_simulate,
        "weights": _run_weights,
    }[args.command]
    return handler(args, parser)


if __name__ == "__main__":
    sys.exit(main())
