"""Command-line surface: fit, gof, simulate and weights subcommands.

Every run is reproducible: randomness is seeded through --seed (fixed
default, never wall-clock), and machine-readable outputs contain no
timestamps, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .classical import QUANTILE_RULES, PercentileConfig
from .core import DEFAULT_SEED, EstimateResult, SortedSample, WeibullParams
from .datasets import BUNDLED_LIFETIME, Dataset, load_dataset
from .errors import DataError, EstimationError
from .gof import gof_report, gof_reports
from .likelihood import default_weights_path, fit_weights, update_weight_table
# fit goes through fit_block; fit_method is re-exported only because the
# benchmark's tracer (perfbench/spans.py) swaps it for a timing wrapper, and
# since fit no longer calls it, that swap times nothing
from .methods import METHOD_NAMES, FitOptions, fit_block, fit_method  # noqa: F401
from .regression import DEFAULT_RULE, PLOTTING_RULES
from .simlab import (
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


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code pinned to 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """Type of the --seed options: numpy seeds only from non-negative integers."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return seed


def _methods(text: str) -> tuple[str, ...]:
    """Type of fit --methods: 'all', or a comma-separated subset naming each method once."""
    if text.strip().lower() == "all":
        return METHOD_NAMES
    names = tuple(tok.strip().upper() for tok in text.split(",") if tok.strip())
    unknown = [m for m in names if m not in METHOD_NAMES]
    if unknown or not names:
        raise argparse.ArgumentTypeError(
            f"unknown method name(s): {', '.join(unknown) or '(none given)'}; "
            f"choose from {', '.join(METHOD_NAMES)}")
    repeated = sorted({m for m in names if names.count(m) > 1})
    if repeated:
        raise argparse.ArgumentTypeError(f"method(s) named more than once: {', '.join(repeated)}")
    return names


def _sizes(text: str) -> list[int]:
    """Type of weights --n: comma- or space-separated sample sizes, each >= 2."""
    try:
        sizes = sorted({int(tok) for tok in text.replace(",", " ").split()})
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r} as integers") from None
    if not sizes or sizes[0] < 2:
        raise argparse.ArgumentTypeError(f"every sample size must be an integer >= 2, got {text!r}")
    return sizes


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def _build_parser() -> _Parser:
    """The root parser. Each sub-parser binds ``run``, its handler, and
    ``parser``, itself, through which the handler reports usage errors."""
    parser = _Parser(prog="weibull-estlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    fit = sub.add_parser("fit", help="fit estimators to a dataset and report KS/CVM")
    fit.set_defaults(run=_run_fit, parser=fit)
    fit.add_argument("--data", default=BUNDLED_LIFETIME,
                     help=f"dataset path or '{BUNDLED_LIFETIME}' (default)")
    fit.add_argument("--methods", type=_methods, default="all",
                     help="comma-separated subset of " + ",".join(METHOD_NAMES) + " or 'all'")
    fit.add_argument("--out", type=Path, default=None, help="write a machine-readable report")
    fit.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                     help="seed for the weight simulation (WMLE)")
    fit.add_argument("--rule", choices=PLOTTING_RULES, default=DEFAULT_RULE,
                     help="plotting-position rule for the regression fits")
    fit.add_argument("--pm-p", type=float, default=PercentileConfig.p, help="lower percentile for PM")
    fit.add_argument("--pm-rule", choices=QUANTILE_RULES, default=PercentileConfig.quantile_rule,
                     help="empirical-quantile convention for PM")

    gof = sub.add_parser("gof", help="KS/CVM distances for given parameters")
    gof.set_defaults(run=_run_gof, parser=gof)
    gof.add_argument("--data", default=BUNDLED_LIFETIME)
    gof.add_argument("--alpha", type=float, required=True, help="shape parameter")
    gof.add_argument("--beta", type=float, required=True, help="scale parameter")
    gof.add_argument("--out", type=Path, default=None)

    sim = sub.add_parser("simulate", help="run a bias/RMSE Monte Carlo experiment")
    sim.set_defaults(run=_run_simulate, parser=sim)
    source = sim.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", type=Path, help="JSON experiment description")
    source.add_argument("--preset", choices=sorted(PRESETS))
    # flags override the config file only when given explicitly
    sim.add_argument("--reps", type=int, default=None, help="override replication count")
    sim.add_argument("--seed", type=_seed, default=None, help=f"master seed (default {DEFAULT_SEED})")
    sim.add_argument("--workers", type=int, default=None)
    sim.add_argument("--rule", choices=PLOTTING_RULES, default=None)
    sim.add_argument("--out-dir", type=Path, default=Path("simlab-out"))

    weights = sub.add_parser("weights", help="precompute WMLE weight medians")
    weights.set_defaults(run=_run_weights, parser=weights)
    weights.add_argument("--n", type=_sizes, required=True,
                         help="comma-separated sample sizes (each >= 2)")
    weights.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    weights.add_argument("--out", type=Path, default=None,
                         help="weight-table path (default: env override or user cache)")

    return parser


def _load_data(spec: str, parser: _Parser) -> Dataset:
    try:
        return load_dataset(spec)
    except DataError as exc:
        parser.error(str(exc))


def _check_writable(path: Path, parser: _Parser, directory: bool = False) -> None:
    """Usage error unless ``path`` can later be written as a file (or made as a
    directory): checked before any work, and creating nothing."""
    if path.exists() and path.is_dir() != directory:
        kind = "not a directory" if directory else "a directory"
        parser.error(f"cannot write {path}: it is {kind}")
    base = path if directory else path.parent
    while not base.exists() and base != base.parent:  # the nearest existing ancestor
        base = base.parent
    if not base.is_dir():
        parser.error(f"cannot write {path}: {base} is not a directory")
    if not os.access(base, os.W_OK | os.X_OK):
        parser.error(f"cannot write {path}: {base} is not writable")


def _write_document(path: Path | None, doc: dict) -> None:
    """Write a flat key-value report to ``path``, if given. It holds no
    timestamp, so identical runs write identical bytes."""
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        print(f"wrote {path}")


def _run_fit(args) -> int:
    parser = args.parser
    dataset = _load_data(args.data, parser)
    try:  # a PM option out of range, or an observation (DataError)
        options = FitOptions(
            plotting_rule=args.rule,
            percentile=PercentileConfig(p=args.pm_p, quantile_rule=args.pm_rule),
        )
        s = SortedSample.from_data(dataset.observations)
    except ValueError as exc:
        parser.error(str(exc))
    if args.out is not None:
        _check_writable(args.out, parser)
    try:
        weights = fit_weights(args.methods, s.n, args.seed)
    except ValueError as exc:  # an unreadable or malformed weight cache
        parser.error(str(exc))

    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    print(f"dataset: {dataset.name} (n={s.n}, source {dataset.source})")
    print(f"run: {stamp}  tool {__version__}  seed {args.seed}")
    print(f"{'method':8s} {'alpha':>9s} {'beta':>10s} {'KS':>8s} {'CVM':>8s}")
    doc: dict[str, object] = {
        "dataset": dataset.name, "source": dataset.source, "n": s.n,
        "version": __version__, "seed": args.seed, "plotting_rule": options.plotting_rule,
        "pm_p": options.percentile.p, "pm_rule": options.percentile.quantile_rule,
    }
    fitted: dict[str, EstimateResult] = {}
    failures: dict[str, str] = {}
    # every method from one fit_block call on the sample as a block of one
    fits = fit_block(args.methods, s.values[None, :], s.logs[None, :], options, weights)
    for name, fit in zip(args.methods, fits):
        try:
            fitted[name] = fit.result()
        except EstimationError as exc:
            failures[name] = f"{type(exc).__name__}: {exc}"
    # and every fitted method's KS and CVM from one cdf matrix
    reports = gof_reports(s, [r.params for r in fitted.values()]) if fitted else []
    for (name, r), g in zip(fitted.items(), reports):
        note = f"  ({'; '.join(r.notes)})" if r.notes else ""
        print(f"{name:8s} {r.shape:9.4f} {r.scale:10.4f} {g.ks:8.4f} {g.cvm:8.4f}{note}")
        doc.update({f"{name}.status": "ok", f"{name}.alpha": r.shape, f"{name}.beta": r.scale,
                    f"{name}.ks": g.ks, f"{name}.cvm": g.cvm})
    for name, reason in failures.items():
        print(f"{name:8s} failed: {reason}")
        doc.update({f"{name}.status": "failed", f"{name}.error": reason})
    _write_document(args.out, doc)
    return EXIT_METHOD_FAILED if failures else EXIT_OK


def _run_gof(args) -> int:
    parser = args.parser
    dataset = _load_data(args.data, parser)
    try:
        params = WeibullParams(args.alpha, args.beta)
    except ValueError as exc:
        parser.error(str(exc))
    if args.out is not None:
        _check_writable(args.out, parser)
    report = gof_report(dataset.observations, params)
    print(f"dataset: {dataset.name} (n={report.n})")
    print(f"alpha={args.alpha:.6g} beta={args.beta:.6g}")
    print(f"KS  = {report.ks:.4f}")
    print(f"CVM = {report.cvm:.4f}")
    _write_document(args.out, {"dataset": dataset.name, "n": report.n, "alpha": args.alpha,
                               "beta": args.beta, "ks": report.ks, "cvm": report.cvm,
                               "version": __version__})
    return EXIT_OK


def _run_simulate(args) -> int:
    parser = args.parser
    if args.preset is not None:
        raw = dict(PRESETS[args.preset])
    else:
        try:
            raw = json.loads(args.config.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config {args.config}: {exc}")
        if not isinstance(raw, dict):
            parser.error(f"config {args.config} must be a JSON object")
    for name, flag in (("replications", args.reps), ("master_seed", args.seed),
                       ("workers", args.workers), ("plotting_rule", args.rule)):
        if flag is not None:
            raw[name] = flag
    try:
        cfg = SimulationConfig.from_mapping(raw)
    except (TypeError, ValueError) as exc:
        parser.error(f"invalid experiment config: {exc}")
    _check_writable(args.out_dir, parser, directory=True)

    started = time.perf_counter()
    table = run_experiment(cfg)
    elapsed = time.perf_counter() - started

    out_dir = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = write_metric_csv(table, out_dir / "metrics.csv")
    plot_paths = emit_plot_data(table, out_dir / "plot")
    manifest = {
        "seed": cfg.master_seed,
        "config": cfg.as_mapping(),
        "wall_time_seconds": elapsed,
        "files": [str(csv_path)] + [str(p) for p in plot_paths],
        "skipped_cells": [list(item) for item in table.skipped],
        # json writes each float as its repr, which reads back exactly
        "wmle_weights": [p.record for p in table.weights],
        "version": __version__,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {csv_path} and {len(plot_paths)} plot file(s) in {elapsed:.1f}s")
    for item in table.skipped:
        print(f"note: {item[0]} produced no successful fits at n={item[1]} "
              f"(alpha={item[2]}, beta={item[3]}; {item[4]} failures)")
    return EXIT_OK


def _run_weights(args) -> int:
    path = args.out or default_weights_path()
    try:  # the table is checked before the location, both before any simulation
        pairs = update_weight_table(path, args.seed, args.n,
                                    check=lambda: _check_writable(path, args.parser))
    except ValueError as exc:  # an unreadable or malformed weight table
        args.parser.error(str(exc))
    print(f"wrote {len(pairs)} record(s) to {path}")
    for pair in pairs:
        print(f"n={pair.n}: w1={pair.w1:.6f} w2={pair.w2:.6f} ({pair.replications} replications)")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args, extra = _build_parser().parse_known_args(argv)
    if extra:  # reported by the subcommand, with its own usage line
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
