"""Monte Carlo comparison lab: bias and RMSE of the estimators over a grid.

One experiment cell is a (sample size, parameter level) pair. Every
replication of a cell draws one sample from a substream derived
deterministically from (master seed, cell index, replication index) and fits
every requested method on that same sample (common random numbers).

The lab splits its work two ways, neither of which depends on the worker count:

- A **piece** is the unit of reduction: a range of one cell's replications,
  at most ``_CHUNK`` rows and ``_BLOCK_VALUES`` values (:func:`_chunks`).
  Each piece reduces its estimates to a few sums per method, and a cell adds
  its pieces' sums in order, so the output is bit-identical for any worker
  count.
- A **row block** is the unit of work (:func:`_row_blocks`): consecutive
  pieces of one sample size in grid order, so it can span every level of
  that size, at most ``_BLOCK_ROWS`` rows (1024, a cap set by the run's
  traced memory peak) and ``_BLOCK_VALUES`` values (or a single piece). Its
  samples are drawn into one matrix: row r of a piece of cell c holds the
  first n uniforms of substream ``(REPLICATIONS, c, r)`` under the master
  seed, filled for the whole block at once by :func:`core.fill_uniforms`
  from every piece's seed words (:func:`core.state_words`), and
  :func:`core.draw_sorted` inverts a piece's rows at its cell's level. Up to
  n = 64 the fill is one numpy pass that repeats numpy's PCG64 in integer
  arithmetic that wraps as its C code does, so a row gets the bits its own
  Generator would; larger n keeps one Generator per row, whose cost is
  small beside the row's draws. Every method fits all of the block's rows
  in one batch call (:func:`methods.fit_block`), and MLE and WMLE share
  one: a single root solve over the block's rows stacked once per method.
  The calls share one :class:`regression.LogStats`, which forms each
  statistic several methods read once per block: one product of the logs
  with every cached column, their row sums and the tie notes. A row's
  estimate never depends on the other rows of its block, nor on which
  methods share it, so packing pieces into blocks moves no output bit.

WMLE's weights depend on n alone, so every run takes the library's,
:func:`likelihood.seeded_weight_medians` at the default seed (simulated once
per process and n), whatever its master seed. The parent looks them up before
it builds any task, so no worker simulates them, and the table lists them.

Estimator failures (degenerate samples at tiny n, bracket failures) never
abort a run; they are excluded from the metrics and counted per cell. So is
a replication that draws a 0 (a 0.0 uniform, or an underflow) or overflows
at extreme parameters: it counts as a failure of every method.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import MISSING, dataclass, fields
from itertools import accumulate
from pathlib import Path

import numpy as np

# the lab calls none of sample, fit_method and simulate_weight_medians; they
# are re-exported only because the benchmark's tracer (perfbench/spans.py)
# swaps them for timing wrappers, which therefore time nothing
from .core import (DEFAULT_SEED, REPLICATIONS, WeibullParams, draw_sorted,  # noqa: F401
                   fill_uniforms, sample, scratch, state_words)
from .likelihood import WeightPair, seeded_weight_medians, simulate_weight_medians  # noqa: F401
from .methods import METHOD_NAMES, FitOptions, fit_block, fit_method  # noqa: F401
from .regression import DEFAULT_RULE

__all__ = [
    "RANK_TARGETS",
    "SimulationConfig",
    "MetricRow",
    "MetricTable",
    "default_replications",
    "run_experiment",
    "rank_methods",
    "emit_plot_data",
    "write_metric_csv",
    "CSV_HEADER",
]

RANK_TARGETS = ("ALPHA_BIAS", "BETA_BIAS", "ALPHA_RMSE", "BETA_RMSE")
CSV_HEADER = "method,n,alpha,beta,bias_alpha,bias_beta,rmse_alpha,rmse_beta,reps,failures"

_CHUNK = 256  # replications per piece at most
_BLOCK_VALUES = 1 << 17  # and values per piece or block at most (or one row), to keep temporaries small
# replications per row block at most: a 4-method run at n = 5 peaks under
# tracemalloc at about 480 KiB with this cap and 870 KiB with twice it
_BLOCK_ROWS = 4 * _CHUNK


def default_replications(n: int) -> int:
    """Desk-scale default: enough to push the Monte Carlo error below the
    differences under comparison without hour-long runs."""
    return 10_000 if n <= 200 else 2_000


def _whole(name: str, value) -> int:
    """``value`` as an int if it is a whole number (an integral float such as
    1e4 included), else a ValueError naming the field ``name``."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _entries(name: str, value) -> tuple:
    """``value`` as a tuple if it is a list of entries (a string or a mapping
    is not), else a ValueError naming the field ``name``."""
    if isinstance(value, (str, bytes, Mapping)) or not isinstance(value, Iterable):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return tuple(value)


def _level(name: str, value) -> WeibullParams:
    """``value`` as WeibullParams if it is one or a (shape, scale) pair that
    WeibullParams accepts, else a ValueError naming the level ``name``."""
    if isinstance(value, WeibullParams):
        return value
    pair = _entries(name, value)
    if len(pair) != 2:
        raise ValueError(f"{name} must be a (shape, scale) pair, got {value!r}")
    try:
        return WeibullParams(*pair)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


@dataclass(frozen=True)
class SimulationConfig:
    """Experiment grid: methods x sample sizes x parameter levels. Each field
    is one key of the config file that :meth:`from_mapping` reads."""

    methods: tuple[str, ...]
    sample_sizes: tuple[int, ...]
    param_levels: tuple[WeibullParams, ...]
    replications: int | None = None  # None: per-n default_replications rule
    master_seed: int = DEFAULT_SEED
    workers: int = 1
    plotting_rule: str = DEFAULT_RULE

    def __post_init__(self):
        object.__setattr__(self, "methods", _entries("methods", self.methods))
        object.__setattr__(self, "sample_sizes", tuple(
            _whole("sample_sizes", n) for n in _entries("sample_sizes", self.sample_sizes)))
        if self.replications is not None:
            object.__setattr__(self, "replications", _whole("replications", self.replications))
        for name in ("master_seed", "workers"):
            object.__setattr__(self, name, _whole(name, getattr(self, name)))
        levels = tuple(_level(f"param_levels[{i}]", lv)
                       for i, lv in enumerate(_entries("param_levels", self.param_levels)))
        object.__setattr__(self, "param_levels", levels)
        if not self.methods:
            raise ValueError("methods must be nonempty")
        unknown = [m for m in self.methods if m not in METHOD_NAMES]
        if unknown:
            raise ValueError(f"unknown methods: {unknown}; known: {METHOD_NAMES}")
        if not self.sample_sizes or any(n < 2 for n in self.sample_sizes):
            raise ValueError("sample_sizes must be nonempty with every n >= 2")
        if not levels:
            raise ValueError("param_levels must be nonempty")
        # a repeated entry would run, and be ranked, as a grid line of its own
        for name in ("methods", "sample_sizes", "param_levels"):
            entries = getattr(self, name)
            repeated = [e for i, e in enumerate(entries) if e in entries[:i]]
            if repeated:
                raise ValueError(f"{name} repeats the entry {repeated[0]!r}")
        if self.replications is not None and self.replications < 100:
            raise ValueError(f"replications must be >= 100, got {self.replications}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be a non-negative integer, got {self.master_seed}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        self.options  # FitOptions rejects an unknown plotting rule

    @property
    def options(self) -> FitOptions:
        """The fit options of every replication: the plotting rule, and PM's defaults."""
        return FitOptions(plotting_rule=self.plotting_rule)

    @classmethod
    def from_mapping(cls, raw: Mapping) -> SimulationConfig:
        """The config of a config-file mapping such as :meth:`as_mapping` writes.

        A field left out takes the constructor's default. ValueError names an
        unknown field, or a missing one that has no default.
        """
        names = [f.name for f in fields(cls)]
        unknown = sorted(set(raw) - set(names))
        if unknown:
            raise ValueError(f"unknown field(s) {unknown}; known: {names}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in raw]
        if missing:
            raise ValueError(f"missing field(s) {missing}")
        return cls(**raw)

    def as_mapping(self) -> dict:
        """The fields as JSON values, which :meth:`from_mapping` reads back to this config."""
        return {
            "methods": list(self.methods),
            "sample_sizes": list(self.sample_sizes),
            "param_levels": [[lv.shape, lv.scale] for lv in self.param_levels],
            "replications": self.replications,
            "master_seed": self.master_seed,
            "workers": self.workers,
            "plotting_rule": self.plotting_rule,
        }

    def cells(self) -> list[tuple[int, int, WeibullParams]]:
        """(cell index, n, level) in deterministic grid order."""
        out = []
        idx = 0
        for n in self.sample_sizes:
            for level in self.param_levels:
                out.append((idx, n, level))
                idx += 1
        return out


@dataclass(frozen=True)
class MetricRow:
    method: str
    n: int
    alpha: float
    beta: float
    bias_alpha: float
    bias_beta: float
    rmse_alpha: float
    rmse_beta: float
    reps: int
    failures: int


@dataclass(frozen=True)
class MetricTable:
    """Rows in (method, n, level) config order plus cells that never succeeded,
    and the WMLE weights the run used, one per n in config order (none
    without WMLE)."""

    rows: tuple[MetricRow, ...]
    skipped: tuple[tuple[str, int, float, float, int], ...] = ()
    weights: tuple[WeightPair, ...] = ()


def _chunks(n: int, reps: int) -> list[range]:
    """The replication ranges of a cell's pieces, the fixed split that each
    reduction runs over."""
    size = min(_CHUNK, max(1, _BLOCK_VALUES // n))
    return [range(start, min(start + size, reps)) for start in range(0, reps, size)]


def _row_blocks(cfg: SimulationConfig) -> list[tuple[int, tuple]]:
    """The units of work: (n, pieces) per row block, in grid order.

    A piece is (cell, shape, scale, start, stop), one of :func:`_chunks`'s
    ranges of that cell. A block takes the next pieces of one n while they
    fit in ``_BLOCK_ROWS`` rows and ``_BLOCK_VALUES`` values, and always
    takes at least one.
    """
    blocks: list[tuple[int, list]] = []
    rows = 0
    for cell, n, level in cfg.cells():
        cap = min(_BLOCK_ROWS, _BLOCK_VALUES // n)
        for chunk in _chunks(n, cfg.replications or default_replications(n)):
            if not blocks or blocks[-1][0] != n or rows + len(chunk) > cap:
                blocks.append((n, []))
                rows = 0
            blocks[-1][1].append((cell, level.shape, level.scale, chunk.start, chunk.stop))
            rows += len(chunk)
    return [(n, tuple(pieces)) for n, pieces in blocks]


def _run_block(args) -> list[tuple[int, np.ndarray]]:
    """Fit all methods on one row block and reduce each of its pieces.

    ``args`` is (n, methods, options, weights, master seed, pieces), the
    pieces as :func:`_row_blocks` lists them. The seed words of every
    piece's substreams fill the whole block's uniforms in one
    :func:`core.fill_uniforms` call: one numpy pass with the bits of numpy's
    PCG64 at n up to ``core._NUMPY_FILL_MAX_N``, one Generator per row above
    it. Each piece inverts its rows at its own level, and each method fits
    the whole block in one batch call (MLE and WMLE in one shared solve),
    all of them from one shared :class:`regression.LogStats`. Returns
    (cell index, sums[n_methods, 5]) per piece, in order: per method, over
    the piece's rows whose estimates are finite, their count k, the sums of
    the shape and scale errors, and the sums of their squares.
    """
    n, methods, options, weights, master_seed, pieces = args
    bounds = [0, *accumulate(stop - start for *_, start, stop in pieces)]
    spans = list(zip(pieces, bounds, bounds[1:]))
    # the samples live in this thread's reused work arrays: no fit keeps them
    block = (bounds[-1], n)
    values, logs = scratch("simlab.values", block), scratch("simlab.logs", block)
    fill_uniforms(np.concatenate([
        state_words(master_seed, (REPLICATIONS, cell), range(start, stop))
        for cell, _, _, start, stop in pieces]), values)
    for (_, shape, scale, _, _), lo, hi in spans:
        draw_sorted(WeibullParams(shape, scale), values[lo:hi], logs[lo:hi])
    # a draw of 0 (a 0.0 uniform or an underflow) or inf fails its replication for every method
    ok = np.flatnonzero((values[:, 0] > 0.0) & np.isfinite(values[:, -1]))
    if ok.size < block[0]:
        values, logs = values[ok], logs[ok]
    # estimates by (method, parameter, row), NaN where a draw or a fit failed
    est = np.full((len(methods), 2, block[0]), np.nan)
    for m, fit in enumerate(fit_block(methods, values, logs, options, weights)):
        est[m, 0, ok] = fit.shape
        est[m, 1, ok] = fit.scale
    sums = []
    for (cell, shape, scale, _, _), lo, hi in spans:
        # the piece's errors, C-ordered: each sum runs along its contiguous rows, pairwise
        err = np.subtract(est[:, :, lo:hi], [[shape], [scale]])
        finite = np.isfinite(err).all(axis=1)
        np.copyto(err, 0.0, where=~finite[:, None, :])
        sums.append((cell, np.column_stack((finite.sum(axis=1), err.sum(axis=2),
                                            (err * err).sum(axis=2)))))
    return sums


def _weight_medians_for(cfg: SimulationConfig) -> dict[int, WeightPair]:
    if "WMLE" not in cfg.methods:
        return {}
    return {n: seeded_weight_medians(n, DEFAULT_SEED) for n in cfg.sample_sizes}


def run_experiment(cfg: SimulationConfig) -> MetricTable:
    """Run the full grid and reduce to bias/RMSE per (method, cell)."""
    weights_by_n = _weight_medians_for(cfg)
    options = cfg.options
    cells = cfg.cells()
    totals = {cell: np.zeros((len(cfg.methods), 5)) for cell, _, _ in cells}
    tasks = [(n, cfg.methods, options, weights_by_n.get(n), cfg.master_seed, pieces)
             for n, pieces in _row_blocks(cfg)]

    # no more processes than tasks: a fork start opens every worker at once
    workers = min(cfg.workers, len(tasks))
    pool = None
    if workers > 1:
        # imported here: at one worker the process pool's modules
        # (multiprocessing, socket, ...) would be loaded for nothing
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers)
    try:
        results = pool.map(_run_block, tasks, chunksize=1) if pool else map(_run_block, tasks)
        # each cell adds its pieces' sums in grid order, whichever blocks hold them
        for block in results:
            for cell, sums in block:
                totals[cell] += sums
    finally:
        if pool:
            pool.shutdown()

    rows: list[MetricRow] = []
    skipped: list[tuple[str, int, float, float, int]] = []
    for method_index, method in enumerate(cfg.methods):
        for cell, n, level in cells:
            k, err_alpha, err_beta, sq_alpha, sq_beta = totals[cell][method_index].tolist()
            failures = (cfg.replications or default_replications(n)) - int(k)
            if k == 0:
                skipped.append((method, n, level.shape, level.scale, failures))
                continue
            rows.append(MetricRow(
                method=method,
                n=n,
                alpha=level.shape,
                beta=level.scale,
                bias_alpha=err_alpha / k,
                bias_beta=err_beta / k,
                rmse_alpha=float(np.sqrt(sq_alpha / k)),
                rmse_beta=float(np.sqrt(sq_beta / k)),
                reps=int(k),
                failures=failures,
            ))
    return MetricTable(rows=tuple(rows), skipped=tuple(skipped),
                       weights=tuple(weights_by_n.values()))


_TARGET_FIELDS = {
    "ALPHA_BIAS": "bias_alpha",
    "BETA_BIAS": "bias_beta",
    "ALPHA_RMSE": "rmse_alpha",
    "BETA_RMSE": "rmse_beta",
}


def rank_methods(
    table: MetricTable,
    target: str,
    n: int | None = None,
    level: WeibullParams | None = None,
) -> list[tuple[str, float]]:
    """Methods of one cell ordered by |target metric|, ties broken by name.

    ``n`` and ``level`` may be omitted when the table holds a single cell.
    """
    if target not in _TARGET_FIELDS:
        raise ValueError(f"target must be one of {RANK_TARGETS}, got {target!r}")
    rows = list(table.rows)
    if n is not None:
        rows = [r for r in rows if r.n == n]
    if level is not None:
        rows = [r for r in rows if (r.alpha, r.beta) == (level.shape, level.scale)]
    cells = {(r.n, r.alpha, r.beta) for r in rows}
    if not rows:
        raise ValueError("no rows for the requested cell")
    if len(cells) > 1:
        raise ValueError(f"cell is ambiguous ({len(cells)} cells match); pass n and level")
    field_name = _TARGET_FIELDS[target]
    pairs = sorted(
        ((r.method, getattr(r, field_name)) for r in rows),
        key=lambda mv: (abs(mv[1]), mv[0]),
    )
    return pairs


def emit_plot_data(table: MetricTable, path) -> list[Path]:
    """Write the four plot-ready CSVs (method,n,value), one per (metric, parameter).

    ``path`` is a base prefix; files are named <base>_<metric>_<param>.csv.
    Values are written with full precision so parsing recovers the table
    entries exactly. Returns the written paths.
    """
    base = Path(path)
    base.parent.mkdir(parents=True, exist_ok=True)
    keyed = sorted(table.rows, key=lambda r: (r.method, r.n))
    written = []
    for metric in ("bias", "rmse"):
        for param in ("alpha", "beta"):
            target = base.with_name(f"{base.name}_{metric}_{param}.csv")
            lines = ["method,n,value"]
            for r in keyed:
                lines.append(f"{r.method},{r.n},{getattr(r, f'{metric}_{param}')!r}")
            try:
                target.write_text("\n".join(lines) + "\n")
            except OSError as exc:
                raise OSError(f"cannot write plot data to {target}: {exc}") from exc
            written.append(target)
    return written


def _g6(x: float) -> str:
    return f"{x:.6g}"


def write_metric_csv(table: MetricTable, path) -> Path:
    """Write the full metric table (fixed header, 6 significant digits)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    lines = [CSV_HEADER]
    for r in table.rows:
        lines.append(",".join([
            r.method, str(r.n), _g6(r.alpha), _g6(r.beta),
            _g6(r.bias_alpha), _g6(r.bias_beta), _g6(r.rmse_alpha), _g6(r.rmse_beta),
            str(r.reps), str(r.failures),
        ]))
    try:
        target.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write metric table to {target}: {exc}") from exc
    return target
