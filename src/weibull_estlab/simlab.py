"""Monte Carlo comparison lab: bias and RMSE of the estimators over a grid.

One experiment cell is a (sample size, parameter level) pair. Every
replication of a cell draws one sample from a substream derived
deterministically from (master seed, cell index, replication index) and fits
every requested method on that same sample (common random numbers), so the
output is bit-identical for any worker count: per-replication estimates are
materialized into arrays indexed by replication and reduced in fixed order.

The unit of work is a chunk of replications of one cell. Its samples are
drawn (each from its own substream) into one matrix, and every method fits
all of its rows in one batch call; a row's estimate never depends on the
other rows of its chunk. The substreams of a block of rows are seeded
together (the SeedSequence hash of every replication index in one array
pass), yet row r equals
``default_rng(SeedSequence(master_seed, spawn_key=(0, cell, r)))`` bit for bit.

Estimator failures (degenerate samples at tiny n, bracket failures) never
abort a run; they are excluded from the metrics and counted per cell. So is
a replication whose draw underflows to 0 or overflows at extreme parameters:
it counts as a failure of every method.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# sample, fit_method and simulate_weight_medians are the single-replication
# steps of the lab, re-exported here next to their batched forms
from .core import WeibullParams, draw_sorted, sample  # noqa: F401
from .likelihood import (  # noqa: F401
    DEFAULT_WEIGHT_REPLICATIONS,
    WeightPair,
    seeded_weight_medians,
    simulate_weight_medians,
)
from .methods import FitOptions, fit_batch, fit_method, known_methods  # noqa: F401

__all__ = [
    "METRICS",
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

METRICS = ("BIAS", "RMSE", "BOTH")
RANK_TARGETS = ("ALPHA_BIAS", "BETA_BIAS", "ALPHA_RMSE", "BETA_RMSE")
CSV_HEADER = "method,n,alpha,beta,bias_alpha,bias_beta,rmse_alpha,rmse_beta,reps,failures"

DEFAULT_SEED = 1729

# substream family of the replications under the master seed (family 1 is
# the WMLE weight simulation, see likelihood.seeded_weight_medians)
_SK_REPLICATION = 0

_CHUNK = 256  # replications per worker task; fixed so chunking never depends on workers
_BLOCK_VALUES = 1 << 17  # a chunk at large n is drawn and fitted in row blocks of this size


def default_replications(n: int) -> int:
    """Desk-scale default: enough to push the Monte Carlo error below the
    differences under comparison without hour-long runs."""
    return 10_000 if n <= 200 else 2_000


@dataclass(frozen=True)
class SimulationConfig:
    """Experiment grid: methods x sample sizes x parameter levels."""

    methods: tuple[str, ...]
    sample_sizes: tuple[int, ...]
    param_levels: tuple[WeibullParams, ...]
    replications: int | None = None  # None: per-n default_replications rule
    master_seed: int = DEFAULT_SEED
    metric: str = "BOTH"
    workers: int = 1
    options: FitOptions = field(default_factory=FitOptions)
    weight_replications: int = DEFAULT_WEIGHT_REPLICATIONS

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "sample_sizes", tuple(int(n) for n in self.sample_sizes))
        levels = tuple(
            lv if isinstance(lv, WeibullParams) else WeibullParams(*lv)
            for lv in self.param_levels
        )
        object.__setattr__(self, "param_levels", levels)
        if not self.methods:
            raise ValueError("methods must be nonempty")
        unknown = [m for m in self.methods if m not in known_methods()]
        if unknown:
            raise ValueError(f"unknown methods: {unknown}; known: {known_methods()}")
        if not self.sample_sizes or any(n < 2 for n in self.sample_sizes):
            raise ValueError("sample_sizes must be nonempty with every n >= 2")
        if not levels:
            raise ValueError("param_levels must be nonempty")
        if self.replications is not None and self.replications < 100:
            raise ValueError(f"replications must be >= 100, got {self.replications}")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {self.metric!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.weight_replications < 1000:
            raise ValueError("weight_replications must be >= 1000")

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
    """Rows in (method, n, level) config order plus cells that never succeeded."""

    rows: tuple[MetricRow, ...]
    metric: str = "BOTH"
    skipped: tuple[tuple[str, int, float, float, int], ...] = ()


# SeedSequence hashing constants (NEP 19): hashmix multipliers A (entropy into
# the pool) and B (pool into state words), and the pool's mix multipliers
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _hash_consts(start: int, mult: int, count: int) -> np.ndarray:
    """start, start*mult, ... (count + 1 constants, mod 2^32) as a uint32 column."""
    consts = [start]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


# generate_state(4, uint64) hashes the pool words 0, 1, 2, 3, 0, 1, 2, 3 under these
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 8)


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of ``value`` under each successive constant, one row each."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ value >> _SHIFT


def _word_count(x: int) -> int:
    """How many uint32 entropy words SeedSequence makes of the integer x >= 0."""
    return max(1, -(-int(x).bit_length() // 32))


class _StateWords(ISeedSequence):
    """Hands a bit generator the precomputed ``generate_state(4, uint64)`` words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError(f"holds 4 uint64 state words, not {n_words} {dtype}")
        return self.words


def _block_rngs(master_seed: int, cell: int, reps: range) -> list[np.random.Generator]:
    """The generators of replications ``reps`` of one cell, seeded as one block.

    Row r equals ``default_rng(SeedSequence(master_seed, spawn_key=(0, cell, r)))``
    bit for bit. A SeedSequence mixes its entropy words into a 4-word pool one
    at a time, and the replication index is the last word. So the pool of the
    shared (master seed, 0, cell) words comes from numpy, and only the index is
    hashed in here, as uint32 arithmetic over the whole block (it wraps mod
    2^32, as the hash does). Every shared word took 4 hashmix steps, which
    fixes where the hash constant stands. numpy seeds each PCG64 from the
    resulting state words.
    """
    if reps.stop > 1 << 32:
        raise ValueError("a replication index must fit one 32-bit entropy word")
    shared = np.random.SeedSequence(master_seed, spawn_key=(_SK_REPLICATION, cell))
    # the shared words: the seed's, zero-padded to the pool size, then the spawn key's
    shared_words = max(4, _word_count(master_seed)) + 1 + _word_count(cell)
    start = _INIT_A * pow(_MULT_A, 4 * shared_words, 1 << 32) & _MASK32
    index = np.arange(reps.start, reps.stop, dtype=np.uint32)
    mixed = _hashmix(index, _hash_consts(start, _MULT_A, 4))
    pool = shared.pool[:, None] * _MIX_L - mixed * _MIX_R
    pool ^= pool >> _SHIFT
    state32 = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_CONSTS).astype(np.uint64)
    # PCG64 reads its 4 words from the row's memory, so every row must be contiguous
    state = np.ascontiguousarray((state32[0::2] | state32[1::2] << np.uint64(32)).T)
    return [np.random.Generator(np.random.PCG64(_StateWords(row))) for row in state]


def _run_chunk(args) -> tuple[int, int, np.ndarray]:
    """Fit all methods on replications [start, stop) of one cell.

    Returns (cell index, start, estimates[stop-start, n_methods, 2]) with
    NaN rows marking failures.
    """
    (cell, n, shape, scale, methods, options, weights, master_seed, start, stop) = args
    level = WeibullParams(shape, scale)
    est = np.full((stop - start, len(methods), 2), np.nan)
    block = max(1, _BLOCK_VALUES // n)
    for first in range(start, stop, block):
        reps = range(first, min(first + block, stop))
        values, logs = draw_sorted(level, n, _block_rngs(master_seed, cell, reps))
        # a draw that underflowed to 0 or overflowed fails its replication for every method
        ok = np.flatnonzero((values[:, 0] > 0.0) & np.isfinite(values[:, -1]))
        if ok.size < len(reps):
            values, logs = values[ok], logs[ok]
        rows = ok + (first - start)
        for m, name in enumerate(methods):
            fit = fit_batch(name, values, logs, options, weights)
            est[rows, m, 0] = fit.shape
            est[rows, m, 1] = fit.scale
    return cell, start, est


def _weight_medians_for(cfg: SimulationConfig) -> dict[int, WeightPair]:
    if "WMLE" not in cfg.methods:
        return {}
    return {n: seeded_weight_medians(n, cfg.weight_replications, cfg.master_seed)
            for n in cfg.sample_sizes}


def run_experiment(cfg: SimulationConfig) -> MetricTable:
    """Run the full grid and reduce to bias/RMSE per (method, cell)."""
    weights_by_n = _weight_medians_for(cfg)
    cells = cfg.cells()
    estimates: dict[int, np.ndarray] = {}
    tasks = []
    for cell, n, level in cells:
        reps = cfg.replications or default_replications(n)
        estimates[cell] = np.empty((reps, len(cfg.methods), 2))
        for start in range(0, reps, _CHUNK):
            stop = min(start + _CHUNK, reps)
            tasks.append((cell, n, level.shape, level.scale, cfg.methods, cfg.options,
                          weights_by_n.get(n), cfg.master_seed, start, stop))

    if cfg.workers == 1:
        results = map(_run_chunk, tasks)
    else:
        pool = ProcessPoolExecutor(max_workers=cfg.workers)
        try:
            results = list(pool.map(_run_chunk, tasks, chunksize=1))
        finally:
            pool.shutdown()
    for cell, start, est in results:
        estimates[cell][start:start + est.shape[0]] = est

    rows: list[MetricRow] = []
    skipped: list[tuple[str, int, float, float, int]] = []
    for method_index, method in enumerate(cfg.methods):
        for cell, n, level in cells:
            est = estimates[cell][:, method_index, :]
            reps = est.shape[0]
            ok = np.isfinite(est).all(axis=1)
            successes = int(ok.sum())
            failures = reps - successes
            if successes == 0:
                skipped.append((method, n, level.shape, level.scale, failures))
                continue
            shape_hat = est[ok, 0]
            scale_hat = est[ok, 1]
            rows.append(MetricRow(
                method=method,
                n=n,
                alpha=level.shape,
                beta=level.scale,
                bias_alpha=float(shape_hat.mean() - level.shape),
                bias_beta=float(scale_hat.mean() - level.scale),
                rmse_alpha=float(np.sqrt(np.mean((shape_hat - level.shape) ** 2))),
                rmse_beta=float(np.sqrt(np.mean((scale_hat - level.scale) ** 2))),
                reps=successes,
                failures=failures,
            ))
    return MetricTable(rows=tuple(rows), metric=cfg.metric, skipped=tuple(skipped))


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


def _plot_rows(table: MetricTable, metric: str, param: str) -> list[tuple[str, int, float]]:
    field_name = f"{metric.lower()}_{param}"
    keyed = sorted(table.rows, key=lambda r: (r.method, r.n))
    return [(r.method, r.n, getattr(r, field_name)) for r in keyed]


def emit_plot_data(table: MetricTable, path) -> list[Path]:
    """Write plot-ready CSVs (method,n,value), one per (metric, parameter).

    ``path`` is a base prefix; files are named <base>_<metric>_<param>.csv.
    Values are written with full precision so parsing recovers the table
    entries exactly. Returns the written paths.
    """
    base = Path(path)
    base.parent.mkdir(parents=True, exist_ok=True)
    metrics = ("BIAS", "RMSE") if table.metric == "BOTH" else (table.metric,)
    written = []
    for metric in metrics:
        for param in ("alpha", "beta"):
            target = base.with_name(f"{base.name}_{metric.lower()}_{param}.csv")
            lines = ["method,n,value"]
            for method, n, value in _plot_rows(table, metric, param):
                lines.append(f"{method},{n},{value!r}")
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
