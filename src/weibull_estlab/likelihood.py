"""Maximum likelihood and median-weighted maximum likelihood.

The shape MLE is the root of the profile score

    g(a) = 1/a + mean(log x) - sum(x^a log x) / sum(x^a),

which is strictly decreasing in a for any non-degenerate sample, and the
scale follows as (sum(x^a)/n)^(1/a). Powers are evaluated as
exp(a * (log x - max log x)) so samples spanning many orders of magnitude
cannot overflow. Every row of a batch of samples gets its root from
safeguarded Newton iteration (with the exact derivative, minus the
x^a-weighted variance of log x) inside the root solver's bracket around its
start; a row the iteration cannot settle goes on by bisection. The start is
the default-rule GLS1 shape, one column of the block's shared product of the
logs (:class:`regression.LogStats`), whatever plotting rule the regression
fits use; a row where that is not a positive finite shape starts from the
log-moment estimate.

Each score records, per row, the a it was taken at, sum(e^(a d)) and the
e^(a d)-weighted mean m1 of d = log x - max log x. For the root r,
log sum(e^(r d)) = log sum(e^(a d)) + (r - a) m1 to first order, which is
near rounding once |r - a| <= roots.NEWTON_RTOL a; the scale takes its power
sum from a row's last score that way, and only a row whose last score lies
farther from its root (a check of a bracket end, say) makes a fresh exp pass.

The weighted variant replaces 1/a by w2/a and rescales the scale equation by
1/w1, where (w1, w2) are medians of two pivotal statistics; the MLE is the
case w1 = w2 = 1. So one solve serves both (:func:`fit_likelihood_block`):
the shifted logs, the degenerate check and the start are formed once, the
block's rows are stacked once per method with that method's w2 and
log(n w1), and one root solve and one fresh scale pass cover them all. A
row's iterates depend on that row alone and 1.0 * x is exact, so each
method's rows get the bits of a lone fit. Writing
E = -log(1 - F(X)) ~ Exp(1) under the true model,

    W1 = mean(E_i)
    W2 = sum(E_i log E_i) / sum(E_i) - mean(log E_i),

so both medians depend on the sample size only and are estimated once per n
by simulating standard exponentials. n * W1 is Gamma(n, 1); both medians
tend to 1 as n grows, which is why the weighted fit converges to the MLE.
Each (n, seed) is simulated once per process (:func:`seeded_weight_medians`).
Every decision about the weights is taken here: which a run of given
methods uses (:func:`lab_weights`, :func:`fit_weights`), how the cache
table is updated (:func:`update_weight_table`) and what a record is.

The simulation runs on two threads on any host, the caller and one on a
pool opened within each call. Under one lock a thread claims the next block
and draws it, then reduces it outside the lock while the other draws. Only
the lock orders the draws, so they leave the generator in stream order and
the medians do not depend on which thread drew which block, even on one CPU.
The caller takes the median of w1 while the pool takes that of w2.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures.thread import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import (DEFAULT_SEED, BatchFit, EstimateResult, SortedSample, fail_rows, row_var,
                   scratch, weight_stream)
from .errors import DegenerateSampleError
from .regression import GLS1_SLOPE, LogStats
from .roots import NEWTON_RTOL, solve_rows

__all__ = [
    "WeightPair",
    "profile_score",
    "fit_mle",
    "fit_wmle",
    "fit_mle_batch",
    "fit_wmle_batch",
    "score_constants",
    "fit_likelihood_block",
    "simulate_weight_medians",
    "seeded_weight_medians",
    "lab_weights",
    "fit_weights",
    "read_weight_table",
    "write_weight_table",
    "update_weight_table",
    "default_weights_path",
    "WeightStore",
]

WEIGHTS_ENV_VAR = "WEIBULL_ESTLAB_WEIGHTS"
DEFAULT_WEIGHT_REPLICATIONS = 100_000
MIN_WEIGHT_REPLICATIONS = 1000

# values per block of the weight simulation's reused draw buffers (whole rows,
# at least one): small enough to stay in cache
_WEIGHT_BLOCK_VALUES = 1 << 15

# threads of the weight simulation: one draws a block while the other
# reduces the block before it
_WEIGHT_THREADS = 2


@dataclass(frozen=True)
class WeightPair:
    """Median weights for one sample size and the simulation that made them."""

    w1: float
    w2: float
    n: int
    replications: int
    seed: int | None = None  # of the weight stream; None for a generator of the caller's

    @property
    def record(self) -> tuple:
        """(n, w1, w2, replications, seed): a weight table line and a manifest row."""
        return self.n, self.w1, self.w2, self.replications, self.seed


def _powers(alpha: np.ndarray, d: np.ndarray) -> np.ndarray:
    """e^(alpha_r d_r) for every row r, in this thread's reused k x n work array."""
    # einsum, not a broadcast multiply: the same one product per element, and
    # about a third faster on large blocks
    w = np.einsum("i,ij->ij", alpha, d, out=scratch("likelihood.powers", d.shape))
    return np.exp(w, out=w)


def _score_rows(dd: np.ndarray, mean_d: np.ndarray, alpha: np.ndarray,
                w2: np.ndarray | float) -> tuple[np.ndarray, ...]:
    """Rowwise w2/a + mean(d) - sum(e^(a d) d)/sum(e^(a d)) and its derivative
    in a, for d = log x - max log x <= 0 (so no power overflows), dd = [d, d^2]
    stacked and w2 per row (or one for every row), then sum(e^(a d)) and
    m1 = sum(e^(a d) d)/sum(e^(a d))."""
    w = _powers(alpha, dd[0])
    total = w.sum(axis=1)
    m1, m2 = np.einsum("ij,kij->ki", w, dd) / total
    inv = 1.0 / alpha
    w2_inv = w2 * inv
    return w2_inv + mean_d - m1, -w2_inv * inv - (m2 - m1 * m1), total, m1


def _shifted(logs: np.ndarray, copies: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """dd = [d, d^2] for d = logs - max log, its rows repeated ``copies`` times
    over, formed afresh in this thread's reused work array (valid until the
    next call in this thread), and the row means of d."""
    rows, n = logs.shape
    dd = scratch("likelihood.dd", (2, copies * rows, n))
    d = dd[0]
    np.subtract(logs, logs[:, -1:], out=d.reshape(copies, rows, n))
    np.multiply(d, d, out=dd[1])
    return dd, d.sum(axis=1) / n


def profile_score(s: SortedSample, alpha: float) -> float:
    """g(alpha) = 1/alpha + mean(log x) - sum(x^a log x)/sum(x^a)."""
    if not 0.0 < alpha < math.inf:  # NaN fails both
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    dd, mean_d = _shifted(s.logs[None, :])
    return float(_score_rows(dd, mean_d, np.array([alpha]), 1.0)[0][0])


def _log_power_sums(alpha: np.ndarray, d: np.ndarray) -> np.ndarray:
    """log sum(e^(alpha_r d_r)) of every row: a fresh exp pass."""
    return np.log(_powers(alpha, d).sum(axis=1))


def score_constants(name: str, n: int, weights: WeightPair | None = None) -> tuple[float, float]:
    """(w1, w2) of ``name``, MLE or WMLE, at sample size n: (1, 1) for MLE,
    the medians of ``weights`` for WMLE. Raises ValueError for WMLE without a
    WeightPair, or with one simulated for another n."""
    if name == "MLE":
        return 1.0, 1.0
    if weights is None:
        raise ValueError("WMLE requires a WeightPair for the sample size")
    if weights.n != n:
        raise ValueError(f"weights were simulated for n={weights.n}, sample has n={n}")
    return weights.w1, weights.w2


def fit_likelihood_block(stats: LogStats,
                         constants: dict[str, tuple[float, float]]) -> dict[str, BatchFit]:
    """Shape root of the (weighted) profile score and scale (sum x^a / (n w1))^(1/a)
    on every row, for each method named in ``constants`` with its (w1, w2)
    (:func:`score_constants`), all from one root solve (module docstring)."""
    logs = stats.logs
    count, n = logs.shape
    k = len(constants)
    # the methods' rows one after another, each with its method's log(n w1)
    # and w2; a row's iterates depend on that row alone, so it gets the bits
    # of a lone fit
    dd, mean_d = _shifted(logs, k)
    per_method = [(math.log(n * w1), w2) for w1, w2 in constants.values()]
    log_n_w1, w2 = np.array(per_method).repeat(count, axis=0).T

    def stacked(a):  # a vector of the block's rows, once per method
        return np.concatenate((a,) * k)

    errors: dict = {}
    fail_rows(errors, stacked(logs[:, 0] == logs[:, -1]), lambda r: DegenerateSampleError(
        "all observations equal; likelihood has no interior maximum"))
    with np.errstate(divide="ignore", invalid="ignore"):  # a failed row has slope and variance 0
        start = 1.0 / stats.products[:, GLS1_SLOPE]
        moments = np.flatnonzero(~((start > 0.0) & (start < math.inf)))
        if moments.size:
            var_log = row_var(dd[0][moments], mean_d[moments])
            start[moments] = np.sqrt(math.pi ** 2 / (6.0 * var_log))
    size = k * count
    last = np.full((3, size), np.nan)  # per row: a, sum(e^(a d)) and m1 of its last score

    def score(alpha, rows):
        if rows.size == size:  # every row, in order: score them without a copy
            f, df, last[1], last[2] = _score_rows(dd, mean_d, alpha, w2)
            last[0] = alpha
            return f, df
        # the rows still iterating, gathered into a reused work array; every
        # index is valid, and take buffers ``out`` in a temporary under mode="raise"
        gathered = np.take(dd, rows, axis=1, mode="clip",
                           out=scratch("likelihood.dd_rows", (2, rows.size, n)))
        f, df, total, m1 = _score_rows(gathered, mean_d[rows], alpha, w2[rows])
        last[0, rows], last[1, rows], last[2, rows] = alpha, total, m1
        return f, df

    shape, diagnostics = solve_rows(score, stacked(start), errors)
    scored, total, m1 = last
    with np.errstate(invalid="ignore", over="ignore", under="ignore", divide="ignore"):
        step = shape - scored
        log_sum = np.log(total) + step * m1
        fresh = np.flatnonzero(~(np.abs(step) <= NEWTON_RTOL * scored))  # failed rows too
        if fresh.size:
            log_sum[fresh] = _log_power_sums(shape[fresh], dd[0][fresh])
        scale = np.exp(stacked(logs[:, -1]) + (log_sum - log_n_w1) / shape)
    # one fit per method: views of its rows (the solver and exp return fresh
    # arrays, not work arrays) and its errors, renumbered from 0
    lo, hi = diagnostics.pop("bracket")
    fits = {}
    for part, name in enumerate(constants):
        first = part * count
        rows = slice(first, first + count)
        own = {r - first: e for r, e in errors.items() if first <= r < first + count}
        fits[name] = BatchFit.build(name, shape[rows], scale[rows], own,
                                    bracket=(lo[rows], hi[rows]),
                                    **{key: a[rows] for key, a in diagnostics.items()})
    return fits


def fit_mle_batch(stats: LogStats) -> BatchFit:
    """Maximum likelihood on every row of a block via the profile-score root."""
    constants = score_constants("MLE", stats.logs.shape[1])
    return fit_likelihood_block(stats, {"MLE": constants})["MLE"]


def fit_wmle_batch(stats: LogStats, weights: WeightPair) -> BatchFit:
    """Median-weighted maximum likelihood on every row of a block.

    The shape is the root of the weighted score w2/a + mean(log x) -
    sum(x^a log x)/sum(x^a), found as the MLE's is. For w2 > 0 (every simulated
    w2 is) it falls from +inf to mean(log x) - max(log x) < 0, so the root
    exists; a row whose widened bracket holds no sign change fails with a
    BracketError, as an MLE row does. The scale is (sum(x^a) / (n w1))^(1/a).
    """
    constants = score_constants("WMLE", stats.logs.shape[1], weights)
    return fit_likelihood_block(stats, {"WMLE": constants})["WMLE"]


def fit_mle(s: SortedSample) -> EstimateResult:
    """Maximum likelihood fit on one sample (see :func:`fit_mle_batch`)."""
    return fit_mle_batch(LogStats.of(s)).result()


def fit_wmle(s: SortedSample, weights: WeightPair) -> EstimateResult:
    """Median-weighted maximum likelihood fit on one sample (see :func:`fit_wmle_batch`)."""
    return fit_wmle_batch(LogStats.of(s), weights).result()


def simulate_weight_medians(n: int, replications: int, rng: np.random.Generator) -> WeightPair:
    """Estimate the median weights for sample size n from Exp(1) draws.

    The statistics are pivotal under the true model, so no Weibull
    parameters enter. Draws are consumed replication-by-replication in a
    fixed order into small reused buffers of whole rows, and each row is
    reduced on its own, so the result depends only on the generator state,
    not on the block size or the number of threads.

    ``_WEIGHT_THREADS`` threads share the work on any host: the caller and
    helpers on a pool opened and shut down within the call. Under one lock a
    thread claims the next block and draws it into buffers of its own, then
    reduces it outside the lock (numpy releases the interpreter lock in both
    steps). No thread waits for a particular other, so a helper that gets no
    CPU (on a one-CPU host, say) just claims fewer blocks, or none of a single
    block. A failing thread sets the claimed count to the end, so no thread
    draws after the failure, and its exception is raised here.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if replications < MIN_WEIGHT_REPLICATIONS:
        raise ValueError(f"need at least {MIN_WEIGHT_REPLICATIONS} replications, got {replications}")
    rows = min(max(1, _WEIGHT_BLOCK_VALUES // n), replications)
    w1, w2 = np.empty((2, replications))  # w1 and w2 of every replication
    lock = threading.Lock()
    claimed = 0  # replications drawn so far; all of them once a thread has failed

    def work() -> None:
        nonlocal claimed
        try:
            e = np.empty((rows, n))
            log_e = np.empty((rows, n))
            sums = np.empty((3, rows))  # per row: sum(e), sum(log e), sum(e log e)
            while True:
                with lock:
                    done = claimed
                    k = min(rows, replications - done)
                    if k == 0:
                        return
                    block, logs = e[:k], log_e[:k]
                    claimed = replications  # left so if the draw raises
                    rng.standard_exponential(out=block)
                    claimed = done + k
                sum_e, sum_log, sum_elog = sums[:, :k]
                np.add.reduce(block, axis=1, out=sum_e)
                np.add.reduce(np.log(block, out=logs), axis=1, out=sum_log)
                np.add.reduce(np.multiply(block, logs, out=logs), axis=1, out=sum_elog)
                # means as np.mean takes them: the row sum divided by n
                np.divide(sum_e, n, out=w1[done:done + k])
                np.subtract(sum_elog / sum_e, sum_log / n, out=w2[done:done + k])
        except BaseException:
            with lock:
                claimed = replications
            raise

    def median(values: np.ndarray) -> float:
        # partitioned in place, as np.median(overwrite_input=True) does, but
        # without its NaN check, which imports numpy.ma on first use
        half = values.size // 2
        middle = [half] if values.size % 2 else [half - 1, half]
        values.partition(middle)
        return float(values[middle].sum() / len(middle))

    with ThreadPoolExecutor(_WEIGHT_THREADS - 1) as pool:
        helpers = [pool.submit(work) for _ in range(_WEIGHT_THREADS - 1)]
        work()
        for helper in helpers:
            helper.result()
        second = pool.submit(median, w2)
        return WeightPair(w1=median(w1), w2=second.result(), n=n, replications=replications)


@functools.cache
def seeded_weight_medians(n: int, seed: int) -> WeightPair:
    """The weight medians for ``n`` simulated from ``core.weight_stream(seed,
    n)``, :data:`DEFAULT_WEIGHT_REPLICATIONS` replications long, on
    the first call for each (n, seed) in a process and looked up after it.

    The one caller of the weight stream, so the lab, the weight cache and the
    ``weights`` command agree on it.
    """
    pair = simulate_weight_medians(n, DEFAULT_WEIGHT_REPLICATIONS, weight_stream(seed, n))
    return replace(pair, seed=seed)


def lab_weights(methods: Sequence[str], sizes: Iterable[int]) -> dict[int, WeightPair]:
    """The weights a lab run of ``methods`` fits WMLE with, by n in ``sizes``:
    none without WMLE, else the library's own, :data:`DEFAULT_SEED`'s at any master seed."""
    return {n: seeded_weight_medians(n, DEFAULT_SEED) for n in sizes} if "WMLE" in methods else {}


def fit_weights(methods: Sequence[str], n: int, seed: int) -> WeightPair | None:
    """The weights of ``fit --seed seed`` at n (:meth:`WeightStore.get`); none without WMLE."""
    return WeightStore(seed=seed).get(n) if "WMLE" in methods else None


# --- weight-table cache file: this header line, then one record per line,
# --- WeightPair.record, floats written as their str (= repr) so they read back exactly

WEIGHT_TABLE_HEADER = "# weibull_estlab weight table v2: n w1 w2 replications seed (exact floats)"
WeightKey = tuple[int, int, int]  # (n, replications, seed)


def default_weights_path() -> Path:
    env = os.environ.get(WEIGHTS_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "weibull_estlab" / "weights.txt"


def read_weight_table(path: Path) -> dict[WeightKey, WeightPair]:
    """Parse the cache file into {(n, replications, seed): WeightPair}; later records win.

    A file without :data:`WEIGHT_TABLE_HEADER` as its first line holds the
    older layout with floats rounded to 12 digits; its records are not
    returned, so they are simulated again and the file is rewritten. A
    malformed record, or one that cannot be weights (n < 1, replications
    below the floor, a negative seed, w1 or w2 not finite and positive: no
    simulation makes w2 <= 0), raises ValueError("<path>:<line>: ..."), and a
    file that cannot be read or decoded ValueError("<path>: cannot read
    weight table: ...").
    """
    records: dict[WeightKey, WeightPair] = {}
    if not path.exists():
        return records
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: cannot read weight table: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"{path}:{lineno}: expected 5 fields, got {len(parts)}")
        try:
            n, reps, seed = int(parts[0]), int(parts[3]), int(parts[4])
            w1, w2 = float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        for ok, rule in ((n >= 1, "n must be >= 1"),
                         (reps >= MIN_WEIGHT_REPLICATIONS,
                          f"replications must be >= {MIN_WEIGHT_REPLICATIONS}"),
                         (seed >= 0, "seed must be >= 0"),
                         (0.0 < w1 < math.inf, "w1 must be finite and positive"),
                         (0.0 < w2 < math.inf, "w2 must be finite and positive")):
            if not ok:
                raise ValueError(f"{path}:{lineno}: {rule}, got {line!r}")
        records[(n, reps, seed)] = WeightPair(w1, w2, n, reps, seed)
    if records and lines[0].strip() != WEIGHT_TABLE_HEADER:
        return {}
    return records


def update_weight_table(path: Path, seed: int, sizes: Iterable[int], lookup: bool = False,
                        check: Callable[[], None] = lambda: None) -> list[WeightPair]:
    """The records of ``sizes`` at ``seed``, from the one read-merge-write of
    the table at ``path``: read it (ValueError if that fails), run ``check()``,
    simulate the records (under ``lookup`` only those missing), merge them in
    and write it back (OSError if that fails; a lookup skips a failed write)."""
    records = read_weight_table(path)
    check()
    keys = [(n, DEFAULT_WEIGHT_REPLICATIONS, seed) for n in sizes]
    missing = [key for key in keys if not (lookup and key in records)]
    if missing:
        records.update({key: seeded_weight_medians(key[0], seed) for key in missing})
        try:
            write_weight_table(path, records)
        except OSError:
            if not lookup:
                raise
    return [records[key] for key in keys]


def write_weight_table(path: Path, records: dict[WeightKey, WeightPair]) -> None:
    """Write the records in key order, replacing the file atomically (temp file, then rename)."""
    if any(pair.seed is None for pair in records.values()):
        raise ValueError("a weight table holds only pairs of the weight stream, with their seed")
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [WEIGHT_TABLE_HEADER] + [" ".join(map(str, pair.record))
                                     for _, pair in sorted(records.items())]
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class WeightStore:
    """The cached weight records of one seed at :data:`DEFAULT_WEIGHT_REPLICATIONS`."""

    def __init__(self, path: Path | None = None, seed: int = DEFAULT_SEED):
        self.path = path or default_weights_path()
        self.seed = seed

    def get(self, n: int) -> WeightPair:
        """The record of n from the cache, or simulated and added to it (best effort)."""
        return update_weight_table(self.path, self.seed, [n], lookup=True)[0]
