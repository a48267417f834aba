"""Maximum likelihood and median-weighted maximum likelihood.

The shape MLE is the root of the profile score

    g(a) = 1/a + mean(log x) - sum(x^a log x) / sum(x^a),

which is strictly decreasing in a for any non-degenerate sample, and the
scale follows as (sum(x^a)/n)^(1/a). Powers are evaluated as
exp(a * (log x - max log x)) so samples spanning many orders of magnitude
cannot overflow. Every row of a batch of samples gets its root from
safeguarded Newton iteration (with the exact derivative, minus the
x^a-weighted variance of log x) inside a bracket around the log-moment
estimate; a row the iteration cannot settle falls back to bracketed Brent.

The weighted variant replaces 1/a by w2/a and rescales the scale equation by
1/w1, where (w1, w2) are medians of two pivotal statistics. Writing
E = -log(1 - F(X)) ~ Exp(1) under the true model,

    W1 = mean(E_i)
    W2 = sum(E_i log E_i) / sum(E_i) - mean(log E_i),

so both medians depend on the sample size only and are estimated once per n
by simulating standard exponentials. n * W1 is Gamma(n, 1); both medians
tend to 1 as n grows, which is why the weighted fit converges to the MLE.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import minimize_scalar

from .core import BatchFit, EstimateResult, SortedSample, fail_rows, fit_one, open_rows, row_var
from .errors import BracketError, DegenerateSampleError, EstimationError
from .roots import BRACKET_FACTOR, MAX_EXPANSIONS, brent_row, solve_rows

__all__ = [
    "WeightPair",
    "profile_score",
    "fit_mle",
    "fit_wmle",
    "fit_mle_batch",
    "fit_wmle_batch",
    "simulate_weight_medians",
    "seeded_weight_medians",
    "read_weight_table",
    "write_weight_table",
    "default_weights_path",
    "WeightStore",
]

WEIGHTS_ENV_VAR = "WEIBULL_ESTLAB_WEIGHTS"
DEFAULT_WEIGHT_REPLICATIONS = 100_000

# substream family of the weight simulation under a seed: spawn_key=(1, n)
_SK_WEIGHTS = 1

# values per block of the weight simulation's reused draw buffers (whole rows,
# at least one): small enough to stay in cache
_WEIGHT_BLOCK_VALUES = 1 << 15

# bracket seeded from the closed-form log-moment estimate, then widened
_BRACKET_SEED = (0.2, 5.0)


@dataclass(frozen=True)
class WeightPair:
    """Median weights for one sample size and the simulation that made them."""

    w1: float
    w2: float
    n: int
    replications: int


def _score_rows(dd: np.ndarray, mean_d: np.ndarray, alpha: np.ndarray,
                w2: float) -> tuple[np.ndarray, np.ndarray]:
    """Rowwise w2/a + mean(d) - sum(e^(a d) d)/sum(e^(a d)) and its derivative
    in a, for d = log x - max log x <= 0 (so no power overflows) and
    dd = [d, d^2] stacked."""
    w = np.multiply(alpha[:, None], dd[0])
    sw = np.exp(w, out=w).sum(axis=1)  # in place: one k x n temporary per call
    m1, m2 = np.einsum("ij,kij->ki", w, dd) / sw
    inv = 1.0 / alpha
    return w2 * inv + mean_d - m1, -w2 * inv * inv - (m2 - m1 * m1)


def _stacked(logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    dd = np.empty((2,) + logs.shape)
    d = np.subtract(logs, logs[:, -1:], out=dd[0])
    np.multiply(d, d, out=dd[1])
    return dd, d.sum(axis=1) / d.shape[1]


def profile_score(s: SortedSample, alpha: float) -> float:
    """g(alpha) = 1/alpha + mean(log x) - sum(x^a log x)/sum(x^a)."""
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    dd, mean_d = _stacked(s.logs[None, :])
    return float(_score_rows(dd, mean_d, np.array([alpha]), 1.0)[0][0])


def _minimize_row(f, lo: float, hi: float):
    """WMLE's fallback: Brent on the bracket, else the squared score minimized."""
    try:
        return brent_row(f, lo, hi)
    except BracketError:
        widen = BRACKET_FACTOR ** MAX_EXPANSIONS
        span = (lo / widen, hi * widen)
        opt = minimize_scalar(lambda a: f(a) ** 2, bounds=span, method="bounded",
                              options={"xatol": 1e-10})
        if not opt.success:
            raise EstimationError(f"weighted-likelihood minimization failed: {opt.message}")
        shape = float(opt.x)
        return shape, int(opt.nfev), float(f(shape)), span, (
            "no sign change; squared objective minimized over the expanded bracket",)


def _likelihood_batch(method: str, logs: np.ndarray, w1: float, w2: float) -> BatchFit:
    """Shape root of the (weighted) profile score and scale (sum x^a / (n w1))^(1/a)
    on every row; the root is bracketed around the log-moment estimate."""
    n = logs.shape[1]
    dd, mean_d = _stacked(logs)
    var_log = row_var(dd[0], mean_d)
    errors: dict = {}
    constant = (logs[:, 0] == logs[:, -1]) | (var_log == 0.0)
    fail_rows(errors, constant, lambda r: DegenerateSampleError(
        "all observations equal; likelihood has no interior maximum"))
    rows = open_rows(logs.shape[0], errors)
    seed = np.sqrt(math.pi ** 2 / (6.0 * var_log[rows]))

    def score(alpha, rows):
        return _score_rows(dd[:, rows], mean_d[rows], alpha, w2)

    roots = solve_rows(score, rows, _BRACKET_SEED[0] * seed, _BRACKET_SEED[1] * seed, seed,
                       errors, fallback=_minimize_row if method == "WMLE" else brent_row)
    shape = np.full(logs.shape[0], np.nan)
    shape[rows] = roots.x
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        power = np.multiply(shape[:, None], dd[0])
        log_sum = np.log(np.exp(power, out=power).sum(axis=1))
        scale = np.exp(logs[:, -1] + (log_sum - math.log(n * w1)) / shape)
    return BatchFit.build(method, shape, scale, errors, **roots.diagnostics(logs.shape[0]))


def fit_mle_batch(values: np.ndarray, logs: np.ndarray) -> BatchFit:
    """Maximum likelihood on every row via the profile-score root."""
    return _likelihood_batch("MLE", logs, 1.0, 1.0)


def fit_wmle_batch(values: np.ndarray, logs: np.ndarray, weights: WeightPair) -> BatchFit:
    """Median-weighted maximum likelihood on every row.

    The shape minimizes (w2/a + mean(log x) - sum(x^a log x)/sum(x^a))^2;
    when the inner expression changes sign (it always does for w2 > 0) the
    minimizer is its root and is found by the same bracketed scheme,
    otherwise a bounded scalar minimization over the expanded bracket is
    used. The scale is (sum(x^a) / (n w1))^(1/a).
    """
    if weights.n != logs.shape[1]:
        raise ValueError(f"weights were simulated for n={weights.n}, sample has n={logs.shape[1]}")
    return _likelihood_batch("WMLE", logs, weights.w1, weights.w2)


def fit_mle(s: SortedSample) -> EstimateResult:
    """Maximum likelihood fit on one sample (see :func:`fit_mle_batch`)."""
    return fit_one(fit_mle_batch, s)


def fit_wmle(s: SortedSample, weights: WeightPair) -> EstimateResult:
    """Median-weighted maximum likelihood fit on one sample (see :func:`fit_wmle_batch`)."""
    return fit_one(fit_wmle_batch, s, weights)


def simulate_weight_medians(n: int, replications: int, rng: np.random.Generator) -> WeightPair:
    """Estimate the median weights for sample size n from Exp(1) draws.

    The statistics are pivotal under the true model, so no Weibull
    parameters enter. Draws are consumed replication-by-replication in a
    fixed order into a small reused buffer of whole rows, and each row is
    reduced on its own, so the result depends only on the generator state,
    not on the buffer's block size.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if replications < 1000:
        raise ValueError(f"need at least 1000 replications, got {replications}")
    rows = min(max(1, _WEIGHT_BLOCK_VALUES // n), replications)
    e = np.empty((rows, n))
    log_e = np.empty((rows, n))
    sums = np.empty((3, rows))  # per row: sum(e), sum(log e), sum(e log e)
    w1 = np.empty(replications)
    w2 = np.empty(replications)
    for done in range(0, replications, rows):
        k = min(rows, replications - done)
        block, logs = e[:k], log_e[:k]
        sum_e, sum_log, sum_elog = sums[:, :k]
        rng.standard_exponential(out=block)
        np.add.reduce(block, axis=1, out=sum_e)
        np.add.reduce(np.log(block, out=logs), axis=1, out=sum_log)
        np.add.reduce(np.multiply(block, logs, out=logs), axis=1, out=sum_elog)
        # means as np.mean takes them: the row sum divided by n
        np.divide(sum_e, n, out=w1[done:done + k])
        np.subtract(sum_elog / sum_e, sum_log / n, out=w2[done:done + k])
    return WeightPair(
        w1=float(np.median(w1)),
        w2=float(np.median(w2)),
        n=n,
        replications=replications,
    )


def seeded_weight_medians(n: int, replications: int, seed: int) -> WeightPair:
    """The weight medians for ``n`` simulated from the substream (seed, 1, n).

    The one place that derives the weight stream from a seed, so the lab,
    the weight cache and the ``weights`` command agree on it.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_SK_WEIGHTS, n)))
    return simulate_weight_medians(n, replications, rng)


# --- weight-table cache file: this header line, then one record per line,
# --- "n w1 w2 replications seed", floats written with repr so they read back exactly

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
    returned, so they are simulated again and the file is rewritten.
    """
    records: dict[WeightKey, WeightPair] = {}
    if not path.exists():
        return records
    lines = path.read_text().splitlines()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"{path}:{lineno}: expected 5 fields, got {len(parts)}")
        n, reps, seed = int(parts[0]), int(parts[3]), int(parts[4])
        records[(n, reps, seed)] = WeightPair(w1=float(parts[1]), w2=float(parts[2]),
                                              n=n, replications=reps)
    if records and lines[0].strip() != WEIGHT_TABLE_HEADER:
        return {}
    return records


def write_weight_table(path: Path, records: dict[WeightKey, WeightPair]) -> None:
    """Write the records, replacing the file atomically (temp file, then rename)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [WEIGHT_TABLE_HEADER] + [f"{n} {pair.w1!r} {pair.w2!r} {reps} {seed}"
                                     for (n, reps, seed), pair in sorted(records.items())]
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class WeightStore:
    """Memoized weight lookup backed by the cache file.

    Records are keyed by (n, replications, seed). Missing ones are simulated
    on demand by :func:`seeded_weight_medians` and added to the cache (best
    effort; a read-only location just skips the write).
    """

    def __init__(self, path: Path | None = None, replications: int = DEFAULT_WEIGHT_REPLICATIONS,
                 seed: int = 0):
        self.path = path or default_weights_path()
        self.replications = replications
        self.seed = seed
        self._memo: dict[int, WeightPair] = {}

    def get(self, n: int) -> WeightPair:
        if n in self._memo:
            return self._memo[n]
        key = (n, self.replications, self.seed)
        records = read_weight_table(self.path)
        if key in records:
            pair = records[key]
        else:
            pair = seeded_weight_medians(n, self.replications, self.seed)
            records[key] = pair
            try:
                write_weight_table(self.path, records)
            except OSError:
                pass
        self._memo[n] = pair
        return pair
