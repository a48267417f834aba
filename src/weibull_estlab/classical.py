"""Closed-form and single-root classical estimators: LM, MLM, PM and MM."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    LOG_TWO,
    PSI_ONE,
    BatchFit,
    EstimateResult,
    SortedSample,
    fail_rows,
    row_dot,
    row_var,
    scratch,
)
from .errors import DegenerateSampleError, InvalidRatioError
from .gammafn import gamma, loggamma, loggamma_digamma
from .regression import LogStats
from .roots import solve_rows

__all__ = [
    "LMomentSummary",
    "PercentileConfig",
    "QUANTILE_RULES",
    "sample_lmoments",
    "fit_lm",
    "fit_mlm",
    "fit_pm",
    "fit_mm",
    "fit_lm_batch",
    "fit_mlm_batch",
    "fit_pm_batch",
    "fit_mm_batch",
]

# numpy.quantile interpolation conventions exposed for the percentile method
QUANTILE_RULES = ("median_unbiased", "linear", "weibull", "hazen", "normal_unbiased")

# (alpha, beta) of the continuous sample quantiles of Hyndman & Fan, "Sample
# quantiles in statistical packages", Am. Stat. 50 (1996), for the rules other
# than "linear" (their type 7, alpha = beta = 1)
_PLOTTING_CONSTANTS = {
    "weibull": (0.0, 0.0),
    "hazen": (0.5, 0.5),
    "median_unbiased": (1.0 / 3.0, 1.0 / 3.0),
    "normal_unbiased": (3.0 / 8.0, 3.0 / 8.0),
}

_ANCHOR_P = 1.0 - math.exp(-1.0)  # the scale parameter is this percentile


@dataclass(frozen=True)
class LMomentSummary:
    """First two sample L-moments (data units)."""

    m1: float
    m2: float


@dataclass(frozen=True)
class PercentileConfig:
    """Free percentile and empirical-quantile convention for the PM fit.

    ``p`` must lie in (0, 1 - e^-1): the upper anchor percentile is fixed at
    1 - e^-1 ~ 0.632, where the quantile equals the scale parameter.
    """

    p: float = 0.31
    quantile_rule: str = "median_unbiased"

    def __post_init__(self):
        if not 0.0 < self.p < _ANCHOR_P:
            raise ValueError(f"p must lie in (0, {_ANCHOR_P:.4f}), got {self.p}")
        if self.quantile_rule not in QUANTILE_RULES:
            raise ValueError(f"unknown quantile rule {self.quantile_rule!r}; choose from {QUANTILE_RULES}")


def _lmoment_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """m1 and m2 of every ascending row times 2^-e, and e, the exponent that
    brings the row's maximum into [0.5, 1): no sum overflows, and since a
    power of two scales exactly, m * 2^e are the moments of the row itself."""
    n = values.shape[1]
    e = np.frexp(values[:, -1])[1]
    scaled = np.ldexp(values, -e[:, None], out=scratch("core.rows", values.shape))
    m1 = scaled.sum(axis=1) / n
    ranks = np.arange(n, dtype=float)  # (i - 1) for 1-based i
    m2 = 2.0 / (n * (n - 1)) * row_dot(scaled, ranks) - m1
    return m1, m2, e


def sample_lmoments(s: SortedSample) -> LMomentSummary:
    """First two sample L-moments from the ordered data.

    m1 is the mean; m2 = [2/(n(n-1))] sum_i (i-1) x_(i) - m1 with 1-based
    ascending ranks, equal to half the mean absolute pairwise difference.
    """
    m1, m2, e = _lmoment_rows(s.values[None, :])
    return LMomentSummary(m1=float(np.ldexp(m1[0], e[0])), m2=float(np.ldexp(m2[0], e[0])))


def fit_lm_batch(stats: LogStats) -> BatchFit:
    """L-moment estimator on every row of a block of sorted samples.

    shape = -log 2 / log(1 - m2/m1), scale = m1 / Gamma(1/shape + 1).
    """
    values = stats.values
    m1, m2, e = _lmoment_rows(values)
    errors: dict = {}
    constant = (values[:, 0] == values[:, -1]) | (m2 == 0.0)
    fail_rows(errors, constant, lambda r: DegenerateSampleError(
        "second sample L-moment is zero (all observations equal)"))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = m2 / m1
        fail_rows(errors, ~((ratio > 0.0) & (ratio < 1.0)), lambda r: InvalidRatioError(
            f"m2/m1 = {float(ratio[r])} outside (0, 1); cannot invert the L-moment equation"))
        shape = -LOG_TWO / np.log1p(-ratio)
        scale = np.ldexp(m1 / gamma(1.0 / shape + 1.0), e)
    return BatchFit.build("LM", shape, scale, errors)


def fit_lm(s: SortedSample) -> EstimateResult:
    """L-moment estimator on one sample (see :func:`fit_lm_batch`)."""
    return fit_lm_batch(LogStats.of(s)).result()


def fit_mlm_batch(stats: LogStats) -> BatchFit:
    """Logarithmic-moment estimator on every row of a block of sorted samples.

    shape = sqrt(pi^2 / (6 S^2)) with the n-1 divisor for S^2;
    scale = exp(M1 - psi(1)/shape).
    """
    logs = stats.logs
    mean_log = stats.totals / logs.shape[1]
    var_log = row_var(logs, mean_log)
    errors: dict = {}
    constant = (logs[:, 0] == logs[:, -1]) | (var_log == 0.0)
    fail_rows(errors, constant, lambda r: DegenerateSampleError(
        "log-variance is zero (all observations equal)"))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        shape = np.sqrt(math.pi ** 2 / (6.0 * var_log))
        scale = np.exp(mean_log - PSI_ONE / shape)
    return BatchFit.build("MLM", shape, scale, errors)


def fit_mlm(s: SortedSample) -> EstimateResult:
    """Logarithmic-moment estimator on one sample (see :func:`fit_mlm_batch`)."""
    return fit_mlm_batch(LogStats.of(s)).result()


def _sorted_quantile(values: np.ndarray, p: float, rule: str) -> np.ndarray:
    """The p-quantile of every row of ascending ``values`` under ``rule``, bit for
    bit as ``np.quantile(values, p, axis=1, method=rule)``.

    The quantile lies at the virtual 0-based index n p + (alpha + p (1 - alpha
    - beta)) - 1, or (n - 1) p for "linear", evaluated in numpy's order (an
    algebraically equal form such as (n + 1) p - 1 for "weibull" can round
    across an integer). Below 0 it is the first column, from n - 1 up the
    last; in between it is numpy's two-sided lerp of the two columns around
    the index.
    """
    n = values.shape[1]
    # the ends are copied: a result can become a BatchFit's scale, and values
    # can be a reused work buffer
    if rule == "linear":
        index = (n - 1) * p
    else:
        alpha, beta = _PLOTTING_CONSTANTS[rule]
        index = n * p + (alpha + p * (1.0 - alpha - beta)) - 1.0
    if index < 0.0:
        return values[:, 0].copy()
    if index >= n - 1:
        return values[:, -1].copy()
    j = math.floor(index)
    t = index - j
    below, above = values[:, j], values[:, j + 1]
    step = above - below
    return below + step * t if t < 0.5 else above - step * (1.0 - t)


def fit_pm_batch(stats: LogStats, cfg: PercentileConfig | None = None) -> BatchFit:
    """Percentile estimator at the configured lower percentile, on every row.

    scale = empirical quantile at 1 - e^-1;
    shape = log(-log(1 - p)) / (log x_p - log x_0.632), with both quantiles
    read off the ascending rows by :func:`_sorted_quantile`.
    """
    cfg = cfg or PercentileConfig()
    x_p = _sorted_quantile(stats.values, cfg.p, cfg.quantile_rule)
    x_anchor = _sorted_quantile(stats.values, _ANCHOR_P, cfg.quantile_rule)
    errors: dict = {}
    fail_rows(errors, x_p == x_anchor, lambda r: DegenerateSampleError(
        f"empirical quantiles at p={cfg.p} and {_ANCHOR_P:.4f} coincide ({float(x_p[r])})"))
    with np.errstate(divide="ignore", invalid="ignore"):
        shape = math.log(-math.log1p(-cfg.p)) / (np.log(x_p) - np.log(x_anchor))
    return BatchFit.build("PM", shape, x_anchor, errors)


def fit_pm(s: SortedSample, cfg: PercentileConfig | None = None) -> EstimateResult:
    """Percentile estimator on one sample (see :func:`fit_pm_batch`)."""
    return fit_pm_batch(LogStats.of(s), cfg).result()


_ONE_TWO = np.array([[1.0], [2.0]])
# shapes of the MM start table, geometrically spaced: between its ends, linear
# interpolation in it inverts the MM equation to within 3e-6, from below
_MM_TABLE_SHAPES = (0.01, 1000.0, 1001)
# the start is raised past that, so it lies above the root, and Newton's first
# step lands below it: the two iterates vouch for both ends of the bracket
_MM_START_RAISE = 1.0 + 1e-5


def _mm_log_ratio(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(Gamma(1 + 2/a) / Gamma(1 + 1/a)^2) and its derivative in a, from
    one log-gamma/digamma call on 1 + 1/a and 1 + 2/a stacked."""
    u = _ONE_TWO / a
    lg, psi = loggamma_digamma(1.0 + u)
    return lg[1] - 2.0 * lg[0], u[0] * u[1] * (psi[0] - psi[1])


@functools.cache
def _mm_start_table() -> tuple[np.ndarray, np.ndarray]:
    """log g(a) (increasing) and log a on the table's shapes, g being the left
    side of the MM equation; built once per process."""
    a = np.geomspace(*_MM_TABLE_SHAPES)[::-1]
    g = loggamma(1.0 + 2.0 / a) - 2.0 * loggamma(1.0 + 1.0 / a)
    table = np.log(g), np.log(a)
    for column in table:  # shared by every caller
        column.flags.writeable = False
    return table


def fit_mm_batch(stats: LogStats) -> BatchFit:
    """Method-of-moments estimator on every row of a block of sorted samples.

    The shape solves log(Gamma(1 + 2/a) / Gamma(1 + 1/a)^2) = log(1 + S^2 / Xbar^2)
    (a strictly decreasing left side, so the root is unique) by safeguarded
    Newton; the scale is Xbar / Gamma(1/shape + 1). Newton starts just
    above the root, from the equation inverted by interpolation in a table
    of its left side, and the root solver's seed bracket follows that
    start, so a row settles after two steps with no bracket end scored. The
    moments are taken of the data over its maximum, so large values cannot
    overflow.
    """
    values = stats.values
    top = values[:, -1]
    unit = values / top[:, None]
    xbar = unit.sum(axis=1) / values.shape[1]
    s2 = row_var(unit, xbar)
    errors: dict = {}
    constant = (values[:, 0] == top) | (s2 == 0.0)
    fail_rows(errors, constant, lambda r: DegenerateSampleError(
        "sample variance is zero (all observations equal)"))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cv2 = s2 / xbar ** 2
        log_target = np.log1p(cv2)
        start = np.exp(np.interp(np.log(log_target), *_mm_start_table())) * _MM_START_RAISE

    def score(a, rows):
        g, dg = _mm_log_ratio(a)
        return g - log_target[rows], dg

    shape, diagnostics = solve_rows(score, start, errors)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scale = top * xbar / gamma(1.0 / shape + 1.0)
    return BatchFit.build("MM", shape, scale, errors, **diagnostics)


def fit_mm(s: SortedSample) -> EstimateResult:
    """Method-of-moments estimator on one sample (see :func:`fit_mm_batch`)."""
    return fit_mm_batch(LogStats.of(s)).result()
