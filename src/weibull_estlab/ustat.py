"""Pairwise-kernel (U-statistic) estimators of 1/shape and log scale.

The two symmetric kernels come from the distributional identity
min(X1, X2) =d 2^(-1/shape) * X1 for iid Weibull pairs:

    H1(x1, x2) = (log x1 + log x2) / (2 log 2) - log min(x1, x2) / log 2
    H2(x1, x2) = (log x1 + log x2) / 2 - psi(1) * H1(x1, x2)

with E[H1] = 1/shape and E[H2] = log scale. Averaging a kernel over all
C(n, 2) unordered pairs gives the estimator. On sorted logs L_1 <= ... <= L_n
the pair sums collapse to single passes:

    sum_{i<j} (L_i + L_j) = (n - 1) * sum_i L_i
    sum_{i<j} min(L_i, L_j) = sum_i (n - i) * L_i     (1-based i)

so the estimates cost O(n log n) including the sort. A batch of R samples
reads the row sums of its logs and their product with the per-n
min-weight vector from the block's shared statistics
(:class:`regression.LogStats`). The quadratic double-loop path is kept as an
independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LOG_TWO, PSI_ONE, BatchFit, EstimateResult, SortedSample, check_observations, fail_rows
from .errors import DegenerateSampleError
from .regression import PAIR_MINIMA, LogStats

__all__ = [
    "UStatEstimate",
    "kernel_h1",
    "kernel_h2",
    "pair_means_sorted",
    "pair_means_naive",
    "estimate_u",
    "fit_ustat",
    "fit_ustat_batch",
]


@dataclass(frozen=True)
class UStatEstimate:
    """Pair-averaged kernel means and the plug-in parameter estimates.

    alpha_hat = 1 / u_alpha and beta_hat = exp(u_logbeta).
    """

    u_alpha: float
    u_logbeta: float
    alpha_hat: float
    beta_hat: float


def kernel_h1(x1: float, x2: float) -> float:
    """Kernel whose expectation is 1/shape; symmetric and >= 0. Raises
    DataError, naming the argument, unless both are positive finite reals."""
    check_observations((x1, x2))
    l1, l2 = math.log(x1), math.log(x2)
    return (l1 + l2) / (2.0 * LOG_TWO) - min(l1, l2) / LOG_TWO


def kernel_h2(x1: float, x2: float) -> float:
    """Kernel whose expectation is log scale, checked as :func:`kernel_h1` checks:
    (log x1 + log x2)/2 - psi(1) * kernel_h1(x1, x2)."""
    h1 = kernel_h1(x1, x2)  # first: it checks the arguments that math.log reads
    return (math.log(x1) + math.log(x2)) / 2.0 - PSI_ONE * h1


def _pair_means_rows(stats: LogStats) -> tuple[np.ndarray, np.ndarray]:
    """Pair averages of (H1, H2) for every row of a block of sorted logs."""
    n = stats.logs.shape[1]
    npairs = n * (n - 1) / 2.0
    total = stats.totals
    # ascending order: logs[:, i] is the pair minimum for the n-1-i later points
    weighted_min = stats.products[:, PAIR_MINIMA]
    u_alpha = ((n - 1) / 2.0 * total - weighted_min) / (npairs * LOG_TWO)
    u_logbeta = total / n - PSI_ONE * u_alpha
    return u_alpha, u_logbeta


def pair_means_sorted(s: SortedSample) -> tuple[float, float]:
    """Pair averages of (H1, H2) via the sorted-data single-pass identities."""
    u_alpha, u_logbeta = _pair_means_rows(LogStats.of(s))
    return float(u_alpha[0]), float(u_logbeta[0])


def pair_means_naive(s: SortedSample) -> tuple[float, float]:
    """O(n^2) double loop over all unordered pairs; cross-check path."""
    logs = s.logs
    n = s.n
    sum_h1 = 0.0
    sum_h2 = 0.0
    for i in range(n - 1):
        li = logs[i]
        for j in range(i + 1, n):
            lj = logs[j]
            h1 = (li + lj) / (2.0 * LOG_TWO) - min(li, lj) / LOG_TWO
            sum_h1 += h1
            sum_h2 += (li + lj) / 2.0 - PSI_ONE * h1
    npairs = n * (n - 1) / 2.0
    return sum_h1 / npairs, sum_h2 / npairs


def estimate_u(s: SortedSample) -> UStatEstimate:
    """Both kernel averages and the plug-in estimates on one sample.

    The estimates are USTAT's batch of one, so its checks apply: a sample
    whose observations are all equal (u_alpha = 0, so 1/u_alpha is
    undefined) raises DegenerateSampleError.
    """
    stats = LogStats.of(s)
    fit = fit_ustat_batch(stats).result()
    u_alpha, u_logbeta = _pair_means_rows(stats)
    return UStatEstimate(u_alpha=float(u_alpha[0]), u_logbeta=float(u_logbeta[0]),
                         alpha_hat=fit.shape, beta_hat=fit.scale)


def fit_ustat_batch(stats: LogStats) -> BatchFit:
    """USTAT on every row of a block of sorted samples."""
    u_alpha, u_logbeta = _pair_means_rows(stats)
    logs = stats.logs
    errors: dict = {}
    fail_rows(errors, logs[:, 0] == logs[:, -1], lambda r: DegenerateSampleError(
        "all observations equal; pairwise kernel average is zero"))
    fail_rows(errors, ~(u_alpha > 0.0), lambda r: DegenerateSampleError(
        f"nonpositive kernel average {float(u_alpha[r])}"))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return BatchFit.build("USTAT", 1.0 / u_alpha, np.exp(u_logbeta), errors)


def fit_ustat(s: SortedSample) -> EstimateResult:
    """USTAT on one sample: the batch of one."""
    return fit_ustat_batch(LogStats.of(s)).result()
