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

so the estimates cost O(n log n) including the sort, and a batch of R
samples reduces to one product with the per-n min-weight vector. The
quadratic double-loop path is kept as an independent cross-check.
"""

from __future__ import annotations

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
    fit_one,
    row_dot,
)
from .errors import DegenerateSampleError

__all__ = [
    "KernelPairValue",
    "UStatEstimate",
    "kernel_h1",
    "kernel_h2",
    "kernel_pair",
    "pair_means_sorted",
    "pair_means_naive",
    "estimate_u",
    "fit_ustat",
    "fit_ustat_batch",
]


@dataclass(frozen=True)
class KernelPairValue:
    """Both kernel values for one unordered pair."""

    h1: float
    h2: float


@dataclass(frozen=True)
class UStatEstimate:
    """Pair-averaged kernel means and the plug-in parameter estimates.

    alpha_hat = 1 / u_alpha and beta_hat = exp(u_logbeta).
    """

    u_alpha: float
    u_logbeta: float
    alpha_hat: float
    beta_hat: float


def _check_pair(x1: float, x2: float):
    if not (x1 > 0.0 and x2 > 0.0 and math.isfinite(x1) and math.isfinite(x2)):
        raise ValueError(f"kernel arguments must be positive finite reals, got ({x1!r}, {x2!r})")


def kernel_h1(x1: float, x2: float) -> float:
    """Kernel whose expectation is 1/shape; symmetric and >= 0."""
    _check_pair(x1, x2)
    l1, l2 = math.log(x1), math.log(x2)
    return (l1 + l2) / (2.0 * LOG_TWO) - min(l1, l2) / LOG_TWO


def kernel_h2(x1: float, x2: float) -> float:
    """Kernel whose expectation is log scale.

    Equals (log x1 + log x2)/2 - psi(1) * kernel_h1(x1, x2).
    """
    _check_pair(x1, x2)
    l1, l2 = math.log(x1), math.log(x2)
    h1 = (l1 + l2) / (2.0 * LOG_TWO) - min(l1, l2) / LOG_TWO
    return (l1 + l2) / 2.0 - PSI_ONE * h1


def kernel_pair(x1: float, x2: float) -> KernelPairValue:
    return KernelPairValue(kernel_h1(x1, x2), kernel_h2(x1, x2))


def _pair_means_rows(logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair averages of (H1, H2) for every row of an R x n matrix of sorted logs."""
    n = logs.shape[1]
    npairs = n * (n - 1) / 2.0
    total = logs.sum(axis=1)
    # ascending order: logs[:, i] is the pair minimum for the n-1-i later points
    weighted_min = row_dot(logs, np.arange(n - 1, -1, -1, dtype=float))
    u_alpha = ((n - 1) / 2.0 * total - weighted_min) / (npairs * LOG_TWO)
    u_logbeta = total / n - PSI_ONE * u_alpha
    return u_alpha, u_logbeta


def pair_means_sorted(s: SortedSample) -> tuple[float, float]:
    """Pair averages of (H1, H2) via the sorted-data single-pass identities."""
    u_alpha, u_logbeta = _pair_means_rows(s.logs[None, :])
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


def estimate_u(s: SortedSample, path: str = "sorted") -> UStatEstimate:
    """Estimate both parameters from the pairwise kernel averages.

    Parameters
    ----------
    s : SortedSample
    path : {"sorted", "naive"}
        "sorted" is the O(n log n) production path; "naive" the O(n^2)
        double loop. Both agree to floating rounding.

    Raises
    ------
    DegenerateSampleError
        If all observations are equal (u_alpha = 0, so 1/u_alpha is
        undefined).
    """
    if s.logs[0] == s.logs[-1]:
        raise DegenerateSampleError("all observations equal; pairwise kernel average is zero")
    if path == "sorted":
        u_alpha, u_logbeta = pair_means_sorted(s)
    elif path == "naive":
        u_alpha, u_logbeta = pair_means_naive(s)
    else:
        raise ValueError(f"unknown path {path!r}")
    if u_alpha <= 0.0:
        raise DegenerateSampleError(f"nonpositive kernel average {u_alpha!r}")
    return UStatEstimate(
        u_alpha=u_alpha,
        u_logbeta=u_logbeta,
        alpha_hat=1.0 / u_alpha,
        beta_hat=math.exp(u_logbeta),
    )


def fit_ustat_batch(values: np.ndarray, logs: np.ndarray) -> BatchFit:
    """USTAT on every row of the R x n matrices of sorted values and logs."""
    u_alpha, u_logbeta = _pair_means_rows(logs)
    errors: dict = {}
    fail_rows(errors, logs[:, 0] == logs[:, -1], lambda r: DegenerateSampleError(
        "all observations equal; pairwise kernel average is zero"))
    fail_rows(errors, ~(u_alpha > 0.0), lambda r: DegenerateSampleError(
        f"nonpositive kernel average {u_alpha[r]!r}"))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return BatchFit.build("USTAT", 1.0 / u_alpha, np.exp(u_logbeta), errors)


def fit_ustat(s: SortedSample) -> EstimateResult:
    """USTAT on one sample: the batch of one."""
    return fit_one(fit_ustat_batch, s)
