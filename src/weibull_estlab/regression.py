"""Probability-plot regression estimators: GLS type 1, GLS type 2 and WLS.

Ordered observations satisfy the regression

    log x_(i) = log scale + (1/shape) * t_i,    t_i = log(-log(1 - F_i)),

with F_i an empirical plotting position. The responses are correlated, so
the generalized fit weights by the inverse of the order-statistic covariance
surrogate

    v_ij = d_i d_j min(r_i, r_j),   r_k = k / (n+1-k),
    d_k = 1 / (log(n+1-k) - log(n+1)).

With r increasing, min(r_i, r_j) is the covariance of a Brownian motion
observed at the times r_1 < ... < r_n (the Markov structure of exponential
order statistics), so V^-1 = D^-1 M^-1 D^-1 with M^-1 tridiagonal in closed
form: with u = c / d and steps r_k - r_(k-1) = (n+1) / ((n+1-k)(n+2-k)),

    (M^-1 u)_k = (u_k - u_(k-1)) / step_k - (u_(k+1) - u_k) / step_(k+1),

taking u_0 = 0 and dropping the second term at k = n. Applying V^-1 to a
design column is therefore O(n) time and memory; no n x n array is formed
(the dense matrix and an explicit-inverse solve survive only as the test
oracle).

The type-1 fit replaces the plug-in column t_i with its second-order mean
approximation

    z_i = t_i + F_i (1 - F_i) / (n + 2) * h''(F_i),
    h(u) = log(-log(1 - u)),

which removes most of the small-sample bias of the plug-in column. The
type-2 fit instruments the plug-in design [1, t_i] with [1, z_i], and WLS
fits the plug-in design with the diagonal of V only.

The designs depend on n and the plotting rule alone, so each fit reduces to
products of the R x n matrix of sorted logs with cached V^-1-transformed
design columns and one 2 x 2 solve shared by every row of the batch.

Every estimator reads a block of samples through one :class:`LogStats`,
which computes each statistic that several of them share once, on first
use: a single product of the logs with every cached column (these fits'
design columns, USTAT's pair-minimum weights and the default-rule GLS1 slope
that starts the likelihood fits), the row sums of the logs and the tie
notes. The wide product sums each column as a product with that column alone
would, so no fit depends on the others sharing it. It holds statistics only:
no work array of a fit lives in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import BatchFit, EstimateResult, SortedSample, fail_rows, row_dot
from .errors import DegenerateSampleError, SingularSystemError

__all__ = [
    "PLOTTING_RULES",
    "DEFAULT_RULE",
    "PlottingPositions",
    "build_positions",
    "LogStats",
    "v_diagonal",
    "plot_transform",
    "mean_corrected_transform",
    "fit_gls1",
    "fit_gls2",
    "fit_wls",
    "fit_gls1_batch",
    "fit_gls2_batch",
    "fit_wls_batch",
]

PLOTTING_RULES = ("i/(n+1)", "(i-0.3)/(n+0.4)")
DEFAULT_RULE = "i/(n+1)"


@dataclass(frozen=True)
class PlottingPositions:
    """Strictly increasing surrogate values for F at the order statistics."""

    rule: str
    values: np.ndarray

    @property
    def n(self) -> int:
        return int(self.values.size)


@lru_cache(maxsize=32)
def build_positions(n: int, rule: str = DEFAULT_RULE) -> PlottingPositions:
    """Plotting positions for sample size n under the chosen rule (read-only, cached)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    i = np.arange(1, n + 1, dtype=float)
    if rule == "i/(n+1)":
        values = i / (n + 1)
    elif rule == "(i-0.3)/(n+0.4)":
        values = (i - 0.3) / (n + 0.4)
    else:
        raise ValueError(f"unknown plotting rule {rule!r}; choose from {PLOTTING_RULES}")
    values.flags.writeable = False
    return PlottingPositions(rule=rule, values=values)


def _log_ratio_terms(n: int) -> np.ndarray:
    i = np.arange(1, n + 1, dtype=float)
    return 1.0 / (np.log(n + 1 - i) - math.log(n + 1))


def v_diagonal(n: int) -> np.ndarray:
    i = np.arange(1, n + 1, dtype=float)
    return i / (n + 1 - i) * _log_ratio_terms(n) ** 2


def _apply_precision(n: int, columns: np.ndarray) -> np.ndarray:
    """V^-1 @ columns from the closed-form tridiagonal precision (module docstring)."""
    k = np.arange(1, n + 1, dtype=float)
    d = _log_ratio_terms(n)[:, None]
    inv_step = ((n + 1 - k) * (n + 2 - k) / (n + 1))[:, None]
    flux = np.diff(columns / d, axis=0, prepend=0.0) * inv_step  # (u_k - u_(k-1)) / step_k
    flux[:-1] -= flux[1:]
    return flux / d


# the columns of LogStats.products: Z' V^-1 y, X' W^-1 y, USTAT's sum of
# (n - i) L_i and the default-rule GLS1 slope
_ZV, _XW, PAIR_MINIMA, GLS1_SLOPE = slice(0, 2), slice(2, 4), 4, 5


@dataclass(frozen=True)
class _GlsOperator:
    """Per-(n, rule) precomputation: the columns every sample of a block is
    multiplied with, and the 2x2 blocks.

    The designs are data-independent, so repeated fits at one sample size
    (the simulation lab's hot path) reduce to O(n) dot products against the
    cached columns; everything held here is O(n).
    """

    columns: np.ndarray  # n x 6, in the order of the column names above
    lhs_zz: np.ndarray
    lhs_zx: np.ndarray
    lhs_wls: np.ndarray


@lru_cache(maxsize=8)
def _gls_operator(n: int, rule: str) -> _GlsOperator:
    p = build_positions(n, rule).values
    ones = np.ones(n)
    x = np.column_stack([ones, plot_transform(p)])
    z = np.column_stack([ones, mean_corrected_transform(p, n)])
    # column-major: row_dot sums contiguous columns several times faster
    columns = np.empty((n, 6), order="F")
    vi_z, wi_x = columns[:, _ZV], columns[:, _XW]
    vi_z[:] = _apply_precision(n, z)  # V^-1 @ design_z
    wi_x[:] = x / v_diagonal(n)[:, None]  # W^-1 @ design_x, W = diag(V)
    columns[:, PAIR_MINIMA] = np.arange(n - 1, -1, -1)
    lhs_zz = vi_z.T @ z
    # the likelihood fits start from the default rule's GLS1 shape whatever the rule
    columns[:, GLS1_SLOPE] = (vi_z @ np.linalg.inv(lhs_zz)[1] if rule == DEFAULT_RULE
                              else _gls_operator(n, DEFAULT_RULE).columns[:, GLS1_SLOPE])
    return _GlsOperator(
        columns=columns,
        lhs_zz=lhs_zz,
        lhs_zx=vi_z.T @ x,   # Z' V^-1 X, V symmetric
        lhs_wls=wi_x.T @ x,
    )


def plot_transform(positions: np.ndarray) -> np.ndarray:
    """t = log(-log(1 - F)); strictly increasing in F."""
    return np.log(-np.log1p(-positions))


def _curvature(positions: np.ndarray) -> np.ndarray:
    """h''(F) for h(u) = log(-log(1 - u))."""
    log1mf = np.log1p(-positions)
    return (-log1mf - 1.0) / ((1.0 - positions) * log1mf) ** 2


def mean_corrected_transform(positions: np.ndarray, n: int) -> np.ndarray:
    """Second-order approximation to E[t(U_(i))]: t(F) + Var(U_(i)) h''(F)."""
    var_u = positions * (1.0 - positions) / (n + 2)
    return plot_transform(positions) + var_u * _curvature(positions)


def _rule(n: int, positions: PlottingPositions | None) -> str:
    """The rule of ``positions``, checked against n and the rule's own values."""
    if positions is None:
        return DEFAULT_RULE
    if positions.n != n:
        raise ValueError(f"positions built for n={positions.n}, sample has n={n}")
    # the fit uses the cached rule-derived columns, so reject hand-rolled vectors
    built = build_positions(n, positions.rule)
    if positions is not built and not np.array_equal(positions.values, built.values):
        raise ValueError("positions do not match their declared rule; use build_positions")
    return positions.rule


class _cached:
    """functools.cached_property without the lock it takes on first use
    before Python 3.12, which costs a single fit more than its statistic."""

    def __init__(self, compute):
        self.compute, self.__doc__ = compute, compute.__doc__

    def __get__(self, stats, owner):
        if stats is None:  # read from the class, as help() does
            return self
        value = stats.__dict__[self.compute.__name__] = self.compute(stats)
        return value


class LogStats:
    """The statistics of R sorted samples of one size that several estimators
    read, each computed once, on first use, for every row at once.

    ``values`` and ``logs`` are the R x n matrices of ascending values and
    their logs, and ``rule`` the plotting rule of the regression fits. Every
    statistic is rowwise, so a row's statistics do not depend on the other
    rows of the block, nor on which of them were asked for first.
    """

    def __init__(self, values: np.ndarray, logs: np.ndarray, rule: str = DEFAULT_RULE):
        self.values, self.logs, self.rule = values, logs, rule

    @classmethod
    def of(cls, s: SortedSample, positions: PlottingPositions | None = None) -> LogStats:
        """One sample as a block of one, under the rule of ``positions``."""
        return cls(s.values[None, :], s.logs[None, :], _rule(s.n, positions))

    @_cached
    def products(self) -> np.ndarray:
        """R x 6: each row of logs times every cached column (see ``_GlsOperator``)."""
        return row_dot(self.logs, _gls_operator(self.logs.shape[1], self.rule).columns)

    @_cached
    def totals(self) -> np.ndarray:
        """The row sums of the logs (pairwise summation)."""
        return self.logs.sum(axis=1)

    @_cached
    def ties(self) -> dict[int, tuple[str, ...]]:
        """A note for every row with tied adjacent values."""
        tied = self.values[:, 1:] == self.values[:, :-1]
        if not np.count_nonzero(tied):
            return {}
        ties = tied.sum(axis=1)
        return {int(r): (f"{ties[r]} tied adjacent pair{'s' if ties[r] > 1 else ''} in the data",)
                for r in ties.nonzero()[0]}


def _solve_rows(method: str, stats: LogStats, lhs: np.ndarray, columns: slice,
                what: str) -> BatchFit:
    """Solve lhs b = columns' y for every row y of the logs and back-transform
    (shape, scale) = (1/b[1], exp(b[0])); lhs is shared by all rows."""
    rhs = stats.products[:, columns]  # R x 2
    logs = stats.logs
    errors: dict = {}
    try:
        b = np.linalg.solve(lhs, rhs.T).T
    except np.linalg.LinAlgError as exc:
        b = np.full_like(rhs, np.nan)
        fail_rows(errors, np.ones(len(b), dtype=bool),
                  lambda r: SingularSystemError(f"{what}: {exc}"))
    fail_rows(errors, ~np.isfinite(b[:, 0] + b[:, 1]), lambda r: SingularSystemError(
        f"{what}: non-finite solution {b[r].tolist()}"))
    fail_rows(errors, logs[:, 0] == logs[:, -1], lambda r: DegenerateSampleError(
        "all observations equal; the fitted slope is zero"))
    fail_rows(errors, ~(b[:, 1] > 0.0), lambda r: DegenerateSampleError(
        f"fitted slope {float(b[r, 1])} is not positive; shape undefined"))
    residual = np.maximum.reduce(np.abs(b @ lhs.T - rhs), axis=1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return BatchFit.build(method, 1.0 / b[:, 1], np.exp(b[:, 0]), errors,
                              residual=residual, notes=stats.ties)


def _operator(stats: LogStats) -> _GlsOperator:
    return _gls_operator(stats.logs.shape[1], stats.rule)


def fit_gls1_batch(stats: LogStats) -> BatchFit:
    """Type-1 generalized least squares on every row: (Z' V^-1 Z) b = Z' V^-1 y
    with the mean-corrected design Z = [1, z_i]."""
    return _solve_rows("GLS1", stats, _operator(stats).lhs_zz, _ZV, "GLS1 normal equations")


def fit_gls2_batch(stats: LogStats) -> BatchFit:
    """Type-2 (instrumented) fit on every row: (Z' V^-1 X) b = Z' V^-1 y."""
    return _solve_rows("GLS2", stats, _operator(stats).lhs_zx, _ZV, "GLS2 instrument equations")


def fit_wls_batch(stats: LogStats) -> BatchFit:
    """Weighted least squares with the diagonal of V on every row:
    (X' W^-1 X) b = X' W^-1 y."""
    return _solve_rows("WLS", stats, _operator(stats).lhs_wls, _XW, "WLS normal equations")


def fit_gls1(s: SortedSample, positions: PlottingPositions | None = None) -> EstimateResult:
    """Type-1 generalized least squares on one sample (see :func:`fit_gls1_batch`)."""
    return fit_gls1_batch(LogStats.of(s, positions)).result()


def fit_gls2(s: SortedSample, positions: PlottingPositions | None = None) -> EstimateResult:
    """Type-2 (instrumented) fit on one sample (see :func:`fit_gls2_batch`)."""
    return fit_gls2_batch(LogStats.of(s, positions)).result()


def fit_wls(s: SortedSample, positions: PlottingPositions | None = None) -> EstimateResult:
    """Weighted least squares on one sample (see :func:`fit_wls_batch`)."""
    return fit_wls_batch(LogStats.of(s, positions)).result()
