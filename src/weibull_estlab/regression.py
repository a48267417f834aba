"""Probability-plot regression estimators: GLS type 1, GLS type 2 and WLS.

Ordered observations satisfy the regression

    log x_(i) = log scale + (1/shape) * t_i,    t_i = log(-log(1 - F_i)),

with F_i an empirical plotting position. The responses are correlated, so
the generalized fit weights by the inverse of the order-statistic covariance
surrogate

    v_ij = [i / (n+1-i)] * d_i * d_j,   d_k = 1 / (log(n+1-k) - log(n+1)),

for i <= j (all entries positive: both log differences are negative). The
systems are solved through a Cholesky factorization of V, never by forming
the inverse; the factorization is cached per n.

The type-1 fit replaces the plug-in column t_i with its second-order mean
approximation

    z_i = t_i + F_i (1 - F_i) / (n + 2) * h''(F_i),
    h(u) = log(-log(1 - u)),

which removes most of the small-sample bias of the plug-in column. The
type-2 fit instruments the plug-in design [1, t_i] with [1, z_i], and WLS
fits the plug-in design with the diagonal of V only.

The designs depend on n and the plotting rule alone, so each fit reduces to
a product of the R x n matrix of sorted logs with cached V^-1-transformed
design columns and one 2 x 2 solve shared by every row of the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .core import BatchFit, EstimateResult, SortedSample, fail_rows, fit_one, row_dot
from .errors import DegenerateSampleError, SingularSystemError

__all__ = [
    "PLOTTING_RULES",
    "DEFAULT_RULE",
    "PlottingPositions",
    "GlsSystem",
    "build_positions",
    "build_v",
    "v_diagonal",
    "plot_transform",
    "mean_corrected_transform",
    "build_system",
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


@dataclass(frozen=True)
class GlsSystem:
    """Assembled regression system for one sample and plotting rule."""

    design_x: np.ndarray   # [1, t_i]
    design_z: np.ndarray   # [1, z_i] mean-corrected column
    response_y: np.ndarray
    cov_v: np.ndarray
    weights_w: np.ndarray  # diag of cov_v


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


def build_v(n: int) -> np.ndarray:
    """Covariance surrogate V; symmetric with every entry positive."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    i = np.arange(1, n + 1, dtype=float)
    ratio = i / (n + 1 - i)
    d = _log_ratio_terms(n)
    # ratio is increasing, so the i<=j entry ratio[min(i,j)] is minimum.outer
    return np.minimum.outer(ratio, ratio) * np.outer(d, d)


def v_diagonal(n: int) -> np.ndarray:
    i = np.arange(1, n + 1, dtype=float)
    return i / (n + 1 - i) * _log_ratio_terms(n) ** 2


@lru_cache(maxsize=4)
def _cholesky_v(n: int):
    try:
        return cho_factor(build_v(n), lower=True)
    except LinAlgError as exc:
        raise SingularSystemError(f"covariance surrogate for n={n} is not positive definite: {exc}")


@dataclass(frozen=True)
class _GlsOperator:
    """Per-(n, rule) precomputation: designs, V^-1 @ columns and 2x2 blocks.

    The designs are data-independent, so repeated fits at one sample size
    (the simulation lab's hot path) reduce to O(n) dot products against the
    cached transformed columns; the Cholesky factorization happens once
    per n.
    """

    design_x: np.ndarray
    design_z: np.ndarray
    vi_x: np.ndarray
    vi_z: np.ndarray
    wi_x: np.ndarray   # W^-1 @ design_x, W = diag(V)
    lhs_zz: np.ndarray
    lhs_zx: np.ndarray
    lhs_wls: np.ndarray


@lru_cache(maxsize=8)
def _gls_operator(n: int, rule: str) -> _GlsOperator:
    p = build_positions(n, rule).values
    ones = np.ones(n)
    x = np.column_stack([ones, plot_transform(p)])
    z = np.column_stack([ones, mean_corrected_transform(p, n)])
    factor = _cholesky_v(n)
    vi_x = cho_solve(factor, x)
    vi_z = cho_solve(factor, z)
    wi_x = x / v_diagonal(n)[:, None]
    return _GlsOperator(
        design_x=x,
        design_z=z,
        vi_x=vi_x,
        vi_z=vi_z,
        wi_x=wi_x,
        lhs_zz=z.T @ vi_z,
        lhs_zx=z.T @ vi_x,
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


def build_system(s: SortedSample, positions: PlottingPositions | None = None) -> GlsSystem:
    pos = positions or build_positions(s.n)
    if pos.n != s.n:
        raise ValueError(f"positions built for n={pos.n}, sample has n={s.n}")
    p = pos.values
    ones = np.ones(s.n)
    return GlsSystem(
        design_x=np.column_stack([ones, plot_transform(p)]),
        design_z=np.column_stack([ones, mean_corrected_transform(p, s.n)]),
        response_y=s.logs,
        cov_v=build_v(s.n),
        weights_w=v_diagonal(s.n),
    )


def _tie_notes(values: np.ndarray) -> dict[int, tuple[str, ...]]:
    tied = values[:, 1:] == values[:, :-1]
    if not np.count_nonzero(tied):
        return {}
    ties = tied.sum(axis=1)
    return {int(r): (f"{ties[r]} tied adjacent pair{'s' if ties[r] > 1 else ''} in the data",)
            for r in ties.nonzero()[0]}


def _operator(n: int, positions: PlottingPositions | None) -> _GlsOperator:
    if positions is None:
        return _gls_operator(n, DEFAULT_RULE)
    if positions.n != n:
        raise ValueError(f"positions built for n={positions.n}, sample has n={n}")
    # the fit uses the cached rule-derived columns, so reject hand-rolled vectors
    built = build_positions(n, positions.rule)
    if positions is not built and not np.array_equal(positions.values, built.values):
        raise ValueError("positions do not match their declared rule; use build_positions")
    return _gls_operator(n, positions.rule)


def _solve_rows(method: str, values: np.ndarray, logs: np.ndarray, lhs: np.ndarray,
                columns: np.ndarray, what: str) -> BatchFit:
    """Solve lhs b = columns' y for every row y of ``logs`` and back-transform
    (shape, scale) = (1/b[1], exp(b[0])); lhs is shared by all rows."""
    rhs = row_dot(logs, columns)  # R x 2
    errors: dict = {}
    try:
        b = np.linalg.solve(lhs, rhs.T).T
    except np.linalg.LinAlgError as exc:
        b = np.full_like(rhs, np.nan)
        fail_rows(errors, np.ones(len(b), dtype=bool),
                  lambda r: SingularSystemError(f"{what}: {exc}"))
    fail_rows(errors, ~np.isfinite(b[:, 0] + b[:, 1]), lambda r: SingularSystemError(
        f"{what}: non-finite solution {b[r]!r}"))
    fail_rows(errors, logs[:, 0] == logs[:, -1], lambda r: DegenerateSampleError(
        "all observations equal; the fitted slope is zero"))
    fail_rows(errors, ~(b[:, 1] > 0.0), lambda r: DegenerateSampleError(
        f"fitted slope {b[r, 1]!r} is not positive; shape undefined"))
    residual = np.maximum.reduce(np.abs(b @ lhs.T - rhs), axis=1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return BatchFit.build(method, 1.0 / b[:, 1], np.exp(b[:, 0]), errors,
                              residual=residual, notes=_tie_notes(values))


def fit_gls1_batch(values: np.ndarray, logs: np.ndarray,
                   positions: PlottingPositions | None = None) -> BatchFit:
    """Type-1 generalized least squares on every row: (Z' V^-1 Z) b = Z' V^-1 y
    with the mean-corrected design Z = [1, z_i]."""
    op = _operator(logs.shape[1], positions)
    return _solve_rows("GLS1", values, logs, op.lhs_zz, op.vi_z, "GLS1 normal equations")


def fit_gls2_batch(values: np.ndarray, logs: np.ndarray,
                   positions: PlottingPositions | None = None) -> BatchFit:
    """Type-2 (instrumented) fit on every row: (Z' V^-1 X) b = Z' V^-1 y."""
    op = _operator(logs.shape[1], positions)
    return _solve_rows("GLS2", values, logs, op.lhs_zx, op.vi_z, "GLS2 instrument equations")


def fit_wls_batch(values: np.ndarray, logs: np.ndarray,
                  positions: PlottingPositions | None = None) -> BatchFit:
    """Weighted least squares with the diagonal of V on every row:
    (X' W^-1 X) b = X' W^-1 y."""
    op = _operator(logs.shape[1], positions)
    return _solve_rows("WLS", values, logs, op.lhs_wls, op.wi_x, "WLS normal equations")


def fit_gls1(s: SortedSample, positions: PlottingPositions | None = None) -> EstimateResult:
    """Type-1 generalized least squares on one sample (see :func:`fit_gls1_batch`)."""
    return fit_one(fit_gls1_batch, s, positions)


def fit_gls2(s: SortedSample, positions: PlottingPositions | None = None) -> EstimateResult:
    """Type-2 (instrumented) fit on one sample (see :func:`fit_gls2_batch`)."""
    return fit_one(fit_gls2_batch, s, positions)


def fit_wls(s: SortedSample, positions: PlottingPositions | None = None) -> EstimateResult:
    """Weighted least squares on one sample (see :func:`fit_wls_batch`)."""
    return fit_one(fit_wls_batch, s, positions)
