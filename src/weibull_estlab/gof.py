"""Kolmogorov-Smirnov and Cramer-von Mises distances against fitted models.

One implementation serves every caller: :func:`gof_reports` scores R
(shape, scale) pairs against one dataset from one R x n matrix of model cdf
values, and :func:`gof_report`, :func:`ks_distance` and :func:`cvm_distance`
are its batch of one. Every element goes through the same numpy operations
wherever its row sits, so a row's distances keep their bits alone, in any
order and in any company.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import SortedSample, WeibullParams, check_positive

__all__ = ["GofReport", "ks_distance", "cvm_distance", "gof_report", "gof_reports"]


@dataclass(frozen=True)
class GofReport:
    """Both distances for one fitted model on one dataset."""

    ks: float
    cvm: float
    n: int


def _ordered_values(data) -> np.ndarray:
    if isinstance(data, SortedSample):
        return data.values
    values = np.sort(np.asarray(data, dtype=float).reshape(-1))
    if values.size == 0:
        raise ValueError("need at least one observation")
    return values


def gof_reports(data, params: Sequence[WeibullParams]) -> list[GofReport]:
    """Both distances of each model in ``params`` on one dataset, in order.

    Row r of the cdf matrix is F_r(x_(i)) = 1 - exp{-(x_(i)/scale_r)^shape_r},
    as :func:`weibull_estlab.cdf` computes it. Observations must be positive
    and finite, else ``ValueError``.
    """
    x = check_positive(_ordered_values(data))
    n = x.size
    f = x / np.array([p.scale for p in params], dtype=float).reshape(-1, 1)
    # one scalar exponent per row, as a lone cdf call raises it: numpy squares
    # at exactly 2 and takes the root at 0.5 only for a scalar exponent
    for row, p in zip(f, params):
        row **= p.shape
    f = -np.expm1(-f)
    i = np.arange(1, n + 1, dtype=float)
    ks = np.max(np.maximum(i / n - f, f - (i - 1) / n), axis=1)
    cvm = 1.0 / (12 * n) + np.sum(((2 * i - 1) / (2 * n) - f) ** 2, axis=1)
    return [GofReport(ks=k, cvm=c, n=n) for k, c in zip(ks.tolist(), cvm.tolist())]


def gof_report(data, p: WeibullParams) -> GofReport:
    """Both distances from one evaluation of the model cdf at the ordered data."""
    return gof_reports(data, [p])[0]


def ks_distance(data, p: WeibullParams) -> float:
    """sup-norm distance: max over i of max{i/n - F(x_(i)), F(x_(i)) - (i-1)/n}."""
    return gof_report(data, p).ks


def cvm_distance(data, p: WeibullParams) -> float:
    """Integrated-square distance: 1/(12n) + sum_i [(2i-1)/(2n) - F(x_(i))]^2.

    Bounded below by 1/(12n), attained exactly when F(x_(i)) = (2i-1)/(2n).
    """
    return gof_report(data, p).cvm
