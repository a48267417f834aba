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

from .core import SortedSample, WeibullParams, cdf_rows, check_observations

__all__ = ["GofReport", "ks_distance", "cvm_distance", "gof_report", "gof_reports"]


@dataclass(frozen=True)
class GofReport:
    """Both distances for one fitted model on one dataset."""

    ks: float
    cvm: float
    n: int


def gof_reports(data, params: Sequence[WeibullParams]) -> list[GofReport]:
    """Both distances of each model in ``params`` on one dataset, in order.

    Row r of the cdf matrix (:func:`core.cdf_rows`) is F_r at the ordered
    observations. Observations must be positive and finite, else
    ``DataError`` naming the first that is not.
    """
    if isinstance(data, SortedSample):
        x = check_observations(data.values)
    else:  # checked unsorted, so that an error names the caller's position
        x = np.sort(check_observations(data).reshape(-1))
    n = x.size
    if n == 0:
        raise ValueError("need at least one observation")
    f = cdf_rows(params, x)
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
