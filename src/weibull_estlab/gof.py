"""Kolmogorov-Smirnov and Cramer-von Mises distances against a fitted model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SortedSample, WeibullParams, cdf

__all__ = ["GofReport", "ks_distance", "cvm_distance", "gof_report"]


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


def _ks(f: np.ndarray) -> float:
    n = f.size
    i = np.arange(1, n + 1, dtype=float)
    return float(np.max(np.maximum(i / n - f, f - (i - 1) / n)))


def _cvm(f: np.ndarray) -> float:
    n = f.size
    i = np.arange(1, n + 1, dtype=float)
    return float(1.0 / (12 * n) + np.sum(((2 * i - 1) / (2 * n) - f) ** 2))


def ks_distance(data, p: WeibullParams) -> float:
    """sup-norm distance: max over i of max{i/n - F(x_(i)), F(x_(i)) - (i-1)/n}."""
    return _ks(cdf(p, _ordered_values(data)))


def cvm_distance(data, p: WeibullParams) -> float:
    """Integrated-square distance: 1/(12n) + sum_i [(2i-1)/(2n) - F(x_(i))]^2.

    Bounded below by 1/(12n), attained exactly when F(x_(i)) = (2i-1)/(2n).
    """
    return _cvm(cdf(p, _ordered_values(data)))


def gof_report(data, p: WeibullParams) -> GofReport:
    """Both distances from one evaluation of the model cdf at the ordered data."""
    f = cdf(p, _ordered_values(data))
    return GofReport(ks=_ks(f), cvm=_cvm(f), n=int(f.size))
