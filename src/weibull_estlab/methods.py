"""Uniform dispatch over the ten estimators, shared by the lab and the CLI.

Every method is registered as a batch function that fits the rows of R x n
matrices of sorted values and logs at once; a single fit is the batch of
one. Methods added with :func:`register_method` are single-sample
estimators and run row by row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .classical import PercentileConfig, fit_lm_batch, fit_mlm_batch, fit_mm_batch, fit_pm_batch
from .core import BatchFit, EstimateResult, SortedSample
from .errors import EstimationError
from .likelihood import WeightPair, fit_mle_batch, fit_wmle_batch
from .regression import (
    DEFAULT_RULE,
    build_positions,
    fit_gls1_batch,
    fit_gls2_batch,
    fit_wls_batch,
)
from .ustat import fit_ustat_batch

__all__ = ["METHOD_NAMES", "FitOptions", "fit_method", "fit_batch", "register_method"]

METHOD_NAMES = ("USTAT", "MLE", "WMLE", "GLS1", "GLS2", "WLS", "LM", "MLM", "PM", "MM")


@dataclass(frozen=True)
class FitOptions:
    """Per-run knobs for the methods that take configuration."""

    plotting_rule: str = DEFAULT_RULE
    percentile: PercentileConfig = field(default_factory=PercentileConfig)


FitFunction = Callable[[SortedSample, FitOptions, WeightPair | None], EstimateResult]
BatchFunction = Callable[[np.ndarray, np.ndarray, FitOptions, WeightPair | None], BatchFit]


def _positions(logs: np.ndarray, options: FitOptions):
    return build_positions(logs.shape[1], options.plotting_rule)


def _need_weights(weights: WeightPair | None) -> WeightPair:
    if weights is None:
        raise ValueError("WMLE requires a WeightPair for the sample size")
    return weights


_REGISTRY: dict[str, BatchFunction] = {
    "USTAT": lambda v, lg, o, w: fit_ustat_batch(v, lg),
    "MLE": lambda v, lg, o, w: fit_mle_batch(v, lg),
    "WMLE": lambda v, lg, o, w: fit_wmle_batch(v, lg, _need_weights(w)),
    "GLS1": lambda v, lg, o, w: fit_gls1_batch(v, lg, _positions(lg, o)),
    "GLS2": lambda v, lg, o, w: fit_gls2_batch(v, lg, _positions(lg, o)),
    "WLS": lambda v, lg, o, w: fit_wls_batch(v, lg, _positions(lg, o)),
    "LM": lambda v, lg, o, w: fit_lm_batch(v, lg),
    "MLM": lambda v, lg, o, w: fit_mlm_batch(v, lg),
    "PM": lambda v, lg, o, w: fit_pm_batch(v, lg, o.percentile),
    "MM": lambda v, lg, o, w: fit_mm_batch(v, lg),
}


def known_methods() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def _row_by_row(name: str, fn: FitFunction) -> BatchFunction:
    """A batch function that applies a single-sample estimator to each row."""
    def fit_rows(values, logs, options, weights) -> BatchFit:
        shape = np.full(values.shape[0], np.nan)
        scale = np.full(values.shape[0], np.nan)
        errors: dict[int, EstimationError] = {}
        for r in range(values.shape[0]):
            try:
                fit = fn(SortedSample(values=values[r], logs=logs[r], n=values.shape[1]),
                         options, weights)
            except EstimationError as exc:
                errors[r] = exc
                continue
            shape[r], scale[r] = fit.shape, fit.scale
        return BatchFit.build(name, shape, scale, errors)
    return fit_rows


def register_method(name: str, fn: FitFunction) -> None:
    """Add a custom single-sample estimator to the dispatch table (used by tests);
    the lab runs it row by row."""
    _REGISTRY[name] = _row_by_row(name, fn)


def _lookup(name: str) -> BatchFunction:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown method {name!r}; known: {', '.join(_REGISTRY)}")


def fit_batch(
    name: str,
    values: np.ndarray,
    logs: np.ndarray,
    options: FitOptions | None = None,
    weights: WeightPair | None = None,
) -> BatchFit:
    """Fit one named method on every row of the R x n matrices of ascending
    positive finite values and their logs; raises KeyError for unknown names."""
    return _lookup(name)(values, logs, options or FitOptions(), weights)


def fit_method(
    name: str,
    s: SortedSample,
    options: FitOptions | None = None,
    weights: WeightPair | None = None,
) -> EstimateResult:
    """Fit one named method on one sample (the batch of one); raises KeyError
    for unknown names and the row's EstimationError if the fit fails."""
    return fit_batch(name, s.values[None, :], s.logs[None, :], options, weights).result()
