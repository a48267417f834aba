"""Uniform dispatch over the ten estimators, shared by the lab and the CLI.

Every method is registered as a batch function that fits every row of a
block of sorted samples at once from the block's :class:`regression.LogStats`.
Every fit goes through :func:`fit_block`; a single fit is the batch of one.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .classical import PercentileConfig, fit_lm_batch, fit_mlm_batch, fit_mm_batch, fit_pm_batch
from .core import BatchFit, EstimateResult, SortedSample
from .likelihood import WeightPair, fit_mle_batch, fit_wmle_batch
from .regression import (
    DEFAULT_RULE,
    PLOTTING_RULES,
    LogStats,
    fit_gls1_batch,
    fit_gls2_batch,
    fit_wls_batch,
)
from .ustat import fit_ustat_batch

__all__ = ["METHOD_NAMES", "FitOptions", "fit_method", "fit_batch", "fit_block"]

@dataclass(frozen=True)
class FitOptions:
    """Per-run knobs for the methods that take configuration."""

    plotting_rule: str = DEFAULT_RULE
    percentile: PercentileConfig = field(default_factory=PercentileConfig)

    def __post_init__(self):
        if self.plotting_rule not in PLOTTING_RULES:
            raise ValueError(f"unknown plotting rule {self.plotting_rule!r}; "
                             f"choose from {PLOTTING_RULES}")


BatchFunction = Callable[[LogStats, FitOptions, WeightPair | None], BatchFit]


def _need_weights(weights: WeightPair | None) -> WeightPair:
    if weights is None:
        raise ValueError("WMLE requires a WeightPair for the sample size")
    return weights


_REGISTRY: dict[str, BatchFunction] = {
    "USTAT": lambda st, o, w: fit_ustat_batch(st),
    "MLE": lambda st, o, w: fit_mle_batch(st),
    "WMLE": lambda st, o, w: fit_wmle_batch(st, _need_weights(w)),
    "GLS1": lambda st, o, w: fit_gls1_batch(st),
    "GLS2": lambda st, o, w: fit_gls2_batch(st),
    "WLS": lambda st, o, w: fit_wls_batch(st),
    "LM": lambda st, o, w: fit_lm_batch(st),
    "MLM": lambda st, o, w: fit_mlm_batch(st),
    "PM": lambda st, o, w: fit_pm_batch(st, o.percentile),
    "MM": lambda st, o, w: fit_mm_batch(st),
}

# the registry is the one list of methods: what fit and simulate accept
METHOD_NAMES = tuple(_REGISTRY)


def _lookup(name: str) -> BatchFunction:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown method {name!r}; known: {', '.join(_REGISTRY)}")


def fit_block(
    names: tuple[str, ...],
    values: np.ndarray,
    logs: np.ndarray,
    options: FitOptions | None = None,
    weights: WeightPair | None = None,
) -> Iterator[BatchFit]:
    """Fit each named method on every row of the R x n matrices of ascending
    positive finite values and their logs, one at a time and in order, from
    one shared :class:`regression.LogStats`; raises KeyError for unknown names
    before any fit."""
    options = options or FitOptions()
    fits = [_lookup(name) for name in names]
    stats = LogStats(values, logs, options.plotting_rule)
    return (fit(stats, options, weights) for fit in fits)


def fit_batch(
    name: str,
    values: np.ndarray,
    logs: np.ndarray,
    options: FitOptions | None = None,
    weights: WeightPair | None = None,
) -> BatchFit:
    """Fit one named method on every row of the R x n matrices of ascending
    positive finite values and their logs; raises KeyError for unknown names."""
    return next(fit_block((name,), values, logs, options, weights))


def fit_method(
    name: str,
    s: SortedSample,
    options: FitOptions | None = None,
    weights: WeightPair | None = None,
) -> EstimateResult:
    """Fit one named method on one sample (the batch of one); raises KeyError
    for unknown names and the row's EstimationError if the fit fails."""
    return fit_batch(name, s.values[None, :], s.logs[None, :], options, weights).result()
