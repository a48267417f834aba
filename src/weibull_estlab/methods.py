"""Uniform dispatch over the ten estimators, shared by the lab and the CLI.

Every method fits every row of a block of sorted samples at once from the
block's :class:`regression.LogStats`. Eight are registered as batch
functions; MLE and WMLE share one root solve per block
(:func:`likelihood.fit_likelihood_block`), run at the first of them that
:func:`fit_block` reaches. Every fit goes through :func:`fit_block`; a single
fit is the batch of one.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .classical import PercentileConfig, fit_lm_batch, fit_mlm_batch, fit_mm_batch, fit_pm_batch
from .core import BatchFit, EstimateResult, SortedSample
from .likelihood import WeightPair, fit_likelihood_block, score_constants
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

# None marks MLE and WMLE, which fit_block fits together
_REGISTRY: dict[str, BatchFunction | None] = {
    "USTAT": lambda st, o, w: fit_ustat_batch(st),
    "MLE": None,
    "WMLE": None,
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


def _lookup(name: str) -> BatchFunction | None:
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
    one shared :class:`regression.LogStats`.

    MLE and WMLE are fitted together, in one root solve at the first of them
    reached; a name given twice yields the same fit twice. Raises KeyError
    for an unknown name, and ValueError for WMLE without a WeightPair for n,
    before any fit.
    """
    options = options or FitOptions()
    fits = [_lookup(name) for name in names]
    n = values.shape[1]
    constants = {name: score_constants(name, n, weights)
                 for name, fit in zip(names, fits) if fit is None}
    stats = LogStats(values, logs, options.plotting_rule)
    return _fits(names, fits, stats, options, weights, constants)


def _fits(names, fits, stats, options, weights, constants) -> Iterator[BatchFit]:
    likelihood = {}  # MLE and WMLE's fits, from one solve at the first of them
    for name, fit in zip(names, fits):
        if fit is not None:
            yield fit(stats, options, weights)
            continue
        if not likelihood:
            likelihood = fit_likelihood_block(stats, constants)
        yield likelihood[name]


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
