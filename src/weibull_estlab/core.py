"""Two-parameter Weibull primitives.

Density, distribution function, quantile, inversion sampling and raw moments
for the parameterization

    F(x) = 1 - exp{-(x/scale)^shape},    x > 0,

plus the validated sample container, the per-row result of a batched fit and
the handful of special constants the estimators share.

Every estimator has one array implementation that fits R samples of one size
at once, given as R x n matrices of ascending values and their logs; a
single-sample fit is the batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import digamma
from scipy.special import gamma as scipy_gamma
from scipy.special import gammaln, polygamma

from .errors import DataError, EstimationError

__all__ = [
    "LOG_TWO",
    "PSI_ONE",
    "TRIGAMMA_ONE",
    "SpecialConstants",
    "CONSTANTS",
    "WeibullParams",
    "SortedSample",
    "EstimateResult",
    "BatchFit",
    "row_dot",
    "row_var",
    "fail_rows",
    "open_rows",
    "fit_one",
    "pdf",
    "cdf",
    "quantile",
    "sample",
    "draw_sorted",
    "raw_moment",
    "gamma_fn",
]

LOG_TWO = math.log(2.0)
PSI_ONE = float(digamma(1.0))           # -0.5772156649015329
TRIGAMMA_ONE = float(polygamma(1, 1))   # pi^2 / 6

# gammaln is finite well beyond this, but exp(gammaln(x)) overflows a double
# for x > ~171.62
_GAMMA_OVERFLOW_ARG = 171.61447887182298


@dataclass(frozen=True)
class SpecialConstants:
    """Shared constants: digamma(1), trigamma(1) and log 2."""

    psi1: float = PSI_ONE
    trigamma1: float = TRIGAMMA_ONE
    log2: float = LOG_TWO


CONSTANTS = SpecialConstants()


@dataclass(frozen=True)
class WeibullParams:
    """Shape/scale parameter pair, both strictly positive and finite."""

    shape: float
    scale: float

    def __post_init__(self):
        for name, value in (("shape", self.shape), ("scale", self.scale)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be a positive finite real, got {value!r}")


@dataclass(frozen=True)
class SortedSample:
    """Ascending positive observations with their cached logarithms.

    Build instances through :meth:`from_data`, which sorts and validates.
    ``values`` and ``logs`` are read-only float arrays of length ``n``.
    """

    values: np.ndarray
    logs: np.ndarray
    n: int

    @classmethod
    def from_data(cls, data, min_size: int = 2) -> "SortedSample":
        """Validate, sort ascending and attach the log transform.

        Raises
        ------
        DataError
            If fewer than ``min_size`` observations are given, or any
            observation is non-positive or non-finite (the offending input
            indices are listed in the message).
        """
        values = np.asarray(data, dtype=float)
        if values.ndim != 1:
            values = values.reshape(-1)
        if values.size < min_size:
            raise DataError(f"need at least {min_size} observations, got {values.size}")
        bad = np.flatnonzero(~np.isfinite(values) | (values <= 0.0))
        if bad.size:
            shown = ", ".join(f"[{i}]={values[i]!r}" for i in bad[:10])
            more = "" if bad.size <= 10 else f" (+{bad.size - 10} more)"
            raise DataError(f"observations must be positive finite reals; offending entries: {shown}{more}")
        values = np.sort(values)
        values.flags.writeable = False
        logs = np.log(values)
        logs.flags.writeable = False
        return cls(values=values, logs=logs, n=int(values.size))

    def scaled(self, c: float) -> "SortedSample":
        """Sample with every observation multiplied by ``c > 0``."""
        return SortedSample.from_data(self.values * c)


@dataclass(frozen=True)
class EstimateResult:
    """A fitted (shape, scale) pair with solver diagnostics.

    ``iterations``/``residual``/``bracket`` are zero/None for closed-form
    methods. ``notes`` carries non-fatal diagnostics such as tie warnings.
    """

    method: str
    shape: float
    scale: float
    iterations: int = 0
    residual: float = 0.0
    bracket: tuple[float, float] | None = None
    notes: tuple[str, ...] = ()

    @property
    def params(self) -> WeibullParams:
        return WeibullParams(self.shape, self.scale)


def row_dot(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot products of an R x n matrix with an n-vector (or matrix).

    Unlike a BLAS matrix product, every row is summed the same way whatever
    its position in the batch, so a row's result does not depend on its
    neighbours.
    """
    return np.einsum("ij,j...->i...", m, v)


def row_var(m: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Row variances (n - 1 divisor) of an R x n matrix given its row means."""
    dev = m - mean[:, None]
    return np.einsum("ij,ij->i", dev, dev) / (m.shape[1] - 1)


def fail_rows(errors: dict[int, EstimationError], mask: np.ndarray, make) -> None:
    """Record ``make(row)`` for every row in ``mask`` that has no error yet."""
    if np.count_nonzero(mask):
        for row in mask.nonzero()[0]:
            errors.setdefault(int(row), make(int(row)))


def open_rows(size: int, errors: dict[int, EstimationError]) -> np.ndarray:
    """Indices of the rows of a batch of ``size`` that have no error yet."""
    if not errors:
        return np.arange(size)
    return np.setdiff1d(np.arange(size), list(errors))


@dataclass(slots=True)
class BatchFit:
    """Per-row estimates of one method on R samples of one size.

    Failed rows hold NaN and have their exception in ``errors``. The solver
    diagnostics are None for methods that have none; ``fallback`` marks rows
    whose root came from the scalar bracketed solver instead of the batched
    Newton iteration, and ``notes`` holds per-row remarks such as ties.
    """

    method: str
    shape: np.ndarray
    scale: np.ndarray
    errors: dict[int, EstimationError]
    iterations: np.ndarray | None = None
    residual: np.ndarray | None = None
    bracket: tuple[np.ndarray, np.ndarray] | None = None
    fallback: np.ndarray | None = None
    notes: dict[int, tuple[str, ...]] = field(default_factory=dict)

    @classmethod
    def build(cls, method: str, shape: np.ndarray, scale: np.ndarray,
              errors: dict[int, EstimationError], **diagnostics) -> "BatchFit":
        """Mark every row that is not a finite positive pair as failed."""
        good = (np.minimum(shape, scale) > 0.0) & (np.maximum(shape, scale) < math.inf)
        if errors or np.count_nonzero(good) < good.size:
            fail_rows(errors, ~good, lambda r: EstimationError(
                f"{method} estimate ({shape[r]!r}, {scale[r]!r}) is not a finite positive pair"))
            failed = np.zeros(shape.size, dtype=bool)
            failed[list(errors)] = True
            shape = np.where(failed, np.nan, shape)
            scale = np.where(failed, np.nan, scale)
        return cls(method=method, shape=shape, scale=scale, errors=errors, **diagnostics)

    @property
    def failed(self) -> np.ndarray:
        return np.isnan(self.shape)

    def result(self, row: int = 0) -> EstimateResult:
        """Row ``row`` as a result record; raises its EstimationError if it failed."""
        if row in self.errors:
            raise self.errors[row]
        return EstimateResult(
            method=self.method,
            shape=float(self.shape[row]),
            scale=float(self.scale[row]),
            iterations=0 if self.iterations is None else int(self.iterations[row]),
            residual=0.0 if self.residual is None else float(self.residual[row]),
            bracket=None if self.bracket is None else
            (float(self.bracket[0][row]), float(self.bracket[1][row])),
            notes=self.notes.get(row, ()),
        )


def fit_one(fit_batch, s: SortedSample, *args) -> EstimateResult:
    """One sample through a batch estimator: the batch of one."""
    return fit_batch(s.values[None, :], s.logs[None, :], *args).result()


def _check_positive(x, what: str = "x"):
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be positive and finite")
    return arr


def pdf(p: WeibullParams, x):
    """Density (shape/scale)(x/scale)^(shape-1) exp{-(x/scale)^shape} for x > 0.

    Accepts a scalar or array; raises ValueError on non-positive input.
    """
    arr = _check_positive(x)
    z = arr / p.scale
    out = (p.shape / p.scale) * z ** (p.shape - 1.0) * np.exp(-(z ** p.shape))
    return float(out) if np.isscalar(x) else out


def cdf(p: WeibullParams, x):
    """Distribution function 1 - exp{-(x/scale)^shape} for x > 0."""
    arr = _check_positive(x)
    out = -np.expm1(-((arr / p.scale) ** p.shape))
    return float(out) if np.isscalar(x) else out


def quantile(p: WeibullParams, prob):
    """Inverse cdf: scale * (-log(1 - prob))^(1/shape), prob in (0, 1)."""
    arr = np.asarray(prob, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("prob must lie strictly inside (0, 1)")
    out = p.scale * (-np.log1p(-arr)) ** (1.0 / p.shape)
    return float(out) if np.isscalar(prob) else out


def draw_sorted(p: WeibullParams, n: int, rngs) -> tuple[np.ndarray, np.ndarray]:
    """Draw one sample of size ``n`` per generator by inversion, rows sorted.

    Returns the R x n matrices of ascending values and of their logs. Row r
    depends only on the state of ``rngs[r]``. A row can hold zeros or
    infinities where the inversion underflows or overflows for extreme
    parameters; callers decide what such a row means.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    u = np.empty((len(rngs), n))
    for row, rng in zip(u, rngs):
        rng.random(out=row)
        # u == 0.0 maps to x == 0; redraw those slots (probability 2^-53 per
        # draw, still deterministic given the stream)
        while np.count_nonzero(row) < n:
            zero = row == 0.0
            row[zero] = rng.random(int(zero.sum()))
    with np.errstate(over="ignore", under="ignore"):
        x = p.scale * (-np.log1p(-u)) ** (1.0 / p.shape)
    x.sort(axis=1)
    with np.errstate(divide="ignore"):
        logs = np.log(x)
    return x, logs


def sample(p: WeibullParams, n: int, rng: np.random.Generator) -> SortedSample:
    """Draw ``n`` observations by inversion of one uniform stream, sorted.

    Fully determined by the state of ``rng``; the same seeded generator
    reproduces the same sample. Raises DataError if a draw underflows to 0
    or overflows.
    """
    values, _ = draw_sorted(p, n, [rng])
    return SortedSample.from_data(values[0])


def gamma_fn(x: float) -> float:
    """Gamma function on (0, ~171.6); raises OverflowError past the double range.

    Backed by the dedicated rational approximation rather than exp(lgamma):
    the exponential amplifies lgamma's absolute rounding error beyond 1e-13
    relative near the top of the range.
    """
    if x <= 0.0:
        raise ValueError(f"gamma_fn requires x > 0, got {x}")
    if x > _GAMMA_OVERFLOW_ARG:
        raise OverflowError(f"gamma({x}) exceeds the double-precision range")
    return float(scipy_gamma(x))


def raw_moment(p: WeibullParams, r: int) -> float:
    """r-th non-central moment scale^r * Gamma(r/shape + 1), r >= 1.

    Raises OverflowError when the result (or the Gamma argument) leaves the
    representable range rather than silently saturating.
    """
    if r < 1:
        raise ValueError(f"moment order must be >= 1, got {r}")
    g = r / p.shape + 1.0
    if g > _GAMMA_OVERFLOW_ARG:
        raise OverflowError(f"gamma argument {g} exceeds the representable range")
    log_val = r * math.log(p.scale) + float(gammaln(g))
    value = math.exp(log_val) if log_val < 709.0 else math.inf
    if not math.isfinite(value):
        raise OverflowError(f"moment of order {r} overflows double precision")
    return value
