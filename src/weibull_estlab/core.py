"""Two-parameter Weibull primitives.

Density, distribution function, quantile, inversion sampling and raw moments
for the parameterization

    F(x) = 1 - exp{-(x/scale)^shape},    x > 0,

plus the validated sample container, the per-row result of a batched fit,
the seeding of every random substream, the fill of a block of substreams'
uniforms (:func:`fill_uniforms`) and the handful of special constants the
estimators share. Inversion maps uniforms its caller drew
(:func:`draw_sorted`), so how the streams are laid out stays with the caller.

Every estimator has one array implementation that fits R samples of one size
at once, read through the block's shared :class:`regression.LogStats`; a
single-sample fit is the batch of one.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field
from numbers import Real

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import DataError, EstimationError

__all__ = [
    "LOG_TWO",
    "PSI_ONE",
    "TRIGAMMA_ONE",
    "WeibullParams",
    "SortedSample",
    "check_observations",
    "EstimateResult",
    "BatchFit",
    "DEFAULT_SEED",
    "REPLICATIONS",
    "WEIGHTS",
    "state_words",
    "substreams",
    "fill_uniforms",
    "scratch",
    "row_dot",
    "row_var",
    "fail_rows",
    "pdf",
    "cdf",
    "quantile",
    "sample",
    "draw_sorted",
    "raw_moment",
]

LOG_TWO = math.log(2.0)
PSI_ONE = -0.5772156649015329      # digamma(1), minus Euler's constant
TRIGAMMA_ONE = 1.6449340668482266  # trigamma(1) = pi^2/6, one ulp above math.pi ** 2 / 6

# log-gamma is finite well beyond this, but exp(lgamma(x)) overflows a double
# for x > ~171.62
_GAMMA_OVERFLOW_ARG = 171.61447887182298

# work arrays up to this many values are kept between calls (2 MB each, room
# for the d/d^2 stack of a lab row block of 2^17 values); a larger one is
# allocated afresh, so one fit at a huge n does not pin its memory
_SCRATCH_MAX_VALUES = 1 << 18
_scratch_buffers = threading.local()

# the master seed of every run that names none: the lab's, fit's and the weight table's
DEFAULT_SEED = 1729

# substream families, the first word of a spawn key: the lab's replication r
# of cell c is (REPLICATIONS, c, r), the WMLE weight simulation at n is (WEIGHTS, n)
REPLICATIONS = 0
WEIGHTS = 1

# SeedSequence hashing constants (NEP 19): hashmix multipliers A (entropy into
# the pool) and B (pool into state words), and the pool's mix multipliers
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)

# numpy's PCG64 (PCG XSL RR 128/64) steps its 128-bit state s to s * _PCG_MULT + inc
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# rows of at most this many values are filled by one numpy pass over their
# whole block (fill_uniforms), longer ones by one Generator each. The pass
# costs about 40 numpy operations per value, a Generator about 2 µs per row.
# µs per row, one Generator per row / the numpy pass, 2-core Xeon, numpy 2.4:
#   n          5         10        20        30        40        60        70        100
#   R  100   2.3/0.72  3.4/0.88  2.1/1.06  2.1/1.12  2.2/1.35  2.3/1.80  2.4/2.01  2.5/2.61
#   R  400   2.0/0.22  2.1/0.35  2.2/0.59  2.2/0.76  2.3/1.00  2.4/1.80  2.9/2.66  3.3/3.77
#   R 1024   3.2/0.19  2.1/0.26  2.2/0.52  2.3/1.07  2.2/1.34  2.2/2.04  2.9/2.75  4.4/4.41
_NUMPY_FILL_MAX_N = 64


@dataclass(frozen=True)
class WeibullParams:
    """Shape/scale parameter pair, both strictly positive finite real numbers
    (a boolean is not one)."""

    shape: float
    scale: float

    def __post_init__(self):
        for name, value in (("shape", self.shape), ("scale", self.scale)):
            # numpy's bool is no Real; isfinite overflows on an int beyond the largest float
            try:
                ok = isinstance(value, Real) and not isinstance(value, bool) and \
                    math.isfinite(value) and value > 0.0
            except OverflowError:
                ok = False
            if not ok:
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
    def from_data(cls, data) -> "SortedSample":
        """Validate, sort ascending and attach the log transform.

        Raises
        ------
        DataError
            If fewer than two observations are given, or any
            observation is non-positive or non-finite (see
            :func:`check_observations`).
        """
        values = np.asarray(data, dtype=float)
        if values.ndim != 1:
            values = values.reshape(-1)
        if values.size < 2:
            raise DataError(f"need at least 2 observations, got {values.size}")
        check_observations(values)
        values = np.sort(values)
        values.flags.writeable = False
        logs = np.log(values)
        logs.flags.writeable = False
        return cls(values=values, logs=logs, n=int(values.size))

    def scaled(self, c: float) -> "SortedSample":
        """Sample with every observation multiplied by ``c > 0``."""
        return SortedSample.from_data(self.values * c)


def check_observations(values: np.ndarray) -> None:
    """Raise DataError naming the first observation, by its 1-based position in
    ``values`` and its value, that is not a positive finite real."""
    bad = np.flatnonzero(~np.isfinite(values) | (values <= 0.0))
    if bad.size:
        i = int(bad[0])
        raise DataError(f"observation {i + 1} is not a positive finite real ({float(values[i])})")


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


def _hash_consts(start: int, mult: int, count: int) -> np.ndarray:
    """start, start*mult, ... (count + 1 constants, mod 2^32) as a uint32 column."""
    consts = [start]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


# generate_state(4, uint64) hashes the pool words 0, 1, 2, 3, 0, 1, 2, 3 under these
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 8)


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of ``value`` under each successive constant, one row each."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ value >> _SHIFT


def _word_count(x: int) -> int:
    """How many uint32 entropy words SeedSequence makes of the integer x >= 0."""
    return max(1, -(-int(x).bit_length() // 32))


class _StateWords(ISeedSequence):
    """Hands a bit generator the precomputed ``generate_state(4, uint64)`` words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError(f"holds 4 uint64 state words, not {n_words} {dtype}")
        return self.words


def state_words(seed: int, key: tuple[int, ...], indices: range) -> np.ndarray:
    """The R x 4 uint64 words that seed stream i's PCG64, one row per i in
    ``indices``: row i equals ``SeedSequence(seed, spawn_key=key +
    (i,)).generate_state(4, np.uint64)`` bit for bit; ``key`` starts with the
    family.

    A SeedSequence mixes its entropy words into a 4-word pool one at a time,
    and the index is the last word. So the pool of the shared (seed, key)
    words comes from numpy, and only the indices are hashed in here, as
    uint32 arithmetic over all of them at once (it wraps mod 2^32, as the
    hash does). Every shared word took 4 hashmix steps, which fixes where
    the hash constant stands.
    """
    if indices and min(indices[0], indices[-1]) < 0:
        raise ValueError("a substream index must be non-negative")
    if indices and max(indices[0], indices[-1]) >= 1 << 32:
        raise ValueError("a substream index must fit one 32-bit entropy word")
    shared = np.random.SeedSequence(seed, spawn_key=key)
    # the shared words: the seed's, zero-padded to the pool size, then the key's
    shared_words = max(4, _word_count(seed)) + sum(_word_count(k) for k in key)
    start = _INIT_A * pow(_MULT_A, 4 * shared_words, 1 << 32) & _MASK32
    index = np.arange(indices.start, indices.stop, indices.step).astype(np.uint32)
    mixed = _hashmix(index, _hash_consts(start, _MULT_A, 4))
    pool = shared.pool[:, None] * _MIX_L - mixed * _MIX_R
    pool ^= pool >> _SHIFT
    state32 = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_CONSTS).astype(np.uint64)
    # PCG64 reads its 4 words from the row's memory, so every row must be contiguous
    return np.ascontiguousarray((state32[0::2] | state32[1::2] << np.uint64(32)).T)


def _generator(words: np.ndarray) -> np.random.Generator:
    """numpy's Generator over the PCG64 that one row of :func:`state_words` seeds."""
    return np.random.Generator(np.random.PCG64(_StateWords(words)))


def substreams(seed: int, key: tuple[int, ...], indices: range) -> list[np.random.Generator]:
    """Generator i equals ``default_rng(SeedSequence(seed, spawn_key=key +
    (i,)))`` bit for bit, for each i in ``indices``: one per row of
    :func:`state_words`, the one derivation of a random stream from a seed."""
    return [_generator(row) for row in state_words(seed, key, indices)]


@functools.cache
def _jumps(n: int) -> tuple[np.ndarray, ...]:
    """The coefficients of a PCG64's first n outputs, as (n, 1) uint64 columns.

    Seeding leaves the state M*t + inc, where t = initstate + inc and M is
    ``_PCG_MULT``, and every output steps the state once before it reads it.
    So output j reads the state A*t + C*inc (mod 2^128), with A = M^(j+2)
    and C = M^(j+1) + ... + M + 1. Returns, for A and then for C, its low
    word, that word's low and high 32 bits, and its high word.
    """
    a, c = _PCG_MULT, 1  # the seeded state's coefficients
    steps = []
    for _ in range(n):
        a, c = a * _PCG_MULT % (1 << 128), (c * _PCG_MULT + 1) % (1 << 128)
        steps.append((a, c))
    columns = []
    for coef in zip(*steps):
        low = [x & 0xFFFF_FFFF_FFFF_FFFF for x in coef]
        for part in (low, [x & 0xFFFF_FFFF for x in low], [x >> 32 for x in low],
                     [x >> 64 for x in coef]):
            column = np.array(part, dtype=np.uint64)[:, None]
            column.flags.writeable = False
            columns.append(column)
    return tuple(columns)


def fill_uniforms(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill each row of the R x n float64 matrix ``out`` with the first n
    ``Generator.random`` draws of the PCG64 that the same row of ``words``
    (:func:`state_words`) seeds, bit for bit; returns ``out``.

    Rows of up to ``_NUMPY_FILL_MAX_N`` values come from one pass of numpy
    uint64 arithmetic over the whole matrix, longer rows from one Generator
    each. The pass repeats numpy's own PCG64 (PCG XSL RR 128/64) in integer
    operations that wrap mod 2^64, as its C code does, so its bits are the
    Generator's:

    - seeding: initstate and initseq are the words (0, 1) and (2, 3), high
      word first, and inc = 2*initseq + 1; :func:`_jumps` gives output j's
      state as an affine map of initstate + inc and inc;
    - a 128-bit product mod 2^128 is summed from 64-bit word products, the
      high word of low x low from 32-bit halves;
    - an output is the state's two words XORed and rotated right by its top
      6 bits, and ``random`` turns its top 53 bits into k * 2^-53.
    """
    rows, n = out.shape
    if words.shape != (rows, 4):
        raise ValueError(f"need {rows} x 4 state words for {rows} rows, got shape {words.shape}")
    if n > _NUMPY_FILL_MAX_N:
        for row, w in zip(out, words):
            _generator(w).random(out=row)
        return out
    inc_hi = words[:, 2] << 1 | words[:, 3] >> 63
    inc_lo = words[:, 3] << 1 | 1
    t_lo = words[:, 1] + inc_lo
    t_hi = words[:, 0] + inc_hi + (t_lo < inc_lo)
    a_lo, a_0, a_1, a_hi, c_lo, c_0, c_1, c_hi = _jumps(n)
    # output j in row j, so numpy's loops run along the R columns
    hi, lo, b1, b2 = (np.empty((n, rows), dtype=np.uint64) for _ in range(4))
    # the high word: the products that fall in it whole ...
    np.multiply(a_lo, t_hi, out=hi)
    hi += np.multiply(a_hi, t_lo, out=b1)
    hi += np.multiply(c_lo, inc_hi, out=b1)
    hi += np.multiply(c_hi, inc_lo, out=b1)
    # ... the high words of the low x low products, from 32-bit halves ...
    for v, k0, k1 in ((t_lo, a_0, a_1), (inc_lo, c_0, c_1)):
        v0, v1 = v & 0xFFFF_FFFF, v >> 32
        np.multiply(k0, v0, out=b1)
        b1 >>= 32
        b1 += np.multiply(k1, v0, out=b2)  # below 2^64
        hi += np.multiply(k1, v1, out=b2)
        hi += np.right_shift(b1, 32, out=b2)
        b1 &= 0xFFFF_FFFF
        b1 += np.multiply(k0, v1, out=b2)
        hi += np.right_shift(b1, 32, out=b1)
    # ... and the carry of the two low words' sum
    np.multiply(a_lo, t_lo, out=lo)
    lo += np.multiply(c_lo, inc_lo, out=b1)
    hi += np.less(lo, b1, out=b2)
    # XSL RR: hi ^ lo rotated right by hi >> 58, then its top 53 bits
    x = np.bitwise_xor(lo, hi, out=lo)
    r = np.right_shift(hi, 58, out=hi)
    np.right_shift(x, r, out=b1)
    np.negative(r, out=r)
    r &= 63
    x <<= r
    x |= b1
    x >>= 11
    np.copyto(out, np.multiply(x, 2.0 ** -53, out=b1.view(np.float64)).T)
    return out


def scratch(tag: str, shape: tuple[int, ...]) -> np.ndarray:
    """A float64 work array of ``shape`` that never leaves the call that asked for it.

    Up to ``_SCRATCH_MAX_VALUES`` values it is a view of a buffer that this
    thread keeps under ``tag`` and only ever grows, so a call repeated on row
    blocks of one size allocates, and page-faults, nothing. Its contents are
    whatever the last user left, and the next request under the same tag in
    this thread overwrites them. A larger request gets a fresh array.
    """
    size = math.prod(shape)
    if size > _SCRATCH_MAX_VALUES:
        return np.empty(shape)
    buffers = vars(_scratch_buffers)
    buf = buffers.get(tag)
    if buf is None or buf.size < size:
        buf = buffers[tag] = np.empty(size)
    return buf[:size].reshape(shape)


def row_dot(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot products of an R x n matrix with an n-vector (or matrix).

    Unlike a BLAS matrix product, every row is summed the same way whatever
    its position in the batch, so a row's result does not depend on its
    neighbours.
    """
    return np.einsum("ij,j...->i...", m, v)


def row_var(m: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Row variances (n - 1 divisor) of an R x n matrix given its row means."""
    # "core.rows" is shared with the L-moments' work array: neither outlives its call
    dev = np.subtract(m, mean[:, None], out=scratch("core.rows", m.shape))
    return np.einsum("ij,ij->i", dev, dev) / (m.shape[1] - 1)


def fail_rows(errors: dict[int, EstimationError], mask: np.ndarray, make) -> None:
    """Record ``make(row)`` for every row in ``mask`` that has no error yet."""
    if np.count_nonzero(mask):
        for row in mask.nonzero()[0]:
            errors.setdefault(int(row), make(int(row)))


@dataclass(slots=True)
class BatchFit:
    """Per-row estimates of one method on R samples of one size.

    Failed rows hold NaN and have their exception in ``errors``. The solver
    diagnostics are None for methods that have none; ``fallback`` marks rows
    that left the Newton iteration, by bisecting after its last step or by
    a BracketError, and ``notes`` holds per-row remarks such as ties.
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
                f"{method} estimate ({float(shape[r])}, {float(scale[r])}) "
                "is not a finite positive pair"))
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


def check_positive(x, what: str = "x"):
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be positive and finite")
    return arr


def pdf(p: WeibullParams, x):
    """Density (shape/scale)(x/scale)^(shape-1) exp{-(x/scale)^shape} for x > 0.

    Accepts a scalar or array; raises ValueError on non-positive input.
    """
    arr = check_positive(x)
    z = arr / p.scale
    out = (p.shape / p.scale) * z ** (p.shape - 1.0) * np.exp(-(z ** p.shape))
    return float(out) if np.isscalar(x) else out


def cdf(p: WeibullParams, x):
    """Distribution function 1 - exp{-(x/scale)^shape} for x > 0."""
    arr = check_positive(x)
    out = -np.expm1(-((arr / p.scale) ** p.shape))
    return float(out) if np.isscalar(x) else out


def quantile(p: WeibullParams, prob):
    """Inverse cdf: scale * (-log(1 - prob))^(1/shape), prob in (0, 1)."""
    arr = np.asarray(prob, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):  # NaN fails both
        raise ValueError("prob must lie strictly inside (0, 1)")
    out = p.scale * (-np.log1p(-arr)) ** (1.0 / p.shape)
    return float(out) if np.isscalar(prob) else out


def draw_sorted(p: WeibullParams, u: np.ndarray,
                logs: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Map an R x n float64 matrix of uniforms in place to R samples by
    inversion, each row sorted ascending.

    Returns ``u``, now the values, and their logs, written into ``logs``
    when given and fresh otherwise. Row r depends only on row r of ``u``.
    A row holds a zero (log -inf) where its uniform is exactly 0.0 or the
    inversion underflows, and an infinity where it overflows; callers decide
    what such a row means.
    """
    if u.ndim != 2 or u.shape[1] < 2:
        raise ValueError(f"need an R x n matrix of uniforms with n >= 2, got shape {u.shape}")
    with np.errstate(over="ignore", under="ignore"):
        # x = scale * (-log1p(-u))^(1/shape), in place: no n-sized temporaries
        x = np.negative(u, out=u)
        np.log1p(x, out=x)
        np.negative(x, out=x)
        x **= 1.0 / p.shape
        x *= p.scale
    x.sort(axis=1)
    with np.errstate(divide="ignore"):
        logs = np.log(x, out=logs)
    return x, logs


def sample(p: WeibullParams, n: int, rng: np.random.Generator) -> SortedSample:
    """Draw ``n`` observations by inversion of one uniform stream, sorted.

    Fully determined by the state of ``rng``; the same seeded generator
    reproduces the same sample. Raises DataError if a draw is 0 (a uniform
    of exactly 0.0, or an underflow) or overflows.
    """
    values, _ = draw_sorted(p, rng.random((1, n)))
    return SortedSample.from_data(values[0])


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
    log_val = r * math.log(p.scale) + math.lgamma(g)
    value = math.exp(log_val) if log_val < 709.0 else math.inf
    if not math.isfinite(value):
        raise OverflowError(f"moment of order {r} overflows double precision")
    return value
