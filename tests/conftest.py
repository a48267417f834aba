import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from weibull_estlab import SortedSample, build_positions, lifetime48, roots
from weibull_estlab.errors import BracketError, EstimationError
from weibull_estlab.regression import mean_corrected_transform, plot_transform


@pytest.fixture(scope="session")
def lifetime_dataset():
    return lifetime48()


@pytest.fixture(scope="session")
def lifetime_sample(lifetime_dataset):
    return SortedSample.from_data(lifetime_dataset.observations)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_positive_sample(rng, n=None):
    """A generic positive sample: lognormal-ish spread, occasionally Weibull."""
    if n is None:
        n = int(rng.integers(2, 120))
    kind = rng.integers(0, 3)
    if kind == 0:
        return np.exp(rng.normal(0.0, rng.uniform(0.2, 1.5), n))
    if kind == 1:
        shape = rng.uniform(0.4, 6.0)
        scale = rng.uniform(0.2, 20.0)
        return scale * rng.weibull(shape, n)[:] + 1e-12
    return rng.uniform(0.1, 50.0, n)


# --- the dense regression oracle ----------------------------------------------------
# The package applies V^-1 through its closed-form tridiagonal precision and
# never forms an n x n array; the regression and acceptance tests check it
# against the dense V and plain linear algebra on it.

def dense_v(n):
    """Covariance surrogate V as a dense n x n matrix:
    v_ij = d_i d_j min(r_i, r_j), r_k = k/(n+1-k), d_k = 1/(log(n+1-k) - log(n+1))."""
    k = np.arange(1, n + 1, dtype=float)
    r = k / (n + 1 - k)
    d = 1.0 / (np.log(n + 1 - k) - math.log(n + 1))
    v = np.minimum.outer(r, r)
    v *= np.outer(d, d)
    return v


@dataclass(frozen=True)
class DenseSystem:
    """The regression system of one sample with the dense V."""

    design_x: np.ndarray   # [1, t_i]
    design_z: np.ndarray   # [1, z_i] mean-corrected column
    response_y: np.ndarray
    cov_v: np.ndarray
    weights_w: np.ndarray  # diag of cov_v


def dense_system(s, positions=None):
    pos = positions or build_positions(s.n)
    ones = np.ones(s.n)
    v = dense_v(s.n)
    return DenseSystem(
        design_x=np.column_stack([ones, plot_transform(pos.values)]),
        design_z=np.column_stack([ones, mean_corrected_transform(pos.values, s.n)]),
        response_y=s.logs,
        cov_v=v,
        weights_w=np.diag(v).copy(),
    )


def dense_reference(design, instrument, v, y):
    """Explicit-inverse solve of (instrument' V^-1 design) b = instrument' V^-1 y."""
    vi = np.linalg.inv(v)
    return np.linalg.solve(instrument.T @ vi @ design, instrument.T @ vi @ y)


# --- the per-replication seeding oracle ------------------------------------------------
# The lab seeds a whole block of replications at once with its own SeedSequence
# arithmetic; the simlab tests check every row against numpy's SeedSequence.

def replication_rng(master_seed, cell, rep):
    """The generator of replication ``rep`` of cell ``cell``, one SeedSequence per row."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(0, cell, rep)))


def uniform_rows(rngs, n):
    """The R x n uniforms of one row of n from each generator, the values the
    lab fills a piece's rows with."""
    return np.array([rng.random(n) for rng in rngs])


# --- a zero uniform -------------------------------------------------------------------
# A 0.0 uniform comes up with probability 2^-53 per value, so the core and
# simlab tests put one into a stream on purpose.

class OneZeroGenerator:
    """A generator whose uniform at position ``slot`` of its stream is 0.0.

    ``seed`` is a seed or a Generator to wrap, as ``default_rng`` takes it."""

    def __init__(self, seed, slot):
        self.rng = np.random.default_rng(seed)
        self.slot = slot
        self.drawn = 0

    def random(self, size=None, out=None):
        u = self.rng.random(size, out=out)
        if self.drawn <= self.slot < self.drawn + u.size:
            u.flat[self.slot - self.drawn] = 0.0
        self.drawn += u.size
        return u


# --- the eager root-solver oracle ---------------------------------------------------
# The package scores a seed bracket's ends only where no Newton iterate has
# shown their signs. This oracle is the eager form of the same solver: it
# scores both ends of every row and widens before it iterates. The solver
# tests check the root, every diagnostic and every recorded error of the
# package against it. It reads the module constants of ``roots`` at call
# time, so a test that patches them patches both solvers.

def eager_solve_rows(
    score: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    start: np.ndarray,
    errors: dict[int, EstimationError],
) -> tuple[np.ndarray, dict]:
    """One root per row of decreasing functions by safeguarded Newton.

    ``start`` holds one starting point per batch row; a row already in
    ``errors`` is not solved. A row's seed bracket is ``roots.SEED_BRACKET``
    times its start. ``score(x, rows)`` returns f and f' of the given batch
    rows at ``x``; f is decreasing in x. A bracket without a sign change
    (f(lo) >= 0 >= f(hi)) is widened by ``roots.BRACKET_FACTOR`` at both
    ends, at most ``roots.MAX_EXPANSIONS`` times; this is the only widening.
    Each Newton step that leaves the current bracket is replaced by its
    geometric midpoint, the bracket shrinks around every iterate, and a row
    stops once its step is below ``roots.NEWTON_RTOL`` relative, so its
    iterates depend only on that row. A row that has not stopped after
    ``roots.MAX_NEWTON_STEPS`` steps is marked ``fallback`` and bisects in
    log until its step or its bracket is below ``roots.NEWTON_RTOL``
    relative.

    A row whose widened bracket still holds no sign change is marked
    ``fallback`` and keeps a NaN root, and a BracketError naming that
    bracket and the scores at its ends is recorded in ``errors`` under the
    batch row.

    Returns the root of every batch row and the keyword arguments of
    ``BatchFit.build``; a row not solved has a NaN root, 0 iterations,
    residual 0.0, a NaN bracket and no fallback.
    """
    size = start.size
    rows = np.array([r for r in range(size) if r not in errors], dtype=int)
    start = start[rows]
    lo, hi = roots.SEED_BRACKET[0] * start, roots.SEED_BRACKET[1] * start  # widened below
    k = rows.size
    x = np.full(k, np.nan)
    iterations = np.zeros(k, dtype=int)
    residual = np.zeros(k)
    used_fallback = np.zeros(k, dtype=bool)

    def whole_batch():
        batch = [np.full(size, np.nan), np.zeros(size, dtype=int), np.zeros(size),
                 np.full(size, np.nan), np.full(size, np.nan), np.zeros(size, dtype=bool)]
        for out, solved in zip(batch, (x, iterations, residual, lo, hi, used_fallback)):
            out[rows] = solved
        return batch[0], dict(iterations=batch[1], residual=batch[2], bracket=(batch[3], batch[4]),
                              fallback=batch[5])

    if k == 0:
        return whole_batch()

    with np.errstate(all="ignore"):
        # whole-row-set calls, which a scorer can serve without gathering its rows
        flo, fhi = score(lo, rows)[0], score(hi, rows)[0]
        f, df = score(start, rows)
        xa = start
        pending = ~((flo >= 0.0) & (fhi <= 0.0))
        if np.count_nonzero(pending):
            pending = pending.nonzero()[0]
            for _ in range(roots.MAX_EXPANSIONS):
                lo[pending] /= roots.BRACKET_FACTOR
                hi[pending] *= roots.BRACKET_FACTOR
                flo[pending] = score(lo[pending], rows[pending])[0]
                fhi[pending] = score(hi[pending], rows[pending])[0]
                pending = pending[~((flo[pending] >= 0.0) & (fhi[pending] <= 0.0))]
                if not pending.size:
                    break
            searching = np.ones(k, dtype=bool)
            searching[pending] = False
            active = searching.nonzero()[0]
            xa, f, df = xa[active], f[active], df[active]
        else:
            pending, active = np.arange(0), np.arange(k)
        # state of the rows still iterating, compacted as rows finish
        la, ha = lo[active], hi[active]  # shrinks around the iterates
        count = 0
        while active.size:
            count += 1
            below = f > 0.0
            la = np.where(below, xa, la)
            ha = np.where(below, ha, xa)
            newton = xa - f / df
            done = np.abs(newton - xa) <= roots.NEWTON_RTOL * xa
            bisecting = count > roots.MAX_NEWTON_STEPS
            if bisecting:  # a NaN bracket stops the row too
                done |= ~(ha - la > roots.NEWTON_RTOL * xa)
            if np.count_nonzero(done):
                finished = active[done]
                x[finished] = np.minimum(np.maximum(newton, la), ha)[done]
                iterations[finished] = count
                residual[finished] = f[done]
                used_fallback[finished] = bisecting
                keep = ~done
                active, la, ha, newton = active[keep], la[keep], ha[keep], newton[keep]
                if not active.size:
                    break
            # a Newton step that leaves the bracket, and every step after the
            # last Newton step, is replaced by the bracket's geometric midpoint
            outside = ~((newton >= la) & (newton <= ha))
            if count >= roots.MAX_NEWTON_STEPS:
                outside[:] = True
            xa = np.where(outside, np.sqrt(la * ha), newton)
            f, df = score(xa, rows[active])

    used_fallback[pending] = True
    for i in pending:  # no sign change in the widened bracket
        errors[int(rows[i])] = BracketError(
            f"no sign change in [{float(lo[i])}, {float(hi[i])}] after {roots.MAX_EXPANSIONS} "
            f"expansions (f(lo)={float(flo[i]):.6g}, f(hi)={float(fhi[i]):.6g})")
    return whole_batch()
