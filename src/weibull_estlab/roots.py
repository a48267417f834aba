"""Bracketed root finding for a batch of scalar equations, one root per row.

:func:`solve_rows` is the one place that widens a seed bracket and tests it
for a sign change. It takes one bracket and start per batch row, skips the
rows that already have an error, and works in four steps:

1. start: score every row at its starting point;
2. Newton: iterate safeguarded Newton on all rows at once, each inside its
   seed bracket;
3. verify: score only the seed-bracket ends whose sign no iterate has shown;
4. replay: a row whose seed bracket fails starts again from the same point
   inside its widened bracket.

A row whose iteration does not settle goes to Brent's method on the bracket
it holds, and a row whose widened bracket holds no sign change fails with a
BracketError that names that bracket. Every solved row thus ends with a root
inside its (widened) bracket or with that error, and the roots and solver
diagnostics come back for the whole batch.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import BracketError, EstimationError

__all__ = ["solve_rows"]

# a bracket without a sign change is widened by this factor at both ends, at
# most this many times, before the solver gives up on it
BRACKET_FACTOR = 10.0
MAX_EXPANSIONS = 3
MAX_NEWTON_STEPS = 60
# a row stops after a Newton step below this relative size; near a simple root
# the error after that step is about its square
NEWTON_RTOL = 1e-8


def _no_sign_change(f: Callable[[float], float], lo: float, hi: float) -> BracketError:
    """The error of a row whose widened bracket holds no sign change: it names
    the searched bracket and the function values at its ends."""
    return BracketError(
        f"no sign change in [{lo}, {hi}] after {MAX_EXPANSIONS} expansions "
        f"(f(lo)={f(lo):.6g}, f(hi)={f(hi):.6g})"
    )


def solve_rows(
    score: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    lo: np.ndarray,
    hi: np.ndarray,
    start: np.ndarray,
    errors: dict[int, EstimationError],
) -> tuple[np.ndarray, dict]:
    """One root per row of decreasing functions by safeguarded Newton.

    ``lo``/``hi``/``start`` hold one seed bracket and starting point per
    batch row; a row already in ``errors`` is not solved, and the others
    must have positive ones. ``score(x, rows)`` returns f and f' of the
    given batch rows at ``x`` (always a subsequence of the rows being
    solved, in order and without repeats); f is decreasing in x. Each Newton
    step that leaves the current bracket is replaced by its geometric
    midpoint, the bracket shrinks around every iterate, and a row stops once
    its step is below ``NEWTON_RTOL`` relative, so its iterates depend only
    on that row.

    Every row first iterates inside its seed bracket, before any end is
    scored. A row whose seed bracket holds a sign change (f(lo) >= 0 >=
    f(hi)) never uses f(lo) or f(hi) while it iterates, so it only has to be
    checked afterwards: an iterate with f > 0 shows f(lo) >= 0, one with
    f <= 0 shows f(hi) <= 0 (a NaN shows neither), and the ends no iterate
    vouches for are scored in one call. A row that fails the check replays
    from the same start: its bracket is widened by ``BRACKET_FACTOR`` at both
    ends, at most ``MAX_EXPANSIONS`` times (this is the only widening), and
    a row with a sign change then iterates again inside it.

    Two kinds of row leave the iteration and are marked ``fallback``. A row
    with a sign change that does not settle within ``MAX_NEWTON_STEPS`` is
    solved by Brent's method on its (widened) bracket. A row whose widened
    bracket still holds no sign change keeps a NaN root, and a BracketError
    naming that bracket is recorded in ``errors`` under the batch row.

    Returns the root of every batch row, NaN where it failed, and the
    keyword arguments of :meth:`BatchFit.build`: ``iterations`` (Newton
    steps, or Brent's where ``fallback`` is set), ``residual`` (f at the
    last iterate scored) and ``bracket`` (the widened seed bracket). A row
    not solved has 0 iterations, residual 0.0, a NaN bracket, no fallback.
    """
    size = start.size
    rows = np.setdiff1d(np.arange(size), list(errors)) if errors else np.arange(size)
    lo, hi, start = lo[rows], hi[rows], start[rows]  # lo and hi are widened where a row needs it
    k = rows.size
    x = np.full(k, np.nan)
    iterations = np.zeros(k, dtype=int)
    residual = np.zeros(k)
    used_fallback = np.zeros(k, dtype=bool)

    def whole_batch():  # the solved rows' results, scattered into the batch
        def full(values, fill):
            if k == size:  # every row of the batch was solved
                return values
            out = np.full(size, fill, dtype=values.dtype)
            out[rows] = values
            return out

        return full(x, np.nan), dict(iterations=full(iterations, 0), residual=full(residual, 0.0),
                                     bracket=(full(lo, np.nan), full(hi, np.nan)),
                                     fallback=full(used_fallback, False))

    if k == 0:
        return whole_batch()
    # each row's bracket when it left the iteration, and the rows that met a NaN score
    last_lo, last_hi = np.empty(k), np.empty(k)
    blind = np.zeros(k, dtype=bool)

    def iterate(active, xa, f, df, la, ha):
        """Newton on the rows at positions ``active`` from ``xa`` (f, df there)
        inside [la, ha]; returns the positions that did not settle."""
        count = 0
        while active.size and count < MAX_NEWTON_STEPS:
            count += 1
            below = f > 0.0
            la = np.where(below, xa, la)
            ha = np.where(below, ha, xa)
            newton = xa - f / df
            done = np.abs(newton - xa) <= NEWTON_RTOL * xa
            if np.count_nonzero(done):
                finished = active[done]
                x[finished] = np.minimum(np.maximum(newton, la), ha)[done]
                iterations[finished] = count
                residual[finished] = f[done]
                last_lo[finished], last_hi[finished] = la[done], ha[done]
                keep = ~done
                active, la, ha, newton = active[keep], la[keep], ha[keep], newton[keep]
                if not active.size:
                    break
            # a Newton step that leaves the bracket is replaced by its geometric
            # midpoint; a NaN score makes a NaN step, which always leaves it
            outside = ~((newton >= la) & (newton <= ha))
            xa = newton
            if np.count_nonzero(outside):
                xa = np.where(outside, np.sqrt(la * ha), newton)
                blind[active[np.isnan(newton)]] = True
            f, df = score(xa, rows[active])
        last_lo[active], last_hi[active] = la, ha
        return active

    with np.errstate(all="ignore"):
        outside = ~((start > lo) & (start < hi))
        xa = np.where(outside, np.sqrt(lo * hi), start) if np.count_nonzero(outside) else start
        # a whole-row-set call, which a scorer can serve without gathering its rows
        f, df = score(xa, rows)
        unsettled = iterate(np.arange(k), xa, f, df, lo, hi)

        # the seed-bracket ends no iterate vouches for; a row with neither replays
        need_lo = ~(last_lo > lo)
        need_hi = ~(last_hi < hi) | blind
        replay = need_lo & need_hi
        one = (need_lo ^ need_hi).nonzero()[0]
        if one.size:
            at_lo = need_lo[one]
            f_end = score(np.where(at_lo, lo[one], hi[one]), rows[one])[0]
            replay[one[np.where(at_lo, ~(f_end >= 0.0), ~(f_end <= 0.0))]] = True
        pending = replay = replay.nonzero()[0]
        if replay.size:
            # today's path from the same start: check the seed bracket, widen it, iterate
            x[replay], iterations[replay], residual[replay] = math.nan, 0, 0.0
            for expansion in range(MAX_EXPANSIONS + 1):
                if expansion:
                    lo[pending] /= BRACKET_FACTOR
                    hi[pending] *= BRACKET_FACTOR
                flo = score(lo[pending], rows[pending])[0]
                fhi = score(hi[pending], rows[pending])[0]
                pending = pending[~((flo >= 0.0) & (fhi <= 0.0))]
                if not pending.size:
                    break
            again = np.setdiff1d(replay, pending, assume_unique=True)
            unsettled = np.union1d(np.setdiff1d(unsettled, replay, assume_unique=True),
                                   iterate(again, xa[again], f[again], df[again],
                                           lo[again], hi[again]))

    def row_function(i):
        row = rows[i:i + 1]
        return lambda a: float(score(np.array([a]), row)[0][0])

    used_fallback[pending] = used_fallback[unsettled] = True
    for i in pending:  # no sign change in the widened bracket
        error = _no_sign_change(row_function(i), float(lo[i]), float(hi[i]))
        errors.setdefault(int(rows[i]), error)
    if unsettled.size:  # a sign change, but Newton did not settle
        # imported here: few runs reach Brent, and scipy.optimize costs every
        # process about 20 MB and 0.25 s to load
        from scipy.optimize import brentq
    for i in unsettled:
        f_row = row_function(i)
        root, info = brentq(f_row, float(lo[i]), float(hi[i]), xtol=1e-10, full_output=True)
        x[i], iterations[i], residual[i] = root, info.iterations, f_row(root)
    return whole_batch()
