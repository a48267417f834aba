"""Bracketed root finding for a batch of scalar equations, one root per row.

:func:`solve_rows` is the one place that sets a seed bracket, widens it and
tests it for a sign change. It takes one starting point per batch row, skips
the rows that already have an error, and works in four steps:

1. start: score every row at its start, which lies inside its seed bracket
   ``SEED_BRACKET`` times the start;
2. iterate: safeguarded Newton on all rows at once, each inside its seed
   bracket, and bisection in log for the rows that have not settled after
   ``MAX_NEWTON_STEPS`` steps;
3. verify: score only the seed-bracket ends whose sign no iterate has shown;
4. replay: a row whose seed bracket fails starts again from its start
   inside its widened bracket.

A row whose widened bracket holds no sign change fails with a BracketError
that names that bracket. Every other row ends with the last Newton point of
its iteration, clipped to the bracket around it, and the roots and solver
diagnostics come back for the whole batch. The solver is numpy alone.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import BracketError, EstimationError

__all__ = ["solve_rows"]

# every row's seed bracket is these multiples of its start
SEED_BRACKET = (0.2, 5.0)
# a bracket without a sign change is widened by this factor at both ends, at
# most this many times, before the solver gives up on it
BRACKET_FACTOR = 10.0
MAX_EXPANSIONS = 3
MAX_NEWTON_STEPS = 60
# a row stops after a Newton step below this relative size (near a simple
# root the error after that step is about its square), or once it bisects
# a bracket narrower than this relative size
NEWTON_RTOL = 1e-8


def solve_rows(
    score: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    start: np.ndarray,
    errors: dict[int, EstimationError],
) -> tuple[np.ndarray, dict]:
    """One root per row of decreasing functions by safeguarded Newton.

    ``start`` holds one starting point per batch row; a row already in
    ``errors`` is not solved, and the others must have a positive finite
    start. A row's seed bracket is ``SEED_BRACKET`` times its start.
    ``score(x, rows)`` returns f and f' of the given batch rows at ``x``
    (always a subsequence of the rows being solved, in order and without
    repeats); f is decreasing in x. Each Newton step that leaves the current
    bracket is replaced by its geometric midpoint, the bracket shrinks around
    every iterate, and a row stops once its step is below ``NEWTON_RTOL``
    relative, so its iterates depend only on that row. A row that has not
    stopped after ``MAX_NEWTON_STEPS`` steps is marked ``fallback`` and takes
    only geometric-midpoint steps (bisection in log) from then on, until its
    step or its bracket is below ``NEWTON_RTOL`` relative.

    Every row first iterates inside its seed bracket, before any end is
    scored. A row whose seed bracket holds a sign change (f(lo) >= 0 >=
    f(hi)) never uses f(lo) or f(hi) while it iterates, so it only has to be
    checked afterwards: an iterate with f > 0 shows f(lo) >= 0, one with
    f <= 0 shows f(hi) <= 0 (a NaN shows neither), and the ends no iterate
    vouches for are scored in one call. A row that fails the check replays
    from its start: its bracket is widened by ``BRACKET_FACTOR`` at both
    ends, at most ``MAX_EXPANSIONS`` times (this is the only widening), and
    a row with a sign change then iterates again inside it. A row whose
    widened bracket still holds no sign change is marked ``fallback`` and
    keeps a NaN root, and a BracketError naming that bracket and the scores
    at its ends is recorded in ``errors`` under the batch row.

    Returns the root of every batch row, NaN where it failed or its last
    score was NaN, and the keyword arguments of :meth:`BatchFit.build`:
    ``iterations`` (Newton and bisection steps), ``residual`` (f at the last
    iterate scored) and ``bracket`` (the widened seed bracket). A row not
    solved has 0 iterations, residual 0.0, a NaN bracket, no fallback.
    """
    size = start.size
    rows = np.setdiff1d(np.arange(size), list(errors)) if errors else np.arange(size)
    start = start[rows]
    lo, hi = SEED_BRACKET[0] * start, SEED_BRACKET[1] * start  # widened where a row needs it
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
    # each row's bracket when it stopped, and the rows that met a NaN score
    last_lo, last_hi = np.empty(k), np.empty(k)
    blind = np.zeros(k, dtype=bool)

    def iterate(active, xa, f, df, la, ha):
        """Iterate the rows at positions ``active`` from ``xa`` (f, df there)
        inside [la, ha] until every one of them stops."""
        count = 0
        while active.size:
            count += 1
            below = f > 0.0
            la = np.where(below, xa, la)
            ha = np.where(below, ha, xa)
            newton = xa - f / df
            done = np.abs(newton - xa) <= NEWTON_RTOL * xa
            bisecting = count > MAX_NEWTON_STEPS
            if bisecting:  # a NaN bracket stops the row too
                done |= ~(ha - la > NEWTON_RTOL * xa)
            if np.count_nonzero(done):
                finished = active[done]
                x[finished] = np.minimum(np.maximum(newton, la), ha)[done]
                iterations[finished] = count
                residual[finished] = f[done]
                used_fallback[finished] = bisecting
                last_lo[finished], last_hi[finished] = la[done], ha[done]
                keep = ~done
                active, la, ha, newton = active[keep], la[keep], ha[keep], newton[keep]
                if not active.size:
                    break
            # a Newton step that leaves the bracket, and every step after the
            # last Newton step, is replaced by the bracket's geometric
            # midpoint; a NaN score makes a NaN step, which always leaves it
            outside = ~((newton >= la) & (newton <= ha))
            if count >= MAX_NEWTON_STEPS:
                outside[:] = True
            xa = newton
            if np.count_nonzero(outside):
                xa = np.where(outside, np.sqrt(la * ha), newton)
                blind[active[np.isnan(newton)]] = True
            f, df = score(xa, rows[active])

    with np.errstate(all="ignore"):
        # a whole-row-set call, which a scorer can serve without gathering its rows
        f, df = score(start, rows)
        iterate(np.arange(k), start, f, df, lo, hi)

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
        if not replay.size:
            return whole_batch()
        # check the seed bracket, widen it, iterate again from the start
        x[replay], iterations[replay], residual[replay] = math.nan, 0, 0.0
        for expansion in range(MAX_EXPANSIONS + 1):
            if expansion:
                lo[pending] /= BRACKET_FACTOR
                hi[pending] *= BRACKET_FACTOR
            f_lo = score(lo[pending], rows[pending])[0]
            f_hi = score(hi[pending], rows[pending])[0]
            open_rows = ~((f_lo >= 0.0) & (f_hi <= 0.0))
            pending, f_lo, f_hi = pending[open_rows], f_lo[open_rows], f_hi[open_rows]
            if not pending.size:
                break
        again = np.setdiff1d(replay, pending, assume_unique=True)
        iterate(again, start[again], f[again], df[again], lo[again], hi[again])

    used_fallback[pending] = True
    for i, end_lo, end_hi in zip(pending, f_lo, f_hi):  # no sign change in the widened bracket
        errors[int(rows[i])] = BracketError(
            f"no sign change in [{float(lo[i])}, {float(hi[i])}] after {MAX_EXPANSIONS} "
            f"expansions (f(lo)={end_lo:.6g}, f(hi)={end_hi:.6g})")
    return whole_batch()
