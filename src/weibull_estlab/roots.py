"""Bracketed root finding with geometric bracket expansion.

:func:`solve_rows` finds one root per row of a batch at once by safeguarded
Newton iteration; :func:`solve_bracketed` is the scalar Brent solver it falls
back to for a row whose bracket holds no sign change or whose iteration does
not settle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .errors import BracketError, EstimationError

__all__ = ["RootDiagnostics", "RowRoots", "expand_bracket", "solve_bracketed", "solve_rows",
           "brent_row"]

# a bracket without a sign change is widened by this factor at both ends, at
# most this many times, before the solvers give up on it
BRACKET_FACTOR = 10.0
MAX_EXPANSIONS = 3
MAX_NEWTON_STEPS = 60
# a row stops after a Newton step below this relative size; near a simple root
# the error after that step is about its square
NEWTON_RTOL = 1e-8


@dataclass(frozen=True)
class RootDiagnostics:
    iterations: int
    bracket: tuple[float, float]
    residual: float


def _sign_change(flo, fhi):
    """f changes sign (or vanishes) across the bracket; NaN never counts."""
    return ((flo == 0.0) | (fhi == 0.0) | ((flo < 0.0) & (fhi > 0.0))
            | ((flo > 0.0) & (fhi < 0.0)))


def expand_bracket(
    f: Callable[[float], float],
    lo: float,
    hi: float,
) -> tuple[float, float, float, float]:
    """Grow [lo, hi] geometrically until f changes sign across it.

    Returns (lo, hi, f(lo), f(hi)). Raises BracketError after
    ``MAX_EXPANSIONS`` symmetric expansions by ``BRACKET_FACTOR`` without a
    sign change.
    """
    flo, fhi = f(lo), f(hi)
    for _ in range(MAX_EXPANSIONS + 1):
        if _sign_change(flo, fhi):
            return lo, hi, flo, fhi
        lo /= BRACKET_FACTOR
        hi *= BRACKET_FACTOR
        flo, fhi = f(lo), f(hi)
    raise BracketError(
        f"no sign change in [{lo}, {hi}] after {MAX_EXPANSIONS} expansions "
        f"(f(lo)={flo:.6g}, f(hi)={fhi:.6g})"
    )


def solve_bracketed(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    xtol: float = 1e-10,
) -> tuple[float, RootDiagnostics]:
    """Find a root of f inside the (expanded) bracket via Brent's method."""
    lo, hi, flo, fhi = expand_bracket(f, lo, hi)
    if flo == 0.0:
        return lo, RootDiagnostics(0, (lo, hi), 0.0)
    if fhi == 0.0:
        return hi, RootDiagnostics(0, (lo, hi), 0.0)
    root, info = brentq(f, lo, hi, xtol=xtol, full_output=True)
    return float(root), RootDiagnostics(int(info.iterations), (lo, hi), float(f(root)))


def brent_row(f: Callable[[float], float], lo: float, hi: float):
    """The scalar fallback of :func:`solve_rows`: Brent on the expanded bracket.

    Returns (root, iterations, residual, bracket, notes).
    """
    root, diag = solve_bracketed(f, lo, hi, xtol=1e-10)
    return root, diag.iterations, diag.residual, diag.bracket, ()


@dataclass(frozen=True)
class RowRoots:
    """Roots of a batch of scalar equations, aligned with ``rows``.

    ``x`` is NaN where a row failed (its exception is in the caller's error
    map). ``iterations`` counts Newton steps, or the fallback solver's
    iterations where ``fallback`` is set; ``residual`` is the function value
    at the last iterate evaluated; ``lo``/``hi`` is the (expanded) seed
    bracket the root was found in.
    """

    rows: np.ndarray
    x: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    fallback: np.ndarray
    notes: dict[int, tuple[str, ...]] = field(default_factory=dict)

    def diagnostics(self, size: int) -> dict:
        """Per-row diagnostics for all ``size`` rows of the batch (keyword
        arguments of :meth:`BatchFit.build`)."""
        def full(values, fill, dtype=float):
            if self.rows.size == size:  # every row of the batch was solved
                return values
            out = np.full(size, fill, dtype=dtype)
            out[self.rows] = values
            return out

        return dict(
            iterations=full(self.iterations, 0, int),
            residual=full(self.residual, 0.0),
            bracket=(full(self.lo, np.nan), full(self.hi, np.nan)),
            fallback=full(self.fallback, False, bool),
            notes=self.notes,
        )


def solve_rows(
    score: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    rows: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    start: np.ndarray,
    errors: dict[int, EstimationError],
    fallback=brent_row,
) -> RowRoots:
    """One root per row of decreasing functions by safeguarded Newton.

    ``score(x, rows)`` returns f and f' of the given batch rows at ``x``; f
    is decreasing in x. ``lo``/``hi``/``start`` (positive, aligned with
    ``rows``) are the seed brackets and starting points. A bracket without a
    sign change is widened as :func:`expand_bracket` does. Each Newton step
    that leaves the current bracket is replaced by its geometric midpoint,
    the bracket shrinks around every iterate, and a row stops once its step is below ``NEWTON_RTOL``
    relative, so its iterates depend only on that row. A row that finds no
    sign change or does not settle within ``MAX_NEWTON_STEPS`` goes to
    ``fallback(f, lo, hi)`` on its seed bracket, by default
    :func:`brent_row`; an EstimationError it raises is recorded in
    ``errors`` under the batch row.
    """
    k = rows.size
    lo0, hi0 = lo, hi
    lo, hi = lo.copy(), hi.copy()  # widened, then overwritten by fallback brackets
    x = np.full(k, np.nan)
    iterations = np.zeros(k, dtype=int)
    residual = np.zeros(k)
    used_fallback = np.zeros(k, dtype=bool)
    notes: dict[int, tuple[str, ...]] = {}
    if k == 0:
        return RowRoots(rows, x, iterations, residual, lo, hi, used_fallback, notes)

    with np.errstate(all="ignore"):
        outside = ~((start > lo) & (start < hi))
        xa = np.where(outside, np.sqrt(lo * hi), start) if np.count_nonzero(outside) else start
        # one call for both bracket ends and the first iterate
        f, df = score(np.concatenate([lo, hi, xa]), np.concatenate([rows, rows, rows]))
        flo, fhi, f, df = f[:k], f[k:2 * k], f[2 * k:], df[2 * k:]
        pending = ~((flo >= 0.0) & (fhi <= 0.0))
        if np.count_nonzero(pending):
            pending = pending.nonzero()[0]
            for _ in range(MAX_EXPANSIONS):
                lo[pending] /= BRACKET_FACTOR
                hi[pending] *= BRACKET_FACTOR
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
                keep = ~done
                active, la, ha, newton = active[keep], la[keep], ha[keep], newton[keep]
                if not active.size:
                    break
            # a Newton step that leaves the bracket is replaced by its geometric midpoint
            outside = ~((newton >= la) & (newton <= ha))
            xa = newton
            if np.count_nonzero(outside):
                xa = np.where(outside, np.sqrt(la * ha), newton)
            f, df = score(xa, rows[active])
        iterations[active] = MAX_NEWTON_STEPS

    for i in np.concatenate([pending, active]):
        row = int(rows[i])

        def f_row(a: float, row=row) -> float:
            return float(score(np.array([a]), np.array([row]))[0][0])

        used_fallback[i] = True
        try:
            x[i], iterations[i], residual[i], (lo[i], hi[i]), row_notes = \
                fallback(f_row, float(lo0[i]), float(hi0[i]))
        except EstimationError as exc:
            errors.setdefault(row, exc)
            x[i] = math.nan
            continue
        if row_notes:
            notes[row] = row_notes
    return RowRoots(rows, x, iterations, residual, lo, hi, used_fallback, notes)
