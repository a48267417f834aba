"""Agreement and robustness of the batched estimators.

Every method fits R samples of one size at once; a single-sample fit is the
batch of one. Over a seeded corpus (shape 0.05-50, scale 1e-150-1e150, ties,
n = 2, near-constant samples, chunks of 1/255/256/257 rows) these tests check
that each batch row equals its own R = 1 call with the same failure, that
every row is a finite positive estimate or an EstimationError, that the root
solvers agree with a test-local Brent oracle and the closed forms with the
formulas they replaced, and how many rows need the scalar fallback.
"""

import math

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import brentq
from scipy.special import gamma, gammaln

from weibull_estlab import (
    EstimationError,
    SortedSample,
    WeibullParams,
    WeightPair,
    fit_method,
    simulate_weight_medians,
)
from weibull_estlab import roots
from weibull_estlab.core import LOG_TWO, PSI_ONE, draw_sorted
from weibull_estlab.methods import METHOD_NAMES, fit_batch
from weibull_estlab.regression import (
    build_positions,
    build_v,
    mean_corrected_transform,
    plot_transform,
    v_diagonal,
)

ROOT_METHODS = ("MLE", "WMLE", "MM")
CLOSED_FORMS = ("USTAT", "LM", "MLM", "PM", "GLS1", "GLS2", "WLS")


def _drawn(shape, scale, n, rows, seed):
    """Rows of Weibull samples, dropping rows whose draws under/overflow."""
    rngs = [np.random.default_rng([seed, r]) for r in range(rows)]
    values, logs = draw_sorted(WeibullParams(shape, scale), n, rngs)
    ok = (values[:, 0] > 0.0) & np.isfinite(values[:, -1])
    return values[ok], logs[ok]


def _matrix(rows):
    values = np.sort(np.asarray(rows, dtype=float), axis=1)
    return values, np.log(values)


MODERATE = []  # labels of the drawn batches with shape 0.5-16 and scale 1e-3-1e3


def _corpus():
    """(label, values, logs) batches; every row sorted, positive and finite."""
    rng = np.random.default_rng(20261017)
    cases = []
    for k, shape in enumerate(np.geomspace(0.05, 50.0, 7)):
        for scale in (1e-150, 1e-3, 1.0, 1e3, 1e150):
            n = int(rng.choice([2, 3, 5, 10, 30, 100]))
            label = f"shape={shape:.3g} scale={scale:g} n={n}"
            cases.append((label, *_drawn(shape, scale, n, 16, 1000 * k + n)))
            if 0.4 < shape < 20.0 and 1e-4 < scale < 1e4:
                MODERATE.append(label)
    cases.append(("n=2", *_drawn(1.5, 2.0, 2, 40, 7)))
    ties = np.round(rng.weibull(2.0, (30, 8)) * 4.0, 0) + 1.0
    cases.append(("ties", *_matrix(ties)))
    near = 1.0 + rng.uniform(-1.0, 1.0, (30, 10)) * np.geomspace(1e-15, 1e-3, 30)[:, None]
    cases.append(("near-constant", *_matrix(near)))
    constant = np.full((4, 6), 3.25)
    constant[1] = 1e-200
    constant[2, -1] = np.nextafter(3.25, 4.0)  # one ulp apart
    cases.append(("constant", *_matrix(constant)))
    return cases


CORPUS = _corpus()


def _weights(n):
    return simulate_weight_medians(n, 2000, np.random.default_rng(n))


def _fit(name, values, logs):
    w = _weights(values.shape[1]) if name == "WMLE" else None
    return fit_batch(name, values, logs, None, w)


def _assert_rows_match(name, batch, values, logs):
    for r in range(values.shape[0]):
        single = _fit(name, values[r:r + 1], logs[r:r + 1])
        assert batch.failed[r] == single.failed[0], (name, r, values[r])
        if batch.failed[r]:
            assert type(batch.errors[r]) is type(single.errors[0])
        else:
            np.testing.assert_allclose([batch.shape[r], batch.scale[r]],
                                       [single.shape[0], single.scale[0]], rtol=1e-12)


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_batch_rows_match_their_single_fits(name):
    for label, values, logs in CORPUS:
        if values.shape[0]:
            _assert_rows_match(name, _fit(name, values, logs), values, logs)


@pytest.mark.parametrize("rows", [1, 255, 256, 257])
@pytest.mark.parametrize("name", METHOD_NAMES)
def test_chunk_sizes_and_row_independence(name, rows):
    values, logs = _drawn(0.8, 3.0, 7, rows, rows)
    batch = _fit(name, values, logs)
    _assert_rows_match(name, batch, values[:3], logs[:3])
    # reversing the rows reverses the results: no row depends on its neighbours
    flipped = _fit(name, values[::-1].copy(), logs[::-1].copy())
    np.testing.assert_array_equal(flipped.shape[::-1], batch.shape)
    np.testing.assert_array_equal(flipped.scale[::-1], batch.scale)


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_finite_positive_or_estimation_error(name):
    for label, values, logs in CORPUS:
        batch = _fit(name, values, logs)
        for r in range(values.shape[0]):
            if batch.failed[r]:
                assert isinstance(batch.errors[r], EstimationError), label
                with pytest.raises(type(batch.errors[r])):
                    w = _weights(values.shape[1]) if name == "WMLE" else None
                    fit_method(name, SortedSample.from_data(values[r]), None, w)
            else:
                assert np.isfinite(batch.shape[r]) and batch.shape[r] > 0, label
                assert np.isfinite(batch.scale[r]) and batch.scale[r] > 0, label


def test_constant_rows_fail_for_every_method():
    label, values, logs = CORPUS[-1]
    for name in METHOD_NAMES:
        batch = _fit(name, values[:2], logs[:2])
        assert batch.failed.all(), name


# --- test-local oracles ---------------------------------------------------------

def _score(logs, a, w2=1.0):
    d = logs - logs[-1]
    w = np.exp(a * d)
    return w2 / a + d.mean() - (w @ d) / w.sum()


def _mm_residual(values, a):
    unit = values / values.max()  # the ratio is scale-free; this keeps var finite
    target = unit.var(ddof=1) / unit.mean() ** 2
    with np.errstate(over="ignore"):
        return np.exp(gammaln(1.0 + 2.0 / a) - 2.0 * gammaln(1.0 + 1.0 / a)) - 1.0 - target


def _brent_root(f):
    grid = np.geomspace(1e-4, 1e5, 91)
    vals = [f(a) for a in grid]
    k = next(i for i in range(90) if vals[i] > 0 >= vals[i + 1])
    return brentq(f, grid[k], grid[k + 1], xtol=1e-300, rtol=1e-15, maxiter=500)


def _oracle(name, values, logs, weights):
    n = values.size
    if name == "MM":
        a = _brent_root(lambda a: _mm_residual(values, a))
        return a, values.mean() / gamma(1.0 / a + 1.0)
    w1, w2 = (weights.w1, weights.w2) if name == "WMLE" else (1.0, 1.0)
    a = _brent_root(lambda a: _score(logs, a, w2))
    d = logs - logs[-1]
    return a, math.exp(logs[-1] + (math.log(np.exp(a * d).sum()) - math.log(n * w1)) / a)


def _drawn_corpus():
    return [case for case in CORPUS[:-3] if case[1].shape[0]]


@pytest.mark.parametrize("name", ROOT_METHODS)
def test_root_methods_match_brent_oracle(name):
    checked = 0
    for label, values, logs in _drawn_corpus():
        batch = _fit(name, values, logs)
        weights = _weights(values.shape[1])
        for r in np.flatnonzero(~batch.failed):
            if np.ptp(logs[r]) < 1e-6:  # too close to constant for a 1e-9 root
                continue
            shape, scale = _oracle(name, values[r], logs[r], weights)
            assert batch.shape[r] == pytest.approx(shape, rel=1e-9), label
            assert batch.scale[r] == pytest.approx(scale, rel=1e-9), label
            checked += 1
    assert checked > 300


def _old_closed_form(name, values, logs):
    """The single-sample formulas the batch implementations replaced."""
    n = values.size
    if name == "USTAT":
        u_alpha = ((n - 1) * logs.sum() / 2.0 - np.arange(n - 1, -1, -1.0) @ logs) \
            / (n * (n - 1) / 2.0 * LOG_TWO)
        return 1.0 / u_alpha, math.exp(logs.mean() - PSI_ONE * u_alpha)
    if name == "LM":
        m1 = values.mean()
        m2 = 2.0 / (n * (n - 1)) * (np.arange(n, dtype=float) @ values) - m1
        shape = -LOG_TWO / math.log1p(-m2 / m1)
        return shape, m1 / gamma(1.0 / shape + 1.0)
    if name == "MLM":
        shape = math.sqrt(math.pi ** 2 / (6.0 * logs.var(ddof=1)))
        return shape, math.exp(logs.mean() - PSI_ONE / shape)
    if name == "PM":
        x_p = np.quantile(values, 0.31, method="median_unbiased")
        x_a = np.quantile(values, 1.0 - math.exp(-1.0), method="median_unbiased")
        return math.log(-math.log1p(-0.31)) / (math.log(x_p) - math.log(x_a)), x_a
    p = build_positions(n).values
    ones = np.ones(n)
    x = np.column_stack([ones, plot_transform(p)])
    z = np.column_stack([ones, mean_corrected_transform(p, n)])
    factor = cho_factor(build_v(n), lower=True)
    if name == "GLS1":
        vi_z = cho_solve(factor, z)
        b = np.linalg.solve(z.T @ vi_z, vi_z.T @ logs)
    elif name == "GLS2":
        vi_z = cho_solve(factor, z)
        b = np.linalg.solve(z.T @ cho_solve(factor, x), vi_z.T @ logs)
    else:
        xw = x / v_diagonal(n)[:, None]
        b = np.linalg.solve(xw.T @ x, xw.T @ logs)
    return 1.0 / b[1], math.exp(b[0])


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_closed_forms_match_previous_formulas(name):
    # At the extremes of the corpus both formulas lose digits to cancellation
    # (logs near +-345 at scale 1e+-150, m2/m1 -> 1 at shape 0.05), so any
    # change of summation order moves them by more than 1e-12; the moderate
    # batches pin the formulas, the agreement tests above cover the rest.
    checked = 0
    for label, values, logs in _drawn_corpus():
        if label not in MODERATE:
            continue
        batch = _fit(name, values, logs)
        for r in np.flatnonzero(~batch.failed):
            shape, scale = _old_closed_form(name, values[r], logs[r])
            assert batch.shape[r] == pytest.approx(shape, rel=1e-12), label
            assert batch.scale[r] == pytest.approx(scale, rel=1e-12), label
            checked += 1
    assert checked > 150


# --- the scalar Brent fallback -----------------------------------------------------

def test_fallback_rows_are_counted_and_rare():
    drawn_rows = drawn_fallbacks = fallbacks = 0
    for label, values, logs in CORPUS:
        for name in ROOT_METHODS:
            batch = _fit(name, values, logs)
            for r in np.flatnonzero(batch.fallback):
                # only near-constant samples, whose root leaves the widened bracket
                assert np.ptp(logs[r]) < 1e-3, (label, name, r)
                assert type(batch.errors.get(r)).__name__ in ("BracketError", "NoneType")
            fallbacks += int(batch.fallback.sum())
            if (label, values, logs) in _drawn_corpus():
                drawn_rows += values.shape[0]
                drawn_fallbacks += int(batch.fallback.sum())
    print(f"rows solved by the Brent fallback: {fallbacks} "
          f"({drawn_fallbacks} of {drawn_rows} drawn Weibull rows)")
    assert drawn_fallbacks == 0 and drawn_rows > 1000


@pytest.mark.parametrize("name", ROOT_METHODS)
def test_forced_fallback_matches_newton(name, monkeypatch):
    values, logs = _drawn(2.0, 5.0, 12, 20, 3)
    newton = _fit(name, values, logs)
    monkeypatch.setattr(roots, "MAX_NEWTON_STEPS", 1)
    brent = _fit(name, values, logs)
    assert brent.fallback.sum() > 10
    np.testing.assert_allclose(brent.shape, newton.shape, rtol=1e-9)
    np.testing.assert_allclose(brent.scale, newton.scale, rtol=1e-9)
    assert not np.any(newton.fallback)


def test_wmle_without_sign_change_minimizes_the_squared_score():
    values, logs = _drawn(2.0, 5.0, 10, 4, 5)
    weights = WeightPair(w1=1.0, w2=-5.0, n=10, replications=1000)
    batch = fit_batch("WMLE", values, logs, None, weights)
    assert batch.fallback.all()
    for r in range(values.shape[0]):
        single = fit_method("WMLE", SortedSample.from_data(values[r]), None, weights)
        assert single.notes and "minimized" in single.notes[0]
        assert single.shape == pytest.approx(batch.shape[r], rel=1e-12)
        assert math.isfinite(single.shape) and single.shape > 0
