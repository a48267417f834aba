"""Agreement and robustness of the batched estimators.

Every method fits R samples of one size at once; a single-sample fit is the
batch of one. Over a seeded corpus (shape 0.05-50, scale 1e-150-1e150, ties,
n = 2, near-constant samples, chunks of 1/255/256/257 rows) these tests check
that each batch row equals its own R = 1 call with the same failure, that
every row is a finite positive estimate or an EstimationError, that the root
solvers agree with a test-local Brent oracle and the closed forms with the
formulas they replaced, how many rows need the bisection fallback, and that
the root solver matches the eager solver it replaced in every field.
"""

import math
import re
import sys
import threading

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import brentq
from scipy.special import gamma, gammaln

from weibull_estlab import (
    BracketError,
    DataError,
    EstimationError,
    SortedSample,
    WeibullParams,
    WeightPair,
    fit_method,
    simulate_weight_medians,
)
from weibull_estlab import classical, likelihood, roots
from weibull_estlab.core import LOG_TWO, PSI_ONE, draw_sorted
from weibull_estlab.methods import METHOD_NAMES, FitOptions, fit_batch, fit_block
from weibull_estlab.regression import (
    PLOTTING_RULES,
    LogStats,
    build_positions,
    mean_corrected_transform,
    plot_transform,
    v_diagonal,
)

from conftest import dense_v, eager_solve_rows, uniform_rows

ROOT_METHODS = ("MLE", "WMLE", "MM")
CLOSED_FORMS = ("USTAT", "LM", "MLM", "PM", "GLS1", "GLS2", "WLS")


def _drawn(shape, scale, n, rows, seed):
    """Rows of Weibull samples, dropping rows whose draws under/overflow."""
    rngs = [np.random.default_rng([seed, r]) for r in range(rows)]
    values, logs = draw_sorted(WeibullParams(shape, scale), uniform_rows(rngs, n))
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


def _row_error(name, values, logs, weights=None):
    """The message of the one failed row of fit_batch(name, values, logs)."""
    (error,) = fit_batch(name, values, logs, None, weights).errors.values()
    return str(error)


def _data_error(data):
    with pytest.raises(DataError) as info:
        SortedSample.from_data(data)
    return str(info.value)


_DECREASING = np.array([[3.0, 2.0, 1.0]])  # rows reach a batch unchecked
_TIED = np.array([[1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 3.0]])


# each message's offending value, as a Python float prints it
@pytest.mark.parametrize("message, value", [
    (lambda: _data_error([1.0, -2.0]), "(-2.0)"),
    (lambda: _row_error("WMLE", *_matrix([[1.0, 2.0, 4.0]]), WeightPair(math.nan, 1.0, 3, 0)),
     ", nan) is not a finite positive pair"),
    (lambda: _row_error("LM", np.array([[-5.0, -4.0, 1.0]]), np.zeros((1, 3))), "= -0.75 "),
    (lambda: _row_error("PM", _TIED, np.log(_TIED)), "coincide (2.0)"),
    (lambda: _row_error("GLS1", _TIED, np.array([[0.0, 1.0, math.nan] + [2.0] * 7])),
     "solution [nan, nan]"),
    (lambda: _row_error("GLS1", _DECREASING, np.log(_DECREASING)), "slope -0.51"),
    (lambda: _row_error("USTAT", _DECREASING, np.log(_DECREASING)), "average -0.52"),
], ids=["observation", "estimate", "lm-ratio", "pm-quantile", "solution", "slope", "kernel"])
def test_messages_print_values_as_python_floats(message, value):
    text = message()
    assert value in text
    assert "np." not in text


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
    factor = cho_factor(dense_v(n), lower=True)
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


# --- the likelihood fits' shared start and scale ---------------------------------

def _record(*parts):
    """The rows of consecutive fits of one method as one fit's: every array's
    bytes, and the errors by row, class and message."""
    arrays = [np.concatenate([getattr(fit, field) for fit in parts])
              for field in ("shape", "scale", "iterations", "residual", "fallback")]
    arrays += [np.concatenate([fit.bracket[end] for fit in parts]) for end in (0, 1)]
    offsets = np.cumsum([0] + [fit.shape.size for fit in parts])
    errors = sorted((int(r + offset), type(e), str(e))
                    for fit, offset in zip(parts, offsets) for r, e in fit.errors.items())
    return [a.tobytes() for a in arrays], errors


# the likelihood methods requested in these orders share one solve
LIKELIHOOD_ORDERS = (("MLE", "WMLE"), ("WMLE", "MLE"), ("MLE", "WMLE", "MLE"))


@pytest.mark.parametrize("name", ["MLE", "WMLE"])
def test_likelihood_rows_do_not_depend_on_their_context(name):
    # the start is a column of the block's shared product, and the scale comes
    # from the row's own scores: fitted alone, beside the nine other methods,
    # in one solve with the other likelihood method in either order, in
    # another split of the block or under either plotting rule, a row gets
    # the same bits, diagnostics and errors
    for label, values, logs in CORPUS:
        rows = values.shape[0]
        if not rows:
            continue
        weights = _weights(values.shape[1])
        alone = _record(fit_batch(name, values, logs, None, weights))
        for rule in PLOTTING_RULES:
            options = FitOptions(plotting_rule=rule)
            fits = dict(zip(METHOD_NAMES, fit_block(METHOD_NAMES, values, logs, options, weights)))
            contexts = [fit_batch(name, values, logs, options, weights), fits[name]]
            for order in LIKELIHOOD_ORDERS:
                contexts += [fit for method, fit in
                             zip(order, fit_block(order, values, logs, options, weights))
                             if method == name]
            for fit in contexts:
                assert _record(fit) == alone, (label, rule)
            split = [fit_batch(name, values[part], logs[part], options, weights)
                     for part in (slice(0, rows // 3), slice(rows // 3, rows))]
            assert _record(*split) == alone, (label, rule)


def test_unknown_method_is_a_key_error_naming_the_known_ones():
    values, logs = _drawn(2.0, 5.0, 10, 4, 5)
    with pytest.raises(KeyError, match=f"unknown method 'XYZ'; known: {', '.join(METHOD_NAMES)}"):
        fit_batch("XYZ", values, logs)


@pytest.mark.parametrize("order", LIKELIHOOD_ORDERS + (("LM", "WMLE"),))
def test_wmle_without_weights_raises_before_any_fit(order):
    # fit_block checks WMLE's weights when it is called, before it fits
    # anything, so no earlier method's fit is returned first
    values, logs = _drawn(2.0, 5.0, 10, 4, 5)
    with pytest.raises(ValueError, match="^WMLE requires a WeightPair for the sample size$"):
        fit_block(order, values, logs)
    with pytest.raises(ValueError, match="^weights were simulated for n=12, sample has n=10$"):
        fit_block(order, values, logs, None, _weights(12))
    assert not next(fit_block(("MLE",), values, logs)).failed.any()


def test_scale_from_last_score_matches_a_fresh_pass(monkeypatch):
    # the scale's power sum, taken from a row's last score to first order,
    # against a fresh exp pass at the returned root. Its rounding is that of
    # log sum(e^(a d)), about 1e-15, and the scale multiplies it by 1/shape,
    # so the bound is 1e-14 relative in the scale for shapes >= 1 and in the
    # log power sum below that (shape 0.05 reads up to ~5e-14 in the scale)
    fresh = []

    def spy(alpha, d):
        fresh.append(alpha.size)
        return original(alpha, d)

    original = likelihood._log_power_sums
    monkeypatch.setattr(likelihood, "_log_power_sums", spy)
    solved = 0
    for label, values, logs in CORPUS:
        n = values.shape[1]
        for name in ("MLE", "WMLE"):
            weights = _weights(n)
            fit = _fit(name, values, logs)
            ok = ~fit.failed
            shape = fit.shape[ok]
            log_sum = original(shape, logs[ok] - logs[ok, -1:])
            w1 = weights.w1 if name == "WMLE" else 1.0
            scale = np.exp(logs[ok, -1] + (log_sum - math.log(n * w1)) / shape)
            error = np.abs(fit.scale[ok] / scale - 1.0) * np.minimum(shape, 1.0)
            assert error.max(initial=0.0) <= 1e-14, (label, name, error.max())
            solved += int(ok.sum())
    # rows whose last score was a bracket-end check take the fresh pass; most do not
    assert 0 < sum(fresh) < solved / 2, (sum(fresh), solved)


# --- the bisection fallback --------------------------------------------------------

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
    print(f"rows marked fallback: {fallbacks} "
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
    # Brent runs on the bracket the Newton rows were widened to, not a copy of its own
    for ends_brent, ends_newton in zip(brent.bracket, newton.bracket):
        np.testing.assert_array_equal(ends_brent[brent.fallback], ends_newton[brent.fallback])


def test_bracket_error_names_the_searched_bracket(monkeypatch):
    # MM on a near-constant sample: its start is the top of the start table
    # (shape 1000, raised by 1e-5), and the seed bracket [0.2, 5] x start is
    # widened three times
    data = [1.0] * 5 + [1.0 + 1e-13]
    batch = fit_batch("MM", *_matrix([data]))
    lo, hi = batch.bracket[0][0], batch.bracket[1][0]
    assert lo == pytest.approx(0.2 * 1000.0 * (1.0 + 1e-5) / 1000, rel=1e-12)
    assert hi == pytest.approx(5.0 * 1000.0 * (1.0 + 1e-5) * 1000, rel=1e-12)
    assert isinstance(batch.errors[0], BracketError) and batch.fallback[0]
    with pytest.raises(BracketError, match=re.escape(f"no sign change in [{lo}, {hi}] after 3 ")):
        fit_method("MM", SortedSample.from_data(data))
    # an MLE row whose score stays positive: the seed bracket [0.2, 5] x seed, widened
    # three times, with seed the default-rule GLS1 shape
    monkeypatch.setattr(likelihood, "_score_rows", lambda dd, mean_d, alpha, w2: (
        1.0 / alpha, -1.0 / alpha ** 2, np.ones_like(alpha), np.zeros_like(alpha)))
    values, logs = _drawn(2.0, 5.0, 10, 1, 4)
    batch = fit_batch("MLE", values, logs)
    lo, hi = batch.bracket[0][0], batch.bracket[1][0]
    seed = fit_batch("GLS1", values, logs).shape[0]
    assert lo == pytest.approx(0.2 * seed / 1000, rel=1e-12)
    assert hi == pytest.approx(5.0 * seed * 1000, rel=1e-12)
    assert isinstance(batch.errors[0], BracketError) and batch.fallback[0]
    assert f"no sign change in [{lo}, {hi}] after 3 expansions" in str(batch.errors[0])


def test_wmle_without_sign_change_raises_a_bracket_error():
    # with w2 <= 0 (no simulation makes one) the weighted score is negative
    # everywhere, so every row fails as an MLE row without a sign change does:
    # in the batch and in the batch of one, naming the widened seed bracket
    # around the default-rule GLS1 shape
    values, logs = _drawn(2.0, 5.0, 10, 4, 5)
    weights = WeightPair(w1=1.0, w2=-5.0, n=10, replications=1000)
    batch = fit_batch("WMLE", values, logs, None, weights)
    assert batch.fallback.all() and np.isnan(batch.shape).all()
    for r in range(values.shape[0]):
        lo, hi = batch.bracket[0][r], batch.bracket[1][r]
        seed = fit_batch("GLS1", values, logs).shape[r]
        assert lo == pytest.approx(0.2 * seed / 1000, rel=1e-12)
        assert hi == pytest.approx(5.0 * seed * 1000, rel=1e-12)
        assert isinstance(batch.errors[r], BracketError)
        assert f"no sign change in [{lo}, {hi}] after 3 expansions" in str(batch.errors[r])
        with pytest.raises(BracketError) as single:
            fit_method("WMLE", SortedSample.from_data(values[r]), None, weights)
        assert str(single.value) == str(batch.errors[r])


def _diagnostics(fit):
    """Copies of every array a BatchFit holds."""
    arrays = [fit.shape, fit.scale, fit.iterations, fit.residual, fit.fallback]
    arrays += list(fit.bracket or ())
    return [None if a is None else a.copy() for a in arrays]


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_results_do_not_alias_the_work_buffers(name):
    # the fits and draws reuse per-thread work arrays; a second call of the same
    # size must leave the first call's results as they were
    first = _drawn(1.3, 2.0, 1000, 24, 1)
    fit = _fit(name, *first)
    kept = _diagnostics(fit)
    drawn = [a.copy() for a in first]
    _fit(name, *_drawn(0.7, 5.0, 1000, 24, 2))
    for before, after in zip(kept, _diagnostics(fit)):
        np.testing.assert_array_equal(before, after)
    for before, after in zip(drawn, first):
        np.testing.assert_array_equal(before, after)


def test_threads_fitting_at_once_match_serial_fits():
    batches = [_drawn(shape, 1.5, n, 16, seed)
               for seed, (shape, n) in enumerate([(0.6, 1000), (2.5, 1000), (1.2, 300), (4.0, 30)])]
    weights = {n: _weights(n) for n in {b[0].shape[1] for b in batches}}

    def fit_all(values, logs):
        n = values.shape[1]
        return [_diagnostics(fit_batch(m, values, logs, None, weights[n])) for m in ("MLE", "WMLE")]

    serial = [fit_all(*b) for b in batches]
    results: dict[int, list] = {}

    def worker(i):
        results[i] = [fit_all(*batches[i % len(batches)]) for _ in range(5)]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == list(range(8))
    for i, repeats in results.items():
        for got in repeats:
            for got_fit, want_fit in zip(got, serial[i % len(batches)]):
                for a, b in zip(got_fit, want_fit):
                    np.testing.assert_array_equal(a, b)


def _same_fits(got, want):
    for got_fit, want_fit in zip(got, want, strict=True):
        for a, b in zip(_diagnostics(got_fit), want_fit, strict=True):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()


def test_blocks_fitted_in_turn_in_one_thread_match_serial_fits():
    # a block's statistics stay its own while another block of the same size
    # is fitted in the same thread, whose work arrays the two share
    a, b = _drawn(1.8, 2.0, 10, 4, 11), _drawn(0.9, 3.0, 10, 4, 12)
    weights = _weights(10)
    serial = {(m, k): _diagnostics(fit_batch(m, *block, None, weights))
              for m in ("MLE", "WMLE") for k, block in (("a", a), ("b", b))}

    on_a = fit_block(("MLE", "WMLE"), *a, None, weights)
    on_b = fit_block(("MLE",), *b, None, weights)
    got = [next(on_a), next(on_b), next(on_a)]
    _same_fits(got, [serial["MLE", "a"], serial["MLE", "b"], serial["WMLE", "a"]])

    stats_a, stats_b = LogStats(*a), LogStats(*b)
    got = [likelihood.fit_mle_batch(stats_a), likelihood.fit_mle_batch(stats_b),
           likelihood.fit_wmle_batch(stats_a, weights), likelihood.fit_wmle_batch(stats_b, weights)]
    _same_fits(got, [serial["MLE", "a"], serial["MLE", "b"], serial["WMLE", "a"], serial["WMLE", "b"]])


# --- the root solver against the eager oracle ---------------------------------------

def _solver_arrays(solved):
    """The root and every diagnostic array of a solve_rows result, by name."""
    root, diagnostics = solved
    lo, hi = diagnostics["bracket"]
    return dict(root=root, iterations=diagnostics["iterations"], residual=diagnostics["residual"],
                lo=lo, hi=hi, fallback=diagnostics["fallback"])


def _same_roots(got, want, got_errors, want_errors):
    """The root and every diagnostic bit for bit, and the recorded errors by row,
    class and message."""
    assert sorted(got[1]) == sorted(want[1]) == ["bracket", "fallback", "iterations", "residual"]
    for (field, a), b in zip(_solver_arrays(got).items(), _solver_arrays(want).values()):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (field, a, b)
    assert [(r, type(e), str(e)) for r, e in got_errors.items()] == \
        [(r, type(e), str(e)) for r, e in want_errors.items()]


def _both_solvers(score, start, errors):
    """solve_rows, checked against eager_solve_rows on the same arguments."""
    want_errors = dict(errors)
    want = eager_solve_rows(score, start, want_errors)
    got = roots.solve_rows(score, start, errors)
    _same_roots(got, want, errors, want_errors)
    _both_solvers.calls += 1
    return got


_both_solvers.calls = 0


@pytest.fixture
def checked_solver(monkeypatch):
    """Route the MLE, WMLE and MM fits through :func:`_both_solvers`."""
    monkeypatch.setattr(likelihood, "solve_rows", _both_solvers)
    monkeypatch.setattr(classical, "solve_rows", _both_solvers)
    _both_solvers.calls = 0
    return _both_solvers


@pytest.mark.parametrize("name", ROOT_METHODS)
def test_solver_matches_eager_oracle_on_corpus(name, checked_solver):
    for label, values, logs in CORPUS:
        _fit(name, values, logs)
    assert checked_solver.calls == sum(1 for case in CORPUS if case[1].shape[0])


def test_solver_matches_eager_oracle_on_the_likelihood_pair(checked_solver):
    # MLE and WMLE of a block share one solve over their stacked rows: the
    # eager oracle agrees with it bit for bit, one call per case for the pair
    for label, values, logs in CORPUS:
        list(fit_block(("MLE", "WMLE"), values, logs, None, _weights(values.shape[1])))
    assert checked_solver.calls == sum(1 for case in CORPUS if case[1].shape[0])


@pytest.mark.parametrize("name", ROOT_METHODS)
def test_solver_matches_eager_oracle_in_one_newton_step(name, checked_solver, monkeypatch):
    monkeypatch.setattr(roots, "MAX_NEWTON_STEPS", 1)
    for label, values, logs in CORPUS[::4] + [("drawn", *_drawn(2.0, 5.0, 12, 20, 3))]:
        batch = _fit(name, values, logs)
    assert batch.fallback.sum() > 10


def test_solver_matches_eager_oracle_without_sign_change(checked_solver):
    weights = WeightPair(w1=1.0, w2=-5.0, n=10, replications=1000)
    values, logs = _drawn(2.0, 5.0, 10, 6, 5)
    assert fit_batch("WMLE", values, logs, None, weights).fallback.all()
    assert checked_solver.calls == 1


def _log_scorer(root, slope, nan_at=None):
    """f(x) = log(root/x) per row, decreasing, with the derivative overstated by
    the row's ``slope`` factor, and NaN where x equals the row's ``nan_at``."""
    def score(x, rows):
        f = np.log(root[rows] / x)
        if nan_at is not None:
            f[x == nan_at[rows]] = math.nan
        return f, -slope[rows] / x
    return score


# start 10, so seed bracket [2, 50]; roots inside, below lo and above hi by one
# to three widenings, and beyond all three; the last row's overstated slope
# makes its first Newton step settle although its root is out of reach
_ROOTS = np.array([3.0, 0.5, 0.05, 0.005, 1e-4, 150.0, 2e3, 2e4, 1e5, 10.0, 49.0, 2.0, 1e-6])
_SLOPES = np.array([1.0] * 12 + [1e12])


@pytest.mark.parametrize("nan_at_start", [False, True], ids=["finite", "nan-at-start"])
def test_solver_matches_eager_oracle_on_synthetic_scorers(nan_at_start):
    k = _ROOTS.size
    rows, skipped = np.arange(k) * 2, np.arange(k) * 2 + 1  # the skipped rows already failed
    root, slope = np.ones(2 * k), np.ones(2 * k)
    root[rows], slope[rows] = _ROOTS, _SLOPES
    nan_at = np.full(2 * k, 10.0) if nan_at_start else None
    failed = {int(r): EstimationError(f"row {r} failed its own checks") for r in skipped}
    errors = dict(failed)
    seen = []
    log_score = _log_scorer(root, slope, nan_at)

    def score(x, batch_rows):
        seen.extend(batch_rows.tolist())
        return log_score(x, batch_rows)

    got, diagnostics = _both_solvers(score, np.full(2 * k, 10.0), errors)
    beyond = (_ROOTS < 2e-3) | (_ROOTS > 5e4)
    assert sorted(errors) == sorted(failed.keys() | set(rows[beyond].tolist()))
    assert all(errors[r] is e for r, e in failed.items())
    assert all(isinstance(errors[r], BracketError) for r in rows[beyond])
    assert diagnostics["iterations"][rows[beyond]].tolist() == [0] * int(beyond.sum())
    # a NaN score counts as f <= 0, so a NaN at the start caps the bracket of
    # a row whose root lies above it: the row bisects up to the start and
    # returns the NaN Newton point of its last score there
    capped = ~beyond & nan_at_start & (_ROOTS > 10.0)
    assert np.isnan(got[rows[capped]]).all() and diagnostics["fallback"][rows[capped]].all()
    solved = ~beyond & ~capped
    np.testing.assert_allclose(got[rows[solved]], _ROOTS[solved], rtol=1e-9)
    assert seen and not set(seen) & failed.keys()
    _assert_unsolved(got, diagnostics, skipped)


# a row that bisects halves its bracket in log at every step, so it stops
# within this many steps of the last Newton step
_BISECTION_STEPS = 64


def test_solver_bisects_where_newton_oscillates():
    # f = sign(root - x) with f' = -1/jump: every Newton step moves by the
    # row's jump, so from a start less than a jump above the root the
    # iterates swing across it and never settle
    root = np.array([9.0, 7.5, 9.9, 1.3])
    jump = np.array([3.0, 4.0, 0.5, 0.8])
    start = np.array([10.0, 10.0, 10.0, 1.5])

    def score(x, rows):
        return np.sign(root[rows] - x), -1.0 / jump[rows]

    errors = {}
    got, diagnostics = _both_solvers(score, start, errors)
    assert not errors and diagnostics["fallback"].all()
    steps = diagnostics["iterations"] - roots.MAX_NEWTON_STEPS
    assert np.all((steps > 0) & (steps <= _BISECTION_STEPS))
    np.testing.assert_allclose(got, root, rtol=1e-7)


def test_solver_stops_where_the_score_turns_nan_after_the_start():
    # f is finite at the start only: the iterates find NaN everywhere else,
    # so no end of any bracket shows a sign and every row fails
    root = np.array([3.0, 20.0, 10.5, 0.1])
    start = np.array([10.0, 10.0, 10.0, 1.0])
    calls = []

    def score(x, rows):
        calls.append(rows.size)
        f = np.log(root[rows] / x)
        f[x != start[rows]] = math.nan
        return f, -1.0 / x

    errors = {}
    got, diagnostics = _both_solvers(score, start, errors)
    assert sorted(errors) == [0, 1, 2, 3]
    assert all(isinstance(e, BracketError) and "f(lo)=nan, f(hi)=nan" in str(e)
               for e in errors.values())
    assert diagnostics["fallback"].all() and np.isnan(got).all()
    # both solvers together: the lazy one's iteration, at most one scoring of
    # the ends and a widening, and the eager one's widening
    widening = 2 * (roots.MAX_EXPANSIONS + 1)
    assert len(calls) <= 1 + roots.MAX_NEWTON_STEPS + _BISECTION_STEPS + 1 + 2 * widening + 1


def _assert_unsolved(root, diagnostics, rows):
    """The fill values of rows the solver skipped: a NaN root, 0 iterations,
    residual 0.0, a NaN bracket and no fallback."""
    assert np.isnan(root[rows]).all()
    assert not diagnostics["iterations"][rows].any()
    assert diagnostics["residual"][rows].tolist() == [0.0] * len(rows)
    assert all(np.isnan(end[rows]).all() for end in diagnostics["bracket"])
    assert not diagnostics["fallback"][rows].any()


def test_solver_skips_a_batch_whose_rows_all_failed():
    def score(x, rows):
        raise AssertionError(f"scored rows {rows} of a batch with no open row")

    failed = {r: EstimationError(f"row {r} failed its own checks") for r in range(3)}
    errors = dict(failed)
    root, diagnostics = _both_solvers(score, np.full(3, 10.0), errors)
    assert errors.keys() == failed.keys() and all(errors[r] is e for r, e in failed.items())
    _assert_unsolved(root, diagnostics, np.arange(3))
