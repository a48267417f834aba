"""Accuracy of the numpy log-gamma, gamma and digamma against scipy.special.

The range is x in [1, 1e6 + 1]: LM and MM evaluate at 1 + 1/a and 1 + 2/a,
and MM's widened bracket reaches a = 2e-6 (the start table's floor 0.01,
times the seed bracket's 0.2, divided by 10^3). scipy.special is imported here
only, as the oracle. Near x = 1, where gammaln itself loses digits, the
oracle is gammaln(2 + z) - log1p(z) at dyadic z, for which 2 + z is exact.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

from weibull_estlab.gammafn import gamma, loggamma, loggamma_digamma

EULER = 0.5772156649015329
MM_RANGE = np.unique(np.concatenate([
    np.geomspace(1.0, 1e6 + 1.0, 6001),
    np.random.default_rng(20261019).uniform(1.0, 3.0, 2000),
    1.0 + 1.0 / np.geomspace(2e-6, 5e6, 1000),
    1.0 + 2.0 / np.geomspace(2e-6, 5e6, 1000),
]))


def test_loggamma_matches_scipy_over_the_mm_range():
    got = loggamma(MM_RANGE)
    want = special.gammaln(MM_RANGE)
    far = MM_RANGE >= 1.01  # below it gammaln's own relative error grows
    assert np.all(np.abs(got - want)[far] <= 1e-15 * np.maximum(1.0, np.abs(want[far])))
    assert np.all(np.abs(got - want)[~far] <= 1e-16)  # where both are near 0


def test_loggamma_keeps_relative_accuracy_near_one():
    z = 2.0 ** -np.arange(1.0, 52.0)  # 2 + z and 1 + z are exact
    want = special.gammaln(2.0 + z) - np.log1p(z)
    got = loggamma(1.0 + z)
    assert np.all(np.abs(got / want - 1.0) <= 1.5e-15)
    # one ulp above 1: log Gamma(1 + z) = -gamma z + (pi^2/12) z^2 - ...
    z = 2.0 ** -52
    assert loggamma(1.0 + z) == pytest.approx(-EULER * z, rel=1e-15)
    assert loggamma(1.0) == 0.0


def test_digamma_matches_scipy_over_the_mm_range():
    lg, psi = loggamma_digamma(MM_RANGE)
    want = special.digamma(MM_RANGE)
    assert np.all(np.abs(psi - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))
    assert np.array_equal(lg, loggamma(MM_RANGE))  # one log Gamma, whichever function


def test_gamma_matches_scipy_up_to_its_overflow():
    x = np.concatenate([MM_RANGE[MM_RANGE < 171.6], [171.6]])
    got, want = gamma(x), special.gamma(x)
    # exp scales the rounding of log Gamma by its size
    assert np.all(np.abs(got / want - 1.0) <= 5e-16 * (1.0 + np.abs(special.gammaln(x))))
    assert gamma(np.array([2.0, 3.0, 5.0])) == pytest.approx([1.0, 2.0, 24.0], rel=1e-15)


def test_nan_infinity_and_overflow_without_warnings():
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        lg, psi = loggamma_digamma(np.array([np.nan, np.inf, 1e300]))
        assert math.isnan(lg[0]) and math.isnan(psi[0])
        assert lg[1] == np.inf and psi[1] == np.inf
        assert lg[2] == pytest.approx(special.gammaln(1e300), rel=1e-15)
        assert psi[2] == pytest.approx(special.digamma(1e300), rel=1e-15)
        loggamma_digamma(MM_RANGE)
    # Gamma overflows to inf above 171.6 silently, whatever the error state
    with np.errstate(all="raise"):
        g = gamma(np.array([171.7, 1e4, np.inf, np.nan]))
    assert np.array_equal(g[:3], [np.inf] * 3) and math.isnan(g[3])


def test_shapes_and_scalars():
    lg, psi = loggamma_digamma(np.full((2, 3), 2.5))
    assert lg.shape == psi.shape == (2, 3)
    assert loggamma(2.5).shape == () and gamma(2.5) == pytest.approx(special.gamma(2.5), rel=1e-15)
    assert loggamma(np.empty(0)).shape == (0,)


def test_each_element_independent_of_its_neighbours():
    x = MM_RANGE[::97]
    lg, psi = loggamma_digamma(x)
    for i in range(x.size):
        one_lg, one_psi = loggamma_digamma(x[i:i + 1])
        assert one_lg[0] == lg[i] and one_psi[0] == psi[i]
    assert np.array_equal(gamma(x[::-1]), gamma(x)[::-1])
    # MM passes 1 + 1/a and 1 + 2/a as the two rows of one array
    pair = np.stack((x, x[::-1]))
    lg2, psi2 = loggamma_digamma(pair)
    assert np.array_equal(lg2, [lg, lg[::-1]]) and np.array_equal(psi2, [psi, psi[::-1]])


@pytest.mark.parametrize("fn, shape, floats", [
    (gamma, (4096,), 16), (loggamma, (4096,), 16), (loggamma_digamma, (2, 2048), 24),
], ids=["gamma", "loggamma", "loggamma_digamma"])
def test_transient_memory_per_element(fn, shape, floats):
    # the coefficients are broadcast along x; a copy of them per element
    # would keep over 40 floats per element live
    x = np.geomspace(1.0, 1e6, math.prod(shape)).reshape(shape)
    tracemalloc.start()
    try:
        fn(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= floats * 8 * x.size, peak / (8 * x.size)
