import math
from dataclasses import dataclass

import numpy as np
import pytest

from weibull_estlab import SortedSample, build_positions, lifetime48
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
