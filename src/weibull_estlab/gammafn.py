"""Log-gamma, gamma and digamma of real x >= 1 in numpy, without scipy.special.

LM and MM evaluate these at 1 + 1/a and 1 + 2/a. Each function is a fixed
sequence of about thirty numpy calls, whatever the shape of ``x``, and each
element's result depends on that element alone. The polynomial coefficients
are broadcast along ``x``, never copied, so a call keeps about 13 floats per
element live at its peak (21 for loggamma_digamma).

With r = 1/x, Stirling's formula (Abramowitz & Stegun 6.1.41) and the
asymptotic digamma formula (6.3.18) are

    log Gamma(x) = (x - 1/2) log x - x + log(2 pi)/2 + mu(x),
    psi(x) = log x - 1/(2x) - r^2 F(r),

where mu is Binet's function. Written against x = 1, where log Gamma is 0,
the first becomes

    log Gamma(x) = (x - 1) (log x - 1 - e(r)) + (log x)/2,
    e(r) = (mu(1) - mu(x)) / (x - 1),

a sum of multiples of x - 1 and log x, so log Gamma keeps its relative
accuracy as x -> 1 (and is exactly 0 at 1). e and b(r) = r/2 + r^2 F(r) are
ratios of polynomials in r of degree at most 11:

    e = E(r)/Q(r),    b = G(r)/D(r).

They come from rational approximations of the remainders, mu(x) = r A(r)/Q(r)
and F(r) = B(r)/D(r), each with numerator and denominator of degree 9,
fitted over the whole range x >= 1 (0 < r <= 1) by weighted least squares
(Sanathanan-Koerner iteration) on 100 Chebyshev nodes against 50-digit
values; on a 500-point check grid their relative errors are below 2e-18
(A/Q) and 2e-17 (B/D). E and G follow from the fitted coefficients by exact
rational arithmetic: r A(r) Q(1) - A(1) Q(r) vanishes at r = 1, W is its
quotient by r - 1 and E = r W(r)/Q(1); G = r (D(r)/2 + r B(r)). No
coefficient is negative, so no evaluation cancels.

Against 40-digit values, log Gamma is within 7e-16 relative for 1 < x < 1.5
(to x = 1 + 2^-52, where scipy.special.gammaln loses all digits), about
3e-16 absolute on [1, 3] (it crosses 0 at x = 2) and 5e-16 relative above;
psi is within about 3e-16 absolute, or relative where |psi| > 1; Gamma =
exp(log Gamma) is within 1.2e-14 relative up to x = 21 and 2.3e-13 up to
171.6 (exp scales the rounding of log Gamma by its size). NaN gives NaN and
+inf gives +inf. No floating-point warning is raised for x >= 1, except that
log Gamma overflows to inf above about 2.5e305 (Gamma overflows silently
above 171.6).
"""

from __future__ import annotations

import numpy as np

__all__ = ["loggamma", "gamma", "loggamma_digamma"]

# coefficients of r^0 .. r^11 of E, G (numerators) and Q, D (denominators)
_E = (0.0, 0.08106146679532726, 0.6368348470770084, 2.5311511015742614, 6.037890489581365,
      9.157515834572528, 8.7611263030062, 4.9737355945993125, 1.4390728221302616,
      0.1313422454854928, 0.0009577238431599506, 0.0)
_G = (0.0, 0.5, 4.439315171796958, 20.07665262074829, 55.76689498274466, 101.60466260584718,
      122.85869901111447, 96.18758713413365, 45.843139178897694, 11.471929641789847,
      0.9756877943478044, 0.0007215954311000186)
_Q = (1.0, 7.884223403318129, 31.474077293497736, 75.58216779073392, 115.91498499176717,
      113.20493659956973, 67.14239307488664, 21.7481221907563, 3.0279338804193072,
      0.11755140646680068, 0.0, 0.0)
_D = (1.0, 8.71196367692725, 38.70131129534204, 105.10023808293293, 185.8378182590961,
      215.38151366220046, 158.16078330653875, 68.12462649752993, 14.417894656420263,
      1.0170961887631367, 0.0, 0.0)


def _thirds(*polys: tuple[float, ...]) -> np.ndarray:
    """Per power r^0..r^3, one column of the coefficients of the polynomials'
    low thirds, then of their middle and high thirds (those of r^4..r^7 over
    r^4, r^8..r^11 over r^8)."""
    coeffs = np.array(polys).reshape(len(polys), 3, 4)  # polynomial, third, power
    return np.ascontiguousarray(coeffs.T).reshape(4, -1, 1)


# numerators first, then their denominators
_LOG_GAMMA_THIRDS = _thirds(_E, _Q)
_BOTH_THIRDS = _thirds(_E, _G, _Q, _D)
_ONE = np.array(1.0)
_HALF = np.array(0.5)


def _ratios(x: np.ndarray, thirds: np.ndarray) -> np.ndarray:
    """The numerator/denominator ratios of the polynomials in ``thirds`` at
    r = 1/x, one row each, for a 1-d ``x``.

    Each polynomial is its low third plus r^4 times (its middle third plus
    r^4 times its high third). Horner's rule sums all thirds at once, one row
    per third, with each power's column of coefficients broadcast along
    ``x``, so that each element gets the same operations wherever it sits in
    ``x`` and no coefficient is copied.
    """
    polys = thirds.shape[1] // 3
    r = _ONE / x
    acc = thirds[3] * r
    acc += thirds[2]
    acc *= r
    acc += thirds[1]
    acc *= r
    acc += thirds[0]
    low, middle, high = acc.reshape(3, polys, x.size)
    r4 = r * r
    r4 *= r4
    poly = high * r4
    poly += middle
    poly *= r4
    poly += low
    half = polys // 2
    return poly[:half] / poly[half:]


def _flat(x) -> tuple[np.ndarray, np.ndarray]:
    flat = np.asarray(x, dtype=float).reshape(-1)
    return flat, np.log(flat)


def _log_gamma(x: np.ndarray, lx: np.ndarray, e: np.ndarray) -> np.ndarray:
    out = (x - _ONE) * (lx - _ONE - e)
    out += _HALF * lx
    return out


def loggamma(x) -> np.ndarray:
    """log Gamma(x) for every element of ``x`` (real, >= 1)."""
    flat, lx = _flat(x)
    e = _ratios(flat, _LOG_GAMMA_THIRDS)[0]
    return _log_gamma(flat, lx, e).reshape(np.shape(x))


def gamma(x) -> np.ndarray:
    """Gamma(x) for every element of ``x`` (real, >= 1); inf above 171.6."""
    with np.errstate(over="ignore"):
        return np.exp(loggamma(x))


def loggamma_digamma(x) -> tuple[np.ndarray, np.ndarray]:
    """log Gamma(x) and psi(x) for every element of ``x`` (real, >= 1), from
    one evaluation of their four polynomials in 1/x."""
    flat, lx = _flat(x)
    e, b = _ratios(flat, _BOTH_THIRDS)
    shape = np.shape(x)
    return _log_gamma(flat, lx, e).reshape(shape), (lx - b).reshape(shape)
