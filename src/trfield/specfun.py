"""Scalar special functions used by the covariance formulas.

Gamma/Beta via the Lanczos approximation, the modified Bessel function
K_nu (one trapezoidal rule on the cosh integral at every argument from the
smallest normal double, SpecfunError below, to 700, 0 above; +inf where
it overflows), the Bessel function J_nu, and the Gauss hypergeometric
2F1 restricted to nonpositive real argument.
"""

import cmath
import math

import numpy as np

from . import _fast
from ._fast import SpecfunError

__all__ = [
    "SpecfunError", "gamma_fn", "digamma", "beta_fn",
    "bessel_k", "bessel_k_batch", "bessel_j", "hyp2f1", "hyp2f1_batch",
]


# Lanczos g=7, n=9 coefficients (Godfrey's set).
_LANCZOS_G = 7.0
_LANCZOS_C = [
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
]


def _is_nonpositive_integer(x):
    if isinstance(x, complex):
        return abs(x.imag) < 1e-14 and _is_nonpositive_integer(x.real)
    return x <= 0 and abs(x - round(x)) < 1e-14


def gamma_fn(x):
    """Gamma function for real or complex ``x`` off the poles.

    Lanczos approximation with reflection for Re(x) < 1/2; the recurrence
    Gamma(x+1) = x Gamma(x) holds to better than 1e-12 relative.
    """
    if _is_nonpositive_integer(x):
        raise SpecfunError(f"gamma_fn: pole at {x}")
    z = complex(x)
    if z.real < 0.5:
        # reflection formula
        val = math.pi / (cmath.sin(math.pi * z) * gamma_fn(1.0 - z))
    else:
        z -= 1.0
        s = _LANCZOS_C[0]
        for i, c in enumerate(_LANCZOS_C[1:], start=1):
            s += c / (z + i)
        t = z + _LANCZOS_G + 0.5
        val = math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * s
    if not isinstance(x, complex):
        return val.real
    return val


def digamma(x):
    """Digamma function for real x off the poles."""
    if _is_nonpositive_integer(x):
        raise SpecfunError(f"digamma: pole at {x}")
    if x < 0:
        # reflection
        return digamma(1.0 - x) - math.pi / math.tan(math.pi * x)
    s = 0.0
    while x < 12.0:
        s -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    return s + math.log(x) - 0.5 / x - inv2 * (
        1.0 / 12 - inv2 * (1.0 / 120 - inv2 * (
            1.0 / 252 - inv2 * (1.0 / 240 - inv2 * (1.0 / 132)))))


def beta_fn(a, b):
    """Beta function Gamma(a)Gamma(b)/Gamma(a+b) for a, b > 0."""
    if a <= 0 or b <= 0:
        raise SpecfunError("beta_fn requires positive arguments")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def bessel_k(nu, u, with_flag=False):
    """Modified Bessel function of the second kind K_nu(u), u > 0.

    Symmetric in nu.  For u above 700 the value underflows; 0.0 is
    returned and, with ``with_flag=True``, flagged.
    """
    val = float(bessel_k_batch(nu, u))
    return (val, u > _fast._KV_UNDERFLOW_U) if with_flag else val


def bessel_k_batch(nu, u):
    """Vectorized K_nu over an array of arguments; SpecfunError for u below
    the smallest normal double, so for every u <= 0."""
    u = np.asarray(u, dtype=float)
    return _fast.kv_batch(nu, u.ravel()).reshape(u.shape)


def bessel_j(nu, u):
    """Bessel function of the first kind J_nu(u) for nu >= -1/2, u >= 0.

    Power series below u = 12, Stokes asymptotics beyond.
    """
    if nu < -0.5:
        raise SpecfunError("bessel_j supports nu >= -1/2")
    if u < 0:
        raise SpecfunError("bessel_j requires u >= 0")
    return float(bessel_j_batch(nu, np.array([u]))[0])


def bessel_j_batch(nu, u):
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    if abs(nu - 0.5) < 1e-15 or abs(nu + 0.5) < 1e-15:
        # half-integer closed forms
        with np.errstate(divide="ignore", invalid="ignore"):
            amp = np.sqrt(2.0 / (math.pi * np.where(u > 0, u, 1.0)))
            out = amp * (np.sin(u) if nu > 0 else np.cos(u))
        if nu > 0:
            out = np.where(u == 0, 0.0, out)
        else:
            out = np.where(u == 0, np.inf, out)
        return out
    small = u < 12.0
    if np.any(small):
        out[small] = _bessel_j_series(nu, u[small])
    if np.any(~small):
        out[~small] = _bessel_j_asymptotic(nu, u[~small])
    return out


def _bessel_j_series(nu, u):
    x2 = 0.5 * u
    with np.errstate(divide="ignore"):
        term = np.where(u > 0, np.exp(nu * np.log(np.where(u > 0, x2, 1.0))
                                      - math.lgamma(nu + 1.0)), 0.0)
    if nu == 0:
        term = np.where(u == 0, 1.0, term)
    s = term.copy()
    q = x2 * x2
    for k in range(1, 120):
        term = term * (-q) / (k * (nu + k))
        s += term
        if np.max(np.abs(term)) <= 1e-17 * max(np.max(np.abs(s)), 1e-300):
            break
    return s


def _bessel_j_asymptotic(nu, u):
    mu4 = 4.0 * nu * nu
    z8 = 8.0 * u
    p = np.ones_like(u)
    q = np.zeros_like(u)
    term = np.ones_like(u)
    sign = 1.0
    prev = np.inf
    for k in range(1, 19):
        term = term * (mu4 - (2 * k - 1) ** 2) / (k * z8)
        size = np.max(np.abs(term))
        if size > prev:        # truncate the Stokes series at its least term
            break
        prev = size
        if k % 2 == 1:
            q += sign * term
        else:
            sign = -sign
            p += sign * term
    # sign bookkeeping above implements P = 1 - a2/(8u)^2 ..., Q = a1/(8u) - ...
    omega = u - (0.5 * nu + 0.25) * math.pi
    return np.sqrt(2.0 / (math.pi * u)) * (p * np.cos(omega) - q * np.sin(omega))


def hyp2f1(a, b, c, z):
    """Gauss hypergeometric 2F1(a, b; c; z) for real parameters, z <= 0.

    The Pfaff series on [-1, 0] and the 1/(1-z) connection formula
    (Abramowitz & Stegun 15.3.8) below, both summed at w <= 1/2; the Pfaff
    series runs further out where the two connection terms would cancel
    (a - b near an integer, or c > 2).  Each
    connection coefficient carries a factor 1/Gamma that is exactly 0 when
    its argument (b, c - a, a or c - b) is a non-positive integer; that
    term then vanishes, so e.g. 2F1(a, b; a; z) = (1 - z)^(-b) and
    terminating (a or b a non-positive integer) cases are finite there.
    """
    _check_2f1(c, z)
    return float(_fast.hyp2f1_batch(a, b, c, np.array([float(z)]))[0])


def hyp2f1_batch(a, b, c, z):
    z = np.asarray(z, dtype=float)
    _check_2f1(c, float(z.max()) if z.size else 0.0)
    return _fast.hyp2f1_batch(a, b, c, z.ravel()).reshape(z.shape)


def _check_2f1(c, zmax):
    if _is_nonpositive_integer(c):
        raise SpecfunError("hyp2f1: c must not be a non-positive integer")
    if zmax > 0.0:
        raise SpecfunError("hyp2f1 implemented for z <= 0 only")
