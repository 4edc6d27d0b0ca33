"""Small statistics helpers and numeric oracles shared by the test modules."""

import math

import numpy as np

from trfield.covariance import (CovarianceModel, IsotropicGaussianSpec,
                                _bes_s, tfbm_variogram_batch)
from trfield.quadrature import adaptive_gk
from trfield.specfun import bessel_k_batch, gamma_fn


def ks_statistic(a, b):
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    allv = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, allv, side="right") / len(a)
    cdf_b = np.searchsorted(b, allv, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_pvalue(d, n, m):
    en = math.sqrt(n * m / (n + m))
    lam = (en + 0.12 + 0.11 / en) * d
    s = 0.0
    for j in range(1, 101):
        s += 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
    return max(min(s, 1.0), 0.0)


def ks_2sample_pvalue(a, b):
    return ks_pvalue(ks_statistic(a, b), len(a), len(b))


def kv_simpson(nu, u, n_panels=800):
    """K_nu(u), complex nu allowed: plain composite Simpson on the cosh
    integral int_0^T e^{-u cosh t} cosh(nu t) dt, T = acosh(745/u)."""
    t_max = math.acosh(745.0 / u) if u < 745 else 0.0
    t = np.linspace(0.0, t_max, 2 * n_panels + 1)
    f = np.exp(-u * np.cosh(t)) * np.cosh(nu * t)
    h = t[1] - t[0]
    w = np.ones(len(t))
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return h / 3.0 * np.dot(w, f)


def bes_unit_kernel(h, lam, z):
    """c_Bes |z|^{h-1/2} K_{h-1/2}(lam |z|), the normalized d = 1 radial
    factor of the Bessel-tempered kernel, at every z != 0 of an array."""
    nu = h - 0.5
    c_bes = lam ** (0.5 - h) * 2.0 ** (1.0 - h) / gamma_fn(h)
    z = np.abs(np.asarray(z, dtype=float))
    return c_bes * z ** nu * bessel_k_batch(nu, lam * z)


def ibtofbf_variance_kernel_quadrature(h, lam):
    """Var X(1) of the d = 1 Bessel-tempered field by direct quadrature of
    its moving-average kernel, the oracle that calibrates the spectral
    constant.  Gauss-Kronrod nodes are interior, so z = 0 is never asked."""
    def f(y):
        return (bes_unit_kernel(h, lam, 1.0 - y)
                - bes_unit_kernel(h, lam, y)) ** 2

    span = 30.0 / lam
    val, _ = adaptive_gk(f, -span, 1.0 + span, rtol=5e-13, atol=1e-300,
                         points=(0.0, 1.0), max_intervals=32768)
    return float(val)


def calibrate_spectral_constant(h, lam):
    """The multiplier c* for which the harmonizable amplitude
    c* (lambda^2 + |xi|^2)^{-h} reproduces the kernel-quadrature variance
    at d = 1; trfield records SPECTRAL_C_STAR = 1."""
    s = _bes_s(2.0 * h, [0.0, 1.0], lam, 1)
    return math.sqrt(ibtofbf_variance_kernel_quadrature(h, lam)
                     / (2.0 * (s[0] - s[1])))


def tfbm_model(h, lam):
    """The CovarianceModel of the TFBM_LINE field of (h, lambda)."""
    return CovarianceModel(IsotropicGaussianSpec("TFBM_LINE", 1, 1, lam,
                                                 [[h]]))


def tfbm_cov(h, lam, s, t):
    """Covariance of the TFBM line at times (s, t), one pair at a time from
    its closed-form variogram, apart from the pinned core."""
    v = tfbm_variogram_batch(h, lam, [s, t, s - t])
    return 0.5 * (v[0] + v[1] - v[2])
