"""Small statistics helpers and numeric oracles shared by the test modules."""

import math

import numpy as np


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
