"""Hot numeric kernels: numba-jitted scalars plus pure-numpy twins.

``kv_batch`` (K_nu) has one implementation, in numpy: a Temme series for
u <= 2 and a trapezoidal cosh integral above, with no numba twin.  The
other public kernels dispatch on :data:`trfield._accel.NUMBA_ENABLED`:
the jitted path loops a scalar kernel, the numpy path evaluates the same
recurrences with array masks.  ``trfield.benchmark`` times them all.
"""

import math

import numpy as np

from ._accel import NUMBA_ENABLED, maybe_njit

# Coefficients of 1/Gamma(1+x) = sum_j A[j] x^j  (Abramowitz & Stegun 6.1.34).
_RGAMMA_A = np.array([
    1.0000000000000000, 0.5772156649015329, -0.6558780715202538,
    -0.0420026350340952, 0.1665386113822915, -0.0421977345555443,
    -0.0096219715278770, 0.0072189432466630, -0.0011651675918591,
    -0.0002152416741149, 0.0001280502823882, -0.0000201348547807,
    -0.0000012504934821, 0.0000011330272320, -0.0000002056338417,
    0.0000000061160950, 0.0000000050020075, -0.0000000011812746,
    0.0000000001043427, 0.0000000000077823, -0.0000000000036968,
    0.0000000000005100, -0.0000000000000206, -0.0000000000000054,
    0.0000000000000014, 0.0000000000000001,
])

_KV_UNDERFLOW_U = 700.0
_KV_CHUNK = 256


def _gam_pair(mu):
    """gam1 = [1/G(1-mu)-1/G(1+mu)]/(2 mu), gam2 = [1/G(1-mu)+1/G(1+mu)]/2."""
    mu2 = mu * mu
    gam1 = 0.0
    p = 1.0
    for j in range(1, 26, 2):
        gam1 -= _RGAMMA_A[j] * p
        p *= mu2
    gam2 = 0.0
    p = 1.0
    for j in range(0, 26, 2):
        gam2 += _RGAMMA_A[j] * p
        p *= mu2
    return gam1, gam2


def _kv_series_np(nu, x):
    """Modified Bessel K_nu(x) for 0 < x <= 2 via the Temme-style series."""
    n = int(math.floor(nu + 0.5))
    mu = nu - n                      # mu in [-1/2, 1/2]
    x2 = 0.5 * x
    d = -np.log(x2)
    e = mu * d
    pimu = math.pi * mu
    fact = pimu / math.sin(pimu) if abs(pimu) > 1e-14 else 1.0 + pimu * pimu / 6.0
    fact2 = np.where(np.abs(e) > 1e-14, np.sinh(e) / np.where(e == 0, 1.0, e),
                     1.0 + e * e / 6.0)
    gam1, gam2 = _gam_pair(mu)
    gampl = gam2 + mu * gam1         # 1/Gamma(1-mu)
    gammi = gam2 - mu * gam1         # 1/Gamma(1+mu)
    ff = fact * (gam1 * np.cosh(e) + gam2 * fact2 * d)
    ksum = ff.copy()
    ee = np.exp(e)
    p = 0.5 * ee / gammi             # (1/2)(x/2)^(-mu) Gamma(1+mu)
    q = 0.5 / (ee * gampl)           # (1/2)(x/2)^(+mu) Gamma(1-mu)
    c = np.ones_like(x)
    x2sq = x2 * x2
    ksum1 = p.copy()
    for i in range(1, 80):
        ff = (i * ff + p + q) / (i * i - mu * mu)
        c *= x2sq / i
        p = p / (i - mu)
        q = q / (i + mu)
        dl = c * ff
        ksum += dl
        ksum1 += c * (p - i * ff)
        if np.max(np.abs(dl)) < np.max(np.abs(ksum)) * 1e-17:
            break
    k0 = ksum
    k1 = ksum1 * (2.0 / x)
    if n == 0:
        return k0
    for i in range(n - 1):
        k0, k1 = k1, k0 + (2.0 * (mu + i + 1) / x) * k1
    return k1


def _kv_trapezoid_np(nu, u):
    """K_nu(u) for u > 2 by the trapezoidal rule on the cosh integral.

    K_nu(u) = e^{-u} int_0^T exp(-2u sinh^2(t/2)) cosh(nu t) dt with
    T = acosh(745/u), beyond which e^{-u cosh t} underflows.  The
    integrand is even and entire, so the rule with the half weight at
    t = 0 converges exponentially (Trefethen & Weideman, SIAM Rev. 2014);
    its width near t = 0 is about u^{-1/2}, hence the step
    h = min(0.15, 0.6/sqrt(u)) and at most 48 nodes per argument (the cap
    keeps the error near 1e-15 relative up to nu = 8, against mpmath).
    Factoring out e^{-u} keeps the exponent small near the peak, so the
    rounding of u cosh t does not cost u ulps.  Arguments are processed in
    chunks of ``_KV_CHUNK`` to bound the (chunk, nodes) temporaries.
    """
    out = np.empty_like(u)
    for start in range(0, u.shape[0], _KV_CHUNK):
        uc = u[start:start + _KV_CHUNK]
        h = np.minimum(0.15, 0.6 / np.sqrt(uc))
        t_max = np.arccosh(745.0 / uc)
        k = np.arange(int(np.ceil(np.max(t_max / h))) + 1)
        t = h[:, None] * k[None, :]
        core = -2.0 * uc[:, None] * np.sinh(0.5 * t) ** 2
        v = 0.5 * (np.exp(core + nu * t) + np.exp(core - nu * t))
        v[:, 0] *= 0.5
        out[start:start + _KV_CHUNK] = np.exp(-uc) * h * np.sum(v, axis=1)
    return out


def kv_batch(nu, u):
    """K_nu(u) over a 1-d array: series for u <= 2, trapezoid above, 0 past
    ``_KV_UNDERFLOW_U``."""
    nu = abs(float(nu))
    u = np.ascontiguousarray(np.asarray(u, dtype=float).ravel())
    out = np.zeros_like(u)
    small = (u <= 2.0) & (u > 0)
    large = (u > 2.0) & (u <= _KV_UNDERFLOW_U)
    if np.any(small):
        out[small] = _kv_series_np(nu, u[small])
    if np.any(large):
        out[large] = _kv_trapezoid_np(nu, u[large])
    return out


# ---------------------------------------------------------------------------
# Gauss hypergeometric 2F1 for real parameters, z <= 0.

@maybe_njit(cache=True)
def _gammasgn(x):
    if x > 0.0:
        return 1.0
    return 1.0 if math.floor(x) % 2 == 0 else -1.0


@maybe_njit(cache=True)
def _rgamma_zero(x):
    """True where 1/Gamma(x) = 0, i.e. at the non-positive integers."""
    return x <= 0.0 and x == math.floor(x)


@maybe_njit(cache=True)
def _conn_coef(a, b, c):
    """Sign and log-magnitude of Gamma(c) Gamma(b-a) / (Gamma(b) Gamma(c-a)).

    This is the coefficient of the (-z)^(-a) term of the 1/z connection
    formula (DLMF 15.8.2); swap a and b for the other term.  1/Gamma is
    exactly 0 at the non-positive integers, so the sign is 0 (the term
    vanishes) when b or c - a is one, and lgamma is never called at a pole.
    """
    if _rgamma_zero(b) or _rgamma_zero(c - a):
        return 0.0, 0.0
    sg = _gammasgn(c) * _gammasgn(b - a) * _gammasgn(b) * _gammasgn(c - a)
    lg = (math.lgamma(c) + math.lgamma(b - a) - math.lgamma(b)
          - math.lgamma(c - a))
    return sg, lg


@maybe_njit(cache=True)
def _hyp_series(a, b, c, w, max_terms):
    """Kahan-compensated power series sum_k (a)_k (b)_k / ((c)_k k!) w^k."""
    s = 1.0
    comp = 0.0
    t = 1.0
    for k in range(max_terms):
        t *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * w
        y = t - comp
        snew = s + y
        comp = (snew - s) - y
        s = snew
        if abs(t) < 1e-17 * abs(s):
            return s
    return s


@maybe_njit(cache=True)
def _hyp2f1_scalar(a, b, c, z):
    """2F1(a,b;c;z) for z <= 0 (plus the tail of the series disc)."""
    if z == 0.0:
        return 1.0
    if abs(z) < 0.9:
        return _hyp_series(a, b, c, z, 1000)
    w = z / (z - 1.0)
    ab = a - b
    near_int = abs(ab - math.floor(ab + 0.5)) < 0.02
    if z >= -16.0 or near_int:
        return (1.0 - z) ** (-a) * _hyp_series(a, c - b, c, w, 300000)
    # |z| large: connection formula through 1/z (DLMF 15.8.2)
    term1 = 0.0
    sg, lg = _conn_coef(a, b, c)
    if sg != 0.0:
        term1 = sg * math.exp(lg - a * math.log(-z)) * _hyp_series(
            a, a - c + 1.0, a - b + 1.0, 1.0 / z, 400)
    term2 = 0.0
    sg, lg = _conn_coef(b, a, c)
    if sg != 0.0:
        term2 = sg * math.exp(lg - b * math.log(-z)) * _hyp_series(
            b, b - c + 1.0, b - a + 1.0, 1.0 / z, 400)
    return term1 + term2


@maybe_njit(cache=True)
def _hyp2f1_batch_jit(a, b, c, z):
    out = np.empty(z.shape[0])
    for i in range(z.shape[0]):
        out[i] = _hyp2f1_scalar(a, b, c, z[i])
    return out


def _hyp_series_np(a, b, c, w, max_terms):
    s = np.ones_like(w)
    t = np.ones_like(w)
    for k in range(max_terms):
        t = t * ((a + k) * (b + k) / ((c + k) * (k + 1.0))) * w
        s = s + t
        if abs(t).max() < 1e-17 * abs(s).max():
            break
    return s


def _hyp2f1_batch_np(a, b, c, z):
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z)
    direct = np.abs(z) < 0.9
    if direct.any():
        out[direct] = _hyp_series_np(a, b, c, z[direct], 1000)
    ab = a - b
    near_int = abs(ab - math.floor(ab + 0.5)) < 0.02
    pfaff = ~direct & ((z >= -16.0) | near_int)
    if pfaff.any():
        zz = z[pfaff]
        w = zz / (zz - 1.0)
        out[pfaff] = (1.0 - zz) ** (-a) * _hyp_series_np(a, c - b, c, w, 300000)
    far = ~(direct | pfaff)
    if far.any():
        zz = z[far]
        acc = np.zeros_like(zz)
        sg, lg = _conn_coef(a, b, c)
        if sg != 0.0:
            acc += sg * np.exp(lg - a * np.log(-zz)) * _hyp_series_np(
                a, a - c + 1.0, a - b + 1.0, 1.0 / zz, 400)
        sg, lg = _conn_coef(b, a, c)
        if sg != 0.0:
            acc += sg * np.exp(lg - b * np.log(-zz)) * _hyp_series_np(
                b, b - c + 1.0, b - a + 1.0, 1.0 / zz, 400)
        out[far] = acc
    return out


def hyp2f1_batch(a, b, c, z):
    z = np.ascontiguousarray(np.asarray(z, dtype=float).ravel())
    if NUMBA_ENABLED:
        return _hyp2f1_batch_jit(float(a), float(b), float(c), z)
    return _hyp2f1_batch_np(float(a), float(b), float(c), z)


# ---------------------------------------------------------------------------
# Chambers-Mallows-Stuck transform for symmetric alpha-stable variates.

@maybe_njit(cache=True)
def _cms_batch_jit(theta, w, alpha):
    out = np.empty(theta.shape[0])
    if alpha == 1.0:
        for i in range(theta.shape[0]):
            out[i] = math.tan(theta[i])
        return out
    inv_a = 1.0 / alpha
    expo = (1.0 - alpha) * inv_a
    for i in range(theta.shape[0]):
        th = theta[i]
        s = math.sin(alpha * th) / math.cos(th) ** inv_a
        t = (math.cos((1.0 - alpha) * th) / w[i]) ** expo
        out[i] = s * t
    return out


def _cms_batch_np(theta, w, alpha):
    if alpha == 1.0:
        return np.tan(theta)
    inv_a = 1.0 / alpha
    expo = (1.0 - alpha) * inv_a
    s = np.sin(alpha * theta) / np.cos(theta) ** inv_a
    return s * (np.cos((1.0 - alpha) * theta) / w) ** expo


def cms_batch(theta, w, alpha):
    theta = np.ascontiguousarray(theta, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    if NUMBA_ENABLED:
        return _cms_batch_jit(theta, w, float(alpha))
    return _cms_batch_np(theta, w, float(alpha))


# ---------------------------------------------------------------------------
# Scalar moving-average kernels on 1-d grids (exponential and TFSM flavors).

@maybe_njit(cache=True)
def _ma_matrix_1d_jit(sites, nodes, nu, lam):
    out = np.empty((sites.shape[0], nodes.shape[0]))
    for i in range(sites.shape[0]):
        x = sites[i]
        for j in range(nodes.shape[0]):
            y = nodes[j]
            r1 = abs(x - y)
            r0 = abs(y)
            v1 = 0.0 if r1 == 0.0 else math.exp(-lam * r1) * r1 ** nu
            v0 = 0.0 if r0 == 0.0 else math.exp(-lam * r0) * r0 ** nu
            out[i, j] = v1 - v0
    return out


def _ma_matrix_1d_np(sites, nodes, nu, lam):
    r1 = np.abs(sites[:, None] - nodes[None, :])
    r0 = np.abs(nodes)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        v1 = np.where(r1 > 0, np.exp(-lam * r1) * r1 ** nu, 0.0)
        v0 = np.where(r0 > 0, np.exp(-lam * r0) * r0 ** nu, 0.0)
    return v1 - v0


def ma_matrix_1d(sites, nodes, nu, lam):
    sites = np.ascontiguousarray(sites, dtype=np.float64)
    nodes = np.ascontiguousarray(nodes, dtype=np.float64)
    if NUMBA_ENABLED:
        return _ma_matrix_1d_jit(sites, nodes, float(nu), float(lam))
    return _ma_matrix_1d_np(sites, nodes, float(nu), float(lam))


@maybe_njit(cache=True)
def _tfsm_matrix_jit(times, nodes, expo, lam):
    out = np.empty((times.shape[0], nodes.shape[0]))
    for i in range(times.shape[0]):
        t = times[i]
        for j in range(nodes.shape[0]):
            y = nodes[j]
            a = t - y
            b = -y
            v1 = a ** expo * math.exp(-lam * a) if a > 0.0 else 0.0
            v0 = b ** expo * math.exp(-lam * b) if b > 0.0 else 0.0
            out[i, j] = v1 - v0
    return out


def _tfsm_matrix_np(times, nodes, expo, lam):
    a = times[:, None] - nodes[None, :]
    b = -nodes[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        v1 = np.where(a > 0, np.where(a > 0, a, 1.0) ** expo * np.exp(-lam * np.abs(a)), 0.0)
        v0 = np.where(b > 0, np.where(b > 0, b, 1.0) ** expo * np.exp(-lam * np.abs(b)), 0.0)
    return v1 - np.broadcast_to(v0, v1.shape)


def tfsm_matrix(times, nodes, expo, lam):
    times = np.ascontiguousarray(times, dtype=np.float64)
    nodes = np.ascontiguousarray(nodes, dtype=np.float64)
    if NUMBA_ENABLED:
        return _tfsm_matrix_jit(times, nodes, float(expo), float(lam))
    return _tfsm_matrix_np(times, nodes, float(expo), float(lam))


# ---------------------------------------------------------------------------
# Graph box counting for 1-d sample paths.

@maybe_njit(cache=True)
def _box_count_jit(values, samples_per_col, eps):
    n_cols = values.shape[0] // samples_per_col
    total = 0
    for c in range(n_cols):
        lo = values[c * samples_per_col]
        hi = lo
        for k in range(samples_per_col + 1):
            idx = c * samples_per_col + k
            if idx >= values.shape[0]:
                break
            v = values[idx]
            if v < lo:
                lo = v
            if v > hi:
                hi = v
        total += int(math.floor(hi / eps)) - int(math.floor(lo / eps)) + 1
    return total


def _box_count_np(values, samples_per_col, eps):
    n_cols = values.shape[0] // samples_per_col
    trimmed = values[:n_cols * samples_per_col].reshape(n_cols, samples_per_col)
    # columns share their right edge with the next sample, like the jit loop
    edge_idx = np.arange(1, n_cols + 1) * samples_per_col
    right = np.where(edge_idx < values.shape[0],
                     values[np.minimum(edge_idx, values.shape[0] - 1)],
                     trimmed[:, -1])[:, None]
    cols = np.hstack([trimmed, right])
    hi = np.floor(cols.max(axis=1) / eps)
    lo = np.floor(cols.min(axis=1) / eps)
    return int(np.sum(hi - lo + 1))


def box_count(values, samples_per_col, eps):
    values = np.ascontiguousarray(values, dtype=np.float64)
    if NUMBA_ENABLED:
        return _box_count_jit(values, int(samples_per_col), float(eps))
    return _box_count_np(values, int(samples_per_col), float(eps))
