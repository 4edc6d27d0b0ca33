"""Exact and quadrature covariance evaluators for the isotropic Gaussian
tempered fields.

Two variants: the exponentially tempered field (power-law kernel damped
by e^{-lambda r}) and the Bessel-tempered field (kernel r^{h-d/2}
K_{h-d/2}(lambda r) with the normalization that makes its harmonizable
amplitude exactly (lambda^2 + |xi|^2)^{-H}).  All Fourier transforms use
the unitary (2 pi)^{-d/2} convention; the spectral constant of the
Bessel-tempered field is calibrated against the kernel-quadrature oracle
and recorded below (SPECTRAL_C_STAR).
"""

import functools
import math

import numpy as np

from .quadrature import (QuadratureError, adaptive_gk, gauss_legendre,
                         integrate_decaying, oscillatory_tail)
from .specfun import (bessel_j_batch, bessel_k_batch, beta_fn,
                      gamma_fn, hyp2f1_batch)

__all__ = [
    "CovarianceError", "IsotropicGaussianSpec", "CovarianceModel",
    "itofbf_cx2", "itofbf_cov", "itofbf_variance", "itofbf_spectral_density",
    "itofbf_cov_spectral", "ibtofbf_cov", "ibtofbf_increment_cov", "ibtofbf_spectral_density",
    "ibtofbf_cov_spectral_quadrature", "ibtofbf_variance_kernel_quadrature",
    "calibrate_spectral_constant", "tfbm_variogram", "tfbm_cov",
    "tfbm_variogram_batch", "TFBMCovariance",
    "SPECTRAL_C_STAR",
]

# Calibrated harmonizable amplitude constant of the Bessel-tempered field
# under the unitary transform convention; lambda-independence of the
# recalibration is an acceptance criterion.
SPECTRAL_C_STAR = 1.0


class CovarianceError(ValueError):
    pass


def _surface_area(d):
    """Surface measure of the unit sphere S^{d-1}."""
    return 2.0 * math.pi ** (d / 2.0) / gamma_fn(d / 2.0)


class IsotropicGaussianSpec:
    """Isotropic Gaussian spec: dims, tempering, Hurst matrix, variant.

    The Hurst matrix must have real simple eigenvalues (P real); the
    Bessel variant additionally needs min h > d/4 for its closed form.
    """

    VARIANTS = ("ITOFBF", "IBTOFBF")

    def __init__(self, variant, d, n, lambda_, h_matrix):
        if variant not in self.VARIANTS:
            raise CovarianceError(f"unknown variant '{variant}'")
        self.variant = variant
        self.d = int(d)
        self.n = int(n)
        self.lambda_ = float(lambda_)
        if self.lambda_ <= 0:
            raise CovarianceError("lambda must be positive")
        if self.d < 1 or self.d > 3:
            raise CovarianceError("d in {1, 2, 3} supported")
        h_matrix = np.atleast_2d(np.asarray(h_matrix, dtype=float))
        if h_matrix.shape != (self.n, self.n):
            raise CovarianceError("Hurst matrix shape does not match n")
        self.h_matrix = h_matrix
        eig, p = np.linalg.eig(h_matrix)
        if np.max(np.abs(eig.imag)) > 1e-12:
            raise CovarianceError("Hurst eigenvalues must be real")
        eig = eig.real
        order = np.argsort(eig)
        self.h = eig[order]
        p = np.real_if_close(p[:, order], tol=1e6)
        if np.iscomplexobj(p):
            raise CovarianceError("Hurst matrix must admit a real eigenbasis")
        self.p = p
        if self.n > 1 and np.min(np.diff(self.h)) < 1e-10:
            raise CovarianceError("Hurst eigenvalues must be simple")
        if np.any(self.h <= 0) or np.any(self.h >= 1):
            raise CovarianceError("Hurst eigenvalues must lie in (0, 1)")
        if variant == "IBTOFBF" and self.h[0] <= self.d / 4.0:
            raise CovarianceError("Bessel closed form requires min h > d/4")
        self.q_matrix = np.linalg.inv(self.p.T @ self.p)
        self.p_inv = np.linalg.inv(self.p)
        self._pair_cache = {}

    def to_json(self):
        return {"variant": self.variant, "d": self.d, "n": self.n,
                "lambda": self.lambda_, "H": self.h_matrix.tolist()}

    @classmethod
    def from_json(cls, doc):
        for key in ("variant", "d", "n", "lambda", "H"):
            if key not in doc:
                raise CovarianceError(f"isotropic spec missing '{key}'")
        return cls(doc["variant"], doc["d"], doc["n"], doc["lambda"],
                   np.array(doc["H"], dtype=float))

    def _assemble(self, pair_fn, count):
        """P (Q o S) P^T for each of ``count`` stacked (n, n) matrices S,
        with S[:, i, j] = S[:, j, i] = pair_fn(i, j) (symmetric pairs)."""
        scalars = np.empty((count, self.n, self.n))
        for i in range(self.n):
            for j in range(i, self.n):
                scalars[:, i, j] = scalars[:, j, i] = pair_fn(i, j)
        return self.p @ (self.q_matrix * scalars) @ self.p.T


# ---------------------------------------------------------------------------
# pinned-stationary covariance core
#
# Every field here is X(x) = Y(x) - Y(0) with Y stationary and isotropic,
# so Var X(x) = V(|x|) for one radial n x n function V with V(0) = 0, and
#     C(x, x') = (V(|x|) + V(|x'|) - V(|x - x'|)) / 2.
# A model supplies ``v_pos``: V at every positive radius of an array,
# returned as an (R, n, n) stack, evaluated in one batch.

def _site_norms(points):
    """(|x_a|, |x_a - x_b|) of an (N, d) site array; the sums of squares run
    over the axes in one order, so |0 - x| and |x| agree to the last bit."""
    first, *rest = points.T
    norm2 = first * first
    dist2 = first[:, None] - first[None, :]
    dist2 *= dist2
    for col in rest:
        norm2 += col * col
        diff = col[:, None] - col[None, :]
        diff *= diff
        dist2 += diff
    return np.sqrt(norm2), np.sqrt(dist2, out=dist2)


def _pinned_variance(v_pos, radii, n):
    """V at every radius of an array, (R, n, n): ``v_pos`` once on the
    distinct positive radii, exactly 0 at radius 0."""
    uniq, inverse = np.unique(np.asarray(radii, dtype=float),
                              return_inverse=True)
    v = np.zeros((uniq.size, n, n))
    pos = uniq > 0
    if pos.any():
        v[pos] = v_pos(uniq[pos])
    return v[inverse.ravel()]


def _pinned_gram(v_pos, n, points, check_psd):
    """Gram over sites from V on the unique radii {|x_a|} u {|x_a - x_b|}.

    Radii are rounded to 12 decimals before deduplication, so that offsets
    equal up to rounding share one evaluation.  The origin's row and column
    are exactly 0.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n_sites = pts.shape[0]
    norms, dist = _site_norms(pts)
    radii = np.concatenate([norms, dist.ravel()])
    del dist
    np.round(radii, 12, out=radii)
    uniq = np.unique(radii)
    inverse = np.searchsorted(uniq, radii)
    del radii
    v = _pinned_variance(v_pos, uniq, n)
    v = 0.5 * (v + v.transpose(0, 2, 1))
    v_site = v[inverse[:n_sites]]
    g = v_site[:, None] + v_site[None, :]
    g -= v[inverse[n_sites:]].reshape(g.shape)
    g *= 0.5
    g = g.transpose(0, 2, 1, 3).reshape(n_sites * n, n_sites * n)
    if check_psd:
        w = np.linalg.eigvalsh(0.5 * (g + g.T))
        if w.min() < -1e-8 * max(np.trace(g), 1e-300):
            raise CovarianceError(
                f"gram matrix not PSD: min eigenvalue {w.min():.3e}")
    return g


def _pinned_cov(v_pos, n, x, x2):
    """C(x, x') from one batched V call on |x|, |x'| and |x - x'|."""
    pts = np.stack([np.atleast_1d(np.asarray(x, dtype=float)),
                    np.atleast_1d(np.asarray(x2, dtype=float))])
    norms, dist = _site_norms(pts)
    v = _pinned_variance(v_pos, [norms[0], norms[1], dist[0, 1]], n)
    return 0.5 * (v[0] + v[1] - v[2])


def _pinned_point_variance(v_pos, n, x):
    """Var X(x) = V(|x|)."""
    norms, _ = _site_norms(np.atleast_2d(np.asarray(x, dtype=float)))
    return _pinned_variance(v_pos, norms, n)[0]


# ---------------------------------------------------------------------------
# building-block integrals for the exponentially tempered kernel

def _t_integral(a, b, s):
    """int_0^inf e^{-s v} v^a (1+v)^b dv for a > -1, at every s > 0 of an
    array (one vector-valued quadrature; the tail bound is taken at the
    smallest s, whose integrand decays slowest)."""
    s = np.asarray(s, dtype=float)

    def f(v):
        v = v[:, None]
        return np.exp(-s * v) * v ** a * (1 + v) ** b

    head, _ = adaptive_gk(f, 0.0, 1.0, rtol=1e-13, atol=1e-300,
                          max_intervals=16384)
    s_min = float(s.min())

    def tail_bound(r):
        expo = -s_min * r + max(a + b, 0.0) * math.log(r) if r > 1 \
            else -s_min * r
        return 4.0 * 2.0 ** abs(b) * math.exp(max(expo, -745.0)) / s_min

    tail = integrate_decaying(
        f, 1.0, rtol=1e-13, atol=1e-300 + 1e-15 * float(np.max(np.abs(head))),
        first_width=1.0, tail_bound=tail_bound)
    return head + tail


def _cross_integral(nu, nup, mu, d):
    """X = int e^{-mu(|y| + |y-e1|)} |y|^nu |y-e1|^nup dy over R^d, at every
    mu > 0 of an array."""
    mu = np.asarray(mu, dtype=float)
    if d == 1:
        t1 = _t_integral(nu, nup, 2.0 * mu)
        t2 = t1 if nup == nu else _t_integral(nup, nu, 2.0 * mu)
        return np.exp(-mu) * (beta_fn(nu + 1.0, nup + 1.0) + t1 + t2)
    if d == 2:
        inner = _cross_inner_d2
    elif d == 3:
        inner = _cross_inner_d3
    else:
        raise CovarianceError("cross integral implemented for d <= 3")
    out = np.empty(mu.shape)
    for k, m in enumerate(mu.ravel().tolist()):
        out.flat[k] = _cross_integral_outer(inner, nu, nup, m, d)
    return out


def _cross_integral_outer(inner, nu, nup, mu, d):
    """Radial integral over [0, inf) of the weighted angular ``inner``,
    which integrates all outer nodes of one refinement step at once."""
    def outer(rho_arr):
        return inner(rho_arr, nu, nup, mu)

    head, _ = adaptive_gk(outer, 0.0, 2.0, rtol=1e-9, atol=1e-300,
                          points=(1.0,), max_intervals=8192)

    def tail_bound(r):
        expo = -2.0 * mu * r + (nu + nup + d - 1) * math.log(max(r, 1.0))
        return _surface_area(d) * math.exp(max(expo, -745.0)) / mu

    return head + integrate_decaying(outer, 2.0, rtol=1e-9,
                                     atol=1e-12 * abs(head) + 1e-300,
                                     first_width=1.0, tail_bound=tail_bound)


# The inner integrals below run one vector-valued quadrature for all outer
# nodes rho at once.  Each component carries the outer weight
# e^{-mu rho} rho^{nu+d-1}, so that the shared error criterion (relative to
# the largest component) measures every component's error on the scale of
# its contribution to the outer integral.

def _cross_inner_d2(rho, nu, nup, mu):
    """e^{-mu rho} rho^{nu+1} int_{S^1} e^{-mu s} s^nup dtheta with
    s = |rho e_theta - e1|, for an array of rho > 0."""
    a, b = np.abs(rho - 1.0), rho + 1.0
    c2 = 0.5 * (a * a + b * b)
    w2 = 0.5 * (b * b - a * a)
    weight = np.exp(-mu * rho) * rho ** (nu + 1.0)

    def f(phi):
        s = np.sqrt(np.maximum(c2 + w2 * np.sin(phi)[:, None], 0.0))
        s = np.maximum(s, 1e-300)
        return weight * np.exp(-mu * s) * s ** nup

    val, _ = adaptive_gk(f, -0.5 * math.pi, 0.5 * math.pi,
                         rtol=1e-10, atol=1e-300, max_intervals=4096)
    return 2.0 * val


def _cross_inner_d3(rho, nu, nup, mu):
    """e^{-mu rho} rho^{nu+2} (2 pi / rho) int_{|rho-1|}^{rho+1}
    e^{-mu s} s^{nup+1} ds for an array of rho > 0; s = a + (b - a) t
    maps every component to t in [0, 1]."""
    a, b = np.abs(rho - 1.0), rho + 1.0
    weight = 2.0 * math.pi * (b - a) / rho \
        * np.exp(-mu * rho) * rho ** (nu + 2.0)

    def f(t):
        s = a + (b - a) * t[:, None]
        return weight * np.exp(-mu * s) * s ** (nup + 1.0)

    val, _ = adaptive_gk(f, 0.0, 1.0, rtol=1e-11, atol=1e-300,
                         max_intervals=4096)
    return val


def _pair_integral_ma(spec, i, j, mu):
    """I(h_i, h_j; mu): unit-displacement kernel product integral, for a
    scalar mu or an array of them.  Values are cached per mu on the spec;
    the uncached mu go through one batched quadrature."""
    mus = np.asarray(mu, dtype=float)
    cache = spec._pair_cache
    todo = sorted({m for m in mus.ravel().tolist() if (i, j, m) not in cache})
    if todo:
        d = spec.d
        nu = spec.h[i] - d / 2.0
        nup = spec.h[j] - d / 2.0
        t = np.array(todo)
        vals = np.empty_like(t)
        zero = t == 0.0
        if zero.any():
            vals[zero] = _pair_integral_untempered(nu, nup, d)
        if not zero.all():
            tp = t[~zero]
            g_term = _surface_area(d) * gamma_fn(nu + nup + d) / \
                (2.0 * tp) ** (nu + nup + d)
            vals[~zero] = 2.0 * (g_term - _cross_integral(nu, nup, tp, d))
        for m, v in zip(todo, vals.tolist()):
            cache[(i, j, m)] = cache[(j, i, m)] = v
    out = np.array([cache[(i, j, m)] for m in mus.ravel().tolist()])
    return out.reshape(mus.shape) if mus.ndim else float(out[0])


def _pair_integral_untempered(nu, nup, d):
    """Formal lambda = 0 limit of the pair integral (d = 1 only)."""
    if d != 1:
        raise CovarianceError("untempered pair integral implemented for d=1")
    if abs(nu) < 1e-14 or abs(nup) < 1e-14:
        return 0.0       # the power difference cancels identically

    def f(y):
        g1 = np.abs(1.0 - y) ** nu - np.abs(y) ** nu
        g2 = np.abs(1.0 - y) ** nup - np.abs(y) ** nup
        return g1 * g2

    core, _ = adaptive_gk(f, -8.0, 9.0, rtol=1e-9, atol=1e-300,
                          points=(0.0, 1.0), max_intervals=32768)
    # substitute y = anchor / s: the tails map to (0, 1] with integrand
    # ~ s^{-(nu+nup)}, integrable since h + h' > 0
    tail_hi, _ = adaptive_gk(lambda s: _untempered_tail(nu, nup, s, 9.0),
                             0.0, 1.0, rtol=1e-9, atol=1e-300,
                             max_intervals=32768)
    tail_lo, _ = adaptive_gk(lambda s: _untempered_tail(nu, nup, s, -8.0),
                             0.0, 1.0, rtol=1e-9, atol=1e-300,
                             max_intervals=32768)
    return core + tail_hi + tail_lo


def _untempered_tail(nu, nup, s, anchor):
    y = anchor / s
    g1 = np.abs(1.0 - y) ** nu - np.abs(y) ** nu
    g2 = np.abs(1.0 - y) ** nup - np.abs(y) ** nup
    return g1 * g2 * abs(anchor) / s ** 2


def itofbf_cx2(spec, r):
    """C^2 matrix at radius r: kernel product integrals at tempering r*lambda."""
    if spec.variant != "ITOFBF":
        raise CovarianceError("itofbf_cx2 needs an ITOFBF spec")
    if r < 0:
        raise CovarianceError("radius must be nonnegative")
    mu = r * spec.lambda_
    return spec._assemble(lambda i, j: _pair_integral_ma(spec, i, j, mu), 1)[0]


def _itofbf_v(spec, radii):
    """V(rho) = rho^H C^2(rho lambda) rho^{H^T} at every rho > 0 of an array
    (one batched pair quadrature per eigen-pair)."""
    mu = radii * spec.lambda_
    return spec._assemble(
        lambda i, j: _pair_integral_ma(spec, i, j, mu)
        * radii ** (spec.h[i] + spec.h[j]), radii.size)


def itofbf_variance(spec, x):
    """Var B(x) = |x|^H C^2(|x| lambda) |x|^{H^T}."""
    return _pinned_point_variance(functools.partial(_itofbf_v, spec),
                                  spec.n, x)


def itofbf_cov(spec, x, x2):
    """Covariance from the variance function (stationary increments)."""
    return _pinned_cov(functools.partial(_itofbf_v, spec), spec.n, x, x2)


# ---------------------------------------------------------------------------
# harmonizable side of the exponentially tempered field

@functools.lru_cache(maxsize=64)
def _itofbf_density_const(h, lam, d):
    """Amplitude at xi = 0; cached, since densities are evaluated per point."""
    return gamma_fn(d / 2.0 + h) / (2.0 ** ((d - 2) / 2.0)
                                    * lam ** (d / 2.0 + h) * gamma_fn(d / 2.0))


def _itofbf_density_scalar(h, lam, d, rho):
    """Unitary-convention spectral amplitude of one eigen-component."""
    c = _itofbf_density_const(h, lam, d)
    a = (d / 2.0 + h) / 2.0
    z = -(np.asarray(rho, dtype=float) / lam) ** 2
    return c * hyp2f1_batch(a, a + 0.5, d / 2.0, z)


def _density_matrix(spec, xi, radial):
    """P diag(radial(|xi|)) P^{-1} for one frequency (shape (d,)), giving
    (n, n), or an (M, d) array of them, giving (M, n, n); ``radial`` maps
    the (M,) norms to the (M, n) eigen-amplitudes."""
    xi = np.asarray(xi, dtype=float)
    rho = np.linalg.norm(np.atleast_2d(xi), axis=1)
    amp = (spec.p * radial(rho)[:, None, :]) @ spec.p_inv
    return amp if xi.ndim == 2 else amp[0]


def itofbf_spectral_density(spec, xi):
    """Matrix spectral amplitude A(xi); Cov = int (4-term) A Q A^T.

    ``xi`` is one frequency or an (M, d) array of them (one 2F1 batch per
    Hurst eigenvalue)."""
    if spec.variant != "ITOFBF":
        raise CovarianceError("itofbf_spectral_density needs ITOFBF")
    return _density_matrix(spec, xi, lambda rho: np.stack(
        [_itofbf_density_scalar(h, spec.lambda_, spec.d, rho)
         for h in spec.h], axis=1))


def _angular_average(d, z):
    """Mean of e^{i <xi, u>} over the unit sphere: cos, J0 or sinc."""
    z = np.asarray(z, dtype=float)
    if d == 1:
        return np.cos(z)
    if d == 2:
        return bessel_j_batch(0.0, np.abs(z))
    out = np.ones_like(z)
    nz = z != 0
    out[nz] = np.sin(z[nz]) / z[nz]
    return out


@functools.lru_cache(maxsize=None)
def _angular_zeros(d, k_max):
    """Breakpoints of the angular kernel: odd multiples of pi/2 (cos),
    J0 zeros (McMahon + Newton), or multiples of pi (sinc)."""
    if d == 1:
        return (np.arange(k_max) + 0.5) * math.pi
    if d == 3:
        return (np.arange(k_max) + 1.0) * math.pi
    beta = (np.arange(k_max) + 0.75) * math.pi
    z = beta + 1.0 / (8.0 * beta) - 124.0 / (3.0 * (8.0 * beta) ** 3)
    for _ in range(2):
        z = z + bessel_j_batch(0.0, z) / bessel_j_batch(1.0, z)
    return z


def _span_gk(g, a, b, rtol):
    """int_{a_j}^{b_j} g(r)_j dr for every row j of g's (J, m) abscissae: one
    adaptive_gk over t in [0, 1], r = a + t (b - a), each row scaled by its
    8-point Gauss-Legendre estimate so the shared error test is relative."""
    def f(t):
        return ((b - a)[:, None] * g(a[:, None] + (b - a)[:, None] * t)).T

    x, w = gauss_legendre(8)
    est = np.abs(0.5 * w @ f(0.5 + 0.5 * x))
    est[est == 0.0] = 1.0
    val, _ = adaptive_gk(lambda t: f(t) / est, 0.0, 1.0, rtol=rtol,
                         atol=1e-300, max_intervals=16384)
    return val * est


def _radial_transform(env, u, d, p_decay, head_scale, rtol=1e-9):
    """T(u) = omega_{d-1} int_0^inf (1 - A_d(u r)) env(r) r^{d-1} dr at every
    u > 0 of an array, as head + mid - pre - tail.  Radii are grouped by
    r0 = min(max(2 head_scale, 1), 40/u); ``mid`` (env r^{d-1} beyond r0)
    runs once per group, ``head`` (1 - A_d on [0, r0]) and ``pre`` (A_d from
    r0 to its next zero) are one ``_span_gk`` each, and ``tail`` (panels
    between later zeros) takes one env call per block of panels, for all
    radii.  A QuadratureError names the stage, radii and tolerance.
    """
    r0 = np.minimum(max(2.0 * head_scale, 1.0), 40.0 / u)
    zeros = _angular_zeros(d, 3000)[None, :] / u[:, None]
    first = np.argmax(zeros > r0[:, None], axis=1)
    edges = zeros[np.arange(u.size)[:, None],
                  first[:, None] + np.arange(zeros.shape[1] - first.max())]

    def weighted(r):
        return env(r) * r ** (d - 1)

    def osc(r):
        return _angular_average(d, u[:, None] * r) * weighted(r)

    stage, radii, mid = "head", u, np.empty(u.size)
    try:
        head = _span_gk(lambda r: (1.0 - _angular_average(d, u[:, None] * r))
                        * weighted(r), np.zeros_like(u), r0, rtol)
        for r_split in np.unique(r0):
            group = r0 == r_split
            stage, radii = "mid", u[group]
            mid[group] = integrate_decaying(
                weighted, r_split, rtol=rtol, first_width=max(1.0, r_split),
                atol=1e-14 * float(np.max(np.abs(head[group]))) + 1e-300,
                tail_rate=max(p_decay - d, 0.1))
        stage, radii = "pre", u
        pre = _span_gk(osc, r0, edges[:, 0], rtol)
        stage = "tail"
        tail, _ = oscillatory_tail(
            osc, edges, rtol=rtol,
            atol=1e-13 * (np.abs(head) + np.abs(mid)) + 1e-300)
    except QuadratureError as exc:
        raise QuadratureError(
            f"radial transform {stage} at u = "
            f"{', '.join(f'{x:.6g}' for x in radii)}, rtol {rtol:g}: {exc}"
        ) from exc
    return _surface_area(d) * (head + mid - pre - tail)


def _spectral_v(spec, radii, rtol):
    """V(rho) = 2 c T(rho) per eigen-pair at every rho > 0 of an array, T the
    radial transform of the product of spectral amplitudes, one call of
    ``_radial_transform`` for all radii (c = C*^2 for IBTOFBF, else 1)."""
    lam, d = spec.lambda_, spec.d

    def pair(i, j):
        hi_, hj_ = spec.h[i], spec.h[j]
        if spec.variant == "ITOFBF":
            def env(r):
                amp = _itofbf_density_scalar(hi_, lam, d, r)
                return amp * (amp if i == j else
                              _itofbf_density_scalar(hj_, lam, d, r))
            p_decay, c = d + hi_ + hj_, 1.0
        else:
            def env(r):
                return (lam ** 2 + np.asarray(r, dtype=float) ** 2) \
                    ** (-(hi_ + hj_))
            p_decay, c = 2.0 * (hi_ + hj_), SPECTRAL_C_STAR ** 2
        # 256 radii per call bound the (radii, 3000) table of kernel zeros
        return 2.0 * c * np.concatenate([
            _radial_transform(env, part, d, p_decay, lam, rtol=rtol)
            for part in np.array_split(radii, -(-radii.size // 256))])

    return spec._assemble(pair, radii.size)


def itofbf_cov_spectral(spec, x, x2, rtol=1e-9):
    """Covariance through the harmonizable representation.

    Assembles T(x) + T(x') - T(x - x') per eigen-pair, T the radial
    transform of the product of spectral amplitudes against the angular
    average, with the three radii in one ``_radial_transform`` call.
    """
    if spec.variant != "ITOFBF":
        raise CovarianceError("itofbf_cov_spectral needs ITOFBF")
    return _pinned_cov(functools.partial(_spectral_v, spec, rtol=rtol),
                       spec.n, x, x2)


# ---------------------------------------------------------------------------
# Bessel-tempered field: closed forms and quadrature twins

def _bes_s(s_sum, u, lam, d):
    """S(u): radial Fourier transform of (lam^2 + r^2)^{-s_sum}, at every
    u >= 0 of an array (one bessel_k_batch call); S(0) is the u -> 0 limit
    (Beta-function constant term)."""
    u = np.asarray(u, dtype=float)
    out = np.full(u.shape, math.pi ** (d / 2.0) * lam ** (d - 2.0 * s_sum)
                  * gamma_fn(s_sum - d / 2.0) / gamma_fn(s_sum))
    pos = u > 0
    if pos.any():
        up = u[pos]
        out[pos] = (2.0 * math.pi) ** (d / 2.0) * lam ** (d / 2.0 - s_sum) \
            * 2.0 ** (1.0 - s_sum) / gamma_fn(s_sum) \
            * up ** (s_sum - d / 2.0) \
            * bessel_k_batch(d / 2.0 - s_sum, lam * up)
    return out


def _ibtofbf_v(spec, radii):
    """V(rho) = 2 C*^2 (S(0) - S(rho)) per eigen-pair at every rho > 0 of an
    array (one bessel_k_batch call per eigen-pair sum)."""
    u = np.concatenate([[0.0], radii])

    def pair(i, j):
        s = _bes_s(spec.h[i] + spec.h[j], u, spec.lambda_, spec.d)
        return 2.0 * SPECTRAL_C_STAR ** 2 * (s[0] - s[1:])

    return spec._assemble(pair, radii.size)


def ibtofbf_cov(spec, x, x2):
    """Closed-form covariance of the Bessel-tempered field.

    Per eigen-pair: S(x-x') - S(x) - S(x') + D with S the K-Bessel radial
    transform and D its u -> 0 limit (Beta-function constant term).
    """
    if spec.variant != "IBTOFBF":
        raise CovarianceError("ibtofbf_cov needs an IBTOFBF spec")
    return _pinned_cov(functools.partial(_ibtofbf_v, spec), spec.n, x, x2)


def ibtofbf_increment_cov(spec, k):
    """gamma(k) = Cov(X(k+1)-X(k), X(1)-X(0)) along e1.

    Evaluated as the second difference 2S(k) - S(k+1) - S(k-1) of the
    radial function directly, which keeps relative accuracy when the
    exponential decay has made gamma tiny against the constant term.
    """
    if spec.variant != "IBTOFBF":
        raise CovarianceError("ibtofbf_increment_cov needs IBTOFBF")
    k = float(k)
    u = np.array([k, k + 1.0, abs(k - 1.0)])

    def pair(i, j):
        s = _bes_s(spec.h[i] + spec.h[j], u, spec.lambda_, spec.d)
        return SPECTRAL_C_STAR ** 2 * (2.0 * s[0] - s[1] - s[2])

    return spec._assemble(pair, 1)[0]


def ibtofbf_spectral_density(spec, xi):
    """Spectral amplitude C* (lambda^2 + |xi|^2)^{-H} (calibrated C*), at
    one frequency or an (M, d) array of them."""
    if spec.variant != "IBTOFBF":
        raise CovarianceError("ibtofbf_spectral_density needs IBTOFBF")
    return _density_matrix(spec, xi, lambda rho: SPECTRAL_C_STAR * (
        spec.lambda_ ** 2 + rho[:, None] ** 2) ** (-spec.h))


def ibtofbf_cov_spectral_quadrature(spec, x, x2, rtol=1e-9):
    """Fourier-quadrature twin of the closed form (oracle route)."""
    if spec.variant != "IBTOFBF":
        raise CovarianceError("needs an IBTOFBF spec")
    return _pinned_cov(functools.partial(_spectral_v, spec, rtol=rtol),
                       spec.n, x, x2)


def _bes_unit_kernel(h, lam, d, z):
    """c_Bes |z|^{h-d/2} K_{h-d/2}(lam |z|) (the normalized radial factor)."""
    nu = h - d / 2.0
    c_bes = lam ** (d / 2.0 - h) * 2.0 ** (1.0 - h) / gamma_fn(h)
    z = np.abs(np.asarray(z, dtype=float))
    out = np.zeros_like(z)
    pos = z > 0
    out[pos] = c_bes * z[pos] ** nu * bessel_k_batch(nu, lam * z[pos])
    if np.any(~pos):
        # continuous limit 2^{|nu|-1} Gamma(|nu|) (lam)^{-|nu|} ... only
        # finite for nu > 0; callers avoid z = 0 otherwise
        if nu > 0:
            out[~pos] = c_bes * 2.0 ** (nu - 1.0) * gamma_fn(nu) * lam ** (-nu)
        else:
            out[~pos] = np.inf
    return out


def ibtofbf_variance_kernel_quadrature(spec_or_h, lam=None, d=1):
    """Var at |x| = 1 by direct quadrature of the moving-average kernel.

    d = 1 only; this is the independent oracle used to calibrate the
    spectral constant.
    """
    if isinstance(spec_or_h, IsotropicGaussianSpec):
        if spec_or_h.n != 1 or spec_or_h.d != 1:
            raise CovarianceError("kernel-quadrature oracle is d = n = 1")
        h, lam = float(spec_or_h.h[0]), spec_or_h.lambda_
    else:
        h = float(spec_or_h)
    if d != 1:
        raise CovarianceError("kernel-quadrature oracle is d = 1")

    def f(y):
        return (_bes_unit_kernel(h, lam, 1, 1.0 - y)
                - _bes_unit_kernel(h, lam, 1, y)) ** 2

    span = 30.0 / lam
    val, _ = adaptive_gk(f, -span, 1.0 + span, rtol=5e-13, atol=1e-300,
                         points=(0.0, 1.0), max_intervals=32768)
    return float(val)


def calibrate_spectral_constant(h, lam, d=1):
    """Spectral constant from the kernel oracle vs the closed form.

    Returns the multiplier c* such that the harmonizable amplitude
    c* (lambda^2 + |xi|^2)^{-h} reproduces the kernel-quadrature variance;
    the recorded golden is SPECTRAL_C_STAR = 1.0.
    """
    var_kernel = ibtofbf_variance_kernel_quadrature(h, lam, d)
    s = _bes_s(2.0 * h, [0.0, 1.0], lam, d)
    var_closed = 2.0 * (s[0] - s[1])
    return math.sqrt(var_kernel / var_closed)


# ---------------------------------------------------------------------------
# one-sided tempered Gaussian moving average on the line (d = n = 1)

def tfbm_variogram(h, lam, t):
    """E X(t)^2 for the one-sided tempered kernel (t-y)_+^{h-1/2}
    e^{-lam (t-y)_+} - (-y)_+^{h-1/2} e^{-lam (-y)_+} with Gaussian noise.

    Closed form via K_h; regular for every h in (0, 1), including 1/2.
    """
    return float(tfbm_variogram_batch(h, lam, np.array([t]))[0])


def tfbm_variogram_batch(h, lam, t):
    if not 0 < h < 1:
        raise CovarianceError("variogram requires h in (0, 1)")
    if lam <= 0:
        raise CovarianceError("variogram requires lam > 0")
    t = np.abs(np.asarray(t, dtype=float))
    out = np.zeros_like(t)
    pos = t > 0
    tp = t[pos]
    lt2 = 2.0 * lam * tp
    c2 = gamma_fn(2.0 * h) / lt2 ** (2.0 * h) \
        - gamma_fn(h + 0.5) * bessel_k_batch(h, lam * tp) / (
            math.sqrt(math.pi) * lt2 ** h)
    out[pos] = 2.0 * c2 * tp ** (2.0 * h)
    return out


def tfbm_cov(h, lam, s, t):
    """Covariance of the one-sided tempered Gaussian field on the line."""
    return 0.5 * (tfbm_variogram(h, lam, s) + tfbm_variogram(h, lam, t)
                  - tfbm_variogram(h, lam, s - t))


class TFBMCovariance:
    """CovarianceModel-compatible evaluator for the one-sided tempered
    Gaussian moving average on the line (closed-form variogram)."""

    n = 1
    method = "closed_form"

    def __init__(self, h, lam):
        self.h = float(h)
        self.lambda_ = float(lam)
        self.spec = self          # quacks like a spec for provenance

    def to_json(self):
        return {"variant": "TFBM_LINE", "h": self.h, "lambda": self.lambda_}

    def _v(self, radii):
        return tfbm_variogram_batch(self.h, self.lambda_, radii)[:, None, None]

    def evaluate(self, x, x2):
        return _pinned_cov(self._v, 1, x, x2)

    __call__ = evaluate

    def variance(self, x):
        return _pinned_point_variance(self._v, 1, x)

    def variogram(self, t):
        return tfbm_variogram(self.h, self.lambda_, t)

    def gram(self, points, check_psd=True):
        """Gram matrix over sites on the line; see CovarianceModel.gram."""
        return _pinned_gram(self._v, 1, points, check_psd)


# ---------------------------------------------------------------------------

class CovarianceModel:
    """Evaluator mapping (x, x') to an n x n covariance matrix.

    methods: ``closed_form`` (Bessel variant), ``kernel_quadrature``
    (exponentially tempered variant), ``spectral_integral`` (either).
    """

    METHODS = ("closed_form", "kernel_quadrature", "spectral_integral")

    def __init__(self, spec, method=None, rtol=1e-9):
        self.spec = spec
        if method is None:
            method = "closed_form" if spec.variant == "IBTOFBF" \
                else "kernel_quadrature"
        if method not in self.METHODS:
            raise CovarianceError(f"unknown method '{method}'")
        if method == "closed_form" and spec.variant != "IBTOFBF":
            raise CovarianceError("closed_form applies to IBTOFBF")
        if method == "kernel_quadrature" and spec.variant != "ITOFBF":
            raise CovarianceError("kernel_quadrature applies to ITOFBF")
        self.method = method
        self.rtol = rtol

    def __call__(self, x, x2):
        return self.evaluate(x, x2)

    def _v(self, radii):
        if self.method == "closed_form":
            return _ibtofbf_v(self.spec, radii)
        if self.method == "kernel_quadrature":
            return _itofbf_v(self.spec, radii)
        return _spectral_v(self.spec, radii, self.rtol)

    def evaluate(self, x, x2):
        return _pinned_cov(self._v, self.spec.n, x, x2)

    def variance(self, x):
        return _pinned_point_variance(self._v, self.spec.n, x)

    def gram(self, points, check_psd=True):
        """Gram matrix over sites, (N n) x (N n) with n x n blocks.

        Every model here has stationary increments and is pinned at the
        origin, so C(x, x') = (V(|x|) + V(|x'|) - V(|x - x'|)) / 2 with V
        the radial variance function, V(0) = 0.  V is evaluated once, in
        one batch, on the unique radii {|x_a|} u {|x_a - x_b|}, and the
        Gram is filled by indexing; the origin's row and column are
        exactly 0.  With ``check_psd`` a negative eigenvalue below
        -1e-8 tr(G) raises CovarianceError.
        """
        return _pinned_gram(self._v, self.spec.n, points, check_psd)
