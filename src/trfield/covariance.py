"""Exact and quadrature covariance evaluators for the isotropic Gaussian
tempered fields.

Three variants: the exponentially tempered field (power-law kernel damped
by e^{-lambda r}), the Bessel-tempered field (kernel r^{h-d/2}
K_{h-d/2}(lambda r) with the normalization that makes its harmonizable
amplitude exactly (lambda^2 + |xi|^2)^{-H}) and the one-sided tempered
moving average on the line (TFBM_LINE).  ``CovarianceModel`` evaluates
each of them.  All Fourier transforms use the unitary (2 pi)^{-d/2}
convention; the spectral constant of the Bessel-tempered field is
calibrated against the kernel-quadrature oracle and recorded below
(SPECTRAL_C_STAR).
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
    "itofbf_spectral_density", "ibtofbf_increment_cov",
    "ibtofbf_spectral_density", "tfbm_variogram_batch", "SPECTRAL_C_STAR",
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
    Bessel variant additionally needs min h > d/4 for its closed form, and
    TFBM_LINE, the one-sided tempered moving average, is d = n = 1.
    """

    VARIANTS = ("ITOFBF", "IBTOFBF", "TFBM_LINE")

    def __init__(self, variant, d, n, lambda_, h_matrix):
        if variant not in self.VARIANTS:
            raise CovarianceError(f"unknown variant '{variant}'")
        self.variant = variant
        self.d = int(d)
        self.n = int(n)
        self.lambda_ = float(lambda_)
        if not self.lambda_ > 0:
            raise CovarianceError("lambda must be positive")
        if self.d < 1 or self.d > 3:
            raise CovarianceError("d in {1, 2, 3} supported")
        if variant == "TFBM_LINE" and (self.d, self.n) != (1, 1):
            raise CovarianceError("TFBM_LINE is d = n = 1")
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
        if not np.all((self.h > 0) & (self.h < 1)):
            raise CovarianceError("Hurst eigenvalues must lie in (0, 1)")
        if variant == "IBTOFBF" and self.h[0] <= self.d / 4.0:
            raise CovarianceError("Bessel closed form requires min h > d/4")
        self.q_matrix = np.linalg.inv(self.p.T @ self.p)
        self.p_inv = np.linalg.inv(self.p)
        self._pair_cache = {}

    def to_json(self):
        if self.variant == "TFBM_LINE":
            return {"variant": self.variant, "h": float(self.h_matrix[0, 0]),
                    "lambda": self.lambda_}
        return {"variant": self.variant, "d": self.d, "n": self.n,
                "lambda": self.lambda_, "H": self.h_matrix.tolist()}

    @classmethod
    def from_json(cls, doc):
        """Spec from its JSON document: d and n must be JSON integers,
        lambda and h numbers and H a list of numbers, else CovarianceError
        naming the field.  TFBM_LINE takes h and lambda, no d, n or H."""
        if not isinstance(doc, dict):
            raise CovarianceError(f"isotropic spec must be an object, "
                                  f"got {doc!r}")
        tfbm = doc.get("variant") == "TFBM_LINE"
        for key in ("variant", "h", "lambda") if tfbm \
                else ("variant", "d", "n", "lambda", "H"):
            if key not in doc:
                raise CovarianceError(f"isotropic spec missing '{key}'")
            value = doc[key]
            if key in ("d", "n") and type(value) is not int:
                raise CovarianceError(f"isotropic spec: '{key}' must be an "
                                      f"integer, got {value!r}")
            if key in ("h", "lambda", "H"):
                try:
                    arr = np.asarray(value)
                except ValueError:          # a ragged list
                    arr = np.array(None)
                if arr.dtype.kind not in "iuf" or (key != "H" and arr.ndim):
                    raise CovarianceError(
                        f"isotropic spec: '{key}' must be "
                        f"{'numbers' if key == 'H' else 'a number'}, "
                        f"got {value!r}")
        if tfbm:
            return cls("TFBM_LINE", 1, 1, doc["lambda"], [[doc["h"]]])
        return cls(doc["variant"], doc["d"], doc["n"], doc["lambda"],
                   doc["H"])

    def _assemble(self, pair_fn, count):
        """P (Q o S) P^T for each of ``count`` stacked (n, n) matrices S,
        with S[:, i, j] = S[:, j, i] = pair_fn(i, j) (symmetric pairs)."""
        scalars = np.empty((count, self.n, self.n))
        for i in range(self.n):
            for j in range(i, self.n):
                scalars[:, i, j] = scalars[:, j, i] = pair_fn(i, j)
        return self.p @ (self.q_matrix * scalars) @ self.p.T


# ---------------------------------------------------------------------------
# the covariance model: one pinned-stationary core
#
# Every field here is X(x) = Y(x) - Y(0) with Y stationary and isotropic,
# so Var X(x) = V(|x|) for one radial n x n function V with V(0) = 0, and
#     C(x, x') = (V(|x|) + V(|x'|) - V(|x - x'|)) / 2.
# Each variant and method supplies V at every positive radius of an array,
# as an (R, n, n) stack evaluated in one batch (``radial_variance``).

def _row_norms(points):
    """|x_a| of an (N, d) array, the squares summed over the axes in order."""
    first, *rest = points.T
    norm2 = first * first
    for col in rest:
        norm2 += col * col
    return np.sqrt(norm2)


def _site_norms(points):
    """(|x_a|, |x_a - x_b|) of an (N, d) site array; the sums of squares run
    over the axes in one order, so |0 - x| and |x| agree to the last bit."""
    first, *rest = points.T
    dist2 = first[:, None] - first[None, :]
    dist2 *= dist2
    for col in rest:
        diff = col[:, None] - col[None, :]
        diff *= diff
        dist2 += diff
    return _row_norms(points), np.sqrt(dist2, out=dist2)


class CovarianceModel:
    """Evaluator mapping (x, x') to an n x n covariance matrix, or two
    stacked (P, d) arrays of points to a (P, n, n) stack, from one V batch.

    ``METHODS`` maps each method to the variants it serves, the default
    method of a variant first: ``closed_form`` (Bessel variant and
    TFBM_LINE), ``kernel_quadrature`` (exponentially tempered variant) and
    ``spectral_integral`` (either isotropic field).
    """

    METHODS = {"closed_form": ("IBTOFBF", "TFBM_LINE"),
               "kernel_quadrature": ("ITOFBF",),
               "spectral_integral": ("ITOFBF", "IBTOFBF")}

    def __init__(self, spec, method=None, rtol=1e-9):
        self.spec = spec
        if method is None:
            method = next(m for m, variants in self.METHODS.items()
                          if spec.variant in variants)
        if method not in self.METHODS:
            raise CovarianceError(f"unknown method '{method}'")
        if spec.variant not in self.METHODS[method]:
            raise CovarianceError(f"{method} applies to "
                                  f"{' and '.join(self.METHODS[method])}")
        self.method = method
        self.rtol = rtol

    def __call__(self, x, x2):
        return self.evaluate(x, x2)

    def radial_variance(self, radii):
        """V(rho) = Var X(x) at |x| = rho for every rho > 0 of an array, as
        an (R, n, n) stack from one batch: the function behind ``gram``,
        ``evaluate`` and the circulant route of exact line draws."""
        spec = self.spec
        if self.method == "spectral_integral":
            return _spectral_v(spec, radii, self.rtol)
        if spec.variant == "ITOFBF":
            return _itofbf_v(spec, radii)
        if spec.variant == "IBTOFBF":
            return _ibtofbf_v(spec, radii)
        return tfbm_variogram_batch(spec.h[0], spec.lambda_,
                                    radii)[:, None, None]

    def _variance_at(self, radii):
        """V at every radius of an array, (R, n, n): ``radial_variance``
        once on the distinct positive radii, exactly 0 at radius 0."""
        uniq, inverse = np.unique(np.asarray(radii, dtype=float),
                                  return_inverse=True)
        v = np.zeros((uniq.size, self.spec.n, self.spec.n))
        pos = uniq > 0
        if pos.any():
            v[pos] = self.radial_variance(uniq[pos])
        return v[inverse.ravel()]

    def evaluate(self, x, x2):
        """C(x, x') from one V batch on |x|, |x'| and |x - x'|: (n, n) for
        two points, (P, n, n) for two stacked (P, d) arrays of them."""
        n = self.spec.n
        x = np.asarray(x, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        pts = np.stack([np.atleast_2d(x), np.atleast_2d(x2)])
        radii = np.concatenate([_row_norms(p)
                                for p in (*pts, pts[0] - pts[1])])
        v = self._variance_at(radii).reshape((3, -1, n, n))
        cov = 0.5 * (v[0] + v[1] - v[2])
        return cov if x.ndim == 2 else cov[0]

    def variance(self, x):
        """Var X(x) = V(|x|)."""
        return self._variance_at(
            _row_norms(np.atleast_2d(np.asarray(x, dtype=float))))[0]

    def gram(self, points, check_psd=True):
        """Gram matrix over sites, (N n) x (N n) with n x n blocks.

        V is evaluated once, in one batch, on the unique radii {|x_a|} u
        {|x_a - x_b|}, rounded to 12 decimals so that offsets equal up to
        rounding share one evaluation, and the Gram is filled by indexing;
        the origin's row and column are exactly 0.  With ``check_psd`` a
        negative eigenvalue below -1e-8 tr(G) raises CovarianceError.
        """
        n = self.spec.n
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        n_sites = pts.shape[0]
        norms, dist = _site_norms(pts)
        radii = np.concatenate([norms, dist.ravel()])
        del dist
        np.round(radii, 12, out=radii)
        uniq = np.unique(radii)
        inverse = np.searchsorted(uniq, radii)
        del radii
        v = self._variance_at(uniq)
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


# ---------------------------------------------------------------------------
# building-block integrals for the exponentially tempered kernel

def _cross_integral(nu, nup, mu, d):
    """X = int e^{-mu(|y| + |y-e1|)} |y|^nu |y-e1|^nup dy over R^d at every
    mu > 0 of an array.  With foci 0 and e1 (half-lines at d = 1, elliptic
    and prolate spheroidal coordinates at d = 2, 3), |y| + |y-e1| = cosh u
    and X = int_0^inf e^{-mu cosh u} R(u) du, R free of mu (powers a, b of
    |y|, |y-e1|; plus e^{-mu} B(nu+1, nup+1) from [0, 1] at d = 1): one
    ``integrate_decaying`` over t = sqrt(u), smooth where R has fractional
    powers of u, for all mu, each divided by G (``_gauss_term``), which X is
    subtracted from.  Past cosh u = 2 both distances lie in [cosh u/4,
    3 cosh u/4], so R <= k cosh^c u sinh u (no sinh u at d = 2), c = a + b,
    and int_s^inf e^{-mu t} t^c dt <= e^{-mu s} s^c/(mu - c_+/s)."""
    mu = np.asarray(mu, dtype=float)
    if d not in (1, 2, 3):
        raise CovarianceError("cross integral implemented for d <= 3")
    a, b = (nu, nup) if d == 1 else (nu + 1.0, nup + 1.0)
    profile = (_focal_profile_d1, _focal_profile_d2, _focal_profile_d3)[d - 1]
    scale = _gauss_term(nu, nup, mu, d)
    c = a + b
    k = (1.0 if d == 1 else 2.0 * math.pi) * 2.0 ** (abs(a) + abs(b) - c)

    def f(t):
        u = t * t
        return (2.0 * t * profile(a, b, u))[:, None] \
            * np.exp(np.cosh(u)[:, None] * -mu) / scale

    def tail_bound(r):
        s = math.cosh(r * r)
        rate = mu - max(c, 0.0) / s
        if s < 2.0 or rate.min() <= 0.0:
            return math.inf
        tail = k * np.exp(c * math.log(s) - mu * s) / (rate * scale)
        return float(tail.max()) / (math.sinh(r * r) if d == 2 else 1.0)

    x = scale * integrate_decaying(f, 0.0, rtol=1e-13, atol=1e-15,
                                   first_width=1.0, tail_bound=tail_bound)
    if d == 1:
        x += np.exp(-mu) * beta_fn(nu + 1.0, nup + 1.0)
    return x


def _swap_sum(fn, a, b):
    """fn(a, b) + fn(b, a), with one call when a = b."""
    g = fn(a, b)
    return 2.0 * g if a == b else g + fn(b, a)


def _focal_profile_d1(a, b, u):
    """(sinh u / 2) (s1^a s2^b + s1^b s2^a), d = 1: on the half-lines
    y = (1 -+ cosh u)/2, {|y|, |y-e1|} = {cosh^2(u/2), sinh^2(u/2)}."""
    sh, ch = np.sinh(0.5 * u), np.cosh(0.5 * u)
    g = _swap_sum(lambda p, q: (ch * ch) ** p * (sh * sh) ** q, a, b)
    return sh * ch * g


def _focal_profile_d2(a, b, u):
    """2 int_0^pi s1^a s2^b dv, a, b > 0, d = 2 (area element s1 s2 du dv,
    s1 = (cosh u + cos v)/2, s2 = (cosh u - cos v)/2), one vector-valued
    quadrature for all u.  v -> pi - v swaps s1 and s2, so v runs over
    [0, pi/2], where only s2 = sinh^2(u/2) + sin^2(v/2) can vanish, near its
    branch points v = -+i u: v = u sinh(t L), L = asinh(pi/(2u)), resolves
    them.  Each u is divided by pi (cosh u / 2)^{a+b}, about its size."""
    sh2 = np.sinh(0.5 * u) ** 2
    ch2 = 1.0 + sh2
    big_l = np.arcsinh(0.5 * math.pi / u)
    norm = math.pi * (0.5 * (ch2 + sh2)) ** (a + b)

    def f(t):
        tl = t[:, None] * big_l
        sv2 = np.sin(0.5 * u * np.sinh(tl)) ** 2
        g = _swap_sum(lambda p, q: (ch2 - sv2) ** p * (sh2 + sv2) ** q, a, b)
        return g * np.cosh(tl) * (u * big_l / norm)

    val, _ = adaptive_gk(f, 0.0, 1.0, rtol=1e-13, atol=1e-300)
    return 2.0 * norm * val


def _lower_beta(p, q, w):
    """Incomplete beta B_w(p, q), 0 <= w < 1/2, by Pfaff's transformation:
    2F1(p, p+q; p+1; w/(w-1)) at arguments in (-1, 0]."""
    return w ** p / p * (1.0 - w) ** (-p) \
        * hyp2f1_batch(p, p + q, p + 1.0, w / (w - 1.0))


def _focal_profile_d3(a, b, u):
    """pi sinh u P(cosh u), d = 3 (volume element pi s1 s2 dsigma dtau):
    P(sigma) = int_{-1}^1 s1^a s2^b dtau, s1, s2 = (sigma +- tau)/2.  Below
    sigma = 2 it is 2 sigma^{a+b+1} (B(a+1, b+1) - B_w(a+1, b+1) -
    B_w(b+1, a+1)), w = (sigma-1)/(2 sigma); above, where that cancels,
    20-point Gauss-Legendre in tau (branch points tau = -+sigma)."""
    sh2 = np.sinh(0.5 * u) ** 2
    sigma = 1.0 + 2.0 * sh2
    out = np.empty_like(u)
    near = sigma < 2.0
    s, w = sigma[near], sh2[near] / sigma[near]
    tails = _swap_sum(lambda p, q: _lower_beta(p + 1.0, q + 1.0, w), a, b)
    out[near] = 2.0 * s ** (a + b + 1.0) * (beta_fn(a + 1.0, b + 1.0) - tails)
    s = sigma[~near, None]
    x, wt = gauss_legendre(20)
    out[~near] = (((s + x) / 2.0) ** a * ((s - x) / 2.0) ** b) @ wt
    return math.pi * np.sinh(u) * out


def _gauss_term(nu, nup, mu, d):
    """G = int e^{-2 mu |y|} |y|^{nu+nup} dy over R^d, at every mu > 0."""
    return _surface_area(d) * gamma_fn(nu + nup + d) \
        / (2.0 * mu) ** (nu + nup + d)


def _pair_integral_ma(spec, i, j, mu):
    """I(h_i, h_j; mu) = int (k(e1-y) - k(-y)) (k'(e1-y) - k'(-y)) dy with
    k(y) = e^{-mu|y|} |y|^nu, nu = h_i - d/2 (nup for k'), the
    unit-displacement kernel product integral, for a scalar mu or an array
    of them: 2 (G - X), G from ``_gauss_term`` and X from one
    ``_cross_integral`` call for all uncached mu.  At mu = 0 (d = 1 only)
    it is the Mandelbrot-Van Ness constant 4 Gamma(nu+1) Gamma(nup+1)
    sin(pi nu/2) sin(pi nup/2) / (Gamma(nu+nup+2) sin(pi (nu+nup+1)/2)).
    Values are cached per mu on the spec."""
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
            if d != 1:
                raise CovarianceError("the mu = 0 pair integral is d = 1 only")
            sin = np.sin(0.5 * math.pi * np.array([nu, nup, nu + nup + 1]))
            vals[zero] = 4.0 * gamma_fn(nu + 1.0) * gamma_fn(nup + 1.0) \
                * sin[0] * sin[1] / (gamma_fn(nu + nup + 2.0) * sin[2])
        if not zero.all():
            vals[~zero] = 2.0 * (_gauss_term(nu, nup, t[~zero], d)
                                 - _cross_integral(nu, nup, t[~zero], d))
        for m, v in zip(todo, vals.tolist()):
            cache[(i, j, m)] = cache[(j, i, m)] = v
    out = np.array([cache[(i, j, m)] for m in mus.ravel().tolist()])
    return out.reshape(mus.shape) if mus.ndim else float(out[0])


def _itofbf_v(spec, radii):
    """V(rho) = rho^H C^2(rho lambda) rho^{H^T} at every rho > 0 of an array
    (one batched pair quadrature per eigen-pair)."""
    mu = radii * spec.lambda_
    return spec._assemble(
        lambda i, j: _pair_integral_ma(spec, i, j, mu)
        * radii ** (spec.h[i] + spec.h[j]), radii.size)


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


# ---------------------------------------------------------------------------
# Bessel-tempered field: closed forms

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


# ---------------------------------------------------------------------------
# one-sided tempered Gaussian moving average on the line (d = n = 1)

def tfbm_variogram_batch(h, lam, t):
    """E X(t)^2 at every t of an array for the one-sided tempered kernel
    (t-y)_+^{h-1/2} e^{-lam (t-y)_+} - (-y)_+^{h-1/2} e^{-lam (-y)_+} with
    Gaussian noise: closed form via K_h, regular for every h in (0, 1)."""
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


# two former names, still imported by perfbench/checks.py
def itofbf_variance(spec, x):
    return CovarianceModel(spec).variance(x)


def TFBMCovariance(h, lam):
    return CovarianceModel(IsotropicGaussianSpec("TFBM_LINE", 1, 1, lam,
                                                 [[h]]))
