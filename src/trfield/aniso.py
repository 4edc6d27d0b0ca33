"""Anisotropic geometry induced by a domain exponent E.

The norm ||x||_0 = int_0^1 ||t^E x|| dt/t, its unit sphere S_0, the polar
decomposition x = tau(x)^E l(x), and the built-in E-homogeneous functions
phi used as radial parts of the field kernels.
"""

import math

import numpy as np

from .matfun import MatrixExponent, MatfunError, matrix_power
from .quadrature import gauss_legendre

__all__ = [
    "AnisoError", "EHomogeneousFn", "PolarPoint", "norm0", "norm0_many",
    "polar_decompose", "tau_many", "phi_extrema",
]


class AnisoError(ValueError):
    pass


def _as_exponent(e):
    if isinstance(e, MatrixExponent):
        return e
    return MatrixExponent(e)


class _ExpAction:
    """Vectorized evaluation of ||exp(-(s + a) E) x|| over many x."""

    def __init__(self, e_mat):
        self.e = e_mat
        ent = e_mat.entries
        self.diag = np.allclose(ent, np.diag(np.diag(ent)), atol=0.0)
        if self.diag:
            self.rates = np.diag(ent).copy()
        else:
            p, blocks = e_mat.jordan()     # rejects defective inputs
            if any(r > 1 for _, r in blocks):
                raise AnisoError("norm0 requires a diagonalizable or "
                                 "explicitly structured exponent")
            self.p = p
            self.pinv = np.linalg.inv(p)
            self.lam = np.array([t for t, _ in blocks])

    def norms(self, s_nodes, shifts, x_cols):
        """(K, N) array of ||exp(-(s_k + a_i) E) x_i|| for shifts a_i:
        exp(-(s + a)E) = exp(-sE) exp(-aE), exponentials once per node and
        once per point, and a matrix product of inner dimension d."""
        shifts = np.broadcast_to(np.asarray(shifts, dtype=float),
                                 (x_cols.shape[1],))
        if self.diag:
            y = x_cols * np.exp(-np.outer(self.rates, shifts))      # (d, N)
            damp2 = np.exp(-2.0 * np.outer(s_nodes, self.rates))    # (K, d)
            return np.sqrt(damp2 @ (y * y))
        c = np.exp(-np.outer(self.lam, shifts)) * (self.pinv @ x_cols)
        damp = np.exp(-np.outer(s_nodes, self.lam))                  # (K, d)
        d = self.p.shape[0]
        y = ((self.p[None, :, :] * damp[:, None, :]).reshape(-1, d) @ c)
        y = y.reshape(len(s_nodes), d, -1)
        return np.sqrt(np.sum(y.real ** 2 + y.imag ** 2, axis=1))

    def norms_at(self, u, x_cols):
        """(K, N) array of ||exp(-u[k, i] E) x_i||, nodes per point."""
        if self.diag:
            y = x_cols[:, None, :] * np.exp(self.rates[:, None, None] * -u)
            return np.sqrt(np.sum(y * y, axis=0))
        y = np.exp(self.lam[:, None, None] * -u) * (self.pinv @ x_cols)[
            :, None, :]
        y = np.tensordot(self.p, y, axes=(1, 0))
        return np.sqrt(np.sum(y.real ** 2 + y.imag ** 2, axis=0))


def _finite(xs, what):
    xs = np.asarray(xs, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise AnisoError(f"{what}: non-finite input")
    return xs


def norm0(x, e, rtol=1e-12):
    """The E-induced norm int_0^1 ||t^E x|| dt/t (Euclidean base norm)."""
    return float(norm0_many(np.asarray(x, dtype=float)[None, :], e, rtol)[0])


def norm0_many(xs, e, rtol=1e-12):
    """Vectorized norm0 over rows of ``xs``."""
    e = _as_exponent(e)
    xs = _finite(xs, "norm0")
    if e.varpi <= 0:
        raise AnisoError("norm0 requires a domain exponent with varpi > 0")
    out = np.zeros(xs.shape[0])
    live = np.any(xs != 0.0, axis=1)
    if np.any(live):
        out[live] = _norm0_shifted(_ExpAction(e), e, xs[live].T, 0.0, rtol)
    return out


class PolarPoint:
    """Radial/directional pair of the anisotropic polar decomposition."""

    __slots__ = ("tau", "l")

    def __init__(self, tau, l):
        self.tau = float(tau)
        self.l = np.asarray(l, dtype=float)

    def reconstruct(self, e):
        return matrix_power(_as_exponent(e), self.tau) @ self.l

    def __repr__(self):
        return f"PolarPoint(tau={self.tau!r}, l={self.l.tolist()})"


def tau_many(xs, e, tol=1e-11, max_iter=60):
    """Radial parts tau(x) for rows of ``xs``, by safeguarded Newton.

    tau(x) = e^a at the root of f(a) = log g(a), where
    g(a) = norm0(e^{-aE} x) = int_a^inf ||e^{-uE} x|| du decreases with
    g'(a) = -||e^{-aE} x||.  From a0 = log(|x|/e)/e, e = tr(E)/d (exact
    for E = e I), g takes one full quadrature; each step then subtracts
    the integral over the step alone (``_advance``).  The sign of f
    narrows the bracket [-60, 60]; a step leaving it bisects instead.  A
    point stops when |f| < ``tol`` (its last step still taken) or its step
    is within 4 ulps of max(|a|, 1).  A root outside the bracket drives
    its iterates to the edge, so points ending within 1 of it must have
    f(-60) >= 0 >= f(60), else :class:`AnisoError` names the bracket; so
    does a point still running after ``max_iter`` steps, naming ``tol``.
    """
    e = _as_exponent(e)
    xs = np.asarray(xs, dtype=float)
    if np.any(np.all(xs == 0.0, axis=1)):
        raise AnisoError("polar decomposition undefined at the origin")
    action = _ExpAction(e)
    cols = xs.T
    n_pts = xs.shape[0]
    lo = np.full(n_pts, -60.0)
    hi = np.full(n_pts, 60.0)
    e_bar = float(np.trace(e.entries)) / e.dim
    a = np.clip(np.log(np.linalg.norm(xs, axis=1) / e_bar) / e_bar, lo, hi)
    g = _norm0_shifted(action, e, cols, a)
    live = np.arange(n_pts)
    for _ in range(max_iter):
        c, al, gl = cols[:, live], a[live], g[live]
        f = np.log(gl)
        above = f > 0.0                       # a below the root
        lo_l = np.where(above, al, lo[live])
        hi_l = np.where(above, hi[live], al)
        new = al + gl * f / action.norms(np.zeros(1), al, c)[0]
        conv = np.abs(f) < tol
        inside = (new > lo_l) & (new < hi_l)
        new = np.where(inside, new,
                       np.where(conv, al, 0.5 * (lo_l + hi_l)))
        conv |= (np.abs(new - al)
                 <= 4.0 * np.spacing(np.maximum(np.abs(al), 1.0)))
        a[live], lo[live], hi[live] = new, lo_l, hi_l
        run = ~conv
        live = live[run]
        if live.size == 0:
            break
        g[live] = _advance(action, e, c[:, run], al[run], new[run], gl[run],
                           ~inside[run] | (np.abs(f[run]) > 1.0))
    edge = np.flatnonzero(np.abs(a) > 59.0)
    side = np.sign(a[edge])
    if edge.size and np.any(side * np.log(_norm0_shifted(
            action, e, cols[:, edge], 60.0 * side)) > 0.0):
        raise AnisoError("bracket [-60, 60] on log tau failed")
    if live.size:
        raise AnisoError(f"tau_many: {live.size} of {n_pts} points did not "
                         f"reach tol={tol} in {max_iter} Newton steps")
    return np.exp(a)


def _advance(action, e, cols, a_old, a_new, g_old, full):
    """g(a_new) = g(a_old) - int_{a_old}^{a_new} ||e^{-uE} x|| du on GL
    panels of width <= min(1, 2/||E||) (3, 6 or 12 nodes as the widest
    times ||E|| is <= 0.01, 1 or 2); a full quadrature where ``full`` or
    where g falls more than e^2-fold, which the difference would cancel."""
    g = np.zeros_like(g_old)
    part = np.flatnonzero(~full)
    step = a_new[part] - a_old[part]
    rate = max(1.0, float(np.linalg.norm(e.entries, 2)))
    k = np.maximum(np.ceil(np.abs(step) * max(1.0, 0.5 * rate)), 1).astype(int)
    owner = np.repeat(np.arange(part.size), k)
    j = np.arange(owner.size) - np.repeat(np.cumsum(k) - k, k)
    half = 0.5 * step[owner] / k[owner]
    widest = 2.0 * rate * float(np.max(np.abs(half), initial=0.0))
    x0, w0 = gauss_legendre(3 if widest <= 0.01 else 6 if widest <= 1.0
                            else 12)
    u = a_old[part][owner] + (2 * j + 1) * half + np.outer(x0, half)
    panels = half * (w0 @ action.norms_at(u, cols[:, part[owner]]))
    g[part] = g_old[part] - np.bincount(owner, panels, part.size)
    redo = ~(g > math.exp(-2.0) * g_old)      # full, or g fell too far
    if np.any(redo):
        g[redo] = _norm0_shifted(action, e, cols[:, redo], a_new[redo])
    return g


def _norm0_shifted(action, e, cols, log_r, rtol=1e-13):
    """g(log_r) = int_0^inf ||e^{-(s + log_r)E} x|| ds for columns x, on
    GL12 panels of width min(2, 4/||E||) until one adds less than ``rtol``
    of the smallest total, over at most (40 + the log-spread of the
    columns' sizes)/varpi."""
    size = np.log(np.max(np.abs(cols), axis=0))
    span = (40.0 + float(np.ptp(size))) / e.varpi
    width = min(2.0, 4.0 / max(1.0, float(np.linalg.norm(e.entries, 2))))
    x0, w0 = gauss_legendre(12)
    total = np.zeros(cols.shape[1])
    for j in range(int(math.ceil(span / width))):
        vals = action.norms((j + 0.5 + 0.5 * x0) * width, log_r, cols)
        block = 0.5 * width * (w0 @ vals)
        total += block
        if j > 3 and np.max(block) < rtol * max(np.min(total), 1e-300):
            break
    return total


def polar_decompose(x, e):
    """Unique (tau, l) with x = tau^E l and ||l||_0 = 1."""
    e = _as_exponent(e)
    x = np.asarray(x, dtype=float)
    if np.all(x == 0.0):
        raise AnisoError("polar decomposition undefined at the origin")
    tau = float(tau_many(x[None, :], e)[0])
    l = matrix_power(e, 1.0 / tau) @ x
    return PolarPoint(tau, l)


class EHomogeneousFn:
    """Built-in continuous E-homogeneous functions phi.

    variants: ``euclidean`` (phi = ||.||, requires E = I), ``radial``
    (phi = tau_E, by ``tau_many``), and ``diag_power`` (diagonal
    E = diag(a_1..a_d), phi(x) = (sum_i |x_i|^(rho/a_i))^(1/rho) for
    rho >= max a_i).  ``pairwise`` evaluates phi over site-node pairs, the
    sums over axes from one small table per axis.
    """

    def __init__(self, variant, e, rho=None):
        self.variant = variant
        self.e = _as_exponent(e)
        self.rho = rho
        self._extrema = None
        ent = self.e.entries
        if variant == "euclidean":
            if not np.allclose(ent, np.eye(ent.shape[0])):
                raise AnisoError("euclidean variant requires E = I")
        elif variant == "diag_power":
            if not np.allclose(ent, np.diag(np.diag(ent)), atol=0.0):
                raise AnisoError("diag_power variant requires diagonal E")
            a_max = float(np.max(np.diag(ent)))
            if rho is None:
                self.rho = max(2.0, a_max)
            elif rho < a_max:
                raise AnisoError("diag_power requires rho >= max a_i")
        elif variant != "radial":
            raise AnisoError(f"unknown phi variant '{variant}'")
        if self.e.varpi <= 0:
            raise AnisoError("phi requires a domain exponent with varpi > 0")

    @property
    def dim(self):
        return self.e.dim

    def __call__(self, x):
        return float(self.batch(np.asarray(x, dtype=float)[None, :])[0])

    def batch(self, xs):
        """phi over the rows of ``xs``."""
        xs = _finite(xs, "phi")
        if self.variant != "radial":
            return self.pairwise(xs, np.zeros((1, xs.shape[1])))[:, 0]
        out = np.zeros(xs.shape[0])
        live = np.any(xs != 0.0, axis=1)
        if np.any(live):
            out[live] = tau_many(xs[live], self.e)
        return out

    def pairwise(self, sites, nodes):
        """(N, M) array of phi(sites[i] - nodes[k]); ``radial`` takes
        ``batch`` of the differences.  The others sum one term per axis,
        x^2 or |x|^(rho/a_i), each tabulated over the distinct coordinates
        of its axis and gathered; ``batch`` is this with one node at 0."""
        sites, nodes = _finite(sites, "phi"), _finite(nodes, "phi")
        if self.variant == "radial":
            diffs = sites[:, None, :] - nodes[None, :, :]
            return self.batch(diffs.reshape(-1, sites.shape[1])).reshape(
                sites.shape[0], nodes.shape[0])
        for i in range(sites.shape[1]):
            us, at_s = np.unique(sites[:, i], return_inverse=True)
            un, at_n = np.unique(nodes[:, i], return_inverse=True)
            x = np.subtract.outer(us, un)
            table = x * x if self.variant == "euclidean" else \
                np.abs(x) ** (self.rho / self.e.entries[i, i])
            term = table[at_s][:, at_n]
            total = term if i == 0 else np.add(total, term, out=total)
        if self.variant == "euclidean":
            return np.sqrt(total, out=total)
        return np.power(total, 1.0 / self.rho, out=total)

    def extrema(self, n_samples=2048, refine=True):
        """(m_phi, M_phi) over the unit sphere S_0 of ||.||_0."""
        if self._extrema is None:
            self._extrema = phi_extrema(self, n_samples=n_samples,
                                        refine=refine)
        return self._extrema

    def to_json(self):
        doc = {"variant": self.variant,
               "E": self.e.entries.tolist()}
        if self.variant == "diag_power":
            doc["rho"] = self.rho
        return doc

    @classmethod
    def from_json(cls, doc):
        return cls(doc["variant"], np.array(doc["E"], dtype=float),
                   rho=doc.get("rho"))


def _sphere_directions(d, n):
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    # Fibonacci sphere for d = 3
    i = np.arange(n) + 0.5
    phi_g = math.pi * (3.0 - math.sqrt(5.0))
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    th = phi_g * i
    return np.stack([r * np.cos(th), r * np.sin(th), z], axis=1)


def phi_extrema(phi, n_samples=2048, refine=True):
    """Extrema of phi over S_0 by dense sampling plus local refinement.

    For any direction u != 0 the S_0 representative is tau(u)^{-E} u and,
    by E-homogeneity, phi there equals phi(u)/tau(u); so the sweep only
    needs tau on the Euclidean sphere.
    """
    if phi.variant in ("euclidean", "radial"):
        return 1.0, 1.0
    d = phi.dim
    u = _sphere_directions(d, n_samples)
    vals = phi.batch(u) / tau_many(u, phi.e)
    lo_i, hi_i = int(np.argmin(vals)), int(np.argmax(vals))
    m_phi, big_phi = float(vals[lo_i]), float(vals[hi_i])
    if refine and d >= 2:
        # both searches share one jitter draw and one tau_many call a step
        jitter = np.random.default_rng(0).standard_normal((64, d))
        centers = u[[lo_i, hi_i]]
        spread = 4.0 / n_samples if d == 2 else 4.0 / math.sqrt(n_samples)
        for _ in range(6):
            cand = (centers[:, None, :] + spread * jitter).reshape(-1, d)
            cand /= np.linalg.norm(cand, axis=1)[:, None]
            cv = (phi.batch(cand) / tau_many(cand, phi.e)).reshape(2, -1)
            j_lo, j_hi = int(np.argmin(cv[0])), int(np.argmax(cv[1]))
            if cv[0, j_lo] < m_phi:
                m_phi, centers[0] = float(cv[0, j_lo]), cand[j_lo]
            if cv[1, j_hi] > big_phi:
                big_phi, centers[1] = float(cv[1, j_hi]), cand[64 + j_hi]
            spread *= 0.5
    if not (0.0 < m_phi <= big_phi < math.inf):
        raise AnisoError("phi extrema optimization failed")
    return m_phi, big_phi
