"""Matrix functional calculus.

Real matrix powers c^M = exp((log c) M), spectral bounds, primary matrix
functions built on Jordan structure (Horn & Johnson ch. 6), and the
modified Bessel function of the second kind with matrix order.
"""

import math

import numpy as np

from . import _fast
from .specfun import SpecfunError, digamma, gamma_fn

__all__ = [
    "MatfunError", "MatrixExponent", "StemFunction", "expm",
    "spectral_bounds", "matrix_power", "primary_matrix_fn",
    "matrix_bessel_k", "power_stem", "cosh_stem", "gamma_stem",
    "bessel_k_stem",
]

_EIG_SEPARATION = 1e-6
_RECONSTRUCT_RTOL = 1e-10


class MatfunError(ValueError):
    pass


# Pade-13 scaling-and-squaring coefficients (Higham 2005).
_PADE13_B = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)


def expm(a):
    """Matrix exponential by Pade-13 scaling and squaring over the last two
    axes: each (n, n) slice of a stack takes its own scaling, as alone."""
    a = np.asarray(a)
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    s = np.ceil(np.log2(np.maximum(norm, 4.25) / 4.25)).astype(int)
    a = a / (2.0 ** s)[..., None, None]
    ident = np.eye(a.shape[-1], dtype=a.dtype)
    b = _PADE13_B
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for i in range(np.max(s, initial=0)):
        sq = s > i
        r[sq] = r[sq] @ r[sq]
    return r


def spectral_bounds(m):
    """(varpi, upsilon): extreme real parts of the spectrum of ``m``."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise MatfunError("spectral_bounds requires a square matrix")
    if not np.all(np.isfinite(m)):
        raise MatfunError("spectral_bounds: non-finite entries")
    try:
        eig = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise MatfunError(f"eigenvalue solver failed: {exc}") from exc
    re = eig.real
    return float(re.min()), float(re.max())


def _maybe_real(mat, reference_scale=1.0):
    if np.iscomplexobj(mat) and np.max(np.abs(mat.imag)) < 1e-9 * max(
            1.0, reference_scale):
        return np.ascontiguousarray(mat.real)
    return mat


class MatrixExponent:
    """A real square matrix with cached spectral data.

    Serves as domain exponent (acting on R^d) or range/Hurst exponent
    (acting on R^n).  Jordan structure is materialized only when supplied
    explicitly or when the matrix is detected diagonalizable with
    well-separated eigenvalues; numerically defective matrices are
    rejected.
    """

    def __init__(self, entries, change_of_basis=None, jordan_blocks=None):
        entries = np.array(entries, dtype=float)
        if entries.ndim == 0:
            entries = entries.reshape(1, 1)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise MatfunError("MatrixExponent requires a square matrix")
        if not np.all(np.isfinite(entries)):
            raise MatfunError("MatrixExponent: non-finite entries")
        self.entries = entries
        self._eigvals = None
        self._basis = None          # (P, jordan_blocks) when materialized
        if change_of_basis is not None:
            if jordan_blocks is None:
                raise MatfunError("jordan_blocks required with change_of_basis")
            p = np.asarray(change_of_basis, dtype=complex)
            blocks = [(complex(t), int(r)) for t, r in jordan_blocks]
            recon = p @ _jordan_fill(blocks, _identity_derivative) \
                @ np.linalg.inv(p)
            scale = max(np.max(np.abs(entries)), 1e-30)
            if np.max(np.abs(recon - entries)) > _RECONSTRUCT_RTOL * scale:
                raise MatfunError("supplied Jordan data does not reconstruct "
                                  "the matrix to 1e-10")
            self._basis = (p, blocks)

    @classmethod
    def from_jordan(cls, p, blocks):
        """Build from an explicit Jordan decomposition P, [(eig, size), ...]."""
        p = np.asarray(p, dtype=complex)
        entries = p @ _jordan_fill([(complex(t), int(r)) for t, r in blocks],
                                   _identity_derivative) @ np.linalg.inv(p)
        entries = _maybe_real(entries, np.max(np.abs(entries)))
        if np.iscomplexobj(entries):
            raise MatfunError("Jordan data does not describe a real matrix")
        return cls(entries, change_of_basis=p, jordan_blocks=blocks)

    @property
    def dim(self):
        return self.entries.shape[0]

    @property
    def eigenvalues(self):
        if self._eigvals is None:
            try:
                self._eigvals = np.linalg.eigvals(self.entries)
            except np.linalg.LinAlgError as exc:
                raise MatfunError(f"eigenvalue solver failed: {exc}") from exc
        return self._eigvals

    @property
    def spectrum(self):
        """Eigenvalues with algebraic and geometric multiplicities."""
        eig = np.sort_complex(self.eigenvalues)
        out = []
        used = np.zeros(len(eig), bool)
        for i, lam in enumerate(eig):
            if used[i]:
                continue
            close = np.abs(eig - lam) < 1e-8 * max(1.0, abs(lam))
            used |= close
            alg = int(np.sum(close))
            geo = self.dim - np.linalg.matrix_rank(
                self.entries - lam * np.eye(self.dim), tol=1e-10)
            out.append((complex(lam), alg, int(geo)))
        return out

    @property
    def varpi(self):
        return float(self.eigenvalues.real.min())

    @property
    def upsilon(self):
        return float(self.eigenvalues.real.max())

    @property
    def trace(self):
        return float(np.trace(self.entries))

    def jordan(self):
        """(P, [(eigenvalue, block_size), ...]); may raise MatfunError."""
        if self._basis is None:
            self._basis = _diagonalizable_basis(self.entries)
        return self._basis

    def power(self, c):
        return matrix_power(self, c)

    def __repr__(self):
        return f"MatrixExponent({self.entries.tolist()})"


def _jordan_fill(blocks, deriv, lead=()):
    """(*lead, n, n) block-diagonal f(J) for the Jordan matrix J of ``blocks``.

    ``deriv(k, theta)`` is the k-th derivative of f at theta, an array of
    shape ``lead`` or a scalar; the block of theta holds deriv(k, theta)/k!
    at entries (i + k, i), Jordan blocks carrying their ones below the
    diagonal.
    """
    n = sum(r for _, r in blocks)
    out = np.zeros(tuple(lead) + (n, n), dtype=complex)
    at = 0
    for theta, r in blocks:
        for k in range(r):
            fill = deriv(k, theta) / math.factorial(k)
            for i in range(r - k):
                out[..., at + i + k, at + i] = fill
        at += r
    return out


def _identity_derivative(k, theta):
    """Derivatives of the identity stem: theta, 1, 0, 0, ..."""
    return theta if k == 0 else float(k == 1)


def _diagonalizable_basis(entries):
    if np.array_equal(entries, np.diag(np.diag(entries))):
        # exactly diagonal: structure known without numerics (repeated
        # entries allowed)
        return (np.eye(entries.shape[0], dtype=complex),
                [(complex(t), 1) for t in np.diag(entries)])
    try:
        eig, p = np.linalg.eig(entries)
    except np.linalg.LinAlgError as exc:
        raise MatfunError(f"eigenvalue solver failed: {exc}") from exc
    n = len(eig)
    if n > 1:
        sep = min(abs(eig[i] - eig[j]) for i in range(n) for j in range(i + 1, n))
        if sep <= _EIG_SEPARATION:
            raise MatfunError(
                "matrix has clustered eigenvalues (separation "
                f"{sep:.2e} <= {_EIG_SEPARATION}); supply explicit Jordan "
                "structure to proceed")
    recon = (p * eig) @ np.linalg.inv(p)
    scale = max(np.max(np.abs(entries)), 1e-30)
    if np.max(np.abs(recon - entries)) > _RECONSTRUCT_RTOL * scale:
        raise MatfunError("eigendecomposition failed to reconstruct matrix")
    return p, [(complex(t), 1) for t in eig]


def _as_matrix(m):
    if isinstance(m, MatrixExponent):
        return m.entries
    m = np.asarray(m, dtype=float)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    return m


def matrix_power(m, c):
    """c^M = exp((log c) M) for c > 0.

    Uses a cached Jordan/eigen decomposition when available on a
    MatrixExponent, scaling-and-squaring otherwise.
    """
    if not np.isfinite(c) or c <= 0:
        raise MatfunError("matrix_power requires finite c > 0")
    if isinstance(m, MatrixExponent) and m._basis is not None:
        p, blocks = m._basis
        lc = math.log(c)
        out = p @ _jordan_fill(blocks, lambda k, t: c ** t * lc ** k) \
            @ np.linalg.inv(p)
        return _maybe_real(out, np.max(np.abs(out)))
    a = _as_matrix(m)
    if not np.all(np.isfinite(a)):
        raise MatfunError("matrix_power: non-finite entries")
    return expm(math.log(c) * a)


class StemFunction:
    """Scalar analytic stem with derivatives for Jordan-block fills.

    ``derivative(k, z)`` returns the k-th derivative at z (k=0 is the
    value itself); ``domain_ok(z)`` encodes where the stem is defined.
    """

    def __init__(self, name, derivative, domain_ok=None, real_result=True,
                 max_order=None):
        self.name = name
        self._derivative = derivative
        self._domain_ok = domain_ok or (lambda z: True)
        self.real_result = real_result
        self.max_order = max_order

    def __call__(self, z):
        return self._derivative(0, z)

    def derivative(self, k, z):
        if self.max_order is not None and k > self.max_order:
            raise MatfunError(
                f"stem '{self.name}' supports derivatives up to order "
                f"{self.max_order}")
        return self._derivative(k, z)

    def domain_ok(self, z):
        return self._domain_ok(z)


def power_stem(c):
    """Stem z -> c^z for fixed c > 0."""
    if c <= 0:
        raise MatfunError("power_stem requires c > 0")
    lc = math.log(c)

    def deriv(k, z):
        return lc ** k * np.exp(z * lc)

    return StemFunction(f"power[{c}]", deriv)


def _cosh_derivative(k, z, t):
    """d^k/dz^k cosh(z t) = t^k {cosh, sinh}(z t), elementwise in t."""
    zt = np.asarray(z) * t
    return t ** k * (np.cosh(zt) if k % 2 == 0 else np.sinh(zt))


def cosh_stem(t):
    """Stem z -> cosh(z t) for fixed real t."""
    return StemFunction(f"cosh[{t}]", lambda k, z: _cosh_derivative(k, z, t))


def gamma_stem():
    """Stem z -> Gamma(z); first derivative via the digamma function."""

    def deriv(k, z):
        if k == 0:
            return gamma_fn(z)
        if k == 1:
            if isinstance(z, complex):
                raise MatfunError("gamma_stem derivative needs real z")
            return gamma_fn(z) * digamma(z)
        raise MatfunError("gamma_stem supports derivative order <= 1")

    def ok(z):
        try:
            gamma_fn(z)
            return True
        except SpecfunError:
            return False

    return StemFunction("gamma", deriv, domain_ok=ok, max_order=1)


def bessel_k_stem(u):
    """Stem nu -> K_nu(u), 0 past ``_KV_UNDERFLOW_U``: the k-th derivative
    int_0^inf e^{-u cosh t} t^k {cosh, sinh}(nu t) dt summed on the nodes of
    ``_fast._cosh_rule``, which also give K_nu and ``matrix_bessel_k``."""
    if u <= 0:
        raise MatfunError("bessel_k_stem requires u > 0")
    t, w = (x[0] for x in _fast._cosh_rule(np.array([float(u)])))
    return StemFunction(f"bessel_k[{u}]", lambda k, z: complex(
        np.dot(w, _cosh_derivative(k, complex(z), t))))


def primary_matrix_fn(stem, m):
    """Apply a scalar stem to a matrix through its Jordan structure.

    Diagonalizable matrices use the plain eigen fill; explicit Jordan
    data triggers the derivative fill h^{(k)}(theta)/k! on each block.
    """
    if isinstance(m, MatrixExponent):
        mat = m.entries
        p, blocks = m.jordan()
    else:
        mat = _as_matrix(m)
        p, blocks = _diagonalizable_basis(mat)
    for theta, r in blocks:
        if not stem.domain_ok(theta):
            raise MatfunError(
                f"stem '{stem.name}' undefined at eigenvalue {theta}")
    out = p @ _jordan_fill(blocks, stem.derivative) @ np.linalg.inv(p)
    if stem.real_result and not np.iscomplexobj(mat):
        spectrum_conj_closed = _conjugate_closed([t for t, _ in blocks])
        if spectrum_conj_closed:
            out = _maybe_real(out, max(np.max(np.abs(out)), 1.0))
    return out


def _conjugate_closed(eigs, tol=1e-8):
    eigs = np.asarray(eigs)
    for lam in eigs:
        if abs(lam.imag) > tol and not np.any(np.abs(eigs - lam.conjugate())
                                              < tol * max(1.0, abs(lam))):
            return False
    return True


def matrix_bessel_k(n_mat, u):
    """K_N(u) = int_0^inf e^{-u cosh t} cosh(N t) dt for a matrix order N,
    0 past ``_KV_UNDERFLOW_U``: sum_k w_k (e^{N t_k} + e^{-N t_k})/2 on the
    ``_fast._cosh_rule`` nodes, which also give the scalar K_nu and its
    order derivatives (``bessel_k_stem``).  One stacked ``expm`` gives the
    exponentials of all nodes without an eigendecomposition, so a
    defective order needs no Jordan data.
    """
    if u <= 0:
        raise MatfunError("matrix_bessel_k requires u > 0")
    a = _as_matrix(n_mat)
    t, w = _fast._cosh_rule(np.array([float(u)]))
    nt = t[0, :, None, None] * a
    e = expm(np.concatenate([nt, -nt]))
    return np.tensordot(w[0], 0.5 * (e[:len(nt)] + e[len(nt):]), axes=1)
