"""Deterministic integrand evaluators for the three tempered-field flavors.

A FieldSpec bundles flavor (MA, MA_B, H), dimensions, tempering lambda,
domain exponent E, range exponent H, the radial function phi and the
driving-measure description; the kernel functions evaluate the matrix
integrands and the existence report checks the eigenvalue inequalities.

FieldSpec serializes to a flat JSON document::

    {"flavor": "MA", "d": 1, "n": 1, "lambda": 0.5,
     "E": [[1.0]], "H": [[0.7]],
     "phi": {"variant": "euclidean", "rho": null},
     "measure": {"variant": "gaussian"}}

(for "sas" measures, "measure" also carries "alphas": [..]).  The phi
exponent matrix is implied: E for moving-average flavors, E^T for the
harmonizable flavor.
"""

import math

import numpy as np

from . import _fast
from .aniso import AnisoError, EHomogeneousFn
from .matfun import (MatrixExponent, MatfunError, _jordan_fill, _maybe_real,
                     matrix_bessel_k)
from .specfun import gamma_fn

__all__ = [
    "KernelError", "MeasureSpec", "FieldSpec", "ExistenceReport",
    "ma_kernel", "mab_kernel", "h_kernel", "existence_check",
    "tfsm_kernel", "ScalarPowerCache",
]

_COMMUTE_TOL = 1e-12


class KernelError(ValueError):
    pass


def _reals(value, name, ndim):
    """``value`` as a float array of ``ndim`` dimensions if it is a JSON
    number (ndim 0) or a regular list of numbers; else KernelError naming
    the field."""
    try:
        arr = np.asarray(value)
    except ValueError:                  # a ragged list
        arr = np.array(None)
    if arr.dtype.kind not in "iuf" or arr.ndim != ndim:
        raise KernelError(f"field spec: '{name}' must be "
                          f"{'a number' if ndim == 0 else 'numbers'}, "
                          f"got {value!r}")
    return arr.astype(float)


class MeasureSpec:
    """Driving-measure description: Gaussian or independent-SaS vector."""

    def __init__(self, variant, alphas=None, n=None):
        self.variant = variant
        if variant == "gaussian":
            if n is None:
                raise KernelError("gaussian measure needs the dimension n")
            self.alphas = None
            self.n = int(n)
            self.b_matrix = MatrixExponent(0.5 * np.eye(self.n))
        elif variant == "sas":
            if not alphas:
                raise KernelError("sas measure needs stability indices")
            alphas = _reals(alphas, "measure.alphas", 1).tolist()
            if any(a <= 0 or a > 2 for a in alphas):
                raise KernelError("stability indices must lie in (0, 2]")
            self.alphas = alphas
            self.n = len(alphas)
            self.b_matrix = MatrixExponent(np.diag([1.0 / a for a in alphas]))
        else:
            raise KernelError(f"unknown measure variant '{variant}'")

    @property
    def varpi_b(self):
        return self.b_matrix.varpi

    @property
    def upsilon_b(self):
        return self.b_matrix.upsilon

    def to_json(self):
        doc = {"variant": self.variant}
        if self.variant == "sas":
            doc["alphas"] = self.alphas
        return doc

    @classmethod
    def from_json(cls, doc, n):
        if not isinstance(doc, dict) or "variant" not in doc:
            raise KernelError("measure document missing 'variant'")
        return cls(doc["variant"], alphas=doc.get("alphas"), n=n)


class ScalarPowerCache:
    """s -> s^A for positive scalars, via the cached structure of A.

    Jordan blocks are raised separately (log-fill per block) so that
    mixed-sign spectra cannot overflow each other.
    """

    def __init__(self, a_matrix):
        self.m = a_matrix if isinstance(a_matrix, MatrixExponent) \
            else MatrixExponent(np.atleast_2d(np.asarray(a_matrix, float)))
        self.n = self.m.dim
        self.p, self.blocks = self.m.jordan()
        self.pinv = np.linalg.inv(self.p)
        self.scalar = self.n == 1
        self.nu0 = float(self.m.entries[0, 0]) if self.scalar else None

    def at(self, s):
        """s^A as an (n, n) array, s > 0."""
        return self.batch(np.array([s]))[0]

    def batch(self, s_arr):
        """(m, n, n) array of s^A over a vector of positive scalars."""
        s_arr = np.asarray(s_arr, dtype=float)
        if self.scalar:
            return (s_arr ** self.nu0)[:, None, None]
        logs = np.log(s_arr)
        hj = _jordan_fill(self.blocks,
                          lambda k, t: np.exp(t * logs) * logs ** k,
                          lead=logs.shape)
        out = np.einsum("ij,mjk,kl->mil", self.p, hj, self.pinv)
        return _maybe_real(out, np.max(np.abs(out)))


class FieldSpec:
    """Complete description of one tempered field (the unit of config)."""

    FLAVORS = ("MA", "MA_B", "H")

    def __init__(self, flavor, d, n, lambda_, e_matrix, h_matrix, phi,
                 measure, commuting=None):
        if flavor not in self.FLAVORS:
            raise KernelError(f"unknown flavor '{flavor}'")
        self.flavor = flavor
        self.d = int(d)
        self.n = int(n)
        if self.d < 1 or self.n < 1:
            raise KernelError("dimensions must be positive")
        self.lambda_ = float(lambda_)
        if not math.isfinite(self.lambda_) or self.lambda_ < 0:
            raise KernelError("lambda must be finite and >= 0")
        self.e_matrix = e_matrix if isinstance(e_matrix, MatrixExponent) \
            else MatrixExponent(e_matrix)
        self.h_matrix = h_matrix if isinstance(h_matrix, MatrixExponent) \
            else MatrixExponent(h_matrix)
        if self.e_matrix.dim != self.d or self.h_matrix.dim != self.n:
            raise KernelError("exponent dimensions do not match d, n")
        if self.e_matrix.varpi <= 0:
            raise KernelError("domain exponent must have varpi > 0")
        if not (0 < self.h_matrix.varpi <= self.h_matrix.upsilon):
            raise KernelError("Hurst exponent must have 0 < varpi <= upsilon")
        if isinstance(measure, MeasureSpec):
            self.measure = measure
        else:
            self.measure = MeasureSpec.from_json(measure, n=self.n)
        if self.measure.n != self.n:
            raise KernelError("measure dimension does not match n")
        self.phi = phi
        if phi.dim != self.d:
            raise KernelError("phi dimension does not match d")
        self._check_phi_exponent()
        self.q = self.e_matrix.trace
        bh = self.h_matrix.entries @ self.measure.b_matrix.entries
        hb = self.measure.b_matrix.entries @ self.h_matrix.entries
        self.commutator_norm = float(np.linalg.norm(bh - hb, 2))
        if commuting is None:
            self.commuting = self.commutator_norm < _COMMUTE_TOL
        else:
            if commuting and self.commutator_norm >= _COMMUTE_TOL:
                raise KernelError(
                    f"commuting flag asserted but ||HB-BH|| = "
                    f"{self.commutator_norm:.3e}")
            self.commuting = bool(commuting)
        self.exponent = MatrixExponent(
            self.h_matrix.entries - self.q * self.measure.b_matrix.entries)
        self._power = None
        self._power_h = None
        self._power_qb = None

    def _check_phi_exponent(self):
        # MA flavors need an E-homogeneous phi, harmonizable an E*-homogeneous
        target = self.e_matrix.entries
        if self.flavor == "H":
            target = target.T
        rng = np.random.default_rng(7)
        for c in (0.5, 2.0):
            x = rng.standard_normal(self.d)
            from .matfun import matrix_power
            lhs = self.phi(matrix_power(target, c) @ x)
            rhs = c * self.phi(x)
            if abs(lhs - rhs) > 1e-8 * max(abs(rhs), 1e-12):
                raise KernelError(
                    "phi is not homogeneous for this flavor's exponent "
                    f"(relative defect {abs(lhs - rhs) / max(abs(rhs), 1e-300):.2e})")

    # -- cached matrix-power evaluators ------------------------------------
    @property
    def power_exponent(self):
        if self._power is None:
            self._power = ScalarPowerCache(self.exponent)
        return self._power

    @property
    def power_h(self):
        if self._power_h is None:
            self._power_h = ScalarPowerCache(self.h_matrix)
        return self._power_h

    @property
    def power_qb(self):
        if self._power_qb is None:
            self._power_qb = ScalarPowerCache(MatrixExponent(
                self.q * self.measure.b_matrix.entries))
        return self._power_qb

    def to_json(self):
        return {
            "flavor": self.flavor, "d": self.d, "n": self.n,
            "lambda": self.lambda_,
            "E": self.e_matrix.entries.tolist(),
            "H": self.h_matrix.entries.tolist(),
            "phi": {"variant": self.phi.variant,
                    "rho": getattr(self.phi, "rho", None)},
            "measure": self.measure.to_json(),
        }

    @classmethod
    def from_json(cls, doc):
        for key in ("flavor", "d", "n", "lambda", "E", "H", "phi", "measure"):
            if key not in doc:
                raise KernelError(f"field spec document missing '{key}'")
        for key in ("d", "n"):
            if type(doc[key]) is not int:
                raise KernelError(f"field spec: '{key}' must be an integer, "
                                  f"got {doc[key]!r}")
        e_mat = MatrixExponent(_reals(doc["E"], "E", 2))
        h_mat = MatrixExponent(_reals(doc["H"], "H", 2))
        phi_doc = doc["phi"]
        if not isinstance(phi_doc, dict) or "variant" not in phi_doc:
            raise KernelError("phi document missing 'variant'")
        phi_e = e_mat.entries.T if doc["flavor"] == "H" else e_mat.entries
        phi = EHomogeneousFn(phi_doc["variant"], phi_e,
                             rho=phi_doc.get("rho"))
        measure = MeasureSpec.from_json(doc["measure"], n=doc["n"])
        return cls(doc["flavor"], doc["d"], doc["n"],
                   float(_reals(doc["lambda"], "lambda", 0)), e_mat, h_mat,
                   phi, measure)


def _tempered_power_term(spec, phi_value):
    """e^{-lambda phi} phi^{H-qB}, with the continuous 0-extension."""
    if phi_value == 0.0:
        if spec.exponent.varpi > 0:
            return np.zeros((spec.n, spec.n))
        raise KernelError("kernel singular at phi = 0 for this exponent")
    return math.exp(-spec.lambda_ * phi_value) * \
        spec.power_exponent.at(phi_value)


def ma_kernel(spec, x, y):
    """Moving-average integrand at (x, y): the tempered power difference."""
    if spec.flavor != "MA":
        raise KernelError("ma_kernel needs an MA spec")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return _tempered_power_term(spec, spec.phi(x - y)) \
        - _tempered_power_term(spec, spec.phi(-y))


def _bessel_power_term(spec, phi_value):
    """K_{H-qB}(lambda phi) phi^{H-qB} with its continuous 0-limit."""
    if spec.lambda_ <= 0:
        raise KernelError("Bessel tempering requires lambda > 0")
    if phi_value == 0.0:
        if spec.exponent.varpi <= 0:
            raise KernelError("kernel singular at phi = 0 for this exponent")
        # product limit 2^{nu-1} Gamma(nu) lambda^{-nu} per eigenvalue
        p, blocks = spec.exponent.jordan()
        if any(r > 1 for _, r in blocks):
            raise KernelError("phi = 0 limit needs a diagonalizable exponent")
        vals = [2.0 ** (t - 1) * gamma_fn(complex(t))
                * spec.lambda_ ** (-t) for t, _ in blocks]
        out = (p * np.array(vals)) @ np.linalg.inv(p)
        if np.max(np.abs(out.imag)) < 1e-9 * np.max(np.abs(out)):
            out = out.real
        return out
    return matrix_bessel_k(spec.exponent.entries, spec.lambda_ * phi_value) \
        @ spec.power_exponent.at(phi_value)


def mab_kernel(spec, x, y):
    """Bessel-tempered moving-average integrand at (x, y)."""
    if spec.flavor != "MA_B":
        raise KernelError("mab_kernel needs an MA_B spec")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return _bessel_power_term(spec, spec.phi(x - y)) \
        - _bessel_power_term(spec, spec.phi(-y))


def h_kernel(spec, x, xi):
    """Harmonizable integrand (e^{-i<x,xi>} - 1)(lambda+phi)^{-H-qB}."""
    if spec.flavor != "H":
        raise KernelError("h_kernel needs an H spec")
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    base = spec.lambda_ + spec.phi(xi)
    osc = np.exp(-1j * float(np.dot(x, xi))) - 1.0
    pw = spec.power_h.at(1.0 / base) @ spec.power_qb.at(1.0 / base)
    return osc * pw


class ExistenceReport:
    def __init__(self, ok, margins):
        self.ok = bool(ok)
        self.margins = dict(margins)

    def __repr__(self):
        return f"ExistenceReport(ok={self.ok}, margins={self.margins})"

    def to_json(self):
        return {"ok": self.ok, "margins": self.margins}


def existence_check(spec):
    """Flavor eigenvalue inequality, positivity of lambda and varpi_E, and
    the integrability slack, reported with named margins."""
    margins = {
        "lambda": spec.lambda_,
        "varpi_E": spec.e_matrix.varpi,
    }
    w = spec.exponent.varpi            # varpi_{H - qB}
    vb = spec.measure.varpi_b
    if spec.flavor == "MA":
        margins["eigenvalue_margin"] = w + spec.q * vb
    elif spec.flavor == "MA_B":
        margins["eigenvalue_margin"] = 2.0 * w + spec.q * vb
    else:
        margins["eigenvalue_margin"] = spec.h_matrix.varpi
    if spec.flavor in ("MA", "MA_B"):
        margins["integrability_delta"] = math.inf if w >= 0 else \
            -spec.q / w - 1.0 / vb
    else:
        margins["integrability_delta"] = math.inf
    ok = (margins["lambda"] > 0 and margins["varpi_E"] > 0
          and margins["eigenvalue_margin"] > 0
          and margins["integrability_delta"] > 0)
    return ExistenceReport(ok, margins)


def tfsm_kernel(hurst, alpha, lam, t, y):
    """Scalar tempered one-sided kernel on the line (d = n = 1).

    (t-y)_+^{H-1/alpha} e^{-lambda (t-y)_+} - (-y)_+^{H-1/alpha}
    e^{-lambda (-y)_+} with the 0^p := 0 convention at vanishing argument.
    """
    if not (0.0 < hurst < 1.0):
        raise KernelError("tfsm_kernel requires H in (0, 1)")
    if not (0.0 < alpha <= 2.0):
        raise KernelError("tfsm_kernel requires alpha in (0, 2]")
    if lam < 0:
        raise KernelError("tfsm_kernel requires lambda >= 0")
    if alpha == 2.0 and hurst - 0.5 <= -0.5:
        raise KernelError("Gaussian variance requires H - 1/alpha > -1/2")
    expo = hurst - 1.0 / alpha
    y = np.asarray(y, dtype=float)
    out = _fast.tfsm_matrix(np.atleast_1d(float(t)), np.atleast_1d(y).ravel(),
                            expo, lam)[0]
    if np.ndim(y) == 0:
        return float(out[0])
    return out.reshape(np.shape(y))
