import json
import math

import numpy as np
import pytest

from trfield.aniso import EHomogeneousFn
from trfield.kernels import (ExistenceReport, FieldSpec, KernelError,
                             MeasureSpec, ScalarPowerCache, existence_check,
                             h_kernel, ma_kernel, mab_kernel, tfsm_kernel)
from trfield.matfun import MatrixExponent, matrix_power
from trfield.quadrature import adaptive_gk
from trfield.specfun import bessel_k


def make_spec(flavor="MA", d=1, n=1, lam=1.0, hurst=0.7, alphas=None,
              e_entries=None, h_entries=None, phi_variant=None, rho=None):
    e_entries = np.eye(d) if e_entries is None else np.asarray(e_entries)
    h_entries = np.atleast_2d(hurst) if h_entries is None else \
        np.asarray(h_entries)
    phi_e = e_entries.T if flavor == "H" else e_entries
    if phi_variant is None:
        phi_variant = "euclidean" if np.allclose(phi_e, np.eye(d)) \
            else "radial"
    phi = EHomogeneousFn(phi_variant, phi_e, rho=rho)
    measure = MeasureSpec("gaussian", n=n) if alphas is None else \
        MeasureSpec("sas", alphas=alphas)
    return FieldSpec(flavor, d, n, lam, e_entries, h_entries, phi, measure)


# ---------------------------------------------------------------------------
# s -> s^A over a vector of scalars

@pytest.mark.parametrize("exponent", [
    MatrixExponent.from_jordan([[1.0, 0.3], [-0.2, 1.0]], [(0.6, 2)]),
    MatrixExponent([[0.7, -0.3], [0.3, 0.7]]),      # eigenvalues 0.7 +- 0.3i
], ids=["jordan_block", "rotation"])
def test_scalar_power_cache_matches_matrix_power(exponent):
    s = np.array([0.05, 0.3, 1.0, 2.5, 40.0])
    out = ScalarPowerCache(exponent).batch(s)
    assert not np.iscomplexobj(out)
    for si, got in zip(s, out):
        # a plain array takes the expm path of matrix_power
        expect = matrix_power(exponent.entries, si)
        assert np.max(np.abs(got - expect)) < 1e-12


# ---------------------------------------------------------------------------
# measure and spec validation

def test_measure_gaussian_bounds():
    m = MeasureSpec("gaussian", n=3)
    assert m.varpi_b == m.upsilon_b == 0.5


def test_measure_sas_bounds():
    m = MeasureSpec("sas", alphas=[1.0, 2.0])
    assert m.varpi_b == pytest.approx(0.5)
    assert m.upsilon_b == pytest.approx(1.0)


def test_measure_rejects_bad_alphas():
    for bad in ([0.0], [2.5], [-1.0]):
        with pytest.raises(KernelError):
            MeasureSpec("sas", alphas=bad)


def test_fieldspec_validations():
    with pytest.raises(KernelError):
        make_spec(lam=-1.0)
    with pytest.raises(KernelError):
        make_spec(hurst=-0.1)
    with pytest.raises((KernelError, Exception)):
        make_spec(e_entries=[[-1.0]])
    with pytest.raises(KernelError):
        FieldSpec("NOPE", 1, 1, 1.0, np.eye(1), [[0.5]],
                  EHomogeneousFn("euclidean", np.eye(1)),
                  MeasureSpec("gaussian", n=1))


def test_fieldspec_commuting_flag():
    spec = make_spec(n=2, h_entries=[[0.7, 0.1], [0.0, 0.5]],
                     alphas=[2.0, 2.0])
    assert spec.commuting          # B = I/2 commutes with everything
    bad_h = [[0.7, 0.1], [0.0, 0.5]]
    with pytest.raises(KernelError):
        FieldSpec("MA", 1, 2, 1.0, np.eye(1), bad_h,
                  EHomogeneousFn("euclidean", np.eye(1)),
                  MeasureSpec("sas", alphas=[1.1, 1.7]), commuting=True)


def test_fieldspec_json_roundtrip():
    spec = make_spec("MA_B", d=2, n=1, lam=0.8, hurst=0.6,
                     e_entries=np.diag([1.0, 2.0]), phi_variant="diag_power",
                     rho=2.0)
    doc = json.loads(json.dumps(spec.to_json()))
    spec2 = FieldSpec.from_json(doc)
    assert spec2.flavor == "MA_B" and spec2.d == 2 and spec2.q == 3.0
    assert spec2.phi.variant == "diag_power"
    assert spec2.to_json() == spec.to_json()


def test_fieldspec_json_missing_field():
    with pytest.raises(KernelError):
        FieldSpec.from_json({"flavor": "MA"})


@pytest.mark.parametrize("key,value,name", [
    ("lambda", "0.5", "'lambda'"), ("lambda", [0.5], "'lambda'"),
    ("lambda", True, "'lambda'"), ("H", [["0.7"]], "'H'"),
    ("H", [[0.7], [0.1, 0.2]], "'H'"), ("E", "one", "'E'"),
    ("E", [[None]], "'E'"),
    ("measure", {"variant": "sas", "alphas": ["1.5"]}, "'measure.alphas'"),
    ("measure", {"variant": "sas", "alphas": 1.5}, "'measure.alphas'"),
    ("measure", {"variant": "sas", "alphas": [False]}, "'measure.alphas'"),
    ("n", "two", "'n'"), ("n", True, "'n'"), ("d", 1.5, "'d'"),
])
def test_fieldspec_json_non_numeric_field_names_it(key, value, name):
    doc = make_spec("MA", d=1, n=1, lam=0.5, hurst=0.7).to_json()
    doc[key] = value
    with pytest.raises(KernelError, match=name):
        FieldSpec.from_json(doc)


# ---------------------------------------------------------------------------
# moving-average kernel

def test_ma_kernel_zero_at_x0(rng):
    spec = make_spec()
    for _ in range(3):
        y = rng.standard_normal(1)
        assert np.allclose(ma_kernel(spec, [0.0], y), 0.0)


def test_ma_kernel_untempered_power_difference():
    spec = make_spec(lam=0.0)
    out = ma_kernel(spec, [3.0], [1.0])[0, 0]
    assert out == pytest.approx(2.0 ** 0.2 - 1.0, rel=1e-13)


def test_ma_kernel_symmetric_arguments_cancel():
    spec = make_spec(lam=1.0)
    assert ma_kernel(spec, [2.0], [1.0])[0, 0] == pytest.approx(0.0,
                                                                abs=1e-15)


def test_ma_kernel_singular_exponent_raises():
    spec = make_spec(hurst=0.3, alphas=[1.0])    # H - qB = -0.7 < 0
    with pytest.raises(KernelError):
        ma_kernel(spec, [1.0], [0.0])


def test_ma_kernel_scaling_engine():
    # kernel(lam, c^E x, c^E y) = c^{H-qB} kernel(c lam, x, y)
    for c in (0.5, 2.0):
        spec1 = make_spec(lam=0.7, hurst=0.65)
        spec2 = make_spec(lam=c * 0.7, hurst=0.65)
        x, y = np.array([1.3]), np.array([0.4])
        lhs = ma_kernel(spec1, c * x, c * y)
        rhs = c ** (0.65 - 0.5) * ma_kernel(spec2, x, y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(
            1e-12, np.max(np.abs(rhs)))


def test_ma_kernel_matrix_scaling_engine(rng):
    h_mat = np.array([[0.7, 0.15], [0.0, 0.45]])
    for c in (0.5, 2.0):
        s1 = make_spec(n=2, lam=0.6, h_entries=h_mat)
        s2 = make_spec(n=2, lam=c * 0.6, h_entries=h_mat)
        x, y = rng.standard_normal(1), rng.standard_normal(1)
        factor = matrix_power(MatrixExponent(h_mat - 0.5 * np.eye(2)), c)
        lhs = ma_kernel(s1, c * x, c * y)
        rhs = factor @ ma_kernel(s2, x, y)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_ma_kernel_shift_identity(rng):
    # K(x+h, y+h) - K(x, y) = K(h, y+h): the two-argument form is
    # shift-invariant in its first (moving) term
    spec = make_spec(lam=0.9, hurst=0.6)
    for _ in range(5):
        x, y, h = (rng.standard_normal(1) for _ in range(3))
        lhs = ma_kernel(spec, x + h, y + h) - ma_kernel(spec, x, y)
        rhs = ma_kernel(spec, h, y + h)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_ma_kernel_l2_integrability_shells():
    spec = make_spec(lam=0.5, hurst=0.7)
    assert existence_check(spec).ok
    x = np.array([1.0])

    def shell_mass(lo, hi):
        val, _ = adaptive_gk(
            lambda y: np.array([ma_kernel(spec, x, [yy])[0, 0] ** 2
                                for yy in y]), lo, hi, rtol=1e-8,
            points=tuple(p for p in (0.0, 1.0) if lo < p < hi),
            max_intervals=8192)
        return val

    total = shell_mass(-8.0, 9.0)
    prev = total
    for k in (1, 2, 3):
        shell = shell_mass(-8.0 * (k + 1), -8.0 * k) \
            + shell_mass(9.0 * k, 9.0 * (k + 1))
        total += shell
    assert shell / total < 1e-6


# ---------------------------------------------------------------------------
# Bessel-tempered kernel

def test_mab_kernel_zero_at_x0():
    spec = make_spec("MA_B", hurst=0.8)
    assert np.allclose(mab_kernel(spec, [0.0], [0.37]), 0.0)


def test_mab_kernel_scalar_value_oracle():
    # H - qB = -0.25; value K_{-0.25}(2) 2^{-0.25} - K_{-0.25}(1)
    spec = make_spec("MA_B", hurst=0.25)
    out = mab_kernel(spec, [3.0], [1.0])[0, 0]
    expect = bessel_k(-0.25, 2.0) * 2.0 ** -0.25 - bessel_k(-0.25, 1.0)
    assert out == pytest.approx(expect, rel=1e-10)


def test_mab_kernel_large_y_exponential_bound():
    spec = make_spec("MA_B", hurst=0.8, lam=1.0)
    x = np.array([0.5])
    ref = abs(mab_kernel(spec, x, [6.0])[0, 0]) * math.exp(0.5 * 6.0)
    for y in (10.0, 14.0, 18.0):
        val = abs(mab_kernel(spec, x, [y])[0, 0])
        assert val <= 1.05 * ref * math.exp(-0.5 * y)


def test_mab_kernel_phi_zero_limit_continuity():
    spec = make_spec("MA_B", hurst=0.8, lam=2.0)
    # the product K_nu(lam phi) phi^nu extends continuously to phi = 0;
    # the approach rate is phi^(2 nu) with nu = 0.3 here
    at_zero = mab_kernel(spec, [1.0], [1.0])[0, 0]
    near_zero = mab_kernel(spec, [1.0], [1.0 - 1e-12])[0, 0]
    assert at_zero == pytest.approx(near_zero, rel=1e-6)


# ---------------------------------------------------------------------------
# harmonizable kernel

def test_h_kernel_scalar_value():
    spec = make_spec("H", hurst=0.7, lam=0.5)
    out = h_kernel(spec, [1.0], [2.0])[0, 0]
    assert out == pytest.approx((np.exp(-2j) - 1.0) * 2.5 ** -1.2, rel=1e-12)


def test_h_kernel_vanishes_at_origins():
    spec = make_spec("H", hurst=0.7, lam=0.5)
    assert np.allclose(h_kernel(spec, [0.0], [0.8]), 0.0)
    assert np.allclose(h_kernel(spec, [0.9], [0.0]), 0.0)


def test_h_kernel_hermitian_symmetry(rng):
    spec = make_spec("H", d=2, hurst=0.6, lam=0.7,
                     e_entries=np.diag([1.0, 2.0]), phi_variant="diag_power",
                     rho=2.0)
    for _ in range(1000):
        x = rng.standard_normal(2)
        xi = rng.standard_normal(2)
        a = h_kernel(spec, x, -xi)
        b = np.conj(h_kernel(spec, x, xi))
        assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.max(np.abs(b)))


def test_h_kernel_matrix_product_form(rng):
    h_mat = np.array([[0.7, 0.2], [0.0, 0.4]])
    spec = make_spec("H", n=2, h_entries=h_mat, lam=0.5)
    xi = np.array([1.7])
    base = 0.5 + abs(xi[0])
    expect = (np.exp(-1j * 0.9 * 1.7) - 1) * (
        matrix_power(MatrixExponent(h_mat), 1 / base)
        @ matrix_power(MatrixExponent(0.5 * np.eye(2)), 1 / base))
    assert np.max(np.abs(h_kernel(spec, [0.9], xi) - expect)) < 1e-12


# ---------------------------------------------------------------------------
# existence

def test_existence_margin_gaussian_ma():
    rep = existence_check(make_spec("MA", hurst=0.7))
    assert rep.ok
    assert rep.margins["eigenvalue_margin"] == pytest.approx(0.7)


def test_existence_margin_sas_ma():
    rep = existence_check(make_spec("MA", hurst=0.3, alphas=[1.0]))
    assert rep.ok
    assert rep.margins["eigenvalue_margin"] == pytest.approx(0.3)


def test_existence_failure_bessel_d2():
    spec = make_spec("MA_B", d=2, hurst=0.4, e_entries=np.eye(2),
                     phi_variant="euclidean")
    rep = existence_check(spec)
    assert not rep.ok
    assert rep.margins["eigenvalue_margin"] == pytest.approx(-0.2)


def test_existence_lambda_zero_flagged():
    rep = existence_check(make_spec("MA", lam=0.0, hurst=0.7))
    assert not rep.ok and rep.margins["lambda"] == 0.0


def test_existence_report_json():
    rep = existence_check(make_spec())
    doc = rep.to_json()
    assert doc["ok"] and "eigenvalue_margin" in doc["margins"]


# ---------------------------------------------------------------------------
# one-sided kernel on the line

def test_tfsm_kernel_zero_time():
    assert tfsm_kernel(0.7, 2.0, 0.5, 0.0, -1.0) == 0.0


def test_tfsm_kernel_untempered_value():
    assert tfsm_kernel(0.7, 2.0, 0.0, 1.0, -1.0) == pytest.approx(
        2.0 ** 0.2 - 1.0, rel=1e-13)


def test_tfsm_kernel_positive_y_second_term_vanishes():
    out = tfsm_kernel(0.7, 2.0, 1.0, 1.0, 0.5)
    assert out == pytest.approx(0.5 ** 0.2 * math.exp(-0.5), rel=1e-13)


def test_tfsm_kernel_validation():
    with pytest.raises(KernelError):
        tfsm_kernel(1.5, 2.0, 0.0, 1.0, 0.0)
    with pytest.raises(KernelError):
        tfsm_kernel(0.5, 2.5, 0.0, 1.0, 0.0)
    with pytest.raises(KernelError):
        tfsm_kernel(0.5, 2.0, -0.1, 1.0, 0.0)


def test_tfsm_kernel_array_input():
    y = np.linspace(-3, 3, 7)
    out = tfsm_kernel(0.7, 1.5, 0.3, 1.0, y)
    assert out.shape == y.shape
    assert np.all(out[y >= 1.0] <= 0.0)    # first term dead beyond t
