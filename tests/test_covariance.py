import math
import re

import numpy as np
import pytest

from stat_helpers import (calibrate_spectral_constant,
                          ibtofbf_variance_kernel_quadrature, tfbm_cov,
                          tfbm_model)

import trfield.covariance as cov
from trfield.covariance import (CovarianceError, CovarianceModel,
                                IsotropicGaussianSpec, ibtofbf_increment_cov,
                                ibtofbf_spectral_density,
                                itofbf_spectral_density, tfbm_variogram_batch)
from trfield.quadrature import (QuadratureError, adaptive_gk,
                                gauss_legendre, integrate_decaying)
from trfield.specfun import gamma_fn, hyp2f1


def brute_pair_integral(h, hp, mu, span=None):
    """Direct quadrature of the unit-displacement kernel product (d = 1)."""
    def f(y):
        def g(power):
            r1 = np.abs(1.0 - y)
            r0 = np.abs(y)
            with np.errstate(divide="ignore", invalid="ignore"):
                a = np.where(r1 > 0, np.exp(-mu * r1)
                             * np.where(r1 > 0, r1, 1.0) ** power, 0.0)
                b = np.where(r0 > 0, np.exp(-mu * r0)
                             * np.where(r0 > 0, r0, 1.0) ** power, 0.0)
            return a - b
        return g(h - 0.5) * g(hp - 0.5)

    span = span or 25.0 / max(mu, 0.05)
    val, _ = adaptive_gk(f, -span, 1.0 + span, rtol=1e-10, atol=1e-300,
                         points=(0.0, 1.0), max_intervals=40000)
    return val


# ---------------------------------------------------------------------------
# spec validation

def test_spec_validation():
    with pytest.raises(CovarianceError):
        IsotropicGaussianSpec("ITOFBF", 1, 1, 0.0, [[0.5]])
    with pytest.raises(CovarianceError):
        IsotropicGaussianSpec("ITOFBF", 1, 1, 1.0, [[1.2]])
    with pytest.raises(CovarianceError):
        IsotropicGaussianSpec("IBTOFBF", 2, 1, 1.0, [[0.4]])   # h <= d/4
    with pytest.raises(CovarianceError):
        IsotropicGaussianSpec("ITOFBF", 1, 2, 1.0,
                              [[0.5, 0.0], [0.0, 0.5]])        # repeated
    with pytest.raises(CovarianceError):
        IsotropicGaussianSpec("ITOFBF", 1, 2, 1.0,
                              [[0.5, -0.4], [0.4, 0.5]])       # complex pair


def test_spec_json_roundtrip():
    spec = IsotropicGaussianSpec("IBTOFBF", 1, 2, 0.7,
                                 [[0.7, 0.1], [0.0, 0.4]])
    doc = spec.to_json()
    spec2 = IsotropicGaussianSpec.from_json(doc)
    assert spec2.variant == "IBTOFBF"
    assert np.allclose(spec2.h, spec.h)


def test_tfbm_line_spec():
    doc = {"variant": "TFBM_LINE", "h": 0.6, "lambda": 0.2}
    spec = IsotropicGaussianSpec.from_json(doc)
    assert (spec.d, spec.n) == (1, 1)
    # provenance keeps its three keys, in this order
    assert list(spec.to_json().items()) == list(doc.items())
    assert CovarianceModel(spec).method == "closed_form"
    for method in ("kernel_quadrature", "spectral_integral"):
        with pytest.raises(CovarianceError, match="applies to"):
            CovarianceModel(spec, method=method)
    for bad in [dict(doc, h=1.0), dict(doc, h=0.0),
                dict(doc, **{"lambda": 0})]:
        with pytest.raises(CovarianceError):
            IsotropicGaussianSpec.from_json(bad)
    with pytest.raises(CovarianceError, match="d = n = 1"):
        IsotropicGaussianSpec("TFBM_LINE", 2, 1, 0.2, [[0.6]])


@pytest.mark.parametrize("doc,field", [
    ({"variant": "ITOFBF", "d": True, "n": 1, "lambda": 0.5,
      "H": [[0.7]]}, "d"),
    ({"variant": "ITOFBF", "d": 1, "n": 1.0, "lambda": 0.5,
      "H": [[0.7]]}, "n"),
    ({"variant": "ITOFBF", "d": 1, "n": 1, "lambda": "0.5",
      "H": [[0.7]]}, "lambda"),
    ({"variant": "IBTOFBF", "d": 1, "n": 1, "lambda": [0.5],
      "H": [[0.7]]}, "lambda"),
    ({"variant": "ITOFBF", "d": 1, "n": 1, "lambda": 0.5,
      "H": [["0.7"]]}, "H"),
    ({"variant": "ITOFBF", "d": 1, "n": 2, "lambda": 0.5,
      "H": [[0.7, 0.1], [0.5]]}, "H"),
    ({"variant": "TFBM_LINE", "h": "0.7", "lambda": 0.5}, "h"),
    ({"variant": "TFBM_LINE", "h": 0.7, "lambda": True}, "lambda"),
    ({"variant": "TFBM_LINE", "h": None, "lambda": 0.5}, "h"),
])
def test_spec_json_non_numeric_field_names_it(doc, field):
    with pytest.raises(CovarianceError, match=f"'{field}' must be"):
        IsotropicGaussianSpec.from_json(doc)


# ---------------------------------------------------------------------------
# exponentially tempered field, kernel side

@pytest.mark.parametrize("h,hp,mu", [
    (0.7, 0.7, 0.3), (0.3, 0.3, 1.0), (0.45, 0.8, 0.7), (0.9, 0.9, 2.5),
])
def test_pair_integral_against_brute_oracle(h, hp, mu):
    spec = IsotropicGaussianSpec(
        "ITOFBF", 1, 1, 1.0, [[h]]) if h == hp else None
    if spec is None:
        spec = IsotropicGaussianSpec(
            "ITOFBF", 1, 2, 1.0, [[h, 0.3], [0.0, hp]])
        i, j = 0, 1
    else:
        i = j = 0
    mine = cov._pair_integral_ma(spec, i, j, mu)
    assert mine == pytest.approx(brute_pair_integral(h, hp, mu), rel=1e-8)


def test_pair_integral_untempered_limit():
    # mu = 0 (d = 1) against mpmath quadrature of
    # int (|1-y|^nu - |y|^nu) (|1-y|^nup - |y|^nup) dy, nu = h - 1/2
    mpmath = pytest.importorskip("mpmath")
    for h, hp in [(0.7, 0.7), (0.45, 0.45), (0.72, 0.58), (0.3, 0.8),
                  (0.1, 0.9)]:
        hm = [[h]] if h == hp else [[h, 0.3], [0.0, hp]]
        spec = IsotropicGaussianSpec("ITOFBF", 1, len(hm), 1.0, hm)
        mine = cov._pair_integral_ma(spec, 0, len(hm) - 1, 0.0)
        with mpmath.workdps(30):
            nu, nup = mpmath.mpf(h) - 0.5, mpmath.mpf(hp) - 0.5
            ref = mpmath.quad(
                lambda y: (abs(1 - y) ** nu - abs(y) ** nu)
                * (abs(1 - y) ** nup - abs(y) ** nup),
                [-mpmath.inf, -1, 0, 0.5, 1, 2, mpmath.inf])
        assert mine == pytest.approx(float(ref), rel=1e-13), (h, hp)


@pytest.mark.parametrize("count", [8, 512])
def test_pair_integral_batch_of_small_mu(count):
    # mu spaced geometrically on [1e-3, 0.5], as a fine line grid asks for
    # them: each equals its value alone within I = 2 (G - X)'s error bound,
    # X's rtol 1e-13 of G on both sides (G / I is 3.5e4 at mu = 1e-3)
    mus = np.geomspace(1e-3, 0.5, count)
    spec = IsotropicGaussianSpec("ITOFBF", 1, 1, 0.5, [[0.7]])
    batch = cov._pair_integral_ma(spec, 0, 0, mus)
    for k in (0, count // 2, count - 1):
        alone = cov._pair_integral_ma(
            IsotropicGaussianSpec("ITOFBF", 1, 1, 0.5, [[0.7]]), 0, 0,
            mus[k])
        bound = 4e-13 * cov._gauss_term(0.2, 0.2, mus[k], 1)
        assert abs(batch[k] - alone) <= bound, mus[k]


def test_pair_integral_degenerate_at_half():
    spec = IsotropicGaussianSpec("ITOFBF", 1, 1, 1.0, [[0.5]])
    assert cov._pair_integral_ma(spec, 0, 0, 0.0) == 0.0


def test_cx2_symmetric_psd():
    # V(1) = C^2(lambda): the kernel product integrals at tempering 1.3
    spec = IsotropicGaussianSpec("ITOFBF", 1, 2, 1.3,
                                 [[0.7, 0.2], [0.0, 0.35]])
    c2 = CovarianceModel(spec).variance([1.0])
    assert np.max(np.abs(c2 - c2.T)) < 1e-12 * np.max(np.abs(c2))
    assert np.min(np.linalg.eigvalsh(c2)) > -1e-12 * np.trace(c2)


def test_cov_degenerate_arguments():
    model = CovarianceModel(IsotropicGaussianSpec("ITOFBF", 1, 1, 0.7,
                                                  [[0.6]]))
    assert np.allclose(model.evaluate([1.2], [0.0]), 0.0)
    var = model.variance([1.2])
    assert np.allclose(model.evaluate([1.2], [1.2]), var)


def test_cov_matrix_symmetry_under_swap():
    spec = IsotropicGaussianSpec("ITOFBF", 1, 2, 1.0,
                                 [[0.7, 0.2], [0.0, 0.35]])
    model = CovarianceModel(spec)
    a = model.evaluate([1.0], [0.4])
    b = model.evaluate([0.4], [1.0])
    assert np.max(np.abs(a - b.T)) < 1e-10 * np.max(np.abs(a))


def test_cov_isotropy_d2(rng):
    spec = IsotropicGaussianSpec("ITOFBF", 2, 1, 1.0, [[0.7]])
    th = 0.83
    rot = np.array([[math.cos(th), -math.sin(th)],
                    [math.sin(th), math.cos(th)]])
    x, x2 = np.array([0.8, -0.3]), np.array([-0.2, 0.5])
    model = CovarianceModel(spec)
    a = model.evaluate(x, x2)[0, 0]
    b = model.evaluate(rot @ x, rot @ x2)[0, 0]
    assert a == pytest.approx(b, rel=1e-6)


def test_variance_scaling_consistency_quadrature():
    # Var B(x) = r^H C^2(r lambda) r^H equals a direct kernel quadrature
    spec = IsotropicGaussianSpec("ITOFBF", 1, 1, 0.8, [[0.65]])
    r = 1.7
    direct = r ** (2 * 0.65) * brute_pair_integral(0.65, 0.65, r * 0.8)
    assert CovarianceModel(spec).variance([r])[0, 0] == pytest.approx(
        direct, rel=1e-4)


def test_stationary_increments_exact_translation_invariance(rng):
    cov_fn = CovarianceModel(IsotropicGaussianSpec("IBTOFBF", 1, 1, 0.6,
                                                   [[0.7]])).evaluate
    x = np.array([0.9])
    base = None
    for _ in range(1000):
        h = rng.standard_normal(1) * 3.0
        v = (cov_fn(x + h, x + h)[0, 0]
             - 2.0 * cov_fn(x + h, h)[0, 0]
             + cov_fn(h, h)[0, 0])
        base = v if base is None else base
        assert v == pytest.approx(base, rel=1e-6)


def test_stationary_increments_quadrature_model(rng):
    cov_fn = CovarianceModel(IsotropicGaussianSpec("ITOFBF", 1, 1, 1.0,
                                                   [[0.6]])).evaluate
    x = np.array([0.7])
    vals = []
    for h in (np.array([0.0]), np.array([1.3]), np.array([-2.1])):
        vals.append(cov_fn(x + h, x + h)[0, 0]
                    - 2.0 * cov_fn(x + h, h)[0, 0]
                    + cov_fn(h, h)[0, 0])
    assert np.ptp(vals) < 1e-6 * abs(vals[0])


# ---------------------------------------------------------------------------
# exponentially tempered field, harmonizable side

def test_spectral_density_at_zero_frequency():
    # at xi = 0 the hypergeometric factor is 1: density equals the
    # constant (2 pi)^{-1/2} C_{H,lambda} in d = 1
    spec = IsotropicGaussianSpec("ITOFBF", 1, 1, 0.8, [[0.7]])
    d, h, lam = 1, 0.7, 0.8
    c_paper = (2 * math.pi) ** (d / 2) * gamma_fn(d / 2 + h) / (
        2.0 ** ((d - 2) / 2) * lam ** (d / 2 + h) * gamma_fn(d / 2))
    expect = c_paper / math.sqrt(2 * math.pi)
    assert itofbf_spectral_density(spec, [0.0])[0, 0] == pytest.approx(
        expect, rel=1e-12)


def test_spectral_density_dual_branch_point():
    spec = IsotropicGaussianSpec("ITOFBF", 1, 1, 1.0, [[0.5]])
    val = itofbf_spectral_density(spec, [1.0])[0, 0]
    a = (0.5 + 0.5) / 2.0
    direct = gamma_fn(1.0) / (2.0 ** -0.5 * gamma_fn(0.5)) \
        * hyp2f1(a, a + 0.5, 0.5, -1.0)
    assert val == pytest.approx(direct, rel=1e-9)


def test_spectral_density_brownian_case_closed_form():
    # d = 1, H = 1/2: the 2F1 factor is 2F1(1/2, 1; 1/2; -(xi/lam)^2)
    # = (1 + (xi/lam)^2)^(-1); beyond |xi| = 4 lam it takes the 1/z
    # connection formula right on its Gamma pole c - a = 0
    lam = 0.8
    spec = IsotropicGaussianSpec("ITOFBF", 1, 1, lam, [[0.5]])
    for r in np.linspace(0.0, 100.0, 41) * lam:
        expect = math.sqrt(2.0 / math.pi) / lam / (1.0 + (r / lam) ** 2)
        assert itofbf_spectral_density(spec, [r])[0, 0] == pytest.approx(
            expect, rel=1e-12)


def test_spectral_synthesis_brownian_case_completes():
    from trfield.simulate import (GridSpec, spectral_synthesis,
                                  spectral_tail_cutoff)
    lam = 0.8
    spec = IsotropicGaussianSpec("ITOFBF", 1, 1, lam, [[0.5]])
    assert spectral_tail_cutoff(1.0, lam, 1) > 4.0 * lam
    real = spectral_synthesis(spec, GridSpec([(0.0, 1.0)], [5]), 3,
                              count_per_axis=256)
    assert real.values[0, 0] == 0.0
    assert np.all(np.isfinite(real.values))


def test_spectral_density_decay_slope():
    spec = IsotropicGaussianSpec("ITOFBF", 1, 1, 1.0, [[0.7]])
    xs = np.array([200.0, 400.0, 800.0, 1600.0])
    vals = np.array([itofbf_spectral_density(spec, [x])[0, 0] for x in xs])
    assert np.max(np.abs(vals)) < 1e-3        # entries decay to zero
    slope = np.polyfit(np.log(xs), np.log(np.abs(vals)), 1)[0]
    assert slope == pytest.approx(-(0.5 + 0.7), abs=0.02)


def test_cov_spectral_matches_kernel_single_point():
    spec = IsotropicGaussianSpec("ITOFBF", 1, 1, 1.0, [[0.6]])
    a = CovarianceModel(spec).evaluate([1.0], [0.4])[0, 0]
    b = CovarianceModel(spec, "spectral_integral", rtol=1e-7).evaluate(
        [1.0], [0.4])[0, 0]
    assert a == pytest.approx(b, rel=1e-6)


def test_cov_spectral_matrix_case():
    spec = IsotropicGaussianSpec("ITOFBF", 1, 2, 1.0,
                                 [[0.7, 0.2], [0.0, 0.35]])
    a = CovarianceModel(spec).evaluate([1.0], [0.4])
    b = CovarianceModel(spec, "spectral_integral", rtol=1e-7).evaluate(
        [1.0], [0.4])
    assert np.max(np.abs(a - b)) < 1e-5 * np.max(np.abs(a))


def test_cov_spectral_zero_points():
    spec = IsotropicGaussianSpec("ITOFBF", 1, 1, 1.0, [[0.6]])
    out = CovarianceModel(spec, "spectral_integral").evaluate([0.0], [0.0])
    assert np.max(np.abs(out)) < 1e-8


# ---------------------------------------------------------------------------
# Bessel-tempered field

def test_ibtofbf_cov_symmetry_and_swap(rng):
    spec = IsotropicGaussianSpec("IBTOFBF", 1, 2, 1.0,
                                 [[0.7, 0.1], [0.0, 0.45]])
    model = CovarianceModel(spec)
    a = model.evaluate([1.0], [0.3])
    b = model.evaluate([0.3], [1.0])
    assert np.max(np.abs(a - b.T)) < 1e-10 * np.max(np.abs(a))


def test_ibtofbf_gram_psd(rng):
    spec = IsotropicGaussianSpec("IBTOFBF", 1, 1, 0.5, [[0.7]])
    model = CovarianceModel(spec, method="closed_form")
    pts = rng.uniform(-3, 3, (20, 1))
    g = model.gram(pts, check_psd=False)
    w = np.linalg.eigvalsh(0.5 * (g + g.T))
    assert w.min() >= -1e-8 * np.trace(g)


def test_ibtofbf_closed_vs_fourier_quadrature():
    spec = IsotropicGaussianSpec("IBTOFBF", 1, 1, 0.5, [[0.8]])
    a = CovarianceModel(spec).evaluate([1.0], [0.25])[0, 0]
    b = CovarianceModel(spec, "spectral_integral", rtol=1e-9).evaluate(
        [1.0], [0.25])[0, 0]
    assert a == pytest.approx(b, rel=1e-7)
    # x' = 0 exercises the small-argument limit of the radial term
    spec7 = IsotropicGaussianSpec("IBTOFBF", 1, 1, 1.0, [[0.7]])
    closed = CovarianceModel(spec7)
    assert closed.evaluate([1.0], [0.0])[0, 0] == pytest.approx(0.0,
                                                                abs=1e-12)
    var_closed = closed.evaluate([1.0], [1.0])[0, 0]
    var_quad = CovarianceModel(spec7, "spectral_integral",
                               rtol=1e-9).evaluate([1.0], [1.0])[0, 0]
    assert var_closed == pytest.approx(var_quad, rel=1e-7)


def test_ibtofbf_closed_vs_kernel_quadrature_variance():
    spec = IsotropicGaussianSpec("IBTOFBF", 1, 1, 0.7, [[0.65]])
    quad = ibtofbf_variance_kernel_quadrature(0.65, 0.7)
    closed = CovarianceModel(spec).evaluate([1.0], [1.0])[0, 0]
    assert closed == pytest.approx(quad, rel=1e-9)


def test_ibtofbf_spectral_density_shape_and_scaling(rng):
    spec = IsotropicGaussianSpec("IBTOFBF", 1, 1, 0.8, [[0.7]])
    lam = 0.8
    # plain (lam^2 + xi^2)^{-h} profile
    for xi in (0.0, 0.7, 3.0):
        expect = (lam ** 2 + xi ** 2) ** -0.7
        assert ibtofbf_spectral_density(spec, [xi])[0, 0] == pytest.approx(
            expect, rel=1e-12)
    # reparametrized scaling: A_{c lam}(xi) = c^{-2h} A_lam(xi / c)
    c = 1.9
    spec_c = IsotropicGaussianSpec("IBTOFBF", 1, 1, c * lam, [[0.7]])
    for _ in range(10):
        xi = rng.uniform(-5, 5)
        lhs = ibtofbf_spectral_density(spec_c, [xi])[0, 0]
        rhs = c ** (-1.4) * ibtofbf_spectral_density(spec, [xi / c])[0, 0]
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_ibtofbf_increment_cov_matches_direct_difference():
    spec = IsotropicGaussianSpec("IBTOFBF", 1, 1, 0.5, [[0.7]])
    cov_fn = CovarianceModel(spec).evaluate
    for k in (1.0, 3.0, 7.0):
        direct = (cov_fn([k + 1.0], [1.0])[0, 0]
                  - cov_fn([k], [1.0])[0, 0]
                  - cov_fn([k + 1.0], [0.0])[0, 0]
                  + cov_fn([k], [0.0])[0, 0])
        assert ibtofbf_increment_cov(spec, k)[0, 0] == pytest.approx(
            direct, rel=1e-8)


def test_ibtofbf_large_lag_exponential_bound():
    spec = IsotropicGaussianSpec("IBTOFBF", 1, 1, 1.0, [[0.7]])
    ref = abs(ibtofbf_increment_cov(spec, 10.0)[0, 0]) * math.exp(5.0)
    for k in (15.0, 20.0, 30.0):
        val = abs(ibtofbf_increment_cov(spec, k)[0, 0])
        assert val <= 1.05 * ref * math.exp(-0.5 * k)


def test_calibration_constant_is_unity_and_lambda_free():
    c1 = calibrate_spectral_constant(0.7, 0.3)
    c2 = calibrate_spectral_constant(0.7, 1.0)
    assert abs(c1 - 1.0) < 1e-9
    assert abs(c1 - c2) < 1e-8


# ---------------------------------------------------------------------------
# one-sided line field

def test_tfbm_variogram_against_brute_quadrature():
    def brute(h, lam, t):
        nu = h - 0.5

        def f(y):
            a = np.where(t - y > 0, np.where(t - y > 0, t - y, 1.0) ** nu
                         * np.exp(-lam * np.maximum(t - y, 0.0)), 0.0)
            b = np.where(-y > 0, np.where(-y > 0, -y, 1.0) ** nu
                         * np.exp(-lam * np.maximum(-y, 0.0)), 0.0)
            return (a - b) ** 2

        span = 30.0 / lam
        val, _ = adaptive_gk(f, t - span, t, rtol=1e-11, atol=1e-300,
                             points=(0.0,), max_intervals=40000)
        return val

    for h in (0.3, 0.5, 0.8):
        for t in (0.5, 2.0):
            assert tfbm_variogram_batch(h, 0.4, [t])[0] == pytest.approx(
                brute(h, 0.4, t), rel=1e-9)


def test_tfbm_small_scale_slope_is_2h():
    lags = np.geomspace(1e-3, 8e-3, 8)
    for h in (0.3, 0.5, 0.8):
        v = tfbm_variogram_batch(h, 0.1, lags)
        slope = np.polyfit(np.log(lags), np.log(v), 1)[0]
        assert slope == pytest.approx(2 * h, abs=0.05)


def test_evaluate_stacked_pairs_matches_each_pair():
    # one V batch for all pairs gives every pair's bits
    rng = np.random.default_rng(5)
    for model, d in [
            (tfbm_model(0.6, 0.2), 1),
            (CovarianceModel(IsotropicGaussianSpec("IBTOFBF", 2, 2, 0.5,
                                                   [[0.7, 0.1], [0.0, 0.6]])),
             2)]:
        x, x2 = rng.uniform(-1.0, 1.0, (2, 6, d))
        x2[0] = 0.0
        x2[1] = x[1]
        stacked = model.evaluate(x, x2)
        assert stacked.shape == (6, model.spec.n, model.spec.n)
        for k in range(6):
            assert np.array_equal(stacked[k], model.evaluate(x[k], x2[k]))


def test_tfbm_covariance_model_protocol():
    model = tfbm_model(0.6, 0.2)
    pts = np.linspace(0.0, 1.0, 9)[:, None]
    g = model.gram(pts)
    assert g.shape == (9, 9)
    assert g[0, 0] == 0.0
    assert model.evaluate([0.5], [0.5])[0, 0] == pytest.approx(
        tfbm_variogram_batch(0.6, 0.2, [0.5])[0], rel=1e-12)
    assert tfbm_cov(0.6, 0.2, 0.4, 0.7) == pytest.approx(
        model.evaluate([0.4], [0.7])[0, 0])


# ---------------------------------------------------------------------------
# covariance model wrapper

def test_model_method_dispatch():
    it_spec = IsotropicGaussianSpec("ITOFBF", 1, 1, 1.0, [[0.6]])
    bes_spec = IsotropicGaussianSpec("IBTOFBF", 1, 1, 1.0, [[0.7]])
    assert CovarianceModel(it_spec).method == "kernel_quadrature"
    assert CovarianceModel(bes_spec).method == "closed_form"
    with pytest.raises(CovarianceError):
        CovarianceModel(it_spec, method="closed_form")
    spectral = CovarianceModel(bes_spec, method="spectral_integral")
    a = spectral.evaluate([1.0], [0.4])[0, 0]
    b = CovarianceModel(bes_spec).evaluate([1.0], [0.4])[0, 0]
    assert a == pytest.approx(b, rel=1e-6)


def test_model_gram_psd_check_raises_on_garbage():
    # V(rho) = rho^3 is no variogram: at sites 1 and 2 the Gram is
    # [[1, 4], [4, 8]], whose determinant is -8
    class Cubic(CovarianceModel):
        def radial_variance(self, radii):
            return (radii ** 3)[:, None, None]

    model = Cubic(IsotropicGaussianSpec("TFBM_LINE", 1, 1, 0.5, [[0.6]]))
    pts = np.array([[1.0], [2.0]])
    with pytest.raises(CovarianceError, match="gram matrix not PSD"):
        model.gram(pts, check_psd=True)
    assert np.array_equal(model.gram(pts, check_psd=False),
                          [[1.0, 4.0], [4.0, 8.0]])
    # a correct model's Gram passes the check
    good = CovarianceModel(IsotropicGaussianSpec("IBTOFBF", 1, 1, 1.0,
                                                 [[0.7]]))
    good.gram(np.array([[0.5], [1.0], [2.0]]))


# ---------------------------------------------------------------------------
# pinned-stationary Gram core

def loop_gram(model, pts):
    """Reference Gram: one ``evaluate`` call per pair of sites."""
    n = model.spec.n
    g = np.empty((len(pts) * n, len(pts) * n))
    for a in range(len(pts)):
        for b in range(len(pts)):
            g[a * n:(a + 1) * n, b * n:(b + 1) * n] = model.evaluate(pts[a],
                                                                     pts[b])
    return g


def scalar_ibtofbf_cov(spec, x, x2):
    """Per-pair closed form with scalar K_nu calls, independent of the core."""
    from trfield.specfun import bessel_k

    lam, d = spec.lambda_, spec.d

    def s_fn(s_sum, u):
        if u == 0.0:
            return math.pi ** (d / 2.0) * lam ** (d - 2.0 * s_sum) \
                * gamma_fn(s_sum - d / 2.0) / gamma_fn(s_sum)
        return (2.0 * math.pi) ** (d / 2.0) * lam ** (d / 2.0 - s_sum) \
            * 2.0 ** (1.0 - s_sum) / gamma_fn(s_sum) \
            * u ** (s_sum - d / 2.0) * bessel_k(d / 2.0 - s_sum, lam * u)

    x, x2 = np.atleast_1d(x), np.atleast_1d(x2)
    u = (np.linalg.norm(x - x2), np.linalg.norm(x), np.linalg.norm(x2))
    scalars = np.empty((spec.n, spec.n))
    for i in range(spec.n):
        for j in range(spec.n):
            s = spec.h[i] + spec.h[j]
            scalars[i, j] = (s_fn(s, u[0]) - s_fn(s, u[1]) - s_fn(s, u[2])
                             + s_fn(s, 0.0))
    return spec.p @ (spec.q_matrix * scalars) @ spec.p.T


def assert_gram_matches(g, ref, rtol, origin, n):
    assert g.shape == ref.shape
    assert np.max(np.abs(g - ref)) <= rtol * np.max(np.abs(ref))
    assert np.all(g[origin * n:(origin + 1) * n, :] == 0.0)
    assert np.all(g[:, origin * n:(origin + 1) * n] == 0.0)


GRID_2X2 = np.array([[0.0, 0.0], [0.0, 0.5], [0.5, 0.0], [0.5, 0.5]])


@pytest.mark.parametrize("variant,d,h,pts,rtol", [
    ("IBTOFBF", 1, [[0.7]], np.linspace(-0.25, 1.0, 6)[:, None], 1e-12),
    ("IBTOFBF", 1, [[0.7, 0.1], [0.0, 0.55]],
     np.linspace(-0.25, 1.0, 6)[:, None], 1e-12),
    ("IBTOFBF", 2, [[0.7]], np.array([[x, y] for x in (-0.25, 0.0, 0.5)
                                      for y in (0.0, 0.25, 0.75)]), 1e-12),
    ("ITOFBF", 1, [[0.72]], np.linspace(-0.125, 0.5, 6)[:, None], 1e-9),
    ("ITOFBF", 2, [[0.72]], GRID_2X2, 1e-9),
    ("ITOFBF", 3, [[0.7]], np.array([[0.0, 0.0, 0.0], [0.3, -0.2, 0.1],
                                     [-0.25, 0.0, 0.4]]), 1e-9),
])
def test_gram_matches_per_pair_evaluate(variant, d, h, pts, rtol):
    n = len(h)
    spec = IsotropicGaussianSpec(variant, d, n, 0.5, h)
    g = CovarianceModel(spec).gram(pts)
    # a fresh spec, so that no pair integral is shared through the cache
    ref_model = CovarianceModel(IsotropicGaussianSpec(variant, d, n, 0.5, h))
    origin = int(np.flatnonzero(np.all(pts == 0.0, axis=1))[0])
    assert_gram_matches(g, loop_gram(ref_model, pts), rtol, origin, n)
    if variant == "IBTOFBF":
        ref = np.block([[scalar_ibtofbf_cov(spec, a, b) for b in pts]
                        for a in pts])
        assert_gram_matches(g, ref, rtol, origin, n)


def test_gram_matches_per_pair_evaluate_spectral_integral():
    spec = IsotropicGaussianSpec("IBTOFBF", 1, 1, 1.0, [[0.7]])
    pts = np.array([[0.5], [0.0], [-0.75]])
    g = CovarianceModel(spec, method="spectral_integral").gram(pts)
    ref = loop_gram(CovarianceModel(spec, method="spectral_integral"), pts)
    assert_gram_matches(g, ref, 1e-9, 1, 1)
    closed = CovarianceModel(spec).gram(pts)
    assert np.max(np.abs(g - closed)) <= 1e-7 * np.max(np.abs(closed))


def test_gram_matches_per_pair_evaluate_tfbm():
    model = tfbm_model(0.65, 0.4)
    pts = np.linspace(-0.5, 1.5, 17)[:, None]
    g = model.gram(pts)
    ref = np.array([[tfbm_cov(0.65, 0.4, a, b) for b in pts[:, 0]]
                    for a in pts[:, 0]])
    assert_gram_matches(g, ref, 1e-12, 4, 1)
    assert_gram_matches(g, loop_gram(model, pts), 1e-12, 4, 1)


def per_node_cross_integral(nu, nup, mu, d):
    """X(mu) with one inner quadrature per outer node (unbatched)."""
    def inner(rho):
        a, b = abs(rho - 1.0), rho + 1.0
        if d == 2:
            c2, w2 = 0.5 * (a * a + b * b), 0.5 * (b * b - a * a)

            def f(phi):
                s = np.maximum(np.sqrt(np.maximum(c2 + w2 * np.sin(phi),
                                                  0.0)), 1e-300)
                return np.exp(-mu * s) * s ** nup

            val, _ = adaptive_gk(f, -0.5 * math.pi, 0.5 * math.pi,
                                 rtol=1e-10, atol=1e-14, max_intervals=4096)
            return 2.0 * val
        val, _ = adaptive_gk(lambda s: np.exp(-mu * s) * s ** (nup + 1.0),
                             a, b, rtol=1e-11, atol=1e-300,
                             max_intervals=4096)
        return 2.0 * math.pi * val / rho

    def outer(rho_arr):
        vals = np.array([inner(rho) for rho in rho_arr])
        return np.exp(-mu * rho_arr) * rho_arr ** (nu + d - 1) * vals

    head, _ = adaptive_gk(outer, 0.0, 2.0, rtol=1e-9, atol=1e-300,
                          points=(1.0,), max_intervals=8192)

    def tail_bound(r):
        expo = -2.0 * mu * r + (nu + nup + d - 1) * math.log(max(r, 1.0))
        return cov._surface_area(d) * math.exp(max(expo, -745.0)) / mu

    return head + integrate_decaying(outer, 2.0, rtol=1e-9,
                                     atol=1e-12 * abs(head) + 1e-300,
                                     first_width=1.0, tail_bound=tail_bound)


@pytest.mark.parametrize("d,h", [(2, 0.72), (3, 0.7), (3, 0.4)])
def test_node_batched_cross_integral_matches_per_node_loop(d, h):
    nu = h - d / 2.0
    mus = np.array([0.05, 0.26, 0.37, 1.0])
    batched = cov._cross_integral(nu, nu, mus, d)
    for mu, val in zip(mus, batched):
        assert val == pytest.approx(per_node_cross_integral(nu, nu, mu, d),
                                    rel=1e-9)


SITES_2D = np.array([[-1.0, -1.0], [-0.5, 0.25], [0.0, 0.0], [0.25, 0.75],
                     [0.75, -0.5], [1.0, 1.0]])


@pytest.mark.parametrize("d,h", [
    (2, [[0.1]]), (2, [[0.3]]), (2, [[0.5]]), (2, [[0.7]]),
    (2, [[0.72, 0.1], [0.0, 0.58]]), (3, [[0.72, 0.1], [0.0, 0.58]]),
    (3, [[0.3]]), (3, [[0.5]]),
])
def test_kernel_quadrature_gram_matches_spectral_integral(d, h):
    # every H in (0, 1) at d = 2 and 3; at d = 3 and h < 1/2 the s1 power
    # nu + 1 is negative, and h = 1/2 gives an integer a - b in the 2F1
    pts = SITES_2D if d == 2 else np.column_stack(
        [SITES_2D, 0.5 * SITES_2D[::-1, 0]])
    n = len(h)
    kernel = CovarianceModel(IsotropicGaussianSpec("ITOFBF", d, n, 0.52, h),
                             method="kernel_quadrature").gram(pts)
    spectral = CovarianceModel(IsotropicGaussianSpec("ITOFBF", d, n, 0.52, h),
                               method="spectral_integral").gram(pts)
    assert np.max(np.abs(kernel - spectral)) <= 1e-8 * np.max(np.abs(spectral))


def test_ibtofbf_gram_batches_bessel_calls(monkeypatch):
    import trfield.specfun as specfun

    calls = {"batch": 0, "scalar": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cov, "bessel_k_batch",
                        counting("batch", cov.bessel_k_batch))
    monkeypatch.setattr(specfun, "bessel_k",
                        counting("scalar", specfun.bessel_k))
    pts = np.linspace(-0.25, 0.5, 25)[:, None]
    for h, pair_sums in (([[0.7]], 1), ([[0.7, 0.1], [0.0, 0.55]], 3)):
        calls.update(batch=0, scalar=0)
        spec = IsotropicGaussianSpec("IBTOFBF", 1, len(h), 0.5, h)
        CovarianceModel(spec).gram(pts, check_psd=False)
        assert calls == {"batch": pair_sums, "scalar": 0}


def test_spectral_densities_accept_frequency_arrays():
    xi = np.array([[0.0], [0.3], [2.0], [40.0]])
    for variant, h in (("ITOFBF", [[0.72, 0.1], [0.0, 0.5]]),
                       ("IBTOFBF", [[0.7, 0.1], [0.0, 0.55]])):
        spec = IsotropicGaussianSpec(variant, 1, 2, 0.5, h)
        fn = itofbf_spectral_density if variant == "ITOFBF" \
            else ibtofbf_spectral_density
        batch = fn(spec, xi)
        assert batch.shape == (4, 2, 2)
        for row, amp in zip(xi, batch):
            single = fn(spec, row)
            assert single.shape == (2, 2)
            assert np.allclose(amp, single, rtol=1e-13, atol=0.0)


def test_spectral_integral_d2_small_h_failure_names_tolerance():
    # p_decay - d = 2h is small at d = 2, h = 0.05: the radial tail of
    # integrate_decaying does not converge within its block budget
    spec = IsotropicGaussianSpec("ITOFBF", 2, 1, 0.52, [[0.05]])
    model = CovarianceModel(spec, method="spectral_integral")
    with pytest.raises(QuadratureError,
                       match=r"integrate_decaying: \d+ blocks.*above "
                             r"tolerance \d\.\d{3}e[-+]\d+"):
        model.gram(np.array([[0.3, 0.1], [0.5, -0.2]]))


def test_spectral_integral_d2_small_h_fails_fast():
    # the radial tail bound decays as R^{-2h} = R^{-0.1}: the run stops as
    # soon as that rate is steady instead of doubling R out to 1e60
    spec = IsotropicGaussianSpec("ITOFBF", 2, 1, 0.52, [[0.05]])
    model = CovarianceModel(spec, method="spectral_integral")
    with pytest.raises(QuadratureError, match=r"radial transform mid .*"
                       r"integrate_decaying: (\d+) blocks") as info:
        model.gram(np.array([[0.3, 0.1], [0.5, -0.2]]))
    blocks = int(re.search(r"integrate_decaying: (\d+) blocks",
                           str(info.value)).group(1))
    assert blocks <= 30


# Per-radius radial transform as it stood before the radius-batched one:
# the accuracy oracle for cov._radial_transform.

def _oracle_euler(terms):
    s = np.cumsum(terms)
    best, err, row = s[-1], abs(terms[-1]), s
    for _ in range(len(terms) - 1):
        row = 0.5 * (row[1:] + row[:-1])
        if abs(row[-1] - best) <= err:
            err, best = abs(row[-1] - best), row[-1]
    return best, err


def _oracle_tail(f, edges, rtol, atol, window=96):
    x0, w0 = gauss_legendre(16)
    terms, streak = [], 0
    for prev, edge in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (edge + prev), 0.5 * (edge - prev)
        terms.append(half * float(np.dot(w0, f(mid + half * x0))))
        if len(terms) >= 12 and len(terms) % 4 == 0:
            w = min(len(terms), window)
            best, err = _oracle_euler(np.array(terms[-w:]))
            total = float(np.sum(terms[:-w])) + best
            streak = streak + 1 if err < max(atol, rtol * abs(total)) else 0
            if streak >= 2:
                return total
    raise QuadratureError("oracle tail did not converge")


def _oracle_radial_transform(env, u, d, p_decay, head_scale, rtol):
    avg = cov._angular_average

    def head_f(r):
        return (1.0 - avg(d, u * r)) * env(r) * r ** (d - 1)

    def plain(r):
        return env(r) * r ** (d - 1)

    def osc_f(r):
        return avg(d, u * r) * env(r) * r ** (d - 1)

    r0 = min(max(2.0 * head_scale, 1.0), 40.0 / u)
    head, _ = adaptive_gk(head_f, 0.0, r0, rtol=rtol, atol=1e-300,
                          max_intervals=16384)
    mid = integrate_decaying(
        plain, r0, rtol=rtol, atol=1e-14 * abs(head) + 1e-300,
        first_width=max(1.0, r0), tail_bound=lambda r: env(np.array([r]))[0]
        * r ** d / max(p_decay - d, 0.1))
    zeros = cov._angular_zeros(d, 3000) / u
    zeros = zeros[zeros > r0]
    pre, _ = adaptive_gk(osc_f, r0, zeros[0], rtol=rtol,
                         atol=1e-14 * (abs(head) + abs(mid)) + 1e-300,
                         max_intervals=16384)
    tail = _oracle_tail(osc_f, zeros, rtol,
                        1e-13 * (abs(head) + abs(mid)) + 1e-300)
    return cov._surface_area(d) * (head + mid - pre - tail)


def _envelope(variant, d, h, lam):
    """Product of spectral amplitudes for one eigenvalue, and its decay."""
    if variant == "ITOFBF":
        return (lambda r: cov._itofbf_density_scalar(h, lam, d, r) ** 2,
                d + 2.0 * h)
    return lambda r: (lam ** 2 + r ** 2) ** (-2.0 * h), 4.0 * h


# radius 100 has its own split point r0 = 40/100
ORACLE_RADII = np.array([1 / 64, 1 / 16, 0.25, 0.5, 1.0, 2.0, 8.0, 100.0])


@pytest.mark.parametrize("variant,d,h", [
    ("ITOFBF", 1, 0.7), ("ITOFBF", 2, 0.4), ("ITOFBF", 3, 0.7),
    ("IBTOFBF", 1, 0.6), ("IBTOFBF", 2, 0.7), ("IBTOFBF", 3, 0.9)])
def test_radial_transform_matches_per_radius_oracle(variant, d, h):
    env, p_decay = _envelope(variant, d, h, 0.5)
    batched = cov._radial_transform(env, ORACLE_RADII, d, p_decay, 0.5,
                                    rtol=1e-9)
    old, truth = (np.array([
        _oracle_radial_transform(env, u, d, p_decay, 0.5, rtol)
        for u in ORACLE_RADII]) for rtol in (1e-9, 1e-12))
    np.testing.assert_allclose(batched, old, rtol=1e-12, atol=0.0)
    assert np.all(np.abs(batched - truth) <= 1.1 * np.abs(old - truth))


@pytest.mark.parametrize("stage,target", [
    ("head", "adaptive_gk"), ("mid", "integrate_decaying"),
    ("pre", "adaptive_gk"), ("tail", "oscillatory_tail")])
def test_radial_transform_failure_names_stage(monkeypatch, stage, target):
    # head and pre are the first and second adaptive_gk calls of the module
    real, calls = getattr(cov, target), []

    def failing(*args, **kwargs):
        calls.append(1)
        if stage != "pre" or len(calls) == 2:
            raise QuadratureError("forced failure above tolerance 1.000e-09")
        return real(*args, **kwargs)

    monkeypatch.setattr(cov, target, failing)
    env, p_decay = _envelope("ITOFBF", 1, 0.7, 0.5)
    with pytest.raises(QuadratureError,
                       match=rf"radial transform {stage} at u = 0\.5, 2, "
                             r"rtol 1e-09: forced failure above tolerance"):
        cov._radial_transform(env, np.array([0.5, 2.0]), 1, p_decay, 0.5)


def test_spectral_v_batches_density_calls(monkeypatch):
    # one 2F1 batch per stage pass, not one per radius, panel and block
    calls = []
    real = cov.hyp2f1_batch

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(cov, "hyp2f1_batch", counting)
    spec = IsotropicGaussianSpec("ITOFBF", 1, 1, 0.52, [[0.75]])
    cov._spectral_v(spec, np.array([0.47, 0.53, 1.0]), 1e-6)
    assert len(calls) <= 12
