import math

import numpy as np
import pytest

from trfield.aniso import EHomogeneousFn
from trfield.covariance import (IsotropicGaussianSpec, TFBMCovariance,
                                ibtofbf_increment_cov, itofbf_variance,
                                tfbm_variogram)
from trfield.estimate import (EstimateError, EstimateReport, box_dimension,
                              directional_holder, fit_loglog,
                              scaling_law_check, semi_lrd_profile)
from trfield.kernels import FieldSpec, MeasureSpec
from trfield.simulate import GridSpec, Realization, gaussian_exact_many


def test_fit_loglog_exact_line():
    x = np.linspace(0.0, 3.0, 12)
    slope, intercept, se, r2 = fit_loglog(x, 2.5 * x - 1.0)
    assert slope == pytest.approx(2.5, abs=1e-12)
    assert intercept == pytest.approx(-1.0, abs=1e-12)
    assert se < 1e-12 and r2 == pytest.approx(1.0)


def test_report_pass_fail_logic():
    rep = EstimateReport("x", 0.52, 0.01, (0, 1), target=0.5, tolerance=0.05)
    assert rep.passed
    rep = EstimateReport("x", 0.6, 0.01, (0, 1), target=0.5, tolerance=0.05)
    assert not rep.passed
    doc = rep.to_json()
    assert doc["target"] == 0.5 and doc["passed"] is False


# ---------------------------------------------------------------------------
# directional Holder

def test_holder_analytic_mode_matches_targets():
    dt = 1.0 / 1023
    lags = np.arange(2, 17) * dt
    for h in (0.3, 0.5, 0.8):
        rep = directional_holder(
            variogram=lambda t: tfbm_variogram(h, 0.1, t), lags=lags,
            target=h, tolerance=0.05)
        assert rep.passed, rep
        assert rep.extras["mode"] == "analytic"


def test_holder_analytic_mode_deterministic():
    lags = np.arange(2, 17) / 1023
    a = directional_holder(variogram=lambda t: tfbm_variogram(0.6, 0.1, t),
                           lags=lags)
    b = directional_holder(variogram=lambda t: tfbm_variogram(0.6, 0.1, t),
                           lags=lags)
    assert a.estimate == b.estimate          # bit-exact recomputation


def test_holder_isotropic_variance_slope_off_half():
    # two-sided isotropic variogram carries slope 2H away from H = 1/2
    dt = 1.0 / 1023
    lags = np.arange(2, 17) * dt
    for h in (0.3, 0.8):
        spec = IsotropicGaussianSpec("ITOFBF", 1, 1, 0.1, [[h]])
        rep = directional_holder(
            variogram=lambda t: itofbf_variance(spec, [t])[0, 0], lags=lags,
            target=h, tolerance=0.05)
        assert rep.passed, rep


def test_holder_degenerate_at_half_two_sided():
    # at H = q/2 the two-sided power difference degenerates: the
    # variogram slope doubles (the sample-path targets use the
    # one-sided kernel there)
    dt = 1.0 / 1023
    lags = np.arange(2, 17) * dt
    spec = IsotropicGaussianSpec("ITOFBF", 1, 1, 0.1, [[0.5]])
    rep = directional_holder(
        variogram=lambda t: itofbf_variance(spec, [t])[0, 0], lags=lags)
    assert rep.estimate == pytest.approx(1.0, abs=0.02)


def test_holder_monte_carlo_mode():
    grid = GridSpec([(0.0, 1.0)], [513])
    model = TFBMCovariance(0.6, 0.1)
    # 400 paths: the estimate's standard deviation is 0.027 (0.075 at 50)
    reals = gaussian_exact_many(model, grid, 31, 400)
    rep = directional_holder(realizations=reals, direction=[1.0],
                             target=0.6, tolerance=0.1)
    assert rep.passed, rep
    assert rep.extras["mode"] == "monte_carlo"


def test_holder_isotropy_direction_equivariance():
    # isotropic analytic variogram: identical estimates in any direction
    dt = 1.0 / 255
    lags = np.arange(2, 17) * dt
    spec = IsotropicGaussianSpec("ITOFBF", 2, 1, 0.5, [[0.7]])
    reps = []
    for direction in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0]):
        r = np.asarray(direction) / np.linalg.norm(direction)
        reps.append(directional_holder(
            variogram=lambda t: itofbf_variance(spec, t * r)[0, 0],
            lags=lags))
    assert reps[0].estimate == pytest.approx(reps[1].estimate, abs=1e-9)
    assert reps[0].estimate == pytest.approx(reps[2].estimate, abs=1e-9)


def test_holder_anisotropic_directional_targets():
    # diagonal exponent diag(1, 2): along a direction of the a_i eigenspace
    # the variogram is tau(t r)^{2H} x (slowly varying tempering factor),
    # so the estimator recovers H / a_i
    h_val = 0.7
    e_mat = np.diag([1.0, 2.0])
    from trfield.aniso import tau_many

    lags = np.geomspace(0.005, 0.05, 8)
    for direction, a_i in (([1.0, 0.0], 1.0), ([0.0, 1.0], 2.0)):
        r = np.asarray(direction)

        def variogram(t):
            return float(tau_many((t * r)[None, :], e_mat)[0]) ** (2 * h_val)

        rep = directional_holder(variogram=variogram, lags=lags,
                                 target=h_val / a_i, tolerance=0.02)
        assert rep.passed, rep


def test_holder_anisotropic_scaling_identity_brute_ratio():
    # tempered scaling of the second moment on an anisotropic spec:
    # Var_lam(c^E x) = c^{2H} Var_{c lam}(x), checked by a coarse 2-d
    # Riemann sum of the squared kernel difference
    h_val = 0.7
    e_mat = np.diag([0.6, 0.9])       # q = 1.5: mild kernel exponent
    phi = EHomogeneousFn("diag_power", e_mat, rho=2.0)
    grid = np.linspace(-50.0, 50.0, 1201)
    step = grid[1] - grid[0]
    yy1, yy2 = np.meshgrid(grid + step / 2, grid + step / 2, indexing="ij")
    nodes = np.stack([yy1.ravel(), yy2.ravel()], axis=1)
    nu = h_val - 0.75                 # H - q/2

    def variogram(x, lam):
        def term(ph):
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(ph > 0, np.exp(-lam * ph)
                                * np.where(ph > 0, ph, 1.0) ** nu, 0.0)

        ph_x = phi.batch(x[None, :] - nodes)
        ph_0 = phi.batch(-nodes)
        return float(np.sum((term(ph_x) - term(ph_0)) ** 2)) * step * step

    c, lam = 2.0, 0.3
    for x in (np.array([2.0, 0.0]), np.array([0.0, 2.0]),
              np.array([1.0, 1.0])):
        x_scaled = np.array([c ** 0.6 * x[0], c ** 0.9 * x[1]])
        lhs = variogram(x_scaled, lam)
        rhs = c ** (2 * h_val) * variogram(x, c * lam)
        assert lhs == pytest.approx(rhs, rel=0.05)


def test_holder_errors():
    with pytest.raises(EstimateError):
        directional_holder(variogram=lambda t: t, lags=None)
    with pytest.raises(EstimateError):
        directional_holder(variogram=lambda t: t, lags=np.array([0.1, 0.2]))
    grid = GridSpec([(0.0, 1.0)], [8])
    real = Realization(grid, np.zeros((8, 1)), {})
    with pytest.raises(EstimateError):
        directional_holder(realizations=[real], direction=[1.0])


# ---------------------------------------------------------------------------
# box dimension

def test_box_dimension_affine_graph():
    grid = GridSpec([(0.0, 1.0)], [1025])
    line = Realization(grid, 0.3 * grid.sites()[:, 0] + 1.0, {})
    rep = box_dimension([line], target=1.0, tolerance=0.05)
    assert rep.passed, rep


def test_box_dimension_affine_surface_d2():
    grid = GridSpec([(0.0, 1.0), (0.0, 1.0)], [513, 513])
    sites = grid.sites()
    plane = Realization(grid, 0.3 * sites[:, 0] + 0.5 * sites[:, 1], {})
    rep = box_dimension([plane], target=2.0, tolerance=0.05)
    assert rep.passed, rep


def test_box_dimension_rough_path():
    grid = GridSpec([(0.0, 1.0)], [4097])
    model = TFBMCovariance(0.5, 0.1)
    reals = gaussian_exact_many(model, grid, 5, 8)
    rep = box_dimension(reals, scales=[2.0 ** -j for j in range(2, 8)],
                        target=1.5, tolerance=0.1)
    assert rep.passed, rep


def test_box_dimension_guards():
    grid = GridSpec([(0.0, 1.0)], [64])
    real = Realization(grid, np.zeros((64, 1)), {})
    with pytest.raises(EstimateError):
        box_dimension([real])
    grid = GridSpec([(0.0, 1.0)], [1025])
    real = Realization(grid, np.zeros((1025, 1)), {})
    with pytest.raises(EstimateError):
        box_dimension([real], scales=[0.5, 0.25])


# ---------------------------------------------------------------------------
# semi-LRD profile

def _gamma_fn(h, lam):
    spec = IsotropicGaussianSpec("IBTOFBF", 1, 1, lam, [[h]])
    return lambda k: ibtofbf_increment_cov(spec, k)[0, 0]


def test_semi_lrd_tempered_slope():
    rep = semi_lrd_profile(_gamma_fn(0.7, 0.5), np.arange(1, 9),
                           np.arange(30, 61), lambda_target=0.5,
                           slope_tolerance=0.1)
    assert rep.passed, rep
    assert rep.extras["exponential_window"]
    assert rep.estimate == pytest.approx(-0.5, abs=0.05)


def test_semi_lrd_lambda_monotonicity():
    slopes = [semi_lrd_profile(_gamma_fn(0.7, lam), np.arange(1, 9),
                               np.arange(30, 61)).estimate
              for lam in (0.2, 0.5, 1.0)]
    assert slopes[0] > slopes[1] > slopes[2]


def test_semi_lrd_untempered_control_no_window():
    rep = semi_lrd_profile(_gamma_fn(0.7, 1e-3), np.arange(1, 9),
                           np.arange(2, 61))
    assert not rep.extras["exponential_window"]


def test_semi_lrd_sign_change_splits_window():
    # an oscillating gamma keeps only its largest clean segment
    def gamma(k):
        return math.exp(-0.3 * k) * (1.0 if k < 40 else -1.0)

    rep = semi_lrd_profile(gamma, np.arange(1, 9), np.arange(30, 61),
                           lambda_target=0.3, slope_tolerance=0.05)
    assert rep.window[1] <= 60.0
    assert rep.estimate == pytest.approx(-0.3, abs=0.02)


# ---------------------------------------------------------------------------
# scaling law

def test_scaling_law_analytic_both_variants():
    for variant, h in (("ITOFBF", 0.6), ("IBTOFBF", 0.7)):
        spec = IsotropicGaussianSpec(variant, 1, 1, 1.0, [[h]])
        for c in (0.5, 2.0):
            rep = scaling_law_check(spec, c, [[1.0], [0.4], [-0.7]])
            assert rep.passed, rep
            assert rep.extras["analytic_rel_error"] < 1e-6


def test_scaling_law_c1_trivial():
    spec = IsotropicGaussianSpec("IBTOFBF", 1, 1, 0.7, [[0.8]])
    rep = scaling_law_check(spec, 1.0, [[1.0]])
    assert rep.extras["analytic_rel_error"] < 1e-14


def test_scaling_law_monte_carlo_branch():
    spec = IsotropicGaussianSpec("ITOFBF", 1, 1, 1.0, [[0.6]])
    c = 2.0
    sites = [[1.0]]

    def synthesizer(seed, n_draws):
        from trfield.simulate import ma_synthesis
        fs = FieldSpec("MA", 1, 1, 1.0, np.eye(1), [[0.6]],
                       EHomogeneousFn("euclidean", np.eye(1)),
                       MeasureSpec("gaussian", n=1))
        grid = GridSpec([(2.0, 2.5)], [2])     # X_lambda at c*x = 2.0
        igrid = GridSpec([(-60.0, 63.0)], [8192])
        reals = ma_synthesis(fs, grid, igrid, seed, n_draws=n_draws)
        return np.stack([r.values[:, 0] for r in reals])

    rep = scaling_law_check(spec, c, sites, seed=5, n_draws=2000,
                            synthesizer=synthesizer)
    assert rep.passed, rep.extras


# ---------------------------------------------------------------------------
# Monte-Carlo convergence of the variogram estimator

def test_variogram_estimator_sqrtn_consistency():
    grid = GridSpec([(0.0, 1.0)], [257])
    model = TFBMCovariance(0.6, 0.1)
    batches = {25: [], 50: []}
    reals = gaussian_exact_many(model, grid, 77, 24 * 50 + 24 * 25)
    at = 0
    for size in (25, 50):
        for _ in range(24):
            chunk = reals[at:at + size]
            at += size
            rep = directional_holder(realizations=chunk, direction=[1.0])
            batches[size].append(rep.estimate)
    se25 = np.std(batches[25], ddof=1)
    se50 = np.std(batches[50], ddof=1)
    ratio = se50 / se25
    assert abs(ratio - 1.0 / math.sqrt(2.0)) < 0.3 * (1.0 / math.sqrt(2.0))
