import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trfield.aniso import (AnisoError, EHomogeneousFn, PolarPoint, norm0,
                           norm0_many, phi_extrema, polar_decompose,
                           tau_many)
from trfield.matfun import MatrixExponent, matrix_power
from trfield.quadrature import adaptive_gk

E_DIAG = np.diag([1.0, 2.0])


def _norm0_oracle(x, e_entries):
    """Adaptive quadrature of the defining integral in t-space."""
    def f(t):
        out = np.empty_like(t)
        for i, ti in enumerate(t):
            te = matrix_power(e_entries, ti)
            out[i] = np.linalg.norm(te @ x) / ti
        return out

    val, _ = adaptive_gk(f, 0.0, 1.0, rtol=1e-11, max_intervals=8192)
    return val


# ---------------------------------------------------------------------------
# norm0

def test_norm0_identity_exponent_is_euclidean(rng):
    x = rng.standard_normal(3)
    assert norm0(x, np.eye(3)) == pytest.approx(np.linalg.norm(x), rel=1e-10)


def test_norm0_zero_vector():
    assert norm0(np.zeros(2), E_DIAG) == 0.0


def test_norm0_axis_value_diag_exponent():
    # coordinate axis with exponent a: |x| integral gives |x|/a
    assert norm0(np.array([0.0, 4.0]), E_DIAG) == pytest.approx(2.0,
                                                                rel=1e-10)


def test_norm0_against_quadrature_oracle(rng):
    for _ in range(4):
        x = rng.standard_normal(2) * rng.uniform(0.1, 30)
        assert norm0(x, E_DIAG) == pytest.approx(
            _norm0_oracle(x, E_DIAG), rel=1e-8)


def test_norm0_nondiagonal_exponent(rng):
    e = np.array([[1.0, 0.3], [0.0, 1.5]])
    x = np.array([0.7, -1.2])
    assert norm0(x, e) == pytest.approx(_norm0_oracle(x, e), rel=1e-8)


def test_norm0_rejects_nonfinite():
    with pytest.raises(AnisoError):
        norm0(np.array([1.0, np.nan]), E_DIAG)


def test_norm0_rejects_nonpositive_varpi():
    with pytest.raises(AnisoError):
        norm0(np.ones(2), np.diag([1.0, -0.5]))


# ---------------------------------------------------------------------------
# polar decomposition

def test_polar_isotropic_case(rng):
    x = np.array([3.0, 4.0])
    pp = polar_decompose(x, np.eye(2))
    assert pp.tau == pytest.approx(5.0, rel=1e-10)
    assert np.max(np.abs(pp.l - x / 5.0)) < 1e-9


def test_polar_axis_example():
    pp = polar_decompose(np.array([0.0, 4.0]), E_DIAG)
    assert pp.tau == pytest.approx(math.sqrt(2.0), rel=1e-9)
    assert np.max(np.abs(pp.l - np.array([0.0, 2.0]))) < 1e-8
    assert norm0(pp.l, E_DIAG) == pytest.approx(1.0, abs=1e-9)


def test_polar_scaling_property(rng):
    em = MatrixExponent(E_DIAG)
    x = rng.standard_normal(2)
    t0 = polar_decompose(x, em).tau
    t1 = polar_decompose(matrix_power(em, 3.0) @ x, em).tau
    assert t1 == pytest.approx(3.0 * t0, rel=1e-8)


def test_polar_roundtrip_many(rng):
    em = MatrixExponent(E_DIAG)
    xs = rng.standard_normal((200, 2)) * np.exp(rng.uniform(-3, 3, (200, 1)))
    taus = tau_many(xs, em)
    for x, tau in zip(xs[:50], taus[:50]):
        l = matrix_power(em, 1.0 / tau) @ x
        recon = matrix_power(em, tau) @ l
        assert np.max(np.abs(recon - x)) < 1e-8 * max(1.0, np.max(np.abs(x)))


def test_polar_rejects_origin():
    with pytest.raises(AnisoError):
        polar_decompose(np.zeros(2), E_DIAG)


# ---------------------------------------------------------------------------
# Newton tau_many

@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_tau_many_scalar_exponent_closed_form(rng, a):
    # E = a I: norm0(x) = |x|/a and tau(x) = (|x|/a)^(1/a)
    radii = np.exp(np.linspace(-20.0, 20.0, 41))
    dirs = rng.standard_normal((radii.size, 2))
    xs = dirs / np.linalg.norm(dirs, axis=1)[:, None] * radii[:, None]
    taus = tau_many(xs, a * np.eye(2))
    expect = (radii / a) ** (1.0 / a)
    assert np.max(np.abs(taus / expect - 1.0)) < 1e-10


@pytest.mark.parametrize("e_mat", [E_DIAG,
                                   np.array([[1.0, 0.3], [0.0, 1.5]]),
                                   np.array([[1.2, -0.5], [0.5, 1.2]])])
def test_tau_many_lands_on_unit_sphere(rng, e_mat):
    # tau^{-E} x from matrix_power, independent of the Newton code
    xs = rng.standard_normal((64, 2)) * np.exp(rng.uniform(-6, 6, (64, 1)))
    taus = tau_many(xs, e_mat)
    ls = np.array([matrix_power(e_mat, 1.0 / t) @ x
                   for t, x in zip(taus, xs)])
    assert np.max(np.abs(norm0_many(ls, e_mat) - 1.0)) < 1e-9


def test_tau_many_unconverged_raises_naming_tolerance(rng):
    xs = rng.standard_normal((16, 2))
    with pytest.raises(AnisoError, match=r"tol=1e-11") as info:
        tau_many(xs, E_DIAG, max_iter=1)
    assert "of 16 points" in str(info.value)


# ---------------------------------------------------------------------------
# phi variants

def test_phi_euclidean():
    phi = EHomogeneousFn("euclidean", np.eye(2))
    assert phi(np.array([3.0, 4.0])) == 5.0


def test_phi_euclidean_requires_identity():
    with pytest.raises(AnisoError):
        EHomogeneousFn("euclidean", E_DIAG)


def test_phi_radial_matches_tau():
    phi = EHomogeneousFn("radial", E_DIAG)
    assert phi(np.array([0.0, 4.0])) == pytest.approx(math.sqrt(2.0),
                                                      rel=1e-9)


def test_phi_diag_power_reduces_to_euclidean():
    phi = EHomogeneousFn("diag_power", np.eye(2), rho=2.0)
    assert phi(np.array([3.0, 4.0])) == pytest.approx(5.0, rel=1e-14)


def test_phi_diag_power_requires_rho_above_max_a():
    with pytest.raises(AnisoError):
        EHomogeneousFn("diag_power", E_DIAG, rho=1.5)


@given(st.sampled_from([0.5, 2.0, 9.0]), st.integers(0, 30))
def test_phi_homogeneity(c, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(2)
    em = MatrixExponent(E_DIAG)
    for phi in (EHomogeneousFn("radial", E_DIAG),
                EHomogeneousFn("diag_power", E_DIAG, rho=2.0)):
        lhs = phi(matrix_power(em, c) @ x)
        rhs = c * phi(x)
        assert abs(lhs - rhs) < 1e-8 * abs(rhs)


def test_phi_positive_off_origin(rng):
    phi = EHomogeneousFn("diag_power", E_DIAG, rho=2.0)
    xs = rng.standard_normal((100, 2))
    assert np.all(phi.batch(xs) > 0)


# ---------------------------------------------------------------------------
# extrema

def test_extrema_trivial_variants():
    assert EHomogeneousFn("euclidean", np.eye(2)).extrema() == (1.0, 1.0)
    assert EHomogeneousFn("radial", E_DIAG).extrema() == (1.0, 1.0)


def test_extrema_diag_power_brute_sweep_oracle():
    phi = EHomogeneousFn("diag_power", E_DIAG, rho=2.0)
    m_phi, big_phi = phi.extrema(n_samples=512)
    # brute-force sweep oracle at two resolutions (convergence check)
    prev = None
    for n in (20000, 100000):
        ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        u = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        vals = phi.batch(u) / tau_many(u, phi.e)
        sweep = (float(vals.min()), float(vals.max()))
        if prev is not None:
            assert abs(sweep[0] - prev[0]) < 5e-4
            assert abs(sweep[1] - prev[1]) < 5e-4
        prev = sweep
    assert m_phi == pytest.approx(prev[0], abs=1e-3)
    assert big_phi == pytest.approx(prev[1], abs=1e-3)
    assert 0.0 < m_phi <= big_phi < math.inf


# ---------------------------------------------------------------------------
# envelope and quasi-triangle properties

def test_tau_envelope_bounds(rng):
    # log-log envelope of tau against ||.||_0 respects the 1/a bounds
    em = MatrixExponent(E_DIAG)
    a1, ap, delta = 1.0, 2.0, 0.05
    xs = rng.standard_normal((10000, 2))
    n0 = norm0_many(xs, em)
    xs_small = xs[(n0 <= 1.0) & (n0 > 1e-12)]
    n_small = n0[(n0 <= 1.0) & (n0 > 1e-12)]
    taus = tau_many(xs_small, em)
    lo_ratio = taus / n_small ** (1.0 / a1 + delta)
    hi_ratio = taus / n_small ** (1.0 / ap - delta)
    assert lo_ratio.min() > 0 and np.isfinite(lo_ratio.min())
    assert hi_ratio.max() < np.inf
    # fitted envelope constants from half the sample hold on the rest
    half = len(taus) // 2
    c1 = lo_ratio[:half].min()
    c2 = hi_ratio[:half].max()
    assert np.all(taus[half:] >= 0.99 * c1
                  * n_small[half:] ** (1.0 / a1 + delta))
    assert np.all(taus[half:] <= 1.01 * c2
                  * n_small[half:] ** (1.0 / ap - delta))
    # mirrored bounds for large norms
    ys = xs * np.exp(rng.uniform(0.0, 3.0, (10000, 1)))
    n0y = norm0_many(ys, em)
    ys_big = ys[n0y >= 1.0]
    n_big = n0y[n0y >= 1.0]
    taus_big = tau_many(ys_big, em)
    assert np.all(taus_big >= 1e-6 * n_big ** (1.0 / ap - delta) * 0.0
                  + (taus_big / n_big ** (1.0 / ap - delta)).min()
                  * n_big ** (1.0 / ap - delta) * 0.999)
    assert (taus_big / n_big ** (1.0 / a1 + delta)).max() < np.inf


def test_tau_quasi_triangle_inequality(rng):
    em = MatrixExponent(E_DIAG)
    xs = rng.standard_normal((10000, 2)) * np.exp(rng.uniform(-2, 2, (10000, 1)))
    ys = rng.standard_normal((10000, 2)) * np.exp(rng.uniform(-2, 2, (10000, 1)))
    t_sum = tau_many(xs + ys, em)
    t_parts = tau_many(xs, em) + tau_many(ys, em)
    k = float(np.max(t_sum / t_parts))
    assert np.isfinite(k)
    assert k < 10.0


def test_homeomorphism_roundtrip_bulk(rng):
    em = MatrixExponent(E_DIAG)
    xs = rng.standard_normal((10000, 2)) * np.exp(rng.uniform(-4, 4, (10000, 1)))
    taus = tau_many(xs, em)
    # reconstruct through the diagonal power directly (vectorized)
    a = np.diag(E_DIAG)
    ls = xs / taus[:, None] ** a[None, :]
    recon = taus[:, None] ** a[None, :] * ls
    err = np.max(np.abs(recon - xs) / np.maximum(np.abs(xs), 1e-12))
    assert err < 1e-8


def test_polar_point_repr_roundtrip():
    pp = PolarPoint(2.0, [0.0, 1.0])
    assert "2.0" in repr(pp)
