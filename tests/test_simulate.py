import io
import math
import os

import numpy as np
import pytest

from trfield.aniso import EHomogeneousFn
from stat_helpers import tfbm_model

from trfield.covariance import (CovarianceModel, IsotropicGaussianSpec,
                                tfbm_variogram_batch)
from trfield.kernels import FieldSpec, MeasureSpec
from trfield import _fast, simulate, specfun
from trfield.quadrature import adaptive_gk
from trfield.simulate import (GridSpec, Realization,
                              SimulationConfigError, SimulationError,
                              SimulationToleranceError,
                              gaussian_exact, gaussian_exact_many,
                              ma_synthesis, philox_stream, sas_sample,
                              sas_truncation_report, spectral_synthesis,
                              symmetric_freq_grid, tempering_radius,
                              tfsm_synthesis, truncation_margin)


def ks_statistic(a, b):
    a = np.sort(a)
    b = np.sort(b)
    allv = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, allv, side="right") / len(a)
    cdf_b = np.searchsorted(b, allv, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_pvalue(d, n, m):
    en = math.sqrt(n * m / (n + m))
    lam = (en + 0.12 + 0.11 / en) * d
    s = 0.0
    for j in range(1, 101):
        s += 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
    return max(min(s, 1.0), 0.0)


def make_ma_spec(lam=1.0, hurst=0.6, alphas=None):
    measure = MeasureSpec("gaussian", n=1) if alphas is None else \
        MeasureSpec("sas", alphas=alphas)
    return FieldSpec("MA", 1, 1, lam, np.eye(1), [[hurst]],
                     EHomogeneousFn("euclidean", np.eye(1)), measure)


# ---------------------------------------------------------------------------
# grids and realizations

def test_gridspec_sites_row_major():
    g = GridSpec([(0.0, 1.0), (0.0, 2.0)], [2, 3])
    s = g.sites()
    assert s.shape == (6, 2)
    assert np.allclose(s[0], [0.0, 0.0])
    assert np.allclose(s[1], [0.0, 1.0])     # last axis fastest
    assert np.allclose(s[3], [1.0, 0.0])


def test_gridspec_validation():
    with pytest.raises(SimulationError):
        GridSpec([(0.0, 1.0)], [1])
    with pytest.raises(SimulationError):
        GridSpec([(1.0, 0.0)], [4])


def test_realization_binary_roundtrip(tmp_path):
    g = GridSpec([(0.0, 1.0)], [16])
    vals = np.arange(16.0)[:, None]
    r = Realization(g, vals, {"seed": 1, "method": "test"})
    p = os.path.join(tmp_path, "r.trf")
    r.save(p)
    with open(p, "rb") as fh:
        assert fh.read(4) == b"TRF1"
    r2 = Realization.load(p)
    assert np.array_equal(r2.values, vals)
    assert r2.provenance["method"] == "test"
    assert r2.grid.to_json() == g.to_json()


def test_realization_csv_export(tmp_path):
    g = GridSpec([(0.0, 1.0)], [4])
    r = Realization(g, np.ones((4, 1)), {})
    p = os.path.join(tmp_path, "r.csv")
    r.to_csv(p)
    rows = open(p).read().strip().splitlines()
    assert rows[0] == "x0,v0"
    assert len(rows) == 5


def test_realization_csv_bytes_match_savetxt():
    g = GridSpec([(0.0, 1.0), (-2.0, 3.0)], [3, 2])
    vals = np.array([[0.0, -0.0], [1e300, -1e-300], [math.pi, -1.0],
                     [2.5, 1e-5], [-7.0, 123456.789], [1.0 / 3.0, 0.1]])
    r = Realization(g, vals, {})
    buf = io.BytesIO()
    np.savetxt(buf, np.hstack([g.sites(), vals]), delimiter=",",
               header="x0,x1,v0,v1", comments="")
    assert r.to_csv_bytes() == buf.getvalue()


def test_realization_rejects_nonfinite():
    g = GridSpec([(0.0, 1.0)], [4])
    with pytest.raises(SimulationError):
        Realization(g, np.array([1.0, np.inf, 0.0, 0.0]), {})


# ---------------------------------------------------------------------------
# stable sampling

def test_sas_alpha2_is_gaussian_variance_two():
    x = sas_sample(2.0, 1.0, 42, 200000)
    assert x.var() == pytest.approx(2.0, rel=0.02)
    assert abs(np.median(x)) < 0.02


def test_sas_cauchy_interquartile():
    x = sas_sample(1.0, 1.0, 7, 200000)
    q1, q3 = np.percentile(x, [25, 75])
    assert (q3 - q1) == pytest.approx(2.0, rel=0.05)


def test_sas_hill_tail_index():
    for alpha in (1.2, 1.5):
        x = np.abs(sas_sample(alpha, 1.0, 3, 100000))
        x.sort()
        k = 2154                       # ~ n^(2/3)
        hill = np.mean(np.log(x[-k:] / x[-k - 1]))
        assert abs(1.0 / hill - alpha) < 0.15


def test_sas_symmetry_against_sign_flip():
    x = sas_sample(1.5, 1.0, 11, 20000)
    y = -sas_sample(1.5, 1.0, 12, 20000)
    d = ks_statistic(x, y)
    assert ks_pvalue(d, len(x), len(y)) > 0.01


def test_sas_scale_and_domain():
    with pytest.raises(SimulationError):
        sas_sample(2.5, 1.0, 0, 10)
    with pytest.raises(SimulationError):
        sas_sample(1.0, 0.0, 0, 10)
    x1 = sas_sample(1.5, 1.0, 5, 1000)
    x3 = sas_sample(1.5, 3.0, 5, 1000)
    assert np.allclose(x3, 3.0 * x1)


def test_philox_streams_disjoint_and_reproducible():
    a1 = philox_stream(1, 0).standard_normal(8)
    a2 = philox_stream(1, 0).standard_normal(8)
    b = philox_stream(1, 1).standard_normal(8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


# ---------------------------------------------------------------------------
# exact Gaussian sampling

def test_gaussian_exact_origin_pinned_and_cov(rng):
    spec = IsotropicGaussianSpec("ITOFBF", 1, 1, 0.5, [[0.7]])
    model = CovarianceModel(spec)
    grid = GridSpec([(0.0, 2.0)], [6])
    reals = gaussian_exact_many(model, grid, 11, 4000)
    vals = np.stack([r.values[:, 0] for r in reals])
    assert np.max(np.abs(vals[:, 0])) == 0.0
    sites = grid.sites()
    for idx in (2, 5):
        emp = vals[:, idx].var()
        th = model.variance(sites[idx])[0, 0]
        se = th * math.sqrt(2.0 / len(reals))
        assert abs(emp - th) < 3.0 * se
    emp_cov = float(np.mean(vals[:, 2] * vals[:, 5]))
    th_cov = model.evaluate(sites[2], sites[5])[0, 0]
    se = math.sqrt(model.variance(sites[2])[0, 0]
                   * model.variance(sites[5])[0, 0] / len(reals)) * 2.0
    assert abs(emp_cov - th_cov) < 3.0 * se


def test_gaussian_exact_brownian_like_increments():
    # one-sided field at h = 1/2, light tempering: nearly uncorrelated
    # unit-lag increments
    model = tfbm_model(0.5, 1e-4)
    grid = GridSpec([(0.0, 8.0)], [9])
    reals = gaussian_exact_many(model, grid, 4, 8000)
    vals = np.stack([r.values[:, 0] for r in reals])
    inc = np.diff(vals, axis=1)
    c01 = np.corrcoef(inc[:, 2], inc[:, 3])[0, 1]
    assert abs(c01) < 3.0 / math.sqrt(len(reals))


def test_gaussian_exact_site_cap():
    # the cap guards the Gram route (here a 2-d grid) only
    model = CovarianceModel(IsotropicGaussianSpec("IBTOFBF", 2, 1, 0.5,
                                                  [[0.7]]))
    with pytest.raises(SimulationError, match="exact-synthesis cap"):
        gaussian_exact(model, GridSpec([(0.0, 1.0)] * 2, [129, 129]), 1)
    # a line through the origin takes the circulant route at any size
    grid = GridSpec([(-256.0, 768.0)], [2 ** 20 + 1])
    real = gaussian_exact(tfbm_model(0.7, 0.5), grid, 1)
    assert real.provenance["algorithm"] == "circulant"
    # the telescoped eigenvalue at frequency 0 leaves nothing to clip
    assert real.provenance["min_eigenvalue_ratio"] >= 0.0
    assert real.provenance["clipped_share"] == 0.0
    assert real.values.shape == (2 ** 20 + 1, 1)
    assert real.values[2 ** 18, 0] == 0.0
    assert np.all(np.isfinite(real.values))


def test_gaussian_exact_deterministic():
    model = tfbm_model(0.6, 0.2)
    grid = GridSpec([(0.0, 1.0)], [33])
    a = gaussian_exact(model, grid, 99)
    b = gaussian_exact(model, grid, 99)
    assert np.array_equal(a.values, b.values)


def test_gaussian_exact_records_jitter():
    class RankOne:
        """Stub model whose Gram [[1, 1], [1, 1]] fails an unjittered
        Cholesky factorization."""

        class spec:
            n = 1

            @staticmethod
            def to_json():
                return {"variant": "rank_one"}

        @staticmethod
        def gram(sites, check_psd=True):
            return np.ones((len(sites), len(sites)))

    # the origin is no site: the Gram route
    reals = gaussian_exact_many(RankOne(), GridSpec([(0.5, 1.5)], [2]), 5, 2)
    assert [r.provenance["algorithm"] for r in reals] == ["cholesky"] * 2
    assert [r.provenance["jitter"] for r in reals] == [1e-14, 1e-14]
    model = tfbm_model(0.6, 0.2)
    real = gaussian_exact(model, GridSpec([(0.0, 1.0)], [9]), 5)
    prov = real.provenance
    assert prov["algorithm"] == "circulant"
    assert "jitter" not in prov
    assert prov["embedding_length"] == 16
    assert 0.0 < prov["min_eigenvalue_ratio"] <= 1.0
    assert prov["clipped_share"] == 0.0


def _unit_noise_draws(monkeypatch, sqrt_eig, n_sites, origin):
    """The circulant route's (2M, n_sites) draw map: draw j fed the j-th
    unit vector as its noise."""
    class Unit:
        def __init__(self, j):
            self.j = j

        def standard_normal(self, size):
            z = np.zeros(size)
            z[self.j] = 1.0
            return z

    monkeypatch.setattr(simulate, "philox_stream", lambda seed, j: Unit(j))
    size = 2 * (sqrt_eig.size - 1)
    return simulate._circulant_draws(sqrt_eig, n_sites, origin, 0, size)


@pytest.mark.parametrize("model", [
    tfbm_model(0.7, 0.5),
    CovarianceModel(IsotropicGaussianSpec("IBTOFBF", 1, 1, 0.5, [[0.71]])),
    CovarianceModel(IsotropicGaussianSpec("ITOFBF", 1, 1, 0.5, [[0.3]])),
], ids=["tfbm", "ibtofbf", "itofbf"])
def test_circulant_route_covariance_matches_gram(model, monkeypatch):
    # A^T A of the draw map A is the cumulative-sum map applied to the
    # embedded Toeplitz(gamma): it must be the Gram, origin first,
    # interior and last
    for lo, hi, origin in ((0.0, 1.0, 0), (-0.5, 0.75, 16), (-1.0, 0.0, 40)):
        grid = GridSpec([(lo, hi)], [41])
        sqrt_eig, record = simulate._increment_embedding(
            model.radial_variance, grid.spacings[0], grid.n_sites)
        assert record["clipped_share"] == 0.0
        a = _unit_noise_draws(monkeypatch, sqrt_eig, grid.n_sites, origin)
        gram = model.gram(grid.sites(), check_psd=False)
        err = np.max(np.abs(a.T @ a - gram)) / np.max(np.abs(gram))
        assert err <= 1e-12, (lo, hi, err)
        assert np.all(a[:, origin] == 0.0)


def test_circulant_clips_eigenvalues_within_tolerance(monkeypatch):
    # V rebuilt from chosen increment covariances gamma: TFBM's, less a
    # cosine at the interior frequency 3 of the 16-point circulant, which
    # lowers that eigenvalue pair alone to -5e-9 of the largest
    model = tfbm_model(0.7, 0.5)
    grid = GridSpec([(-0.25, 0.75)], [9])
    h, m, j = grid.spacings[0], 8, 3
    lags = np.arange(m + 1)
    v = np.concatenate([[0.0], model.radial_variance(
        np.arange(1, m + 2) * h)[:, 0, 0]])
    gamma = np.concatenate([[v[1]], 0.5 * (v[2:] + v[:-2]) - v[1:-1]])
    eig = np.fft.rfft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    gamma -= (eig[j] + 5e-9 * eig.max()) / m * np.cos(np.pi * j * lags / m)
    # V(h) = gamma(0), V((k+1)h) = 2 gamma(k) + 2 V(kh) - V((k-1)h)
    v[1] = gamma[0]
    for k in range(1, m + 1):
        v[k + 1] = 2.0 * (gamma[k] + v[k]) - v[k - 1]
    monkeypatch.setattr(
        model, "radial_variance",
        lambda r: v[np.rint(r / h).astype(int)][:, None, None])
    real = gaussian_exact(model, grid, 3)
    prov = real.provenance
    assert prov["algorithm"] == "circulant"
    assert prov["embedding_length"] == 2 * m
    assert prov["min_eigenvalue_ratio"] == pytest.approx(-5e-9, rel=1e-4)
    assert real.values[2, 0] == 0.0
    assert np.all(np.isfinite(real.values))
    # the clipped share over all 2M eigenvalues of the dense circulant,
    # where the clipped one appears twice
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    w = np.linalg.eigvalsh(np.stack([np.roll(row, k) for k in range(2 * m)]))
    assert np.sum(w < 0.0) == 2
    share = np.sum(np.maximum(-w, 0.0)) / np.sum(np.maximum(w, 0.0))
    assert prov["clipped_share"] == pytest.approx(share, rel=1e-4)


def test_circulant_indefinite_embedding_past_the_cap_raises(monkeypatch):
    # V(r) = r^3 has increments gamma(k) = 3 k h^3: no embedding is PSD
    model = tfbm_model(0.6, 0.2)
    monkeypatch.setattr(model, "radial_variance",
                        lambda r: (r ** 3)[:, None, None])
    grid = GridSpec([(0.0, 1.0)], [20000])
    with pytest.raises(SimulationToleranceError,
                       match="circulant embedding.*-1e-08.*length 40000"):
        gaussian_exact(model, grid, 1)
    # under the cap the Gram route takes over
    real = gaussian_exact(model, GridSpec([(0.0, 1.0)], [2]), 1)
    assert real.provenance["algorithm"] == "cholesky"
    assert real.provenance["min_eigenvalue_ratio"] < -1e-8


def test_factor_gram_failure_is_a_tolerance_error():
    # an indefinite Gram fails at every jitter step
    gram = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(SimulationToleranceError, match="maximal jitter"):
        simulate._factor_gram(gram, 2)


# ---------------------------------------------------------------------------
# spectral synthesis

def test_symmetric_freq_grid_properties():
    half, dvol = symmetric_freq_grid(8.0, 16, 2)
    assert half.shape[1] == 2
    assert np.all(half[:, -1] > 0)           # half-space, 0 excluded


def test_spectral_synthesis_origin_row_zero_and_real():
    spec = IsotropicGaussianSpec("ITOFBF", 1, 1, 0.5, [[0.7]])
    real = spectral_synthesis(spec, GridSpec([(0.0, 1.0)], [5]), 3,
                              count_per_axis=256)
    assert real.values[0, 0] == 0.0
    assert real.values.dtype == np.float64


def test_spectral_synthesis_variance_vs_discrete_truth():
    spec = IsotropicGaussianSpec("ITOFBF", 1, 1, 1.0, [[0.6]])
    grid = GridSpec([(0.0, 1.0)], [2])
    n_draws = 4000
    from trfield.simulate import spectral_tail_cutoff
    xi_max = spectral_tail_cutoff(0.5 + 0.6, 1.0, 1)
    half, dvol = symmetric_freq_grid(xi_max, 1024, 1)
    reals = spectral_synthesis(spec, grid, 5, n_draws=n_draws,
                               xi_max=xi_max, count_per_axis=1024)
    vals = np.stack([r.values[:, 0] for r in reals])
    from trfield.covariance import itofbf_spectral_density
    amp = np.array([itofbf_spectral_density(spec, row)[0, 0]
                    for row in half])
    phase = np.abs(np.exp(-1j * 1.0 * half[:, 0]) - 1.0) ** 2
    var_riemann = 2.0 * float(np.sum(phase * amp ** 2)) * dvol
    emp = vals[:, 1].var()
    se = var_riemann * math.sqrt(2.0 / n_draws)
    # empirical vs the discrete (Riemann) truth: pure Monte-Carlo error
    assert abs(emp - var_riemann) < 3.0 * se
    # reported discretization bias: discrete truth vs analytic variance
    th = CovarianceModel(spec).variance([1.0])[0, 0]
    bias = abs(var_riemann - th)
    assert abs(emp - th) < 3.0 * se + bias


def test_spectral_synthesis_rejects_non_gaussian():
    spec = FieldSpec("H", 1, 1, 0.5, np.eye(1), [[0.7]],
                     EHomogeneousFn("euclidean", np.eye(1)),
                     MeasureSpec("sas", alphas=[1.5]))
    with pytest.raises(SimulationError):
        spectral_synthesis(spec, GridSpec([(0.0, 1.0)], [4]), 1)


def test_spectral_synthesis_h_flavor_field_spec():
    spec = FieldSpec("H", 1, 1, 1.0, np.eye(1), [[0.6]],
                     EHomogeneousFn("euclidean", np.eye(1)),
                     MeasureSpec("gaussian", n=1))
    grid = GridSpec([(0.0, 1.0)], [3])
    n_draws = 3000
    reals = spectral_synthesis(spec, grid, 17, n_draws=n_draws, xi_max=400.0,
                               count_per_axis=4096)
    vals = np.stack([r.values[:, 0] for r in reals])
    # Fourier-quadrature oracle for Var X(1): full-line integral of
    # |e^{i xi}-1|^2 (lam+|xi|)^{-2H-q}
    def integrand(xi):
        return (2.0 - 2.0 * np.cos(xi)) * (1.0 + xi) ** (-2 * 0.6 - 1.0)

    head, _ = adaptive_gk(integrand, 0.0, 400.0, rtol=1e-9,
                          max_intervals=16384)
    target = 2.0 * head
    emp = vals[:, 2].var()
    se = emp * math.sqrt(2.0 / n_draws)
    assert abs(emp - target) < 3.0 * se + 0.02 * target


# ---------------------------------------------------------------------------
# moving-average synthesis

def test_ma_synthesis_gaussian_covariance_oracle():
    fs = make_ma_spec(lam=1.0, hurst=0.6)
    model = CovarianceModel(IsotropicGaussianSpec("ITOFBF", 1, 1, 1.0,
                                                  [[0.6]]))
    grid = GridSpec([(0.0, 1.0)], [5])
    igrid = GridSpec([(-60.0, 61.0)], [8192])
    n_draws = 3000
    reals = ma_synthesis(fs, grid, igrid, 123, n_draws=n_draws)
    vals = np.stack([r.values[:, 0] for r in reals])
    sites = grid.sites()
    for (i, j) in [(1, 3), (2, 4), (4, 4)]:
        emp = float(np.mean(vals[:, i] * vals[:, j]))
        th = model.evaluate(sites[i], sites[j])[0, 0]
        vi = model.evaluate(sites[i], sites[i])[0, 0]
        vj = model.evaluate(sites[j], sites[j])[0, 0]
        se = math.sqrt((vi * vj + th * th) / n_draws)
        assert abs(emp - th) < 3.0 * se + 0.02 * math.sqrt(vi * vj)


def test_ma_synthesis_sas2_is_sqrt2_times_gaussian():
    grid = GridSpec([(0.0, 1.0)], [4])
    igrid = GridSpec([(-50.0, 51.0)], [2048])
    g = ma_synthesis(make_ma_spec(), grid, igrid, 7)
    s = ma_synthesis(make_ma_spec(alphas=[2.0]), grid, igrid, 7)
    assert np.allclose(s.values, math.sqrt(2.0) * g.values, rtol=1e-12)


def test_ma_synthesis_existence_gate():
    bad = make_ma_spec(lam=0.0)
    with pytest.raises(SimulationError):
        ma_synthesis(bad, GridSpec([(0.0, 1.0)], [4]),
                     GridSpec([(-50.0, 51.0)], [512]), 1)


def test_ma_synthesis_coverage_gate():
    fs = make_ma_spec(lam=0.05)     # tempering radius ~ 920
    with pytest.raises(SimulationError):
        ma_synthesis(fs, GridSpec([(0.0, 1.0)], [4]),
                     GridSpec([(-20.0, 21.0)], [512]), 1)
    assert truncation_margin(fs, GridSpec([(0.0, 1.0)], [4]),
                             GridSpec([(-20.0, 21.0)], [512])) < 1.0


def test_tempering_radius_rule():
    fs = make_ma_spec(lam=1.0)
    assert tempering_radius(fs) == pytest.approx(2 * math.log(1e10), rel=1e-12)
    fsb = FieldSpec("MA_B", 1, 1, 1.0, np.eye(1), [[0.8]],
                    EHomogeneousFn("euclidean", np.eye(1)),
                    MeasureSpec("gaussian", n=1))
    assert tempering_radius(fsb) == pytest.approx(4 * math.log(1e10),
                                                  rel=1e-12)


def test_ma_synthesis_deterministic():
    grid = GridSpec([(0.0, 1.0)], [4])
    igrid = GridSpec([(-50.0, 51.0)], [1024])
    a = ma_synthesis(make_ma_spec(), grid, igrid, 3)
    b = ma_synthesis(make_ma_spec(), grid, igrid, 3)
    assert np.array_equal(a.values, b.values)


def test_sas_truncation_report_levels():
    fs = make_ma_spec(lam=1.0, hurst=0.3, alphas=[1.5])
    grid = GridSpec([(0.0, 1.0)], [4])
    good = sas_truncation_report(fs, grid,
                                 GridSpec([(-60.0, 61.0)], [4096]))
    assert good["fraction"] < 0.01
    tight_spec = make_ma_spec(lam=0.08, hurst=0.3, alphas=[1.5])
    tight = sas_truncation_report(tight_spec, grid,
                                  GridSpec([(-25.0, 26.0)], [1024]))
    assert tight["fraction"] > good["fraction"]


# ---------------------------------------------------------------------------
# one-sided stable synthesis

def test_tfsm_alpha2_matches_closed_form_variance():
    igrid = GridSpec([(-160.0, 1.0)], [8192])
    n_draws = 4000
    vals = tfsm_synthesis(0.7, 2.0, 0.3, [1.0], igrid, 21, n_draws=n_draws)
    emp = vals[:, 0].var()
    # alpha = 2 noise has variance 2 dy per cell under the stable scale
    # convention, i.e. twice the Gaussian closed form
    th = 2.0 * tfbm_variogram_batch(0.7, 0.3, [1.0])[0]
    se = th * math.sqrt(2.0 / n_draws)
    assert abs(emp - th) < 3.0 * se + 0.02 * th


def test_tfsm_chf_against_kernel_alpha_norm():
    hurst, alpha, lam = 0.7, 1.5, 0.3
    igrid = GridSpec([(-160.0, 1.0)], [4096])
    n_draws = 20000
    vals = tfsm_synthesis(hurst, alpha, lam, [1.0], igrid, 5,
                          n_draws=n_draws)[:, 0]
    from trfield.kernels import tfsm_kernel

    def kern_alpha(y):
        return np.abs(tfsm_kernel(hurst, alpha, lam, 1.0, y)) ** alpha

    norm_a, _ = adaptive_gk(kern_alpha, -160.0, 1.0, rtol=1e-8,
                            points=(0.0,), max_intervals=16384)
    for u in (0.5, 1.0):
        target = math.exp(-abs(u) ** alpha * norm_a)
        emp = float(np.mean(np.cos(u * vals)))
        se = float(np.std(np.cos(u * vals))) / math.sqrt(n_draws)
        assert abs(emp - target) < 3.0 * se + 0.01


def test_tfsm_refuses_integration_grid_of_another_dimension():
    igrid = GridSpec([[-120.0, 1.0], [0.0, 1.0]], [512, 2])
    with pytest.raises(SimulationConfigError, match="1-d, got d = 2"):
        tfsm_synthesis(0.7, 1.5, 0.3, [0.25, 0.5, 1.0], igrid, 1, n_draws=2)


def test_tfsm_deterministic():
    igrid = GridSpec([(-120.0, 1.0)], [512])
    a = tfsm_synthesis(0.7, 1.5, 0.3, [0.5, 1.0], igrid, 9, n_draws=3)
    b = tfsm_synthesis(0.7, 1.5, 0.3, [0.5, 1.0], igrid, 9, n_draws=3)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# the Riemann-sum engine shared by ma_synthesis and tfsm_synthesis

def _stream_noise(seed, j, m, alpha, scale):
    """Draw j's noise as documented: stream j, theta then w, CMS."""
    gen = philox_stream(seed, j)
    theta = (gen.random(m) - 0.5) * math.pi
    return scale * _fast.cms_batch(theta, gen.standard_exponential(m), alpha)


def test_tfsm_draw_does_not_depend_on_n_draws():
    igrid = GridSpec([(-120.0, 1.0)], [512])
    a = tfsm_synthesis(0.7, 1.5, 0.3, [0.5, 1.0], igrid, 9, n_draws=3)
    b = tfsm_synthesis(0.7, 1.5, 0.3, [0.5, 1.0], igrid, 9, n_draws=5)
    np.testing.assert_allclose(a, b[:3], rtol=1e-12, atol=0)


def test_ma_draw_does_not_depend_on_n_draws():
    grid = GridSpec([(0.0, 1.0)], [4])
    igrid = GridSpec([(-50.0, 51.0)], [1024])
    a = ma_synthesis(make_ma_spec(), grid, igrid, 3, n_draws=3)
    b = ma_synthesis(make_ma_spec(), grid, igrid, 3, n_draws=5)
    for ra, rb in zip(a, b):
        np.testing.assert_allclose(ra.values, rb.values, rtol=1e-12, atol=0)


def test_block_gemm_matches_per_draw_loop(monkeypatch):
    # two draws per GEMM block (u, w and the CMS work, four doubles per
    # node): five draws cross two block boundaries
    igrid = GridSpec([(-60.0, 1.0)], [257])
    nodes = igrid.midpoints()[:, 0]
    dvol = igrid.cell_volume
    monkeypatch.setattr(simulate, "_NOISE_SPAN_BYTES", 2 * 4 * 8 * len(nodes))
    hurst, alpha, lam = 0.7, 1.5, 0.3
    times = np.array([0.25, 0.5, 1.0])
    got = tfsm_synthesis(hurst, alpha, lam, times, igrid, 4, n_draws=5)
    g = _fast.tfsm_matrix(times, nodes, hurst - 1.0 / alpha, lam)
    for j in range(5):
        want = g @ _stream_noise(4, j, len(nodes), alpha, dvol ** (1 / alpha))
        np.testing.assert_allclose(got[j], want, rtol=1e-12, atol=0)
    grid = GridSpec([(0.0, 1.0)], [4])
    spec = make_ma_spec()
    reals = ma_synthesis(spec, grid, igrid, 6, n_draws=5,
                         require_coverage=False)
    g = _fast.ma_matrix_1d(grid.sites()[:, 0], nodes,
                           spec.exponent.entries[0, 0], spec.lambda_)
    for j, real in enumerate(reals):
        # Gaussian N(0, dvol): the alpha = 2 transform over sqrt(2)
        want = g @ _stream_noise(6, j, len(nodes), 2.0,
                                 math.sqrt(dvol) / math.sqrt(2.0))
        np.testing.assert_allclose(real.values[:, 0], want, rtol=1e-12,
                                   atol=0)


def _ma_cases():
    """name -> (spec, grid, integration grid); the grids hold the origin
    and no site falls on a node."""
    e2 = np.diag([1.0, 1.5])

    def field(flavor, e_mat, phi):
        return FieldSpec(flavor, e_mat.shape[0], 1, 0.8, e_mat, [[0.7]], phi,
                         MeasureSpec("gaussian", n=1))
    grid2 = GridSpec([(-0.25, 0.25)] * 2, [3, 3])
    igrid2 = GridSpec([(-6.0, 6.0)] * 2, [13, 13])
    return {
        "diag_power_d2": (field("MA", e2, EHomogeneousFn(
            "diag_power", e2, rho=2.0)), grid2, igrid2),
        "radial_d2": (field("MA", e2, EHomogeneousFn("radial", e2)),
                      grid2, igrid2),
        "mab_d1": (field("MA_B", np.eye(1), EHomogeneousFn(
            "euclidean", np.eye(1))), GridSpec([(-0.25, 0.25)], [5]),
            GridSpec([(-20.0, 20.0)], [41])),
    }


def _dense_ma_kernel(spec, sites, nodes):
    """term(phi(x - y)) - term(phi(-y)) from phi.batch of the (N M, d)
    differences, term(p) = p^nu e^{-lam p} (MA) or K_nu(lam p) p^nu."""
    nu, lam = spec.exponent.entries[0, 0], spec.lambda_

    def term(p):
        if spec.flavor == "MA":
            return p ** nu * np.exp(-lam * p)
        return specfun.bessel_k_batch(nu, lam * p) * p ** nu
    diffs = (sites[:, None, :] - nodes[None, :, :]).reshape(-1, spec.d)
    return term(spec.phi.batch(diffs)).reshape(len(sites), len(nodes)) \
        - term(spec.phi.batch(-nodes))


@pytest.mark.parametrize("case", ["diag_power_d2", "radial_d2", "mab_d1"])
def test_ma_kernel_node_spans_match_dense_formula(case, monkeypatch):
    # at most three kernel columns (nodes) per span: 144 nodes make 48
    # spans, 40 nodes 14 that end in a one-node span; every span holds
    # all the sites
    spec, grid, igrid = _ma_cases()[case]
    sites, nodes = grid.sites(), igrid.midpoints()
    monkeypatch.setattr(simulate, "_KERNEL_BLOCK_BYTES", 3 * 8 * len(sites))
    built = []
    kernel = simulate._ma_kernel_matrix

    def spy(spec_, rows, nodes_):
        assert np.array_equal(rows, sites)
        built.append(len(nodes_))
        return kernel(spec_, rows, nodes_)
    monkeypatch.setattr(simulate, "_ma_kernel_matrix", spy)
    reals = ma_synthesis(spec, grid, igrid, 5, n_draws=3,
                         require_coverage=False)
    assert max(built) == 3 and sum(built) == len(nodes)
    assert len(built) == -(-len(nodes) // 3)
    g = _dense_ma_kernel(spec, sites, nodes)
    origin = np.flatnonzero(np.all(sites == 0.0, axis=1))
    assert origin.size == 1
    for j, real in enumerate(reals):
        # Gaussian N(0, dvol): the alpha = 2 transform over sqrt(2)
        want = g @ _stream_noise(5, j, len(nodes), 2.0,
                                 math.sqrt(igrid.cell_volume / 2.0))
        _assert_rel(real.values[:, 0], want)
        assert real.values[origin[0], 0] == 0.0


def _span_cases():
    """name -> (draws(n_draws), index of the origin, nodes): MA d = 1
    (lattice kernel), TFSM and the d = 2 diag_power phi."""
    spec2, grid2, igrid2 = _ma_cases()["diag_power_d2"]
    igrid1 = GridSpec([(-40.0, 41.0)], [243])

    def ma(spec, grid, igrid):
        return lambda n: np.stack([r.values[:, 0] for r in ma_synthesis(
            spec, grid, igrid, 8, n_draws=n, require_coverage=False)])
    return {
        "ma_d1": (ma(make_ma_spec(), GridSpec([(-0.25, 0.75)], [9]),
                     igrid1), 2, 242),
        "tfsm": (lambda n: tfsm_synthesis(0.7, 1.5, 0.3, [0.0, 0.25, 1.0],
                                          igrid1, 8, n_draws=n), 0, 242),
        "diag_power_d2": (ma(spec2, grid2, igrid2), 4, 144),
    }


@pytest.mark.parametrize("case", ["ma_d1", "tfsm", "diag_power_d2"])
def test_two_node_spans_match_one_span(case, monkeypatch):
    # the sum over node spans only reorders the Riemann sum
    draws, origin, _ = _span_cases()[case]
    one = draws(4)
    monkeypatch.setattr(simulate, "_KERNEL_BLOCK_BYTES", 2 * 8 * one.shape[1])
    two = draws(4)
    _assert_rel(two, one, rtol=1e-13)
    assert np.all(two[:, origin] == 0.0) and np.all(one[:, origin] == 0.0)


@pytest.mark.parametrize("case", ["ma_d1", "tfsm", "diag_power_d2"])
def test_draws_do_not_depend_on_the_partition(case, monkeypatch):
    # three kernel columns per span (every draw on two generators), one
    # draw per block (u, w and the CMS work of one draw's nodes) and the
    # default: each span and block reads the noise one call reads
    draws, origin, m = _span_cases()[case]
    fill = simulate._CellNoise.fill
    calls = []

    def spy(self, gens, width, buf):
        calls.append((len(gens), width))
        return fill(self, gens, width, buf)
    monkeypatch.setattr(simulate._CellNoise, "fill", spy)

    def partition(name=None, value=None):
        calls.clear()
        with monkeypatch.context() as patch:
            if name:
                patch.setattr(simulate, name, value)
            return draws(4), list(calls)
    default, spans = partition()
    assert spans == [(4, m)]
    narrow, spans = partition("_KERNEL_BLOCK_BYTES", 3 * 8 * default.shape[1])
    assert spans == [(4, 3)] * (m // 3) + [(4, m % 3)] * (m % 3 > 0)
    single, spans = partition("_NOISE_SPAN_BYTES", 4 * 8 * m)
    assert spans == [(1, m)] * 4
    for got in (narrow, single):
        _assert_rel(got, default, rtol=1e-13)
        assert np.all(got[:, origin] == 0.0)


@pytest.mark.parametrize("count", [1, 5, 513, 625, 8193])
def test_split_streams_read_what_one_call_reads(count):
    # a draw read in spans of 7 values: uniforms from output 0 of stream
    # j and exponentials from output count, as one generator reads them
    noise = simulate._CellNoise(1.5, 1.0)
    gen = philox_stream(3, 11)
    u, w = gen.random(count), gen.standard_exponential(count)
    uni, expo = noise.streams(3, 11, count, 2)
    assert uni is not expo
    for c0 in range(0, count, 7):
        c1 = min(c0 + 7, count)
        assert np.array_equal(uni.random(c1 - c0), u[c0:c1])
        assert np.array_equal(expo.standard_exponential(c1 - c0), w[c0:c1])
    uni, expo = noise.streams(3, 11, count, 1)
    assert uni is expo


def test_riemann_sum_peak_memory_is_bounded():
    # 513 sites x 8192 nodes: G is 33.6 MB whole, the noise of 128 draws
    # 8.4 MB and of 1024 draws 67 MB; beside the output's 8 rows n_draws
    # bytes only a 2 MiB span of G and 2 MiB of a block's noise are held
    import tracemalloc

    spec = make_ma_spec(lam=0.5, hurst=0.7)
    grid = GridSpec([(-2.0, 14.0)], [513])
    igrid = GridSpec([(-122.0, 134.0)], [8193])
    times = grid.sites()[:, 0]
    above = []
    for n_draws, run in (
            (64, lambda: ma_synthesis(spec, grid, igrid, 3, n_draws=64)),
            (128, lambda: tfsm_synthesis(0.7, 1.5, 0.5, times, igrid, 3,
                                         n_draws=128)),
            (1024, lambda: tfsm_synthesis(0.7, 1.5, 0.5, times, igrid, 3,
                                          n_draws=1024))):
        tracemalloc.start()
        try:
            run()
            above.append(tracemalloc.get_traced_memory()[1]
                         - 8 * len(times) * n_draws)
        finally:
            tracemalloc.stop()
    assert max(above) <= 6e6, above


# ---------------------------------------------------------------------------
# the draw engine behind spectral and exact synthesis

def _fh_spec_d2_n2():
    return FieldSpec("H", 2, 2, 0.8, np.eye(2), [[0.6, 0.1], [0.0, 0.7]],
                     EHomogeneousFn("euclidean", np.eye(2)),
                     MeasureSpec("gaussian", n=2))


def _spectral_cases():
    """name -> (spec, grid, (xi_max, count_per_axis))."""
    return {
        "itofbf_d1": (IsotropicGaussianSpec("ITOFBF", 1, 1, 0.52, [[0.72]]),
                      GridSpec([(-1.0, 1.0)], [9]), (40.0, 64)),
        # no site at the origin: the draw subtracts sum c, not a site value
        "itofbf_d1_off_origin": (
            IsotropicGaussianSpec("ITOFBF", 1, 1, 0.52, [[0.72]]),
            GridSpec([(0.3, 2.1)], [7]), (40.0, 64)),
        "fh_d2_n2": (_fh_spec_d2_n2(), GridSpec([(-1.0, 1.0), (0.0, 1.0)],
                                                [3, 4]), (12.0, 6)),
        "itofbf_d3": (IsotropicGaussianSpec("ITOFBF", 3, 1, 0.8, [[0.7]]),
                      GridSpec([(-0.5, 0.5), (0.0, 1.0), (-1.0, 0.5)],
                               [3, 4, 4]), (10.0, 4)),
    }


def _stream_z(seed, j, m, n):
    """Draw j's complex coefficients as documented: stream j, (M, n, 2)."""
    g = philox_stream(seed, j).standard_normal((m, n, 2))
    return (g[..., 0] + 1j * g[..., 1]) / math.sqrt(2.0)


def _assert_rel(got, want, rtol=1e-12):
    scale = float(np.max(np.abs(want)))
    assert np.max(np.abs(got - want)) <= rtol * scale


@pytest.mark.parametrize("case", ["itofbf_d1", "itofbf_d1_off_origin",
                                  "fh_d2_n2", "itofbf_d3"])
def test_spectral_equals_full_grid_complex_sum(case):
    # the sum over +-xi with z(-xi) = conj z(xi), written out in complex
    # arithmetic: it is real, and the synthesis computes its real part
    spec, grid, (xi_max, count) = _spectral_cases()[case]
    half, dvol = symmetric_freq_grid(xi_max, count, grid.d)
    density = simulate._spectral_density_for(spec)[0]
    m, n = half.shape[0], spec.n
    xi = np.concatenate([half, -half])
    amp = np.concatenate([density(half), density(-half)])
    phase = np.exp(-1j * (grid.sites() @ xi.T)) - 1.0
    reals = spectral_synthesis(spec, grid, 8, n_draws=3, xi_max=xi_max,
                               count_per_axis=count)
    for j, real in enumerate(reals):
        z = _stream_z(8, j, m, n)
        z = np.concatenate([z, np.conj(z)])
        total = phase @ (np.einsum("mij,mj->mi", amp, z) * math.sqrt(dvol))
        _assert_rel(real.values, total.real)
        assert np.max(np.abs(total.imag)) <= 1e-12 * np.max(np.abs(total))
        at_origin = np.all(grid.sites() == 0.0, axis=1)
        assert np.all(real.values[at_origin] == 0.0)


@pytest.mark.parametrize("n, m, x0, h, xi0, dxi", [
    (33, 20, -0.4, 0.05, 0.3, 0.7),
    (17, 40, 0.25, 1.3, 0.2, 5.9),          # h dxi = 7.67 > 2 pi: aliased
])
def test_line_sum_matches_scipy_czt(n, m, x0, h, xi0, dxi):
    signal = pytest.importorskip("scipy.signal")
    rng = np.random.default_rng(3)
    coef = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
    got = simulate._line_sum(coef, x0, h, n, xi0, dxi)
    # sum_m (coef_m e^{-i x0 m dxi}) w^{i m} with w = e^{-i h dxi}, times
    # e^{-i x_i xi0}
    want = signal.czt(coef * np.exp(-1j * x0 * dxi * np.arange(m)), m=n,
                      w=np.exp(-1j * h * dxi))
    want *= np.exp(-1j * (x0 + h * np.arange(n)) * xi0)
    _assert_rel(got, want)


def test_spectral_synthesis_million_sites_on_the_line():
    # 2^20 + 1 sites and 1024 frequencies: a dense phase matrix would
    # take about 17 GB
    spec = IsotropicGaussianSpec("ITOFBF", 1, 1, 1.0, [[0.7]])
    grid = GridSpec([(-0.25, 0.75)], [2 ** 20 + 1])
    real = spectral_synthesis(spec, grid, 7, count_per_axis=1024)
    x = grid.axes()[0]
    vals = real.values[:, 0]
    assert np.all(np.isfinite(vals))
    assert np.all(vals[x == 0.0] == 0.0) and np.any(x == 0.0)
    density, _, p_decay, lam = simulate._spectral_density_for(spec)
    half, dvol = symmetric_freq_grid(
        simulate.spectral_tail_cutoff(p_decay, lam, 1), 1024, 1)
    coef = density(half)[:, 0, 0] * _stream_z(7, 0, 1024, 1)[:, 0] \
        * math.sqrt(dvol)
    idx = np.random.default_rng(0).choice(grid.n_sites, 256, replace=False)
    want = 2.0 * (np.exp(-1j * np.outer(x[idx], half[:, 0])) @ coef
                  - coef.sum()).real
    assert np.max(np.abs(vals[idx] - want)) <= 1e-12 * np.max(np.abs(vals))


def _parent_spectral(spec, grid, seed, n_draws, half, dvol):
    """Per-draw complex phase @ coef + its conjugate."""
    amp = simulate._spectral_density_for(spec)[0](half)
    phase = np.exp(-1j * (grid.sites() @ half.T)) - 1.0
    out = []
    for j in range(n_draws):
        coef = np.einsum("mij,mj->mi", amp,
                         _stream_z(seed, j, half.shape[0], spec.n))
        coef *= math.sqrt(dvol)
        out.append((phase @ coef + np.conj(phase) @ np.conj(coef)).real)
    return out


def _ib_n2_model():
    spec = IsotropicGaussianSpec("IBTOFBF", 1, 2, 0.5,
                                 [[0.7, 0.1], [0.0, 0.6]])
    return CovarianceModel(spec), GridSpec([(-1.0, 1.0)], [7])


@pytest.mark.parametrize("case", ["spectral_n1", "spectral_n2", "exact_n2"])
def test_draw_engine_matches_per_draw_loop(case, monkeypatch):
    # two draws per GEMM block: five draws cross two block boundaries
    if case == "exact_n2":
        model, grid = _ib_n2_model()
        rows = grid.n_sites * 2
        monkeypatch.setattr(simulate, "_NOISE_SPAN_BYTES", 2 * 8 * rows)
        reals = gaussian_exact_many(model, grid, 12, 5)
        gram = model.gram(grid.sites(), check_psd=False)
        chol, _ = simulate._factor_gram(gram, grid.n_sites)
        want = [(chol @ philox_stream(12, j).standard_normal(rows))
                .reshape(grid.n_sites, 2) for j in range(5)]
    else:
        spec, grid, (xi_max, count) = _spectral_cases()[
            "itofbf_d1" if case == "spectral_n1" else "fh_d2_n2"]
        half, dvol = symmetric_freq_grid(xi_max, count, grid.d)
        # 16 n (M + N) bytes of work per draw
        block = 2 * 16 * spec.n * (half.shape[0] + grid.n_sites)
        monkeypatch.setattr(simulate, "_NOISE_BLOCK_BYTES", block)
        reals = spectral_synthesis(spec, grid, 12, n_draws=5, xi_max=xi_max,
                                   count_per_axis=count)
        want = _parent_spectral(spec, grid, 12, 5, half, dvol)
    for real, ref in zip(reals, want):
        _assert_rel(real.values, ref)


def test_spectral_draw_does_not_depend_on_n_draws():
    spec, grid, (xi_max, count) = _spectral_cases()["fh_d2_n2"]
    a = spectral_synthesis(spec, grid, 2, n_draws=3, xi_max=xi_max,
                           count_per_axis=count)
    b = spectral_synthesis(spec, grid, 2, n_draws=5, xi_max=xi_max,
                           count_per_axis=count)
    for ra, rb in zip(a, b):
        np.testing.assert_allclose(ra.values, rb.values, rtol=1e-12, atol=0)


def test_exact_draw_does_not_depend_on_n_draws():
    model, grid = _ib_n2_model()
    a = gaussian_exact_many(model, grid, 2, 3)
    b = gaussian_exact_many(model, grid, 2, 5)
    for ra, rb in zip(a, b):
        np.testing.assert_allclose(ra.values, rb.values, rtol=1e-12, atol=0)


def test_circulant_draw_does_not_depend_on_n_draws(monkeypatch):
    # two draws per FFT block: five draws cross two block boundaries
    model, grid = tfbm_model(0.7, 0.5), GridSpec([(-0.25, 0.75)], [33])
    one = gaussian_exact_many(model, grid, 2, 1)
    monkeypatch.setattr(simulate, "_NOISE_BLOCK_BYTES", 2 * 32 * 32)
    five = gaussian_exact_many(model, grid, 2, 5)
    assert {r.provenance["algorithm"] for r in one + five} == {"circulant"}
    assert np.array_equal(one[0].values, five[0].values)
    for j in (3, 4):
        alone = gaussian_exact_many(model, grid, 2, j + 1)[j]
        assert np.array_equal(alone.values, five[j].values)


def test_synthesis_provenance_keys():
    spec, grid, (xi_max, count) = _spectral_cases()["fh_d2_n2"]
    half, dvol = symmetric_freq_grid(xi_max, count, grid.d)
    reals = spectral_synthesis(spec, grid, 1, n_draws=2, xi_max=xi_max,
                               count_per_axis=count)
    for j, real in enumerate(reals):
        assert sorted(real.provenance) == [
            "cell_volume", "draw", "freq_points", "grid", "method", "seed",
            "spec"]
        assert real.provenance["freq_points"] == half.shape[0]
        assert real.provenance["cell_volume"] == dvol
        assert real.provenance["draw"] == j
    model, grid = _ib_n2_model()
    reals = gaussian_exact_many(model, grid, 1, 2)
    for j, real in enumerate(reals):
        assert sorted(real.provenance) == [
            "algorithm", "draw", "grid", "jitter", "method", "seed", "spec"]
        assert real.provenance["algorithm"] == "cholesky"
        assert real.provenance["jitter"] == 0.0
        assert real.provenance["draw"] == j
