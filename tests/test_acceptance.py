"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import math
import time

import numpy as np
from stat_helpers import ks_2sample_pvalue, kv_simpson

from trfield.aniso import EHomogeneousFn
from trfield.covariance import (CovarianceModel, IsotropicGaussianSpec,
                                TFBMCovariance, calibrate_spectral_constant,
                                ibtofbf_cov, ibtofbf_cov_spectral_quadrature,
                                ibtofbf_increment_cov, itofbf_cov,
                                itofbf_cov_spectral, itofbf_variance,
                                tfbm_variogram)
from trfield.estimate import (box_dimension, directional_holder,
                              scaling_law_check, semi_lrd_profile)
from trfield.kernels import FieldSpec, MeasureSpec, tfsm_kernel
from trfield.matfun import matrix_bessel_k
from trfield.quadrature import adaptive_gk
from trfield.simulate import (GridSpec, gaussian_exact_many, ma_synthesis,
                              tfsm_synthesis)
from trfield.specfun import bessel_k, gamma_fn, hyp2f1


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{criterion}: {detail}"


def test_A1_matrix_bessel_primary_function_fidelity():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for i in range(20):
        n = 2 if i < 10 else 3
        while True:
            mat = 0.6 * rng.standard_normal((n, n))
            ev, p = np.linalg.eig(mat)
            sep = min(abs(ev[a] - ev[b]) for a in range(n)
                      for b in range(a + 1, n))
            if sep > 1e-2 and np.linalg.cond(p) < 1e4:
                break
        for u in (0.1, 1.0, 10.0):
            mine = matrix_bessel_k(mat, u)
            oracle = (p * [kv_simpson(e, u) for e in ev]) \
                @ np.linalg.inv(p)
            rel = np.max(np.abs(mine - oracle.real)) / \
                np.max(np.abs(oracle.real))
            worst = max(worst, float(rel))
            checked += 1
    elapsed = time.perf_counter() - t0
    _report("A1", worst < 1e-8 and elapsed < 10.0,
            f"{checked} matrix evaluations, worst rel err {worst:.2e}, "
            f"{elapsed:.1f}s (budget 10s)")


def test_A2_bessel_representation_equivalence():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst_d1 = 0.0
    pairs = [(rng.uniform(0.2, 2.0), rng.uniform(-1.5, 1.5))
             for _ in range(10)]
    for h in (0.6, 0.9):
        for lam in (0.3, 1.0):
            spec = IsotropicGaussianSpec("IBTOFBF", 1, 1, lam, [[h]])
            for x, x2 in pairs:
                a = ibtofbf_cov(spec, [x], [x2])[0, 0]
                b = ibtofbf_cov_spectral_quadrature(spec, [x], [x2],
                                                    rtol=1e-9)[0, 0]
                worst_d1 = max(worst_d1, abs(a - b) / abs(a))
    worst_d2 = 0.0
    pairs2 = [(rng.uniform(0.2, 1.5, 2), rng.uniform(-1.0, 1.0, 2))
              for _ in range(3)]
    for h in (0.6, 0.9):
        for lam in (0.3, 1.0):
            spec = IsotropicGaussianSpec("IBTOFBF", 2, 1, lam, [[h]])
            for x, x2 in pairs2:
                a = ibtofbf_cov(spec, x, x2)[0, 0]
                b = ibtofbf_cov_spectral_quadrature(spec, x, x2,
                                                    rtol=1e-7)[0, 0]
                worst_d2 = max(worst_d2, abs(a - b) / abs(a))
    elapsed = time.perf_counter() - t0
    _report("A2", worst_d1 < 1e-6 and worst_d2 < 1e-4 and elapsed < 60.0,
            f"d=1 worst rel {worst_d1:.2e} (tol 1e-6), d=2 worst rel "
            f"{worst_d2:.2e} (tol 1e-4), {elapsed:.1f}s (budget 60s)")


def test_A3_spectral_constant_scale_consistency():
    c_a = calibrate_spectral_constant(0.7, 0.3)
    c_b = calibrate_spectral_constant(0.7, 1.0)
    dev = abs(c_a - c_b)
    _report("A3", dev < 1e-8,
            f"c*(lam=0.3) = {c_a:.12f}, c*(lam=1.0) = {c_b:.12f}, "
            f"|diff| = {dev:.2e} (tol 1e-8)")


def test_A4_itofbf_cross_representation():
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    worst = 0.0
    pairs = [(rng.uniform(0.3, 2.0), rng.uniform(-1.2, 1.2))
             for _ in range(6)]
    for h in (0.3, 0.7):
        spec = IsotropicGaussianSpec("ITOFBF", 1, 1, 1.0, [[h]])
        for x, x2 in pairs:
            a = itofbf_cov(spec, [x], [x2])[0, 0]
            b = itofbf_cov_spectral(spec, [x], [x2], rtol=1e-6)[0, 0]
            scale = max(abs(a), abs(b))
            worst = max(worst, abs(a - b) / scale)
    elapsed = time.perf_counter() - t0
    _report("A4", worst < 1e-3 and elapsed < 120.0,
            f"12 pair evaluations, worst rel {worst:.2e} (tol 1e-3), "
            f"{elapsed:.1f}s (budget 120s)")


def test_A5_operator_scaling_law():
    spec = IsotropicGaussianSpec("ITOFBF", 1, 1, 1.0, [[0.6]])
    worst = 0.0
    for c in (0.5, 2.0):
        rep = scaling_law_check(spec, c, [[1.0], [0.4], [-0.7]])
        worst = max(worst, rep.extras["analytic_rel_error"])
    # Monte-Carlo side: synthesized variance at c*x vs the scaled analytic
    c, x = 2.0, 1.0
    fs = FieldSpec("MA", 1, 1, 1.0, np.eye(1), [[0.6]],
                   EHomogeneousFn("euclidean", np.eye(1)),
                   MeasureSpec("gaussian", n=1))
    grid = GridSpec([(c * x, c * x + 0.5)], [2])
    igrid = GridSpec([(-60.0, 63.0)], [8192])
    n_draws = 20000
    reals = ma_synthesis(fs, grid, igrid, 55, n_draws=n_draws)
    emp = np.stack([r.values[0, 0] for r in reals]).var()
    spec_scaled = IsotropicGaussianSpec("ITOFBF", 1, 1, c * 1.0, [[0.6]])
    target = c ** (2 * 0.6) * itofbf_variance(spec_scaled, [x])[0, 0]
    se = emp * math.sqrt(2.0 / n_draws)
    mc_ok = abs(emp - target) < 3.0 * se
    _report("A5", worst < 1e-6 and mc_ok,
            f"analytic identity worst rel {worst:.2e} (tol 1e-6); MC var "
            f"{emp:.4f} vs target {target:.4f} (3se = {3 * se:.4f})")


def test_A6_stationary_increments():
    spec = IsotropicGaussianSpec("ITOFBF", 1, 1, 1.0, [[0.6]])
    x = np.array([0.7])
    base = None
    worst = 0.0
    for h in (np.array([0.0]), np.array([1.3]), np.array([-2.1])):
        v = (itofbf_cov(spec, x + h, x + h)[0, 0]
             - 2.0 * itofbf_cov(spec, x + h, h)[0, 0]
             + itofbf_cov(spec, h, h)[0, 0])
        base = v if base is None else base
        worst = max(worst, abs(v - base) / base)
    # empirical: X(x+h) - X(h) vs X(x) on independent draw sets
    model = CovarianceModel(spec)
    p_values = []
    for i, h in enumerate((0.5, 1.25, 2.0)):
        grid = GridSpec([(0.0, h + 0.7)], [3])   # sites 0, mid, h + x
        sites = np.array([[0.0], [h], [h + 0.7]])
        gram = np.array([[model.evaluate(a, b)[0, 0] for b in sites]
                         for a in sites])
        chol = np.linalg.cholesky(gram + 1e-12 * np.eye(3))
        chol[0, :] = 0.0
        g1 = np.random.Generator(np.random.Philox(key=np.array(
            [7100 + i, 0], dtype=np.uint64)))
        g2 = np.random.Generator(np.random.Philox(key=np.array(
            [8100 + i, 0], dtype=np.uint64)))
        a_draws = (chol @ g1.standard_normal((3, 4000)))
        incr = a_draws[2] - a_draws[1]
        direct = math.sqrt(model.variance([0.7])[0, 0]) \
            * g2.standard_normal(4000)
        p_values.append(ks_2sample_pvalue(incr, direct))
    emp_ok = all(p > 0.01 for p in p_values)
    _report("A6", worst < 1e-6 and emp_ok,
            f"analytic translation invariance rel {worst:.2e} (tol 1e-6); "
            f"KS p-values {['%.3f' % p for p in p_values]} (all > 0.01)")


def test_A7_sample_path_targets():
    t0 = time.perf_counter()
    lam = 0.1
    details = []
    ok = True
    # analytic variogram slopes (one-sided tempered Gaussian kernel)
    dt = 1.0 / 1023
    lags = np.arange(2, 17) * dt
    for h in (0.3, 0.5, 0.8):
        rep = directional_holder(
            variogram=lambda t: tfbm_variogram(h, lam, t), lags=lags,
            target=h, tolerance=0.05)
        ok &= bool(rep.passed)
        details.append(f"analytic H={h}: {rep.estimate:.3f}")
    # Monte-Carlo variogram: 400 paths of 1024 points (the estimate's
    # standard deviation is at most 0.025, a quarter of the tolerance)
    grid_mc = GridSpec([(0.0, 1.0)], [1024])
    for h in (0.3, 0.5, 0.8):
        reals = gaussian_exact_many(TFBMCovariance(h, lam), grid_mc,
                                    700 + int(10 * h), 400)
        rep = directional_holder(realizations=reals, direction=[1.0],
                                 target=h, tolerance=0.1)
        ok &= bool(rep.passed)
        details.append(f"MC H={h}: {rep.estimate:.3f}")
    # box dimension: 20 paths, target 2 - H
    grid_box = GridSpec([(0.0, 1.0)], [4097])
    for h in (0.3, 0.5, 0.8):
        reals = gaussian_exact_many(TFBMCovariance(h, lam), grid_box,
                                    800 + int(10 * h), 20)
        rep = box_dimension(reals, scales=[2.0 ** -j for j in range(2, 8)],
                            target=2.0 - h, tolerance=0.1)
        ok &= bool(rep.passed)
        details.append(f"boxdim H={h}: {rep.estimate:.3f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 180.0
    _report("A7", ok, "; ".join(details) + f"; {elapsed:.0f}s (budget 180s)")


def test_A8_semi_long_range_dependence():
    ok = True
    details = []
    for lam in (0.5, 1.0):
        spec = IsotropicGaussianSpec("IBTOFBF", 1, 1, lam, [[0.7]])
        rep = semi_lrd_profile(
            lambda k: ibtofbf_increment_cov(spec, k)[0, 0],
            np.arange(1, 9), np.arange(30, 61), lambda_target=lam,
            slope_tolerance=0.2 * lam)
        ok &= bool(rep.passed and rep.extras["exponential_window"])
        details.append(f"lam={lam}: slope {rep.estimate:.3f}")
    spec0 = IsotropicGaussianSpec("IBTOFBF", 1, 1, 1e-3, [[0.7]])
    rep0 = semi_lrd_profile(
        lambda k: ibtofbf_increment_cov(spec0, k)[0, 0],
        np.arange(1, 9), np.arange(2, 61))
    ok &= not rep0.extras["exponential_window"]
    details.append("untempered control: no exponential window")
    _report("A8", ok, "; ".join(details))


def test_A9_tfsm_stable_law():
    t0 = time.perf_counter()
    hurst, alpha, lam = 0.7, 1.5, 0.3
    igrid = GridSpec([(-160.0, 1.0)], [4096])
    n_draws = 50000
    vals = tfsm_synthesis(hurst, alpha, lam, [1.0], igrid, 909,
                          n_draws=n_draws)[:, 0]

    def kern_alpha(y):
        return np.abs(tfsm_kernel(hurst, alpha, lam, 1.0, y)) ** alpha

    norm_a, _ = adaptive_gk(kern_alpha, -160.0, 1.0, rtol=1e-9,
                            points=(0.0,), max_intervals=16384)
    ok = True
    rows = []
    for u in (0.25, 0.5, 1.0, 1.5, 2.0):
        target = math.exp(-abs(u) ** alpha * norm_a)
        emp = float(np.mean(np.cos(u * vals)))
        se = float(np.std(np.cos(u * vals))) / math.sqrt(n_draws)
        ok &= abs(emp - target) < 3.0 * se + 5e-3
        rows.append(f"u={u}: {emp:.4f}/{target:.4f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    _report("A9", ok, "; ".join(rows) + f"; {elapsed:.0f}s (budget 120s)")


def test_A10_special_function_dual_paths():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(0.1, 2.5)
        b = rng.uniform(0.1, 2.5)
        c = rng.uniform(0.6, 4.0)
        z = -rng.uniform(0.0, 50.0)
        first = hyp2f1(a, b, c, z)
        # independent second path: Pfaff pulled on the b parameter
        w = z / (z - 1.0)
        s, t = 1.0, 1.0
        for k in range(200000):
            t *= (b + k) * (c - a + k) / ((c + k) * (k + 1.0)) * w
            s += t
            if abs(t) < 1e-17 * abs(s):
                break
        second = (1.0 - z) ** (-b) * s
        worst = max(worst, abs(first - second)
                    / max(abs(first), abs(second), 1e-12))
    k_ok = True
    ratios = []
    for nu in (0.3, 0.9, 1.5):
        small = bessel_k(nu, 1e-4) / (
            2.0 ** (nu - 1.0) * gamma_fn(nu) * 1e-4 ** -nu)
        large = bessel_k(nu, 500.0) / (
            math.sqrt(math.pi / 1000.0) * math.exp(-500.0))
        k_ok &= 0.99 < small < 1.01 and 0.99 < large < 1.01
        ratios.append(f"nu={nu}: {small:.4f}/{large:.4f}")
    _report("A10", worst < 1e-9 and k_ok,
            f"2F1 dual-path worst rel {worst:.2e} (tol 1e-9); K ratios "
            + ", ".join(ratios) + " (all in [0.99, 1.01])")


def test_A11_simulate_bit_reproducibility(tmp_path):
    import json
    import os

    from trfield.cli import main
    config = {"command": "simulate", "method": "ma", "seed": 31,
              "n_draws": 2,
              "spec": {"flavor": "MA", "d": 1, "n": 1, "lambda": 1.0,
                       "E": [[1.0]], "H": [[0.7]],
                       "phi": {"variant": "euclidean"},
                       "measure": {"variant": "gaussian"}},
              "grid": {"ranges": [[0.0, 1.0]], "counts": [16]},
              "integration_grid": {"ranges": [[-50.0, 51.0]],
                                   "counts": [2048]}}
    cfg = os.path.join(tmp_path, "sim.json")
    json.dump(config, open(cfg, "w"))
    outs = []
    for name in ("o1", "o2"):
        out = os.path.join(tmp_path, name)
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        outs.append(json.load(open(os.path.join(out, "manifest.json"))))
    same = outs[0]["outputs"] == outs[1]["outputs"]
    _report("A11", same,
            f"payload digests identical across reruns: {same} "
            f"({len(outs[0]['outputs'])} artifacts)")
