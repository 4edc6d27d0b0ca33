import math
import warnings
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from stat_helpers import kv_simpson

from trfield import _fast
from trfield.quadrature import adaptive_gk, integrate_decaying
from trfield.specfun import (SpecfunError, bessel_j, bessel_k,
                             bessel_k_batch, beta_fn, digamma, gamma_fn,
                             hyp2f1, hyp2f1_batch)

# ---------------------------------------------------------------------------
# gamma / beta


def test_gamma_basic_values():
    assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_gamma_product_form_with_quadrature_oracle():
    # Gamma(0.7) from the Euler integral, then the product recurrence
    head, _ = adaptive_gk(lambda t: t ** (-0.3) * np.exp(-t), 0.0, 1.0,
                          rtol=1e-12, max_intervals=16384)
    tail = integrate_decaying(lambda t: t ** (-0.3) * np.exp(-t), 1.0,
                              rtol=1e-12,
                              tail_bound=lambda r: 2 * math.exp(-r))
    gamma07 = head + tail
    assert gamma_fn(3.7) == pytest.approx(2.7 * 1.7 * 0.7 * gamma07,
                                          rel=1e-9)


@given(st.floats(0.05, 20.0))
def test_gamma_recurrence(x):
    assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-12)


def test_gamma_pole_raises():
    for bad in (0.0, -1.0, -7.0):
        with pytest.raises(SpecfunError):
            gamma_fn(bad)


def test_gamma_complex_conjugate_symmetry():
    z = 0.8 + 0.6j
    a, b = gamma_fn(z), gamma_fn(z.conjugate())
    assert abs(a - b.conjugate()) < 1e-12 * abs(a)


def test_digamma_matches_gamma_difference():
    for x in (0.4, 1.0, 3.7, 11.2):
        h = 1e-6
        fd = (math.log(gamma_fn(x + h)) - math.log(gamma_fn(x - h))) / (2 * h)
        assert digamma(x) == pytest.approx(fd, rel=1e-7, abs=1e-9)


def test_beta_values_and_quadrature_oracle():
    assert beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert beta_fn(0.5, 0.5) == pytest.approx(math.pi, rel=1e-12)
    oracle, _ = adaptive_gk(lambda t: t ** 0.3 * (1 - t) ** 1.2, 0.0, 1.0,
                            rtol=1e-12, max_intervals=8192)
    assert beta_fn(1.3, 2.2) == pytest.approx(oracle, rel=1e-10)


# ---------------------------------------------------------------------------
# Bessel K

def test_bessel_k_half_integer_closed_forms():
    assert bessel_k(0.5, 1.0) == pytest.approx(
        math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-12)
    assert bessel_k(0.5, 2.0) == pytest.approx(
        math.sqrt(math.pi / 4.0) * math.exp(-2.0), rel=1e-12)
    assert bessel_k(1.5, 2.0) == pytest.approx(
        math.sqrt(math.pi / 4.0) * math.exp(-2.0) * 1.5, rel=1e-12)


@pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 0.9, 1.3, 2.7])
@pytest.mark.parametrize("u", [0.05, 0.7, 2.0, 5.0, 20.0])
def test_bessel_k_against_quadrature_oracle(nu, u):
    assert bessel_k(nu, u) == pytest.approx(kv_simpson(nu, u, n_panels=600),
                                            rel=1e-8)


@given(st.floats(-3.0, 3.0), st.floats(0.02, 60.0))
def test_bessel_k_symmetric_in_order(nu, u):
    assert bessel_k(nu, u) == bessel_k(-nu, u)


@pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 1.3, 2.7, 4.2])
def test_kv_batch_mpmath_oracle(nu):
    mpmath = pytest.importorskip("mpmath")
    u = np.concatenate([np.geomspace(1e-12, 700.0, 161),
                        [np.nextafter(2.0, 3.0), 2.0 + 1e-7, 699.99]])
    expect = np.array([float(mpmath.besselk(nu, ui)) for ui in u])
    np.testing.assert_allclose(_fast.kv_batch(nu, u), expect, rtol=1e-13)


@pytest.mark.parametrize("nu", [10.0, 30.0, 60.0, 100.0, 150.0])
def test_kv_batch_large_order_mpmath_oracle(nu):
    mpmath = pytest.importorskip("mpmath")
    u = np.array([2.5, 5.0, 20.0, 50.0, 200.0])
    expect = np.array([float(mpmath.besselk(nu, ui)) for ui in u])
    got = _fast.kv_batch(nu, u)
    assert not np.isnan(got).any()
    finite = np.isfinite(expect)
    np.testing.assert_allclose(got[finite], expect[finite], rtol=1e-12)


@pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 1.3, 2.7, 4.2,
                                10.0, 30.0, 60.0, 100.0, 150.0])
def test_kv_batch_scipy_oracle(nu):
    # the orders and arguments of the two mpmath oracle tests above, against
    # a second, independent K_nu; entries that under- or overflow are skipped
    special = pytest.importorskip("scipy.special")
    u = np.concatenate([np.geomspace(1e-12, 700.0, 161),
                        [np.nextafter(2.0, 3.0), 2.0 + 1e-7, 699.99],
                        [2.5, 5.0, 20.0, 50.0, 200.0]])
    expect = special.kv(nu, u)
    finite = np.isfinite(expect) & (expect > 0.0)
    np.testing.assert_allclose(_fast.kv_batch(nu, u)[finite],
                               expect[finite], rtol=1e-12)


@pytest.mark.parametrize("nu", [102.0, 150.0, 200.0, 400.0])
def test_kv_batch_large_order_has_no_nan(nu):
    # small u share a chunk's nodes with large ones; K_nu overflows to inf
    # near u = 2 from nu ~ 170 on, but 0 * inf must not appear
    with np.errstate(over="ignore"):
        got = _fast.kv_batch(nu, np.geomspace(2.01, 700.0, 1024))
    assert not np.isnan(got).any()
    assert np.all(got > 0.0)


@pytest.mark.parametrize("nu", [0.0, 0.24, 0.43, 0.98, 1.49])
def test_kv_batch_low_order_sums_cosh_rule_directly(nu):
    # orders below 3/2 sum K_nu itself on the rule, with no recurrence
    u = np.geomspace(2.01, 700.0, 300)
    t, w = _fast._cosh_rule(u)
    np.testing.assert_array_equal(_fast.kv_batch(nu, u),
                                  np.sum(w * np.cosh(nu * t), axis=1))


@pytest.mark.parametrize("nu", [0.0, 0.25, 0.3, 0.5, 1.3, 1.4, 2.7, 3.3,
                                4.2])
def test_kv_batch_rows_match_single_argument(nu):
    # a row's value must not depend on what else is in the batch: tiny u
    # lengthen their chunk's nodes, and K_nu overflows to +inf there
    mpmath = pytest.importorskip("mpmath")
    u = np.array([1e-300, 1e-100, 1e-30, 1e-12, 0.3, 2.0,
                  np.nextafter(2.0, 3.0), 50.0, 699.0])
    got = _fast.kv_batch(nu, u)
    alone = np.array([_fast.kv_batch(nu, [ui])[0] for ui in u])
    expect = np.array([float(mpmath.besselk(nu, ui)) for ui in u])
    assert not np.isnan(got).any()
    finite = np.isfinite(expect)
    assert np.all(got[~finite] == np.inf) and np.all(alone[~finite] == np.inf)
    np.testing.assert_allclose(got[finite], alone[finite], rtol=1e-15)
    np.testing.assert_allclose(got[finite], expect[finite], rtol=1e-13)
    assert got[6] == pytest.approx(got[5], rel=1e-13)     # across u = 2


@pytest.mark.parametrize("u", [np.nextafter(_fast._KV_FLOOR_U, 0.0), 1e-310,
                               5e-324, float("nan")])
def test_k_nu_refuses_arguments_below_the_rule_floor(u):
    # below the smallest normal double the cosh rule is not accurate: a
    # typed error, never NaN, OverflowError or a wrong value (NaN gave 0)
    with pytest.raises(SpecfunError, match="cosh rule"):
        _fast.kv_batch(0.5, [1.0, u])
    with pytest.raises(SpecfunError, match="cosh rule"):
        bessel_k(0.5, u)
    assert _fast.kv_batch(0.5, [_fast._KV_FLOOR_U])[0] == pytest.approx(
        math.sqrt(math.pi / (2 * _fast._KV_FLOOR_U)), rel=1e-15)


def test_bessel_k_small_u_asymptote():
    u = 1e-4
    ratio = bessel_k(0.3, u) / (2 ** (0.3 - 1) * gamma_fn(0.3) * u ** -0.3)
    assert 0.99 < ratio < 1.01


def test_bessel_k_large_u_asymptote():
    u = 50.0
    ratio = bessel_k(0.3, u) / (math.sqrt(math.pi / (2 * u)) * math.exp(-u))
    assert 0.99 < ratio < 1.01


def test_bessel_k_underflow_flag():
    val, flag = bessel_k(0.5, 800.0, with_flag=True)
    assert val == 0.0 and flag
    val, flag = bessel_k(0.5, 5.0, with_flag=True)
    assert val > 0.0 and not flag


def test_bessel_k_domain_errors():
    with pytest.raises(SpecfunError):
        bessel_k(0.5, 0.0)
    with pytest.raises(SpecfunError):
        bessel_k(0.5, -2.0)


def test_bessel_k_log_convexity_in_u():
    u = np.linspace(0.5, 8.0, 40)
    vals = np.log(bessel_k_batch(0.7, u))
    second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
    assert np.all(second > 0)


# ---------------------------------------------------------------------------
# Bessel J

def _jv_oracle(nu, u):
    """Integral representation oracle; integer-order Bessel form plus the
    Schlaefli correction term for non-integer order."""
    main, _ = adaptive_gk(lambda th: np.cos(nu * th - u * np.sin(th)),
                          0.0, math.pi, rtol=1e-12)
    if abs(nu - round(nu)) < 1e-12:
        return main / math.pi
    corr = integrate_decaying(
        lambda t: np.exp(-nu * t - u * np.sinh(t)), 0.0, rtol=1e-11,
        tail_bound=lambda r: math.exp(-nu * r - u * math.sinh(r)) / nu)
    return main / math.pi - math.sin(nu * math.pi) / math.pi * corr


def test_bessel_j_trivial_values():
    assert bessel_j(0.0, 0.0) == 1.0
    assert abs(bessel_j(0.5, math.pi)) < 1e-15


def test_bessel_j_against_integral_oracle():
    for nu, u in [(0.0, 1.0), (1.0, 2.5), (0.5, 3.0), (1.7, 7.0),
                  (0.0, 20.0)]:
        assert bessel_j(nu, u) == pytest.approx(_jv_oracle(nu, u),
                                                rel=2e-8, abs=1e-12)


def test_bessel_j_domain():
    with pytest.raises(SpecfunError):
        bessel_j(-0.7, 1.0)


# ---------------------------------------------------------------------------
# 2F1

getcontext().prec = 120


def _euler_decimal_series(a, b, c, z, n_terms=300):
    """Euler-transformed direct series in 120-digit decimal arithmetic.

    The raw series diverges for z < -1; repeated averaging of its partial
    sums converges inside |z + 1| < 2, which is the extended-precision
    resummation used as a second path near the series boundary.
    """
    za, zb, zc, zz = (Decimal(repr(v)) for v in (a, b, c, z))
    term = Decimal(1)
    partial = [term]
    for k in range(n_terms):
        kd = Decimal(k)
        term *= (za + kd) * (zb + kd) / ((zc + kd) * (kd + 1)) * zz
        partial.append(partial[-1] + term)
    row = partial
    best = row[-1]
    for _ in range(n_terms):
        row = [(row[i] + row[i + 1]) / 2 for i in range(len(row) - 1)]
        best = row[-1]
        if len(row) < 3:
            break
    return float(best)


def _second_path(a, b, c, z):
    """Pfaff transformation pulled on the second parameter."""
    if z == 0.0:
        return 1.0
    w = z / (z - 1.0)
    s = 1.0
    t = 1.0
    for k in range(200000):
        t *= (b + k) * (c - a + k) / ((c + k) * (k + 1.0)) * w
        s += t
        if abs(t) < 1e-17 * abs(s):
            break
    return (1.0 - z) ** (-b) * s


def test_hyp2f1_trivial():
    assert hyp2f1(0.6, 1.1, 1.5, 0.0) == 1.0


def test_hyp2f1_binomial_identity():
    assert hyp2f1(0.7, 1.1, 1.1, -3.0) == pytest.approx(4.0 ** -0.7,
                                                        rel=1e-13)


def test_hyp2f1_euler_resummation_oracle():
    mine = hyp2f1(0.6, 1.1, 1.5, -2.4)
    oracle = _euler_decimal_series(0.6, 1.1, 1.5, -2.4)
    assert mine == pytest.approx(oracle, rel=1e-9)


def test_hyp2f1_dual_path_random_points(rng):
    for _ in range(100):
        a = rng.uniform(0.1, 2.5)
        b = rng.uniform(0.1, 2.5)
        c = rng.uniform(0.6, 4.0)
        z = -rng.uniform(0.0, 50.0)
        first = hyp2f1(a, b, c, z)
        second = _second_path(a, b, c, z)
        assert first == pytest.approx(second, rel=1e-9, abs=1e-12), \
            (a, b, c, z)


def _hyp_series(a, b, c, w, max_terms):
    """Kahan-compensated power series sum_k (a)_k (b)_k / ((c)_k k!) w^k."""
    s = 1.0
    comp = 0.0
    t = 1.0
    for k in range(max_terms):
        t *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * w
        y = t - comp
        snew = s + y
        comp = (snew - s) - y
        s = snew
        if abs(t) < 1e-17 * abs(s):
            return s
    return s


def test_hyp2f1_continuity_at_branch_switches():
    a, b, c = 0.62, 1.12, 0.5
    # both internal branches evaluated at the switch point z = -1, where
    # the Pfaff series and the 1/(1-z) connection formula both take w = 1/2
    z0 = -1.0
    pfaff = (1 - z0) ** (-a) * _hyp_series(a, c - b, c, z0 / (z0 - 1),
                                           300000)
    w = 1.0 / (1.0 - z0)
    g = math.gamma
    conn = (g(c) * g(b - a) / (g(b) * g(c - a)) * (1 - z0) ** (-a)
            * _hyp_series(a, c - b, a - b + 1.0, w, 300000)
            + g(c) * g(a - b) / (g(a) * g(c - b)) * (1 - z0) ** (-b)
            * _hyp_series(b, c - a, b - a + 1.0, w, 300000))
    assert conn == pytest.approx(pfaff, rel=1e-10)
    assert hyp2f1(a, b, c, z0) == pytest.approx(pfaff, rel=1e-10)
    # one ulp below the switch the API takes the connection formula
    below = hyp2f1(a, b, c, np.nextafter(z0, -2.0))
    assert below == pytest.approx(hyp2f1(a, b, c, z0), rel=1e-12)


def test_hyp2f1_contiguous_relation(rng):
    # (c-a) F(a-1) + (2a - c + (b-a) z) F(a) + a (z-1) F(a+1) = 0
    for _ in range(20):
        a = rng.uniform(0.3, 2.0)
        b = rng.uniform(0.3, 2.0)
        c = rng.uniform(0.7, 3.5)
        z = -rng.uniform(0.01, 30.0)
        f_m = hyp2f1(a - 1.0, b, c, z)
        f_0 = hyp2f1(a, b, c, z)
        f_p = hyp2f1(a + 1.0, b, c, z)
        resid = (c - a) * f_m + (2 * a - c + (b - a) * z) * f_0 \
            + a * (z - 1.0) * f_p
        scale = max(abs(f_m), abs(f_0), abs(f_p))
        assert abs(resid) < 1e-9 * scale


def test_hyp2f1_domain_errors():
    with pytest.raises(SpecfunError):
        hyp2f1(0.5, 0.5, -1.0, -0.5)
    with pytest.raises(SpecfunError):
        hyp2f1(0.5, 0.5, 1.5, 0.5)


def test_hyp2f1_series_raises_at_term_cap():
    with pytest.raises(SpecfunError, match="cap of 50 terms"):
        _fast._hyp_series(0.5, 1.5, 0.7, np.array([0.99]), 50)


def test_hyp2f1_raises_where_pfaff_series_hits_cap():
    # a - b is an integer, so z = -1e6 takes the Pfaff series at
    # w = 1 - 1e-6, which has not converged after 300000 terms
    with pytest.raises(SpecfunError, match="cap of 300000 terms"):
        hyp2f1(0.5, 1.5, 0.7, -1e6)


def test_hyp2f1_batch_matches_scalar(rng):
    z = -np.exp(rng.uniform(np.log(1e-3), np.log(1e4), 64))
    batch = hyp2f1_batch(0.65, 1.15, 0.5, z)
    for i, zi in enumerate(z):
        assert batch[i] == hyp2f1(0.65, 1.15, 0.5, zi)


# ---------------------------------------------------------------------------
# 2F1 against two independent oracles, on both sides of the z = -1 switch.

_ORACLE_Z = -np.array([0.0, 0.3, 0.7, 0.99, 1.0, 1.01, 1.5, 3.0, 9.0, 10.0,
                       16.0, 17.0, 1e2, 1e3, 1e4, 1e6, 1e8])


def _oracle_rows():
    rows = [
        (0.5, 1.0, 0.5), (1.3, 0.45, 1.3),       # c - a = 0
        (1.5, 1.0, 0.5), (2.25, 0.45, 1.25),     # c - a = -1
        (1.0, 0.5, 0.5), (0.45, 2.25, 1.25),     # c - b = 0, -1
        (0.7, 1.3, 1.7), (1.45, 0.3, 2.3),       # c - a = 1, c - b = 2
        (0.623, 1.123, 0.5), (1.116, 1.616, 1.5),  # ITOFBF, d = 1 and 3
        (2.4, 2.37, 3.9), (0.9, 1.879, 3.9),     # a - b 0.03, 0.021 off
        (2.4, 0.33, 3.9), (0.1, 2.5, 0.3), (2.5, 0.1, 4.0),
    ]
    rng = np.random.default_rng(15)
    while len(rows) < 45:
        a, b = rng.uniform(0.1, 2.5, 2)
        # within 0.02 of an integer a - b the Pfaff series cannot reach
        # z = -1e8 (test_hyp2f1_raises_where_pfaff_series_hits_cap)
        if abs(a - b - round(a - b)) >= 0.02:
            rows.append((a, b, rng.uniform(0.3, 4.0)))
    return rows


def _mpmath_2f1(a, b, c, z):
    mpmath = pytest.importorskip("mpmath")

    def one(zi):
        try:
            return float(mpmath.hyp2f1(a, b, c, zi))
        except ValueError:
            # hypsum cannot reach a relative accuracy at an exact zero of
            # F, such as 2F1(3/2, 1; 1/2; -1) = (1/4)(1 - 1)
            return 0.0
    return np.array([one(zi) for zi in z])


def _scipy_2f1(a, b, c, z):
    special = pytest.importorskip("scipy.special")
    return special.hyp2f1(a, b, c, z)


@pytest.mark.parametrize("oracle", [_mpmath_2f1, _scipy_2f1],
                         ids=["mpmath", "scipy"])
def test_hyp2f1_two_oracles_across_switch(oracle):
    # atol scales with each row's largest |F|, so a zero of F inside a row
    # is judged by the absolute error it is computed with
    for a, b, c in _oracle_rows():
        expect = oracle(a, b, c, _ORACLE_Z)
        np.testing.assert_allclose(
            hyp2f1_batch(a, b, c, _ORACLE_Z), expect, rtol=1e-12,
            atol=1e-14 * np.max(np.abs(expect)), err_msg=str((a, b, c)))


def _large_c_rows():
    rows = [(1.0, 0.5, 50.0), (1.0, 0.5, 20.0), (2.4, 2.37, 10.0),
            (0.623, 1.123, 20.0)]
    rng = np.random.default_rng(17)
    while len(rows) < 22:
        a, b = rng.uniform(0.1, 2.5, 2)
        if abs(a - b - round(a - b)) >= 0.02:
            rows.append((a, b, (10.0, 20.0, 50.0)[len(rows) % 3]))
    return rows


def test_hyp2f1_large_c_mpmath_oracle():
    # For c > 2 each connection term carries the Euler factor
    # (1-w)^(1-c); with the switch at z = -1 for every c, 2F1(1, 1/2; 50;
    # -1.01) came out 12 instead of 0.99.  The grid straddles z = -1 and
    # each c's own switch 1 - 2 (c-1), one ulp either side.  scipy is not
    # an oracle here: it is off by up to 4e-6 at c = 50.
    mpmath = pytest.importorskip("mpmath")
    for a, b, c in _large_c_rows():
        z_sw = 1.0 - 2.0 * (c - 1.0)
        z = np.concatenate([_ORACLE_Z, [-1.5, -3.0, -5.0, -20.0, -30.0,
                                        -50.0, -200.0, z_sw,
                                        np.nextafter(z_sw, 0.0),
                                        np.nextafter(z_sw, -np.inf)]])
        expect = np.array([float(mpmath.hyp2f1(a, b, c, zi)) for zi in z])
        np.testing.assert_allclose(
            hyp2f1_batch(a, b, c, z), expect, rtol=1e-12,
            atol=1e-14 * np.max(np.abs(expect)), err_msg=str((a, b, c)))


# ---------------------------------------------------------------------------
# 2F1 far branch (z < -1): the 1/(1-z) connection formula at Gamma poles.

_HYP_PATHS = {
    "numpy": _fast.hyp2f1_batch,
}
_FAR_Z = np.array([-16.5, -40.0, -1.0e3, -1.0e6])


def _terminating_sum(a, b, c, z, m):
    """sum_{k<=m} (a)_k (b)_k / ((c)_k k!) z^k."""
    s = np.ones_like(z)
    t = np.ones_like(z)
    for k in range(m):
        t = t * (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        s = s + t
    return s


@pytest.mark.parametrize("path", sorted(_HYP_PATHS))
@pytest.mark.parametrize("a, b, c", [
    (0.5, 1.0, 0.5), (1.3, 0.45, 1.3),      # c - a = 0
    (1.5, 1.0, 0.5), (2.25, 0.45, 1.25),    # c - a = -1
    (1.0, 0.5, 0.5), (0.45, 1.3, 1.3),      # c - b = 0
    (1.0, 1.5, 0.5), (0.45, 2.25, 1.25),    # c - b = -1
])
def test_hyp2f1_far_branch_gamma_pole(path, a, b, c):
    # Euler: F = (1-z)^(c-a-b) 2F1(c-a, c-b; c; z), a polynomial factor of
    # degree m when c - a (or c - b) = -m; m = 0 is (1-z)^(-b) at c = a.
    m = int(round(max(a, b) - c))
    z = _FAR_Z
    expect = (1.0 - z) ** (c - a - b) * _terminating_sum(c - a, c - b, c,
                                                         z, m)
    got = _HYP_PATHS[path](a, b, c, z)
    np.testing.assert_allclose(got, expect, rtol=1e-12)


@pytest.mark.parametrize("path", sorted(_HYP_PATHS))
@pytest.mark.parametrize("a, b, c", [
    (-1.0, 0.3, 0.7), (-2.0, 0.3, 0.7), (0.3, -1.0, 1.7), (0.45, -2.0, 2.2),
])
def test_hyp2f1_far_branch_terminating_polynomial(path, a, b, c):
    m = int(round(-min(a, b)))
    z = _FAR_Z
    got = _HYP_PATHS[path](a, b, c, z)
    np.testing.assert_allclose(got, _terminating_sum(a, b, c, z, m),
                               rtol=1e-12)


@pytest.mark.parametrize("path", sorted(_HYP_PATHS))
def test_hyp2f1_far_branch_continuous_through_pole(path):
    a, b = 0.5, 1.0
    z = _FAR_Z
    at_pole = _HYP_PATHS[path](a, b, a, z)
    np.testing.assert_allclose(at_pole, (1.0 - z) ** (-b), rtol=1e-13)
    # off the pole the vanished term returns with weight O(eps (-z)^(b-a))
    # relative to the (1-z)^(-b) one
    for eps in (1e-9, -1e-9):
        near = _HYP_PATHS[path](a, b, a + eps, z)
        bound = 10.0 * abs(eps) * (1.0 + (-z) ** (b - a))
        assert np.all(np.abs(near / at_pole - 1.0) <= bound)


@pytest.mark.parametrize("path", sorted(_HYP_PATHS))
def test_hyp2f1_far_branch_mpmath_oracle(path):
    mpmath = pytest.importorskip("mpmath")
    z = _FAR_Z
    for a, b, c in [(0.5, 1.0, 0.5), (1.5, 1.0, 0.5), (1.0, 0.5, 0.5),
                    (0.3, 1.0, 1.0), (-1.0, 0.3, 0.7), (0.3, -2.0, 0.7),
                    (0.5, 1.0, 0.5 + 1e-9), (0.5, 1.0, 0.5 - 1e-9),
                    (0.65, 1.15, 0.5), (0.9, 0.2, 3.1)]:
        expect = np.array([float(mpmath.hyp2f1(a, b, c, zi)) for zi in z])
        np.testing.assert_allclose(_HYP_PATHS[path](a, b, c, z), expect,
                                   rtol=1e-12, err_msg=str((a, b, c)))


# ---------------------------------------------------------------------------
# Chambers-Mallows-Stuck and the moving-average kernel matrices

@pytest.mark.parametrize("alpha, rtol", [(2.0, 1e-15), (1.5, 1e-13),
                                         (0.7, 1e-13)])
def test_cms_batch_matches_general_expression(alpha, rtol):
    gen = np.random.default_rng(2)
    theta = (gen.random(100000) - 0.5) * np.pi
    w = gen.standard_exponential(100000)
    s = np.sin(alpha * theta) / np.cos(theta) ** (1.0 / alpha)
    want = s * (np.cos((1.0 - alpha) * theta) / w) ** ((1.0 - alpha) / alpha)
    np.testing.assert_allclose(_fast.cms_batch(theta, w, alpha), want,
                               rtol=rtol, atol=0)


def _where_power(r, expo, lam):
    """r^expo e^{-lam |r|} for r > 0, else 0, as a masked np.where."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(r > 0, np.where(r > 0, r, 1.0) ** expo
                        * np.exp(-lam * np.abs(r)), 0.0)


@pytest.mark.parametrize("nu", [-0.3, 0.0, 0.22])
def test_kernel_matrices_match_where_formula(nu):
    lam = 0.52
    # sites -1.5 and 0.25 coincide with nodes (r = 0); a node sits at 0
    sites = np.array([-1.5, 0.0, 0.25, 3.0])
    nodes = np.array([-7.75, -1.5, -0.5, 0.0, 0.25, 2.0, 6.5])
    diff = sites[:, None] - nodes[None, :]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ma = _fast.ma_matrix_1d(sites, nodes, nu, lam)
        tf = _fast.tfsm_matrix(sites, nodes, nu, lam)
        power = _fast._tempered_power(diff.copy(), nu, lam,
                                      np.empty_like(diff))
    want = _where_power(diff, nu, lam)
    assert np.array_equal(power == 0.0, want == 0.0)
    np.testing.assert_allclose(power, want, rtol=1e-14, atol=0)
    for got, v1, v0 in (
            (ma, _where_power(np.abs(diff), nu, lam),
             _where_power(np.abs(nodes), nu, lam)[None, :]),
            (tf, _where_power(diff, nu, lam),
             _where_power(-nodes, nu, lam)[None, :])):
        want = v1 - v0
        assert np.array_equal(got == 0.0, want == 0.0)
        assert np.all(np.abs(got - want) <= 1e-14 * (np.abs(v1) + np.abs(v0)))


# ---------------------------------------------------------------------------
# Lag-lattice kernel matrices


def _dense_matrices(sites, nodes, nu, lam):
    """The MA and TFSM kernel matrices through a dense difference matrix."""
    diff = np.subtract.outer(sites, nodes)
    tp = _fast._tempered_power
    ma = (tp(np.abs(diff), nu, lam, np.empty_like(diff))
          - tp(np.abs(nodes), nu, lam, np.empty_like(nodes)))
    tf = (tp(np.maximum(diff, 0.0), nu, lam, np.empty_like(diff))
          - tp(np.maximum(-nodes, 0.0), nu, lam, np.empty_like(nodes)))
    return ma, tf


def _lag_path(sites, nodes):
    """'lattice' or 'dense': the path of ``_lag_kernel``, read from the
    rank of the lags its kernel receives."""
    ranks = []

    def fn(r):
        ranks.append(r.ndim)
        return r.copy()

    _fast._lag_kernel(np.asarray(sites, dtype=float),
                      np.asarray(nodes, dtype=float), fn)
    return {1: "lattice", 2: "dense"}[ranks[0]]


def _kernel_matrices(sites, nodes, nu, lam=0.52):
    """(ma, tfsm, dense ma, dense tfsm), with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return (_fast.ma_matrix_1d(sites, nodes, nu, lam),
                _fast.tfsm_matrix(sites, nodes, nu, lam),
                *_dense_matrices(sites, nodes, nu, lam))


# (sites, nodes) with dyadic steps: ratio h_s / h_y, node midpoints or
# lattice points; "straddle" grids have sites inside and outside the nodes
_DYADIC_GRIDS = {
    "ratio1": (np.arange(129) / 32 - 2.0, (np.arange(384) + 0.5) / 32 - 6.0),
    "ratio1_straddle": (np.arange(129) / 32 - 2.0,
                        (np.arange(64) + 0.5) / 32 - 1.0),
    "ratio2": (np.arange(65) / 16 - 2.0, (np.arange(384) + 0.5) / 32 - 6.0),
    "ratio2_on_nodes": (np.arange(65) / 16 - 2.0, np.arange(384) / 32 - 6.0),
    "ratio32_17_straddle": (np.arange(129) / 32 - 1.0,
                            (np.arange(1024) + 0.5) * 17 / 1024 + 1.0),
    "ratio32_17_on_nodes": (np.arange(129) / 32 - 1.0,
                            np.arange(1024) * 17 / 1024 + 1.0),
}


@pytest.mark.parametrize("nu", [-0.3, 0.0, 0.22])
@pytest.mark.parametrize("grid", sorted(_DYADIC_GRIDS))
def test_lattice_kernel_matrices_equal_dense_formula_on_dyadic_grids(grid,
                                                                     nu):
    sites, nodes = _DYADIC_GRIDS[grid]
    assert _lag_path(sites, nodes) == "lattice"
    ma, tf, ma_dense, tf_dense = _kernel_matrices(sites, nodes, nu)
    assert np.array_equal(ma, ma_dense)
    assert np.array_equal(tf, tf_dense)
    for got in (ma, tf):            # what the draw GEMM receives
        assert got.flags.c_contiguous and got.flags.writeable
        assert got.flags.owndata


def _midpoints(lo, hi, count):
    """Cell midpoints as ``GridSpec.midpoints`` computes them."""
    return lo + (np.arange(count - 1) + 0.5) * (hi - lo) / (count - 1)


@pytest.mark.parametrize("nu", [-0.3, 0.0, 0.22])
@pytest.mark.parametrize("sites, nodes", [
    (np.linspace(0.0, 2.0, 21), _midpoints(-3.0, 4.0, 141)),    # 0.1 / 0.05
    (np.linspace(-0.6, 2.4, 11), _midpoints(-4.0, 5.0, 91)),    # 0.3 / 0.1
], ids=["steps_0.1_0.05", "steps_0.3_0.1"])
def test_lattice_kernel_matrices_match_dense_on_decimal_grids(sites, nodes,
                                                              nu):
    assert _lag_path(sites, nodes) == "lattice"
    ma, tf, ma_dense, tf_dense = _kernel_matrices(sites, nodes, nu)
    for got, want in ((ma, ma_dense), (tf, tf_dense)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # the row of a site at exactly 0 is exactly 0, as in the dense one
        assert np.all(got[sites == 0.0] == 0.0)
        assert np.all(want[sites == 0.0] == 0.0)


def test_lattice_lags_vanish_exactly_where_sites_meet_nodes():
    nu, lam = -0.3, 0.52
    sites = np.linspace(0.7, 2.7, 21)           # step 0.1
    nodes = np.linspace(-2.9, 4.1, 141)         # step 0.05, through every site
    assert _lag_path(sites, nodes) == "lattice"
    ma, tf, ma_dense, tf_dense = _kernel_matrices(sites, nodes, nu, lam)
    meet = np.abs(np.subtract.outer(sites, nodes)) < 1e-9
    assert meet.sum() == sites.size
    # the kernel term is exactly 0 there, leaving minus the node term
    tp = _fast._tempered_power
    ma_node = tp(np.abs(nodes), nu, lam, np.empty_like(nodes))
    tf_node = tp(np.maximum(-nodes, 0.0), nu, lam, np.empty_like(nodes))
    for got, want, node in ((ma, ma_dense, ma_node), (tf, tf_dense, tf_node)):
        assert np.all(np.isfinite(got))
        assert np.array_equal(got[meet],
                              -np.broadcast_to(node, got.shape)[meet])
        off = ~meet
        assert (np.max(np.abs(got[off] - want[off]))
                <= 1e-12 * np.max(np.abs(want[off])))


_IRREGULAR = np.arange(64) / 8 - 4.0
_IRREGULAR[10] += 0.01


@pytest.mark.parametrize("sites, nodes", [
    (np.arange(33) / 32, _IRREGULAR),                        # irregular nodes
    (np.array([0.25]), (np.arange(64) + 0.5) / 8 - 4.0),     # one site
    (np.arange(4) / 8, (np.arange(64) + 0.5) / 8 - 4.0),     # 67 > 4 * 64 / 4
    (np.arange(33) * math.sqrt(2.0) / 32,                    # irrational ratio
     (np.arange(64) + 0.5) / 32 - 1.0),
    (np.arange(33) * (1.0 + 1e-9) / 32,                      # ratio 1 + 1e-9
     (np.arange(64) + 0.5) / 32 - 1.0),
], ids=["irregular", "one_site", "long_lattice", "irrational",
        "near_commensurate"])
def test_kernel_matrices_off_lattice_take_dense_path(sites, nodes):
    assert _lag_path(sites, nodes) == "dense"
    for nu in (-0.3, 0.22):
        ma, tf, ma_dense, tf_dense = _kernel_matrices(sites, nodes, nu)
        assert np.array_equal(ma, ma_dense)
        assert np.array_equal(tf, tf_dense)


@pytest.mark.parametrize("sites, nodes", [
    (np.arange(8) / 8, np.array([0.0, 0.5, np.nan, 1.5, 2.0])),   # NaN node
    (np.array([np.nan, 0.5, 1.0]), np.arange(8) / 8),             # NaN start
    (np.array([0.0, 1e300, 2e300]), np.arange(8) * 1e-10),        # ratio inf
    (np.full(8, 0.5), np.arange(8) / 8),                          # zero step
], ids=["nan_node", "nan_start", "ratio_overflow", "zero_step"])
def test_lag_lattice_detector_refuses_degenerate_grids(sites, nodes):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _lag_path(sites, nodes) == "dense"
