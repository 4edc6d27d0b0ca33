import math

import numpy as np
import pytest

from trfield.quadrature import (QuadratureError, adaptive_gk,
                                euler_accelerate,
                                integrate_decaying, oscillatory_tail)


def test_adaptive_gk_polynomial_exact():
    val, err = adaptive_gk(lambda x: x ** 3 - 2 * x + 1, -1.0, 2.0)
    assert abs(val - 3.75) < 1e-13


def test_adaptive_gk_endpoint_singularity():
    # integral of x^{-1/2} on (0, 1] is 2
    val, err = adaptive_gk(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0,
                           rtol=1e-11, max_intervals=16384)
    assert abs(val - 2.0) < 1e-9


def test_adaptive_gk_interior_breakpoint():
    val, _ = adaptive_gk(lambda x: np.abs(x) ** -0.3, -1.0, 2.0,
                         points=(0.0,), rtol=1e-11, max_intervals=16384)
    exact = 1.0 / 0.7 + 2.0 ** 0.7 / 0.7
    assert abs(val - exact) < 1e-9 * exact


def test_adaptive_gk_matrix_valued():
    def f(x):
        out = np.empty((len(x), 2, 2))
        out[:, 0, 0] = np.sin(x)
        out[:, 0, 1] = x
        out[:, 1, 0] = 1.0
        out[:, 1, 1] = np.exp(-x)
        return out

    val, _ = adaptive_gk(f, 0.0, 1.0)
    expect = np.array([[1 - math.cos(1.0), 0.5],
                       [1.0, 1 - math.exp(-1.0)]])
    assert np.max(np.abs(val - expect)) < 1e-12


def test_adaptive_gk_converges_per_component():
    # 64 narrow peaks, each in its own stretch of [0, 1]: every component
    # meets the tolerance, though the sum over intervals of each interval's
    # worst component does not
    c = (np.arange(64) + 0.5) / 64
    w = 0.01
    val, err = adaptive_gk(lambda x: np.exp(-((x[:, None] - c) / w) ** 2),
                           0.0, 1.0, rtol=1e-14, atol=1e-300)
    expect = np.array([0.5 * w * math.sqrt(math.pi)
                       * (math.erf((1.0 - ck) / w) + math.erf(ck / w))
                       for ck in c])
    assert err <= 1e-14 * np.max(expect)
    assert np.max(np.abs(val - expect)) <= 1e-14 * np.max(expect)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_adaptive_gk_raises_on_non_finite_integrand(bad):
    # a NaN error estimate selects no interval to split: name the
    # estimate instead of failing on an empty refinement
    with np.errstate(invalid="ignore"), \
            pytest.raises(QuadratureError, match="non-finite estimate"):
        adaptive_gk(lambda x: np.where(x > 0.5, bad, x), 0.0, 1.0)


def test_adaptive_gk_raises_on_budget():
    with pytest.raises(QuadratureError):
        adaptive_gk(lambda x: np.abs(x - math.pi / 7) ** -0.97, 0.0, 1.0,
                    rtol=1e-13, max_intervals=8)


def test_integrate_decaying_gaussian_tail():
    val = integrate_decaying(lambda x: np.exp(-x * x), 0.0, rtol=1e-11,
                             tail_bound=lambda r: math.exp(-r * r))
    assert abs(val - math.sqrt(math.pi) / 2) < 1e-10


def test_euler_accelerate_log2():
    # rows: log 2 = 1 - 1/2 + 1/3 - ... and pi/4 = 1 - 1/3 + 1/5 - ...
    k = np.arange(30)
    terms = np.stack([(-1.0) ** k / (k + 1.0), (-1.0) ** k / (2 * k + 1.0)])
    est, err = euler_accelerate(terms)
    assert est.shape == err.shape == (2,)
    assert abs(est[0] - math.log(2.0)) < 1e-9
    assert abs(est[1] - math.pi / 4) < 1e-9


def test_oscillatory_tail_known_cosine_integral():
    # int_0^inf cos(x)/(c^2+x^2) dx = pi e^{-c} / (2c), for c = 1 and 2
    c = np.array([1.0, 2.0])
    edges = np.concatenate([[0.0], (np.arange(4000) + 0.5) * math.pi])
    val, err = oscillatory_tail(
        lambda x: np.cos(x) / (c[:, None] ** 2 + x * x),
        np.stack([edges, edges]), rtol=1e-11)
    assert val.shape == err.shape == (2,)
    assert np.all(np.abs(val - math.pi * np.exp(-c) / (2 * c)) < 1e-10)


def test_integrate_decaying_failure_names_tolerance():
    # 1/(1+x) is not integrable: every block adds about log(growth)
    with pytest.raises(QuadratureError,
                       match=r"5 blocks to R = .*last block .*tail bound "
                             r".*above tolerance \d\.\d{3}e[-+]\d+"):
        integrate_decaying(lambda x: 1.0 / (1.0 + x), 0.0, max_blocks=5)


def test_oscillatory_tail_failure_names_tolerance():
    # a constant integrand gives a divergent, non-alternating panel series
    edges = np.stack([np.arange(41.0), np.arange(41.0)])
    with pytest.raises(QuadratureError,
                       match=r"40 panels, error estimate .* above tolerance "
                             r"\d\.\d{3}e[-+]\d+"):
        oscillatory_tail(np.ones_like, edges, max_panels=40)


def test_oscillatory_tail_rows_stop_independently():
    # a row that converges early keeps its value when another row needs
    # more panels, and every row equals a one-row call
    c = np.array([1.0, 0.05])
    edges = np.concatenate([[0.0], (np.arange(4000) + 0.5) * math.pi])
    both, _ = oscillatory_tail(
        lambda x: np.cos(x) * np.exp(-c[:, None] * x) / (1 + x),
        np.stack([edges, edges]), rtol=1e-12)
    for i in range(2):
        one, _ = oscillatory_tail(
            lambda x: np.cos(x) * np.exp(-c[i] * x) / (1 + x),
            edges[None, :], rtol=1e-12)
        assert both[i] == pytest.approx(one[0], rel=1e-15)


def test_integrate_decaying_fails_fast_on_slow_algebraic_tail():
    # (1 + x)^{-1.05}: the tail bound decays as R^{-0.05} and cannot reach
    # 1e-9 within 200 doublings; the run stops once that rate is steady
    with pytest.raises(QuadratureError,
                       match=r"integrate_decaying: (\d) blocks to R = .*"
                             r"above tolerance \d\.\d{3}e[-+]\d+"):
        integrate_decaying(lambda x: (1.0 + x) ** -1.05, 0.0, rtol=1e-9,
                           tail_bound=lambda r: 20.0 * (1.0 + r) ** -0.05)


def test_integrate_decaying_tail_rate_calls_integrand_once():
    # int_2^inf x^-3 = 1/8 with tail f(R) R / 2 exact: every block converges
    # on its first panel at rtol 1e-6, so the up-front call serves them all
    calls = []

    def f(x):
        calls.append(x.size)
        return x ** -3.0

    val = integrate_decaying(f, 2.0, rtol=1e-6, first_width=2.0,
                             tail_rate=2.0)
    assert val == pytest.approx(0.125, rel=1e-6)
    assert calls == [64 * 16]
    assert val == integrate_decaying(lambda x: x ** -3.0, 2.0, rtol=1e-6,
                                     first_width=2.0,
                                     tail_bound=lambda r: 0.5 * r ** -2.0)
