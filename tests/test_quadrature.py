import math

import numpy as np
import pytest

from trfield.quadrature import (QuadratureError, adaptive_gk,
                                euler_accelerate, integrate_decaying,
                                oscillatory_tail)


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


def test_adaptive_gk_raises_on_budget():
    with pytest.raises(QuadratureError):
        adaptive_gk(lambda x: np.abs(x - math.pi / 7) ** -0.97, 0.0, 1.0,
                    rtol=1e-13, max_intervals=8)


def test_integrate_decaying_gaussian_tail():
    val = integrate_decaying(lambda x: np.exp(-x * x), 0.0, rtol=1e-11,
                             tail_bound=lambda r: math.exp(-r * r))
    assert abs(val - math.sqrt(math.pi) / 2) < 1e-10


def test_euler_accelerate_log2():
    terms = np.array([(-1.0) ** k / (k + 1.0) for k in range(30)])
    est, err = euler_accelerate(terms)
    assert abs(est - math.log(2.0)) < 1e-9


def test_oscillatory_tail_known_cosine_integral():
    # int_0^inf cos(x)/(1+x^2) dx = pi/(2 e)
    edges = (np.arange(4000) + 0.5) * math.pi
    val, err = oscillatory_tail(lambda x: np.cos(x) / (1 + x * x),
                                np.concatenate([[0.0], edges]), rtol=1e-11)
    assert abs(val - math.pi / (2 * math.e)) < 1e-10


def test_integrate_decaying_failure_names_tolerance():
    # 1/(1+x) is not integrable: every block adds about log(growth)
    with pytest.raises(QuadratureError,
                       match=r"5 blocks to R = .*last block .*tail bound "
                             r".*above tolerance \d\.\d{3}e[-+]\d+"):
        integrate_decaying(lambda x: 1.0 / (1.0 + x), 0.0, max_blocks=5)


def test_oscillatory_tail_failure_names_tolerance():
    # a constant integrand gives a divergent, non-alternating panel series
    edges = np.arange(41.0)
    with pytest.raises(QuadratureError,
                       match=r"40 panels, error estimate .* above tolerance "
                             r"\d\.\d{3}e[-+]\d+"):
        oscillatory_tail(np.ones_like, edges, max_panels=40)
