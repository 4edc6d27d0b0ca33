import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from stat_helpers import kv_simpson

from trfield._fast import _KV_UNDERFLOW_U
from trfield.matfun import (MatfunError, MatrixExponent, StemFunction,
                            bessel_k_stem, cosh_stem, expm, gamma_stem,
                            matrix_bessel_k, matrix_power, power_stem,
                            primary_matrix_fn, spectral_bounds)
from trfield.specfun import SpecfunError, bessel_k


def _random_matrix(rng, n, scale=1.0):
    return scale * rng.standard_normal((n, n))


# ---------------------------------------------------------------------------
# matrix_power

def test_matrix_power_c1_is_identity(rng):
    m = _random_matrix(rng, 3)
    assert np.max(np.abs(matrix_power(m, 1.0) - np.eye(3))) < 1e-12


def test_matrix_power_scalar_case():
    assert matrix_power(np.array([[0.7]]), 3.0)[0, 0] == pytest.approx(
        3.0 ** 0.7, rel=1e-13)


def test_matrix_power_jordan_block_fill():
    # 2x2 Jordan block at theta: z^J = [[z^t, 0], [log(z) z^t, z^t]]
    me = MatrixExponent.from_jordan(np.eye(2), [(0.5, 2)])
    z = 7.0
    out = matrix_power(me, z)
    expect = np.array([[z ** 0.5, 0.0],
                       [math.log(z) * z ** 0.5, z ** 0.5]])
    assert np.max(np.abs(out - expect)) < 1e-12


@given(st.floats(0.2, 5.0), st.floats(0.2, 5.0), st.integers(0, 50))
def test_matrix_power_group_law(c1, c2, seed):
    rng = np.random.default_rng(seed)
    m = 0.8 * rng.standard_normal((2, 2))
    lhs = matrix_power(m, c1 * c2)
    rhs = matrix_power(m, c1) @ matrix_power(m, c2)
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(lhs)))


@pytest.mark.parametrize("c", [0.1, 2.0, 17.0])
def test_matrix_power_inverse_law(c, rng):
    m = _random_matrix(rng, 3, 0.6)
    prod = matrix_power(m, c) @ matrix_power(m, 1.0 / c)
    assert np.max(np.abs(prod - np.eye(3))) < 1e-10


def test_matrix_power_rejects_bad_c(rng):
    m = _random_matrix(rng, 2)
    for c in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(MatfunError):
            matrix_power(m, c)


def test_matrix_power_rejects_nonfinite():
    with pytest.raises(MatfunError):
        matrix_power(np.array([[1.0, np.inf], [0.0, 1.0]]), 2.0)


# ---------------------------------------------------------------------------
# spectral bounds and MatrixExponent bookkeeping

def test_spectral_bounds_diagonal():
    assert spectral_bounds(np.diag([0.3, 0.7])) == (0.3, 0.7)


def test_spectral_bounds_rotation():
    varpi, upsilon = spectral_bounds(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert abs(varpi) < 1e-12 and abs(upsilon) < 1e-12


def test_spectral_bounds_companion_polynomial_oracle(rng):
    m = _random_matrix(rng, 3)
    # characteristic polynomial root finder as the independent oracle
    roots = np.roots(np.poly(m))
    varpi, upsilon = spectral_bounds(m)
    assert varpi == pytest.approx(float(roots.real.min()), abs=1e-8)
    assert upsilon == pytest.approx(float(roots.real.max()), abs=1e-8)


def test_spectral_bounds_invariant_under_similarity(rng):
    m = _random_matrix(rng, 3)
    p = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
    sim = p @ m @ np.linalg.inv(p)
    a = spectral_bounds(m)
    b = spectral_bounds(sim)
    assert a[0] == pytest.approx(b[0], abs=1e-8)
    assert a[1] == pytest.approx(b[1], abs=1e-8)


def test_matrix_exponent_invariants(rng):
    m = MatrixExponent(np.diag([0.4, 0.9]) + 0.05 * rng.standard_normal((2, 2)))
    assert m.varpi <= m.upsilon
    spect = m.spectrum
    assert min(ev.real for ev, _, _ in spect) == pytest.approx(m.varpi)
    assert max(ev.real for ev, _, _ in spect) == pytest.approx(m.upsilon)


def test_matrix_exponent_jordan_reconstruction():
    p = np.array([[1.0, 1.0], [0.0, 2.0]])
    me = MatrixExponent.from_jordan(p, [(0.6, 2)])
    q, blocks = me.jordan()
    recon = q @ np.array([[0.6, 0.0], [1.0, 0.6]]) @ np.linalg.inv(q)
    assert np.max(np.abs(recon - me.entries)) < 1e-10


def test_matrix_exponent_rejects_defective_without_structure():
    # a true Jordan block given as raw entries must be rejected
    raw = np.array([[0.5, 0.0], [1.0, 0.5]])
    with pytest.raises(MatfunError):
        MatrixExponent(raw).jordan()


def test_matrix_exponent_spectrum_multiplicities():
    me = MatrixExponent.from_jordan(np.eye(2), [(0.5, 2)])
    ((ev, alg, geo),) = me.spectrum
    assert ev == pytest.approx(0.5)
    assert alg == 2 and geo == 1


# ---------------------------------------------------------------------------
# primary matrix functions and stems

def test_primary_matrix_fn_diagonal_square_stem():
    sq = StemFunction("square", lambda k, z: (z * z, 2 * z, 2.0, 0.0)[k]
                      if k <= 3 else 0.0)
    out = primary_matrix_fn(sq, np.diag([2.0, 3.0]))
    assert np.max(np.abs(out - np.diag([4.0, 9.0]))) < 1e-12


def test_primary_matrix_fn_jordan_block_derivative_fill():
    h = power_stem(math.e)        # h(z) = e^z, h'(z) = e^z
    me = MatrixExponent.from_jordan(np.eye(2), [(0.3, 2)])
    out = primary_matrix_fn(h, me)
    v = math.exp(0.3)
    assert np.max(np.abs(out - np.array([[v, 0.0], [v, v]]))) < 1e-12


def test_primary_matrix_fn_matches_matrix_power(rng):
    m = _random_matrix(rng, 3, 0.7)
    p = np.array([[1.0, 0.4, 0.0], [0.2, 1.0, 0.3], [0.0, 0.5, 1.0]])
    jordan = MatrixExponent.from_jordan(p, [(0.6, 2), (1.1, 1)])
    # plain arrays take the expm path of matrix_power, so the Jordan fill
    # is checked against scaling and squaring
    for arg, entries in ((m, m), (jordan, jordan.entries)):
        out = primary_matrix_fn(power_stem(5.0), arg)
        assert np.max(np.abs(out - matrix_power(entries, 5.0))) < 1e-9


def test_primary_matrix_fn_similarity_covariance(rng):
    m = np.diag([0.2, 0.8, 1.4])
    p = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    lhs = primary_matrix_fn(power_stem(2.0), p @ m @ np.linalg.inv(p))
    rhs = p @ primary_matrix_fn(power_stem(2.0), m) @ np.linalg.inv(p)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_primary_matrix_fn_rejects_pole():
    with pytest.raises(MatfunError):
        primary_matrix_fn(gamma_stem(), np.diag([1.0, -2.0]))


@pytest.mark.parametrize("stem,z0", [
    (power_stem(3.0), 0.7), (cosh_stem(1.3), 0.4),
    (bessel_k_stem(2.0), 0.6), (gamma_stem(), 1.7),
])
def test_stem_derivatives_against_central_differences(stem, z0, rng):
    # first derivatives validated against central finite differences
    for z in (z0, z0 + rng.uniform(0, 0.2), z0 + rng.uniform(0.2, 0.5)):
        h = 1e-5
        fd = (complex(stem.derivative(0, z + h))
              - complex(stem.derivative(0, z - h))) / (2 * h)
        an = complex(stem.derivative(1, z))
        assert abs(an - fd) < 1e-6 * max(abs(an), 1.0)


def test_gamma_stem_order_cap():
    with pytest.raises(MatfunError):
        gamma_stem().derivative(2, 1.5)


@pytest.mark.parametrize("u", [0.05, 3.0, 40.0])
@pytest.mark.parametrize("nu", [0.6, 0.3 + 0.4j])
def test_bessel_k_stem_order_derivatives_mpmath_oracle(nu, u):
    mpmath = pytest.importorskip("mpmath")
    stem = bessel_k_stem(u)
    for k in range(4):
        expect = complex(mpmath.diff(lambda v: mpmath.besselk(v, u), nu, k))
        assert stem.derivative(k, nu) == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# matrix Bessel

def test_matrix_bessel_scalar_reduces_to_kv():
    out = matrix_bessel_k(np.array([[0.5]]), 2.0)
    assert out[0, 0] == pytest.approx(math.sqrt(math.pi / 4) * math.exp(-2),
                                      rel=1e-10)


def test_matrix_bessel_agrees_with_scalar_bessel_k():
    # below order 3/2 all three sum K_nu on the same cosh-rule nodes
    for u in (1e-12, 0.01, 0.1, 1.0, 2.0, 5.0, 50.0):
        for nu in (0.0, 0.37, 1.2):
            k = bessel_k(nu, u)
            assert matrix_bessel_k(np.array([[nu]]), u)[0, 0] == \
                pytest.approx(k, rel=1e-14)
            assert bessel_k_stem(u).derivative(0, nu) == \
                pytest.approx(k, rel=1e-14)


@pytest.mark.parametrize("u", [1e-310, 5e-324])
def test_matrix_and_stem_bessel_refuse_arguments_below_the_rule_floor(u):
    with pytest.raises(SpecfunError, match="cosh rule"):
        matrix_bessel_k(np.array([[0.4, 0.1], [0.0, 0.7]]), u)
    with pytest.raises(SpecfunError, match="cosh rule"):
        bessel_k_stem(u)


def test_matrix_and_stem_bessel_refuse_an_overflowing_sum():
    # kv_batch(1.4, 1e-300) is +inf; the cosh-rule sums overflow too
    with pytest.raises(SpecfunError, match="overflows at u = 1e-300"):
        matrix_bessel_k(np.array([[1.4]]), 1e-300)
    stem = bessel_k_stem(1e-300)
    for k in (0, 1):
        with pytest.raises(SpecfunError, match="overflows at u = 1e-300"):
            stem.derivative(k, 1.4)


def test_matrix_bessel_eigenbasis_oracle(rng):
    n2 = np.array([[0.3, 0.1], [0.05, 0.6]])
    ev, p = np.linalg.eig(n2)
    for u in (0.5, 2.0):
        oracle = (p * [kv_simpson(e, u) for e in ev]) \
            @ np.linalg.inv(p)
        out = matrix_bessel_k(n2, u)
        assert np.max(np.abs(out - oracle.real)) < 1e-8 * np.max(np.abs(out))


def test_matrix_bessel_complex_pair_real_output():
    n3 = np.array([[0.4, -0.5], [0.5, 0.4]])
    out = matrix_bessel_k(n3, 1.0)
    assert not np.iscomplexobj(out)
    ev, p = np.linalg.eig(n3)
    oracle = (p @ np.diag([kv_simpson(e, 1.0) for e in ev])
              @ np.linalg.inv(p))
    assert np.max(np.abs(out - oracle.real)) < 1e-8


def test_matrix_bessel_small_u_power_law():
    n = np.array([[0.3]])
    from trfield.specfun import gamma_fn
    prev = math.inf
    for k in (4, 5, 6):
        u = 10.0 ** -k
        ratio = matrix_bessel_k(n, u)[0, 0] / (
            2 ** (0.3 - 1) * gamma_fn(0.3) * u ** -0.3)
        assert abs(ratio - 1.0) < 0.01
        assert abs(ratio - 1.0) < prev          # ratio converges to 1
        prev = abs(ratio - 1.0)


def test_matrix_bessel_exponential_tempering(rng):
    n = np.array([[0.4, -0.3], [0.2, 0.7]])
    ref = np.max(np.abs(matrix_bessel_k(n, 10.0))) * math.exp(5.0)
    for u in (20.0, 40.0):
        bound = ref * math.exp(-u / 2.0)
        assert np.max(np.abs(matrix_bessel_k(n, u))) <= bound * 1.05


def test_matrix_bessel_rejects_bad_u():
    with pytest.raises(MatfunError):
        matrix_bessel_k(np.eye(2), 0.0)


@pytest.mark.parametrize("theta", [0.3, 1.4])
@pytest.mark.parametrize("u", [0.05, 1.0, 40.0])
def test_matrix_bessel_jordan_block_holds_order_derivative(theta, u):
    # K_N of a defective order [[theta, 0], [1, theta]] needs no Jordan data
    mpmath = pytest.importorskip("mpmath")
    k0 = float(mpmath.besselk(theta, u))
    k1 = float(mpmath.diff(lambda v: mpmath.besselk(v, u), theta))
    out = matrix_bessel_k(np.array([[theta, 0.0], [1.0, theta]]), u)
    np.testing.assert_allclose(out, [[k0, 0.0], [k1, k0]], rtol=1e-12,
                               atol=1e-14 * k0)


def test_matrix_and_scalar_bessel_share_underflow_cutoff():
    below = np.nextafter(_KV_UNDERFLOW_U, 0.0)
    above = np.nextafter(_KV_UNDERFLOW_U, np.inf)
    n = np.array([[0.4, -0.3], [0.2, 0.7]])
    assert bessel_k(0.4, below) > 0.0
    assert np.all(matrix_bessel_k(n, below) != 0.0)
    assert bessel_k(0.4, above) == 0.0
    assert not np.any(matrix_bessel_k(n, above))
    assert bessel_k_stem(above).derivative(1, 0.4) == 0.0


def test_expm_against_series(rng):
    a = 0.4 * rng.standard_normal((3, 3))
    series = np.eye(3)
    term = np.eye(3)
    for k in range(1, 30):
        term = term @ a / k
        series = series + term
    assert np.max(np.abs(expm(a) - series)) < 1e-12


def test_expm_stack_matches_each_slice_bit_for_bit(rng):
    # norms from 1e-3 to 300 give each slice its own number of squarings
    stack = rng.standard_normal((4, 6, 3, 3)) \
        * np.geomspace(1e-3, 300.0, 24).reshape(4, 6, 1, 1)
    out = expm(stack)
    assert out.shape == stack.shape
    for idx in np.ndindex(4, 6):
        assert np.array_equal(out[idx], expm(stack[idx]))
