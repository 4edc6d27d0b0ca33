"""Hot numeric kernels, one numpy implementation each.

``kv_batch`` (K_nu: a Temme series for u <= 2, above it ``_cosh_rule``,
the trapezoidal rule on the cosh integral that also serves the order
derivatives and the matrix-order K_N of ``matfun``; orders from 3/2 on
recur upward from K_mu and K_{mu+1}, |mu| <= 1/2), ``hyp2f1_batch``
(Gauss 2F1 for z <= 0: the Pfaff series on [-1, 0], the 1/(1-z)
connection formula below, both at w <= 1/2 and summed in blocks of
``_HYP_BLOCK`` terms), ``cms_batch`` (Chambers-Mallows-Stuck variates;
at alpha = 2 the exact closed form 2 sin(theta) sqrt(w)),
``ma_matrix_1d`` and ``tfsm_matrix`` (moving-average kernel matrices,
through the one tempered power ``_tempered_power``) and ``box_count``
evaluate their recurrences with array masks.  The kernel matrices depend
on the lag x - y only: when the sites and the nodes are arithmetic
progressions with commensurate steps, ``_lag_kernel`` evaluates the
kernel once per distinct lag and indexes the matrix out of those values;
other grids take the dense difference.
``trfield.benchmark`` times them all, the kernel matrix on both paths.
"""

import math
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import as_strided


# Coefficients of 1/Gamma(1+x) = sum_j A[j] x^j  (Abramowitz & Stegun 6.1.34).
_RGAMMA_A = np.array([
    1.0000000000000000, 0.5772156649015329, -0.6558780715202538,
    -0.0420026350340952, 0.1665386113822915, -0.0421977345555443,
    -0.0096219715278770, 0.0072189432466630, -0.0011651675918591,
    -0.0002152416741149, 0.0001280502823882, -0.0000201348547807,
    -0.0000012504934821, 0.0000011330272320, -0.0000002056338417,
    0.0000000061160950, 0.0000000050020075, -0.0000000011812746,
    0.0000000001043427, 0.0000000000077823, -0.0000000000036968,
    0.0000000000005100, -0.0000000000000206, -0.0000000000000054,
    0.0000000000000014, 0.0000000000000001,
])

_KV_UNDERFLOW_U = 700.0
_LATTICE_RTOL = 1e-12            # lag-lattice detection, relative to |x|
_KV_CHUNK = 256
_HYP_BLOCK = 32                  # 2F1 series terms per block


class SpecfunError(ValueError):
    """A special function refused its arguments or failed to converge.

    Re-exported as :class:`trfield.specfun.SpecfunError`.
    """


def _gam_pair(mu):
    """gam1 = [1/G(1-mu)-1/G(1+mu)]/(2 mu), gam2 = [1/G(1-mu)+1/G(1+mu)]/2."""
    mu2 = mu * mu
    gam1 = 0.0
    p = 1.0
    for j in range(1, 26, 2):
        gam1 -= _RGAMMA_A[j] * p
        p *= mu2
    gam2 = 0.0
    p = 1.0
    for j in range(0, 26, 2):
        gam2 += _RGAMMA_A[j] * p
        p *= mu2
    return gam1, gam2


def _kv_series(nu, x):
    """Modified Bessel K_nu(x) for 0 < x <= 2 via the Temme-style series."""
    n = int(math.floor(nu + 0.5))
    mu = nu - n                      # mu in [-1/2, 1/2]
    x2 = 0.5 * x
    d = -np.log(x2)
    e = mu * d
    pimu = math.pi * mu
    fact = pimu / math.sin(pimu) if abs(pimu) > 1e-14 else 1.0 + pimu * pimu / 6.0
    fact2 = np.where(np.abs(e) > 1e-14, np.sinh(e) / np.where(e == 0, 1.0, e),
                     1.0 + e * e / 6.0)
    gam1, gam2 = _gam_pair(mu)
    gampl = gam2 + mu * gam1         # 1/Gamma(1-mu)
    gammi = gam2 - mu * gam1         # 1/Gamma(1+mu)
    ff = fact * (gam1 * np.cosh(e) + gam2 * fact2 * d)
    ksum = ff.copy()
    ee = np.exp(e)
    p = 0.5 * ee / gammi             # (1/2)(x/2)^(-mu) Gamma(1+mu)
    q = 0.5 / (ee * gampl)           # (1/2)(x/2)^(+mu) Gamma(1-mu)
    c = np.ones_like(x)
    x2sq = x2 * x2
    ksum1 = p.copy()
    for i in range(1, 80):
        ff = (i * ff + p + q) / (i * i - mu * mu)
        c *= x2sq / i
        p = p / (i - mu)
        q = q / (i + mu)
        dl = c * ff
        ksum += dl
        ksum1 += c * (p - i * ff)
        if np.max(np.abs(dl)) < np.max(np.abs(ksum)) * 1e-17:
            break
    return _kv_upward(mu, n, x, ksum, ksum1 * (2.0 / x))


def _kv_upward(mu, n, u, k0, k1):
    """K_{mu+n}(u) from k0 = K_mu(u) and k1 = K_{mu+1}(u) by the upward
    recurrence K_{m+1} = K_{m-1} + (2m/u) K_m, stable for K."""
    if n == 0:
        return k0
    for i in range(n - 1):
        k0, k1 = k1, k0 + (2.0 * (mu + i + 1) / u) * k1
    return k1


def _cosh_rule(u):
    """(t, w), each (len(u), K): the trapezoidal rule for the cosh integral
    int_0^inf e^{-u cosh t} f(t) dt ~ sum_k w[:, k] f(t[:, k]) behind K_nu,
    its order derivatives and the matrix order K_N; 1-d u in
    (0, ``_KV_UNDERFLOW_U``].

    Nodes t = k h run to acosh(745/u), where e^{-u cosh t} underflows;
    weights are h e^{-u} exp(-2u sinh^2(t/2)), half at t = 0 (the separate
    e^{-u} spares the exponent u ulps of rounding).  The integrand is even
    and entire, so the rule converges exponentially (Trefethen & Weideman,
    SIAM Rev. 2014); its width near 0 is about u^{-1/2}, hence the step
    min(0.15, 0.6/sqrt(u)): at most 48 nodes above u = 2, about 66 at 0.1.
    Rows share the longest row's nodes; past its own end a row's weights
    are below h e^{-745}.
    """
    h = np.minimum(0.15, 0.6 / np.sqrt(u))
    k = np.arange(int(np.ceil(np.max(np.arccosh(745.0 / u) / h))) + 1)
    t = h[:, None] * k
    w = np.exp(-2.0 * u[:, None] * np.sinh(0.5 * t) ** 2)
    w *= (h * np.exp(-u))[:, None]
    w[:, 0] *= 0.5
    return t, w


def _kv_trapezoid(nu, u):
    """K_nu(u) = sum_k w_k cosh(nu t_k) on the ``_cosh_rule`` nodes, in
    chunks of ``_KV_CHUNK`` arguments to bound the (chunk, nodes)
    temporaries.  The peak of the integrand moves out to sinh t ~ nu/u
    and sharpens past what the step resolves as nu grows, so from
    n = round(nu) >= 2 on the rule sums K_mu and K_{mu+1}, mu = nu - n,
    and ``_kv_upward`` recurs to K_nu, as the series branch does.
    """
    n = int(math.floor(nu + 0.5))
    out = np.empty_like(u)
    for start in range(0, u.shape[0], _KV_CHUNK):
        uc = u[start:start + _KV_CHUNK]
        t, w = _cosh_rule(uc)
        if n < 2:
            out[start:start + _KV_CHUNK] = np.sum(w * np.cosh(nu * t), axis=1)
            continue
        mu = nu - n
        k0 = np.sum(w * np.cosh(mu * t), axis=1)
        k1 = np.sum(w * np.cosh((mu + 1.0) * t), axis=1)
        out[start:start + _KV_CHUNK] = _kv_upward(mu, n, uc, k0, k1)
    return out


def kv_batch(nu, u):
    """K_nu(u) over a 1-d array: series for u <= 2, trapezoid above, 0 past
    ``_KV_UNDERFLOW_U``."""
    nu = abs(float(nu))
    u = np.ascontiguousarray(np.asarray(u, dtype=float).ravel())
    out = np.zeros_like(u)
    small = (u <= 2.0) & (u > 0)
    large = (u > 2.0) & (u <= _KV_UNDERFLOW_U)
    if np.any(small):
        out[small] = _kv_series(nu, u[small])
    if np.any(large):
        out[large] = _kv_trapezoid(nu, u[large])
    return out


# ---------------------------------------------------------------------------
# Gauss hypergeometric 2F1 for real parameters, z <= 0.

def _gammasgn(x):
    if x > 0.0:
        return 1.0
    return 1.0 if math.floor(x) % 2 == 0 else -1.0


def _rgamma_zero(x):
    """True where 1/Gamma(x) = 0, i.e. at the non-positive integers."""
    return x <= 0.0 and x == math.floor(x)


def _conn_coef(a, b, c):
    """Sign and log-magnitude of Gamma(c) Gamma(b-a) / (Gamma(b) Gamma(c-a)).

    This is the coefficient of the (1-z)^(-a) term of the 1/(1-z)
    connection formula (Abramowitz & Stegun 15.3.8); swap a and b for the
    other term.  1/Gamma is exactly 0 at the non-positive integers, so the
    sign is 0 (the term vanishes) when b or c - a is one, and lgamma is
    never called at a pole.
    """
    if _rgamma_zero(b) or _rgamma_zero(c - a):
        return 0.0, 0.0
    sg = _gammasgn(c) * _gammasgn(b - a) * _gammasgn(b) * _gammasgn(c - a)
    lg = (math.lgamma(c) + math.lgamma(b - a) - math.lgamma(b)
          - math.lgamma(c - a))
    return sg, lg


def _hyp_series(a, b, c, w, max_terms):
    """sum_k (a)_k (b)_k / ((c)_k k!) w^k over an array w, in blocks of
    B = ``_HYP_BLOCK`` terms.

    The table w^j = exp(j log w), j = 1 .. B, is built once (w >= 0; its
    relative error j |log w| ulps is at most that of j products for
    w >= 1/e, and smaller terms matter less); a block is its leading term
    times the row sums of that table scaled by one cumprod of the
    coefficient ratios.  Convergence is checked once per block, on the
    batch as a whole: every row runs until the largest last term is below
    1e-17 of the largest |sum|, so the slowest row sets the number of
    blocks.  Raises SpecfunError when ``max_terms`` terms do not get there.
    """
    with np.errstate(divide="ignore"):          # w = 0 gives w^j = 0
        powers = np.log(w)[:, None] * np.arange(1.0, _HYP_BLOCK + 1.0)
    np.exp(powers, out=powers)
    s = np.ones_like(w)
    lead = np.ones_like(w)           # the term before the block
    for k0 in range(0, max_terms, _HYP_BLOCK):
        k = np.arange(k0, min(k0 + _HYP_BLOCK, max_terms), dtype=float)
        coef = np.cumprod((a + k) * (b + k) / ((c + k) * (k + 1.0)))
        s += lead * (powers[:, :k.size] * coef).sum(axis=1)
        lead = lead * coef[-1] * powers[:, k.size - 1]
        if abs(lead).max() < 1e-17 * abs(s).max():
            return s
    raise SpecfunError(
        f"2F1 series reached its cap of {max_terms} terms with the last "
        f"term {abs(lead).max() / abs(s).max():.1e} of the sum")


def hyp2f1_batch(a, b, c, z):
    """2F1(a, b; c; z) over a 1-d array of z <= 0 (regions chosen as in
    Pearson, Olver & Porter, Numer. Algorithms 74, 2017).

    On [-1, 0] the Pfaff series (1-z)^(-a) 2F1(a, c-b; c; w), w = z/(z-1);
    below, the 1/(1-z) connection formula (1-z)^(-a) 2F1(a, c-b; a-b+1; w)
    plus the a <-> b term, w = 1/(1-z), weighted by ``_conn_coef``.  Both
    run at w <= 1/2 unless the two connection terms cancel, where the
    Pfaff series runs further out, converging slowly as its w -> 1:
    - a - b within delta < 0.1 of an integer: the terms grow like
      1/delta, losing about w/delta^2 ulps, so the connection formula
      starts at 1/(1-z) = 5 delta, and is not used for delta < 0.02;
    - c > 2: by Euler each term carries the factor (1-w)^(1-c), about
      exp(w (c-1)), against an F of order one, so the connection formula
      starts at 1/(1-z) = 1/(2 (c-1)), where that factor is below e^(1/2).
      The Pfaff series then needs terms in proportion to c at the switch,
      and reaches its cap (SpecfunError) for c of several thousand.
    """
    a, b, c = float(a), float(b), float(c)
    z = np.ascontiguousarray(np.asarray(z, dtype=float).ravel())
    out = np.empty_like(z)
    ab = a - b
    delta = abs(ab - math.floor(ab + 0.5))
    w_far = min(0.5, 5.0 * delta, 0.5 / (c - 1.0) if c > 1.0 else 1.0)
    z_far = 1.0 - 1.0 / w_far if delta >= 0.02 else -np.inf
    far = z < z_far
    pfaff = ~far
    if pfaff.any():
        zz = z[pfaff]
        w = zz / (zz - 1.0)
        out[pfaff] = (1.0 - zz) ** (-a) * _hyp_series(a, c - b, c, w, 300000)
    if far.any():
        one_mz = 1.0 - z[far]
        w = 1.0 / one_mz
        log_1mz = np.log(one_mz)
        acc = np.zeros_like(w)
        sg, lg = _conn_coef(a, b, c)
        if sg != 0.0:
            acc += sg * np.exp(lg - a * log_1mz) * _hyp_series(
                a, c - b, ab + 1.0, w, 400)
        sg, lg = _conn_coef(b, a, c)
        if sg != 0.0:
            acc += sg * np.exp(lg - b * log_1mz) * _hyp_series(
                b, c - a, 1.0 - ab, w, 400)
        out[far] = acc
    return out


# ---------------------------------------------------------------------------
# Chambers-Mallows-Stuck transform for symmetric alpha-stable variates.

def cms_batch(theta, w, alpha):
    theta = np.asarray(theta, dtype=np.float64)
    alpha = float(alpha)
    if alpha == 1.0:
        return np.tan(theta)
    if alpha == 2.0:
        # sin(2t) cos(t)^{-1/2} (cos(t)/w)^{-1/2} = 2 sin(t) sqrt(w)
        return 2.0 * np.sin(theta) * np.sqrt(w)
    # sin(at) cos(t)^{-1/a} (cos((1-a)t)/w)^{(1-a)/a}, both powers in one exp
    inv_a = 1.0 / alpha
    out = (1.0 - alpha) * inv_a * np.log(np.cos((1.0 - alpha) * theta) / w)
    out -= inv_a * np.log(np.cos(theta))
    return np.sin(alpha * theta) * np.exp(out)


# ---------------------------------------------------------------------------
# Scalar moving-average kernels on 1-d grids (exponential and TFSM flavors).

def _tempered_power(r, expo, lam, out):
    """r^expo e^{-lam r} where r > 0, else 0, into ``out`` (not ``r``):
    one log, one exp and a mask; ``r`` is overwritten by -lam r."""
    zero = r <= 0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(r, out=out)
        out *= expo                  # 0 * (-inf) at expo = 0, zeroed below
    r *= -lam
    out += r
    np.exp(out, out=out)
    out[zero] = 0.0
    return out


def _progression(x):
    """(x[0], h) when ``x`` is x[0] + h*arange(n) to within ``_LATTICE_RTOL``
    of its largest |x|, with a finite nonzero step h; else None."""
    n = x.shape[0]
    if n < 2:
        return None
    h = (x[-1] - x[0]) / (n - 1)
    if not (np.isfinite(h) and h != 0.0):
        return None
    dev = np.max(np.abs(x - (x[0] + h * np.arange(n))))
    if not dev <= _LATTICE_RTOL * max(abs(x[0]), abs(x[-1])):
        return None                  # irregular, or a non-finite entry
    return x[0], h


def _lattice(sites, nodes):
    """(p, q, step, t0) when every lag sites[i] - nodes[k] is
    (t - t0) step with t = (m-1)q + ip - kq, for a lattice of at most a
    quarter of the n m entries; else None.

    Both arrays must be arithmetic progressions whose steps are
    commensurate, q h_s = p h_y with p, q >= 1, so step = h_y / q.  When
    a site falls on a lattice point t0 is made an integer, so the
    coinciding lags are exactly 0.
    """
    n, m = sites.shape[0], nodes.shape[0]
    with np.errstate(all="ignore"):  # non-finite values fail the checks
        prog_s, prog_y = _progression(sites), _progression(nodes)
        if prog_s is None or prog_y is None:
            return None
        (s0, hs), (y0, hy) = prog_s, prog_y
        ratio = hs / hy
        if not (np.isfinite(ratio) and ratio > 0):
            return None
        frac = Fraction(ratio).limit_denominator(
            max(1, n * m // (4 * (m - 1))))
        p, q = frac.numerator, frac.denominator
        step = hy / q
        t0 = (m - 1) * q - (s0 - y0) / step
        if not (p >= 1 and np.isfinite(t0)
                and abs(q * hs - p * hy) <= _LATTICE_RTOL * abs(q * hs)
                and 4 * ((n - 1) * p + (m - 1) * q + 1) <= n * m):
            return None
    scale = max(abs(s0), abs(sites[-1]), abs(y0), abs(nodes[-1]))
    if abs(t0 - round(t0)) * abs(step) <= _LATTICE_RTOL * scale:
        t0 = round(t0)
    return p, q, step, t0


def _lag_kernel(sites, nodes, fn):
    """fn(sites[i] - nodes[k]) over (sites, nodes); ``fn`` maps an array
    of lags to a fresh array of kernel values and may overwrite its input.

    On a lag lattice (``_lattice``) ``fn`` runs once per lattice point and
    the matrix is a read-only strided view of those values, entry (i, k)
    at point (m-1)q + ip - kq.  Anything else, including a single site or
    a non-finite coordinate, takes the dense n x m difference.
    """
    lattice = _lattice(sites, nodes)
    if lattice is None:
        return fn(np.subtract.outer(sites, nodes))
    p, q, step, t0 = lattice
    n, m = sites.shape[0], nodes.shape[0]
    f = fn((np.arange((n - 1) * p + (m - 1) * q + 1) - t0) * step)
    return as_strided(f[(m - 1) * q:], (n, m),
                      (p * f.itemsize, -q * f.itemsize), writeable=False)


def _pin(out, node_term, sites):
    """out - node_term as a contiguous owned array: in place on a dense
    ``out``; from a read-only lattice view into a fresh array whose rows
    at a site exactly 0 are set to 0, as the dense difference leaves them
    (the field is pinned at the origin)."""
    if out.flags.writeable:
        return np.subtract(out, node_term, out=out)
    out = out - node_term
    out[sites == 0.0] = 0.0
    return out


def ma_matrix_1d(sites, nodes, nu, lam):
    """|x - y|^nu e^{-lam |x - y|} - |y|^nu e^{-lam |y|} over (sites, nodes),
    with 0^nu := 0."""
    def kern(r):
        return _tempered_power(np.abs(r, out=r), nu, lam, np.empty_like(r))
    sites, nodes = (np.asarray(x, dtype=np.float64) for x in (sites, nodes))
    return _pin(_lag_kernel(sites, nodes, kern), kern(-nodes), sites)


def tfsm_matrix(times, nodes, expo, lam):
    """(t - y)_+^expo e^{-lam (t - y)_+} - (-y)_+^expo e^{-lam (-y)_+} over
    (times, nodes), with 0^expo := 0."""
    def kern(a):
        return _tempered_power(np.maximum(a, 0.0, out=a), expo, lam,
                               np.empty_like(a))
    times, nodes = (np.asarray(x, dtype=np.float64) for x in (times, nodes))
    return _pin(_lag_kernel(times, nodes, kern), kern(-nodes), times)


# ---------------------------------------------------------------------------
# Graph box counting for 1-d sample paths.

def box_count(values, samples_per_col, eps):
    values = np.ascontiguousarray(values, dtype=np.float64)
    samples_per_col, eps = int(samples_per_col), float(eps)
    n_cols = values.shape[0] // samples_per_col
    trimmed = values[:n_cols * samples_per_col].reshape(n_cols, samples_per_col)
    # each column also holds the first sample of the next one
    edge_idx = np.arange(1, n_cols + 1) * samples_per_col
    right = np.where(edge_idx < values.shape[0],
                     values[np.minimum(edge_idx, values.shape[0] - 1)],
                     trimmed[:, -1])[:, None]
    cols = np.hstack([trimmed, right])
    hi = np.floor(cols.max(axis=1) / eps)
    lo = np.floor(cols.min(axis=1) / eps)
    return int(np.sum(hi - lo + 1))
