"""Shared numerical integration utilities.

Adaptive Gauss-Kronrod on finite intervals (vector- and matrix-valued
integrands), semi-infinite integration of decaying envelopes, and
Euler-accelerated summation of row-batched oscillatory tails.  Node/weight
tables are the classical 7-15 Gauss-Kronrod pair (QUADPACK dqk15).
"""

import functools
import math

import numpy as np

# 15-point Kronrod abscissae on [-1, 1] (positive half) and weights; the
# embedded 7-point Gauss weights sit on the odd-indexed Kronrod nodes.
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])          # 15 ascending nodes
_KW = np.concatenate([_WGK[:-1], _WGK[::-1]])              # Kronrod weights
_GW = np.zeros(15)
_GW[1:14:2] = np.concatenate([_WG[:-1], _WG[::-1]])        # Gauss weights


def _gk15_nodes(lo, hi):
    """The 15 Kronrod abscissae of each panel [lo_j, hi_j], (J, 15); the
    (J, 15) product comes first so that numpy adds into it in place."""
    return (0.5 * (hi - lo))[:, None] * _NODES + (0.5 * (lo + hi))[:, None]


def _gk15_batch(f, lo, hi):
    """Vectorized Gauss-Kronrod panels over arrays of interval edges: the
    (J, ...) Kronrod values and the (J, C) error estimates |Kronrod - Gauss|
    of each panel's C integrand components."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    x = _gk15_nodes(lo, hi)
    fx = np.asarray(f(x.ravel()))
    fx = fx.reshape(x.shape + fx.shape[1:])
    hshape = (len(half),) + (1,) * (fx.ndim - 2)
    ik = np.tensordot(fx, _KW, axes=(1, 0)) * half.reshape(hshape)
    ig = np.tensordot(fx, _GW, axes=(1, 0)) * half.reshape(hshape)
    return ik, np.abs(ik - ig).reshape(len(half), -1)


def adaptive_gk(f, a, b, rtol=1e-10, atol=1e-13, max_intervals=4096,
                points=()):
    """Adaptive Gauss-Kronrod integral of a vectorized integrand.

    ``f`` maps an array of abscissae to values (extra trailing axes are
    integrated componentwise).  ``points`` lists interior breakpoints
    (e.g. integrable singularities) where the initial partition is split.
    The whole error frontier is refined per iteration with one batched
    evaluation.  Convergence is tested per component: the largest of the
    components' error sums over the intervals must meet the tolerance on
    the largest |value|.  Splits follow each interval's worst component.

    Returns (value, error_estimate); raises QuadratureError when the
    requested tolerance cannot be certified or the estimate is not finite.
    """
    edges = np.array([a] + sorted(p for p in points if a < p < b) + [b])
    lo = edges[:-1].copy()
    hi = edges[1:].copy()
    vals, comp_errs = _gk15_batch(f, lo, hi)
    errs = comp_errs.max(axis=1)
    frozen_err = 0.0
    while True:
        total = vals.sum(axis=0)
        total_err = float((comp_errs.sum(axis=0) + frozen_err).max())
        peak = float(np.max(np.abs(total)))
        if not (math.isfinite(total_err) and math.isfinite(peak)):
            raise QuadratureError(
                f"adaptive_gk: non-finite estimate {total} (error "
                f"{total_err}) on [{a}, {b}]: the integrand returned NaN "
                "or inf")
        scale = max(atol, rtol * peak)
        if total_err <= scale:
            return total, total_err
        if len(lo) >= max_intervals:
            raise QuadratureError(
                f"adaptive_gk: {len(lo)} intervals, error {total_err:.3e} "
                f"above tolerance {scale:.3e}")
        # refine every interval contributing at least its fair share
        thresh = max(scale, float(errs.sum()) * 0.5) / max(len(lo), 1)
        split = errs > min(thresh, float(errs.max()) * 0.999999)
        if not np.any(split):
            split = errs >= float(errs.max())
        mids = 0.5 * (lo[split] + hi[split])
        degenerate = (mids <= lo[split]) | (mids >= hi[split])
        if np.any(degenerate):
            # intervals at floating-point resolution: error irreducible
            keep_idx = np.flatnonzero(split)[degenerate]
            frozen_err = frozen_err + comp_errs[keep_idx].sum(axis=0)
            errs[keep_idx] = comp_errs[keep_idx] = 0.0
            split[keep_idx] = False
            if not np.any(split):
                continue
            mids = 0.5 * (lo[split] + hi[split])
        child_lo = np.concatenate([lo[split], mids])
        child_hi = np.concatenate([mids, hi[split]])
        new_vals, new_errs = _gk15_batch(f, child_lo, child_hi)
        keep = ~split
        lo = np.concatenate([lo[keep], child_lo])
        hi = np.concatenate([hi[keep], child_hi])
        vals = np.concatenate([vals[keep], new_vals])
        comp_errs = np.concatenate([comp_errs[keep], new_errs])
        errs = comp_errs.max(axis=1)


class QuadratureError(RuntimeError):
    """Raised when an integration routine cannot meet its tolerance."""


def integrate_decaying(f, a, rtol=1e-10, atol=1e-13, first_width=1.0,
                       max_blocks=200, tail_bound=None, tail_rate=None):
    """Integrate ``f`` on [a, inf) for an eventually-decaying integrand.

    Blocks of doubling width are integrated until both the last block and
    the tail bound drop below tolerance: ``tail_bound(R)``, or f(R) R / q
    for ``tail_rate`` q (decay like R^{-1-q}; such tails run dozens of
    blocks, so f is then called once up front on the ends and first-panel
    nodes of the first 64).  The run fails early once the bound's log-log
    slope over the last three block ends is steady to 10 % and still cannot
    reach tolerance by the last block.
    """
    ends = np.cumsum(np.r_[a, first_width * 2.0 ** np.arange(max_blocks)])
    if tail_rate is not None:
        pts = np.sort(np.r_[ends[1:65],
                            _gk15_nodes(ends[:-1][:64], ends[1:65]).ravel()])
        fn, vals = f, f(pts)

        def f(x):  # from the up-front call when every x is among pts
            i = np.minimum(np.searchsorted(pts, x), pts.size - 1)
            return vals[i] if np.array_equal(pts[i], x) else fn(x)

        def tail_bound(r):
            return f(np.array([r]))[0] * r / tail_rate
    total, fit = None, []
    for k, (lo, hi) in enumerate(zip(ends[:-1].tolist(), ends[1:].tolist())):
        val, _ = adaptive_gk(f, lo, hi, rtol=rtol * 0.1, atol=atol * 0.1)
        total = val if total is None else total + val
        scale = max(atol, rtol * float(np.max(np.abs(total))))
        block = float(np.max(np.abs(val)))
        bound = tail_bound(hi) if tail_bound is not None else block
        if block < scale and bound < scale:
            return total
        fit = [] if tail_bound is None or min(hi, bound) <= 0 else \
            (fit + [(math.log(hi), math.log(bound))])[-3:]
        if len(fit) == 3:
            (x0, y0), (x1, y1), (x2, y2) = fit
            q = (y1 - y2) / (x2 - x1)
            step = abs((y0 - y1) / (x1 - x0) - q)
            # extrapolate to the last block's end at the rate plus its last
            # change, against the tolerance on the total plus the remainder
            end_scale = max(atol, 1e-300,
                            rtol * (float(np.max(np.abs(total))) + bound))
            if 0 < q and step <= 0.1 * q and y2 - (q + step) * (
                    math.log(ends[-1]) - x2) > math.log(end_scale):
                break
    raise QuadratureError(
        f"integrate_decaying: {k + 1} blocks to R = {hi:.3e}, last block "
        f"{block:.3e}, tail bound {bound:.3e} above tolerance {scale:.3e}")


@functools.lru_cache(maxsize=None)
def gauss_legendre(n):
    """Cached Gauss-Legendre nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(int(n))


def euler_accelerate(terms):
    """Euler transform of each row of an (R, n) array of (near-)alternating
    series terms: (estimates, error estimates), each (R,), from the averaging
    tableau, keeping the diagonal entry of smallest increment per row."""
    row = np.cumsum(terms, axis=1)
    best, err = row[:, -1], np.abs(terms[:, -1])
    for _ in range(terms.shape[1] - 1):
        row = 0.5 * (row[:, 1:] + row[:, :-1])
        better = np.abs(row[:, -1] - best) <= err
        err = np.where(better, np.abs(row[:, -1] - best), err)
        best = np.where(better, row[:, -1], best)
    return best, err


def oscillatory_tail(f, edges, rtol=1e-10, atol=1e-14, n_gl=16,
                     max_panels=4000, min_panels=12, window=96):
    """Per row of ``edges`` (R, K), the (values, error estimates) of the
    (near-)alternating series of ``f``'s integrals over the panels between
    the row's breakpoints: ``n_gl``-point Gauss-Legendre, one ``f`` call per
    block of 16 panels for all rows.  Every 4 panels from ``min_panels`` on,
    a row sums its settled prefix and puts the last ``window`` terms through
    ``euler_accelerate``; it is done after two passes in a row with error
    below max(atol, rtol |total|), or below 100 times that at the end.
    """
    x0, w0 = gauss_legendre(n_gl)
    rows, n_max = edges.shape[0], min(edges.shape[1] - 1, max_panels)
    total, err, streak = np.zeros(rows), np.full(rows, math.inf), 0
    terms, done = np.zeros((rows, 0)), np.zeros(rows, dtype=bool)
    checks = [*range(4 * math.ceil(min_panels / 4), n_max + 1, 4), n_max]
    for i, m in enumerate(checks):
        while terms.shape[1] < m:
            n = terms.shape[1]
            lo, hi = edges[:, n:n + 17][:, :-1], edges[:, n + 1:n + 17]
            half = 0.5 * (hi - lo)
            nodes = (0.5 * (hi + lo))[..., None] + half[..., None] * x0
            fx = np.asarray(f(nodes.reshape(rows, -1))).reshape(nodes.shape)
            terms = np.concatenate([terms, half * (fx @ w0)], axis=1)
        w = min(m, window)
        best, e = euler_accelerate(terms[:, m - w:m])
        tot = terms[:, :m - w].sum(axis=1) + best
        scale = np.maximum(atol, rtol * np.maximum(np.abs(tot), 1e-300))
        if i == len(checks) - 1:
            ok = done | (e < 100 * scale)
            if not ok.all():
                j = int(np.argmin(ok))
                raise QuadratureError(
                    f"oscillatory_tail: {m} panels, error estimate "
                    f"{e[j]:.3e} above tolerance {100 * scale[j]:.3e} "
                    f"(row {j})")
            return np.where(done, total, tot), np.where(done, err, e)
        streak = np.where(e < scale, streak + 1, 0)
        new = (streak >= 2) & ~done
        total[new], err[new], done = tot[new], e[new], done | new
        if done.all():
            return total, err
