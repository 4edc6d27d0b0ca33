"""Shared numerical integration utilities.

Adaptive Gauss-Kronrod on finite intervals (vector- and matrix-valued
integrands), semi-infinite integration of decaying envelopes, and
Euler-accelerated summation of oscillatory tails.  Node/weight tables are
the classical 7-15 Gauss-Kronrod pair (QUADPACK dqk15).
"""

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


def _gk15_batch(f, lo, hi):
    """Vectorized Gauss-Kronrod panels over arrays of interval edges."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _NODES[None, :]
    fx = np.asarray(f(x.ravel()))
    fx = fx.reshape(x.shape + fx.shape[1:])
    hshape = (len(half),) + (1,) * (fx.ndim - 2)
    ik = np.tensordot(fx, _KW, axes=(1, 0)) * half.reshape(hshape)
    ig = np.tensordot(fx, _GW, axes=(1, 0)) * half.reshape(hshape)
    diff = np.abs(ik - ig)
    err = diff.reshape(diff.shape[0], -1).max(axis=1)
    return ik, err


def adaptive_gk(f, a, b, rtol=1e-10, atol=1e-13, max_intervals=4096,
                points=()):
    """Adaptive Gauss-Kronrod integral of a vectorized integrand.

    ``f`` maps an array of abscissae to values (extra trailing axes are
    integrated componentwise).  ``points`` lists interior breakpoints
    (e.g. integrable singularities) where the initial partition is split.
    The whole error frontier is refined per iteration with one batched
    evaluation.

    Returns (value, error_estimate); raises QuadratureError when the
    requested tolerance cannot be certified.
    """
    edges = np.array([a] + sorted(p for p in points if a < p < b) + [b])
    lo = edges[:-1].copy()
    hi = edges[1:].copy()
    vals, errs = _gk15_batch(f, lo, hi)
    frozen_err = 0.0
    while True:
        total = vals.sum(axis=0)
        total_err = float(errs.sum()) + frozen_err
        scale = max(atol, rtol * float(np.max(np.abs(total))))
        if total_err <= scale:
            return total, total_err
        if len(lo) >= max_intervals:
            raise QuadratureError(
                f"adaptive_gk: {len(lo)} intervals, error {total_err:.3e} "
                f"above tolerance {scale:.3e}")
        # refine every interval contributing at least its fair share
        thresh = max(scale, total_err * 0.5) / max(len(lo), 1)
        split = errs > min(thresh, float(errs.max()) * 0.999999)
        if not np.any(split):
            split = errs >= float(errs.max())
        mids = 0.5 * (lo[split] + hi[split])
        degenerate = (mids <= lo[split]) | (mids >= hi[split])
        if np.any(degenerate):
            # intervals at floating-point resolution: error irreducible
            keep_idx = np.flatnonzero(split)[degenerate]
            frozen_err += float(errs[keep_idx].sum())
            errs[keep_idx] = 0.0
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
        errs = np.concatenate([errs[keep], new_errs])


class QuadratureError(RuntimeError):
    """Raised when an integration routine cannot meet its tolerance."""


def integrate_decaying(f, a, rtol=1e-10, atol=1e-13, first_width=1.0,
                       growth=2.0, max_blocks=200, tail_bound=None):
    """Integrate ``f`` on [a, inf) for an eventually-decaying integrand.

    Blocks of geometrically growing width are integrated until both the
    last block and (if supplied) the analytic ``tail_bound(R)`` drop below
    tolerance.
    """
    total, lo, width = None, a, first_width
    for _ in range(max_blocks):
        hi = lo + width
        val, _ = adaptive_gk(f, lo, hi, rtol=rtol * 0.1, atol=atol * 0.1)
        total = val if total is None else total + val
        scale = max(atol, rtol * float(np.max(np.abs(total))))
        block = float(np.max(np.abs(val)))
        bound = tail_bound(hi) if tail_bound is not None else block
        if block < scale and bound < scale:
            return total
        lo = hi
        width *= growth
    raise QuadratureError(
        f"integrate_decaying: {max_blocks} blocks to R = {hi:.3e}, last block "
        f"{block:.3e}, tail bound {bound:.3e} above tolerance {scale:.3e}")


def gauss_legendre(n):
    """Cached Gauss-Legendre nodes and weights on [-1, 1]."""
    key = int(n)
    if key not in _GL_CACHE:
        _GL_CACHE[key] = np.polynomial.legendre.leggauss(key)
    return _GL_CACHE[key]


_GL_CACHE = {}


def euler_accelerate(terms):
    """Euler transform of a (near-)alternating series Sum(terms).

    Returns (estimate, error_estimate) using the standard averaging
    tableau on the partial sums.
    """
    s = np.cumsum(terms)
    best = s[-1]
    err = abs(terms[-1]) if len(terms) else 0.0
    row = s.astype(float)
    for _ in range(len(terms) - 1):
        row = 0.5 * (row[1:] + row[:-1])
        cand = row[-1]
        cand_err = abs(cand - best)
        if cand_err <= err:
            err = cand_err
            best = cand
        if len(row) < 2:
            break
    return best, err


def oscillatory_tail(f, edges_iter, rtol=1e-10, atol=1e-14, n_gl=16,
                     max_panels=4000, min_panels=12, window=96):
    """Sum integral panels between successive zeros of an oscillating factor.

    ``edges_iter`` yields an increasing sequence of breakpoints; the panel
    integrals form a (near-)alternating series.  The settled prefix is
    summed exactly and the last ``window`` terms go through the Euler
    averaging tableau, whose diagonal increment supplies the error
    estimate.
    """
    x0, w0 = gauss_legendre(n_gl)
    terms, prev, streak = [], None, 0
    for edge in edges_iter:
        if prev is None:
            prev = edge
            continue
        mid, half = 0.5 * (edge + prev), 0.5 * (edge - prev)
        nodes = mid + half * x0
        terms.append(half * float(np.dot(w0, f(nodes))))
        prev = edge
        if len(terms) >= min_panels and len(terms) % 4 == 0:
            w = min(len(terms), window)
            prefix = float(np.sum(terms[:-w]))
            best, err = euler_accelerate(np.array(terms[-w:]))
            total = prefix + best
            scale = max(atol, rtol * abs(total))
            streak = streak + 1 if err < scale else 0
            if streak >= 2:
                return total, err
        if len(terms) >= max_panels:
            break
    err, scale = math.inf, atol
    if terms:
        w = min(len(terms), window)
        prefix = float(np.sum(terms[:-w]))
        best, err = euler_accelerate(np.array(terms[-w:]))
        total = prefix + best
        scale = max(atol, rtol * max(abs(total), 1e-300))
        if err < 100 * scale:
            return total, err
    raise QuadratureError(
        f"oscillatory_tail: {len(terms)} panels, error estimate {err:.3e} "
        f"above tolerance {100 * scale:.3e}")
