"""Sample-path estimators: directional Holder regularity via the
variogram, graph box-counting dimension, semi-long-range-dependence
profiling of increment covariances, and the tempered scaling-law check.
"""

import math

import numpy as np

from . import _fast
from .covariance import CovarianceModel, IsotropicGaussianSpec

__all__ = [
    "EstimateError", "EstimateReport", "fit_loglog", "directional_holder",
    "box_dimension", "semi_lrd_profile", "scaling_law_check",
]


class EstimateError(ValueError):
    pass


class EstimateReport:
    """Estimator output: fitted slopes with standard errors, the scale
    window used, the theoretical target when known, and pass/fail."""

    def __init__(self, name, estimate, stderr, window, target=None,
                 tolerance=None, extras=None):
        self.name = name
        self.estimate = float(estimate)
        self.stderr = float(stderr)
        self.window = tuple(window)
        self.target = None if target is None else float(target)
        self.tolerance = tolerance
        self.extras = dict(extras or {})
        if self.target is not None and tolerance is not None:
            self.passed = abs(self.estimate - self.target) <= tolerance
        else:
            self.passed = None

    def to_json(self):
        return {"name": self.name, "estimate": self.estimate,
                "stderr": self.stderr, "window": list(self.window),
                "target": self.target, "tolerance": self.tolerance,
                "passed": self.passed, "extras": self.extras}

    def __repr__(self):
        return (f"EstimateReport({self.name}: {self.estimate:.4f} "
                f"+- {self.stderr:.4f}, target={self.target}, "
                f"passed={self.passed})")


def fit_loglog(x, y):
    """Least-squares slope of y against x with its standard error and R^2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3:
        raise EstimateError("need at least 3 points for a slope fit")
    a = np.vstack([x, np.ones_like(x)]).T
    coef, res, _, _ = np.linalg.lstsq(a, y, rcond=None)
    slope, intercept = coef
    fitted = a @ coef
    dof = max(x.size - 2, 1)
    s2 = float(np.sum((y - fitted) ** 2)) / dof
    sxx = float(np.sum((x - x.mean()) ** 2))
    stderr = math.sqrt(s2 / sxx) if sxx > 0 else math.inf
    sst = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum((y - fitted) ** 2)) / sst if sst > 0 else 1.0
    return slope, intercept, stderr, r2


def _collinear_values(realization, direction):
    """Site values along t * direction through the origin."""
    sites = realization.grid.sites()
    vals = realization.values[:, 0]
    r = np.asarray(direction, dtype=float)
    r = r / np.linalg.norm(r)
    t = sites @ r
    perp = sites - t[:, None] * r[None, :]
    on_line = np.linalg.norm(perp, axis=1) < 1e-9 * max(1.0, np.max(np.abs(t)))
    if np.sum(on_line) < 32:
        raise EstimateError("fewer than 32 collinear sites along direction")
    order = np.argsort(t[on_line])
    return t[on_line][order], vals[on_line][order]


def directional_holder(realizations=None, direction=None, variogram=None,
                       lags=None, window=(2, 16), target=None,
                       tolerance=None):
    """Holder-regularity estimate from the variogram slope.

    Monte-Carlo mode: pass ``realizations`` (scalar fields) and a
    ``direction``; the structure function E|X(t r) - X(0)|^2 is averaged
    over paths at lags window[0]..window[1] grid steps.  Analytic mode:
    pass ``variogram`` (a callable t -> E X(t)^2) and explicit ``lags``.
    The estimate is half the log-log slope.
    """
    if variogram is not None:
        if lags is None:
            raise EstimateError("analytic mode needs explicit lags")
        lags = np.asarray(lags, dtype=float)
        v = np.array([variogram(t) for t in lags])
        mode = "analytic"
    else:
        if not realizations:
            raise EstimateError("no realizations supplied")
        if np.ndim(realizations) == 0 or not isinstance(realizations, (list, tuple)):
            realizations = [realizations]
        acc = None
        for real in realizations:
            t, x = _collinear_values(real, direction)
            origin = np.argmin(np.abs(t))
            if abs(t[origin]) > 1e-12:
                raise EstimateError("grid line does not contain the origin")
            pos = t > t[origin]
            tt = t[pos] - t[origin]
            dx = (x[pos] - x[origin]) ** 2
            acc = dx if acc is None else acc + dx
            lag_values = tt
        v_all = acc / len(realizations)
        step = lag_values[0]
        sel = (lag_values >= window[0] * step * (1 - 1e-9)) & \
              (lag_values <= window[1] * step * (1 + 1e-9))
        lags = lag_values[sel]
        v = v_all[sel]
        mode = "monte_carlo"
    if lags.size < 5:
        raise EstimateError("need at least 5 lags inside the fit window")
    if np.any(v <= 0):
        raise EstimateError("degenerate variogram (nonpositive values)")
    slope, _, se, r2 = fit_loglog(np.log(lags), np.log(v))
    return EstimateReport("directional_holder", slope / 2.0, se / 2.0,
                          (float(lags[0]), float(lags[-1])), target=target,
                          tolerance=tolerance,
                          extras={"mode": mode, "r2": r2,
                                  "n_lags": int(lags.size),
                                  "scale_statistics":
                                      [[float(a), float(b)]
                                       for a, b in zip(lags, v)]})


def _box_count_2d(values, m, eps):
    """Box count over square patches of a gridded surface graph."""
    n1, n2 = values.shape
    c1, c2 = n1 // m, n2 // m
    blocks = values[:c1 * m, :c2 * m].reshape(c1, m, c2, m)
    hi = np.floor(blocks.max(axis=(1, 3)) / eps)
    lo = np.floor(blocks.min(axis=(1, 3)) / eps)
    return int(np.sum(hi - lo + 1))


def box_dimension(realizations, scales=None, boost=4.0, target=None,
                  tolerance=None):
    """Box-counting dimension of the graph of scalar paths (d = 1 or 2).

    Paths are normalized to unit range (values additionally stretched by
    ``boost`` so column ranges dominate the per-column floor) and counted
    with square boxes of dyadic side eps; the slope of log N(eps) against
    log(1/eps) over the supplied scales estimates the dimension.
    """
    if not isinstance(realizations, (list, tuple)):
        realizations = [realizations]
    first = realizations[0]
    d = first.grid.d
    if d not in (1, 2):
        raise EstimateError("box_dimension implemented for d in {1, 2}")
    if min(first.grid.counts) < 256:
        raise EstimateError("need at least 256 sites per axis")
    n_axis = min(first.grid.counts)
    if scales is None:
        scales = [2.0 ** (-j) for j in range(2, 7)]
    scales = sorted(float(s) for s in scales)[::-1]
    if len(scales) < 5:
        raise EstimateError("need at least 5 dyadic scales")
    dims = []
    for real in realizations:
        y = real.values[:, 0].astype(float)
        rng = y.max() - y.min()
        if rng == 0:
            y = np.zeros_like(y)
        else:
            # unit range, then stretched so column ranges dominate the
            # one-box-per-column floor at every counted scale
            y = boost * (y - y.min()) / rng
        counts = []
        for eps in scales:
            m = int(round(eps * (n_axis - 1)))
            if m < 1:
                raise EstimateError(f"scale {eps} below grid resolution")
            if d == 1:
                counts.append(_fast.box_count(y, m, eps))
            else:
                counts.append(_box_count_2d(
                    y.reshape(first.grid.counts), m, eps))
        slope, _, _, _ = fit_loglog(np.log(1.0 / np.asarray(scales)),
                                    np.log(np.asarray(counts, dtype=float)))
        dims.append(slope)
    dims = np.asarray(dims)
    est = float(dims.mean())
    se = float(dims.std(ddof=1) / math.sqrt(len(dims))) if len(dims) > 1 \
        else 0.0
    return EstimateReport("box_dimension", est, se,
                          (scales[-1], scales[0]), target=target,
                          tolerance=tolerance,
                          extras={"n_paths": len(dims),
                                  "scale_statistics":
                                      [[float(s), float(c)] for s, c in
                                       zip(scales, counts)]})


def _largest_single_sign_segment(lags, g):
    sign = np.sign(g)
    best = (0, 0)
    start = 0
    for i in range(1, len(g) + 1):
        if i == len(g) or sign[i] != sign[start]:
            if i - start > best[1] - best[0]:
                best = (start, i)
            start = i
    return lags[best[0]:best[1]], g[best[0]:best[1]]


def semi_lrd_profile(gamma_fn, lags_small, lags_large, lambda_target=None,
                     slope_tolerance=None):
    """Two-regime decay profile of the unit-increment covariance.

    ``gamma_fn`` maps an integer lag k to gamma(k) = Cov(X(k+1)-X(k),
    X(1)-X(0)).  Reports the small-lag log-log slope (hyperbolic regime)
    and the large-lag semilog slope (exponential regime, target about
    -lambda for the Bessel-tempered closed form).  An exponential window
    is declared when the semilog fit is tight (R^2 >= 0.9) and the slope
    is stable across the two halves of the window (within 25 percent).
    """
    gs = np.array([float(gamma_fn(k)) for k in lags_small])
    gl = np.array([float(gamma_fn(k)) for k in lags_large])
    lags_small = np.asarray(lags_small, dtype=float)
    lags_large = np.asarray(lags_large, dtype=float)
    # sign changes split the window; fit on the largest clean segment
    ls, gs = _largest_single_sign_segment(lags_small, gs)
    ll, gl = _largest_single_sign_segment(lags_large, gl)
    if len(ls) < 3 or len(ll) < 5:
        raise EstimateError("not enough single-sign lags in a fit window")
    small_slope, _, small_se, _ = fit_loglog(np.log(ls), np.log(np.abs(gs)))
    large_slope, _, large_se, r2 = fit_loglog(ll, np.log(np.abs(gl)))
    half = len(ll) // 2
    s1, _, _, _ = fit_loglog(ll[:half], np.log(np.abs(gl[:half])))
    s2, _, _, _ = fit_loglog(ll[half:], np.log(np.abs(gl[half:])))
    stable = abs(s1 - s2) <= 0.25 * abs(0.5 * (s1 + s2))
    exp_window = bool(r2 >= 0.9 and stable and large_slope < 0)
    return EstimateReport(
        "semi_lrd_profile", large_slope, large_se,
        (float(ll[0]), float(ll[-1])),
        target=None if lambda_target is None else -lambda_target,
        tolerance=slope_tolerance,
        extras={"small_slope": float(small_slope),
                "small_stderr": float(small_se),
                "r2_semilog": float(r2),
                "half_slopes": [float(s1), float(s2)],
                "exponential_window": exp_window})


def _scaled_cov(spec, c, x, x2):
    """c^H Cov_{c lambda}(x, x') c^{H^T} with the variant's effective
    Hurst exponent (the Bessel normalization shifts it to 2H - d/2 I)."""
    scaled = IsotropicGaussianSpec(spec.variant, spec.d, spec.n,
                                   c * spec.lambda_, spec.h_matrix)
    cov = CovarianceModel(scaled).evaluate(x, x2)
    h_eff = 2.0 * spec.h - spec.d / 2.0 if spec.variant == "IBTOFBF" \
        else spec.h
    factor = spec.p @ np.diag(c ** h_eff) @ np.linalg.inv(spec.p)
    return factor @ cov @ factor.T


def scaling_law_check(spec, c, sites, seed=None, n_draws=0,
                      synthesizer=None, rtol=1e-6):
    """Tempered operator-scaling identity check.

    Analytic part: Cov_lambda(c x, c x') must equal
    c^H Cov_{c lambda}(x, x') c^{H^T} on all site pairs.  When
    ``n_draws`` > 0 and a ``synthesizer(seed, n_draws) -> values at
    c*sites`` is supplied, the empirical variances are additionally
    compared within 3 standard errors.
    """
    sites = [np.atleast_1d(np.asarray(s, dtype=float)) for s in sites]
    model = CovarianceModel(spec)
    worst = 0.0
    for a in sites:
        for b in sites:
            lhs = model.evaluate(c * a, c * b)
            rhs = _scaled_cov(spec, c, a, b)
            scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-300)
            worst = max(worst, float(np.max(np.abs(lhs - rhs)) / scale))
    extras = {"c": c, "analytic_rel_error": worst}
    passed_mc = True
    if n_draws and synthesizer is not None:
        vals = synthesizer(seed, n_draws)      # (draws, len(sites))
        for i, a in enumerate(sites):
            emp = float(np.var(vals[:, i]))
            target = float(_scaled_cov(spec, c, a, a)[0, 0])
            se = emp * math.sqrt(2.0 / n_draws)
            extras[f"mc_site{i}"] = {"empirical": emp, "target": target,
                                     "se": se}
            if abs(emp - target) > 3.0 * se:
                passed_mc = False
    report = EstimateReport("scaling_law_check", worst, 0.0, (0, 0),
                            target=0.0, tolerance=rtol, extras=extras)
    report.passed = bool(worst <= rtol and passed_mc)
    return report
