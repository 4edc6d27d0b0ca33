"""Benchmark the jitted hot kernels against their pure-numpy twins.

Run as ``python -m trfield.benchmark``.  Each workload is executed
through both implementations regardless of the TRFIELD_DISABLE_NUMBA
setting, results are cross-checked, and timings reported.  A kernel with
one implementation (K_nu) is timed once, in the numpy column.
"""

import time

import numpy as np

from . import _fast
from ._accel import NUMBA_ENABLED


def _time(fn, repeats=5):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _workloads():
    rng = np.random.default_rng(0)
    u = np.exp(rng.uniform(np.log(1e-3), np.log(400.0), 200000))
    z = -np.exp(rng.uniform(np.log(1e-3), np.log(1e6), 100000))
    theta = (rng.random(2000000) - 0.5) * np.pi
    w = rng.standard_exponential(2000000)
    sites = np.linspace(0.0, 1.0, 512)
    nodes = np.linspace(-40.0, 41.0, 8192)
    path = np.cumsum(rng.standard_normal(65536))
    path = 4.0 * (path - path.min()) / (path.max() - path.min())
    return [
        ("bessel_k batch (nu=0.45, 2e5 args)",
         None,
         lambda: _fast.kv_batch(0.45, u)),
        ("hyp2f1 batch (1e5 args)",
         lambda: _fast._hyp2f1_batch_jit(0.65, 1.15, 0.5, z),
         lambda: _fast._hyp2f1_batch_np(0.65, 1.15, 0.5, z)),
        ("CMS stable transform (2e6 variates)",
         lambda: _fast._cms_batch_jit(theta, w, 1.5),
         lambda: _fast._cms_batch_np(theta, w, 1.5)),
        ("MA kernel matrix (512 x 8192)",
         lambda: _fast._ma_matrix_1d_jit(sites, nodes, 0.2, 0.5),
         lambda: _fast._ma_matrix_1d_np(sites, nodes, 0.2, 0.5)),
        ("box count (65536 samples)",
         lambda: _fast._box_count_jit(path, 64, 2.0 ** -6),
         lambda: _fast._box_count_np(path, 64, 2.0 ** -6)),
    ]


def main():
    print(f"numba available and enabled: {NUMBA_ENABLED}")
    rows = []
    for name, jit_fn, np_fn in _workloads():
        t_np, out_np = _time(np_fn)
        if NUMBA_ENABLED and jit_fn is not None:
            jit_fn()                      # trigger compilation
            t_jit, out_jit = _time(jit_fn)
            close = np.allclose(np.asarray(out_jit, dtype=float),
                                np.asarray(out_np, dtype=float),
                                rtol=1e-10, atol=1e-12)
            rows.append((name, t_jit, t_np, t_np / t_jit, close))
        else:
            rows.append((name, float("nan"), t_np, float("nan"), True))
    width = max(len(r[0]) for r in rows)
    print(f"{'workload':<{width}}  {'numba':>9}  {'numpy':>9}  "
          f"{'speedup':>8}  match")
    for name, t_jit, t_np, speed, close in rows:
        print(f"{name:<{width}}  {t_jit:9.4f}  {t_np:9.4f}  "
              f"{speed:8.2f}  {close}")


if __name__ == "__main__":
    main()
