"""Time the hot numeric kernels of ``trfield._fast``.

Run as ``python -m trfield.benchmark``.  Each workload is run five times
and the best wall time is reported, one row per kernel.
"""

import time

import numpy as np

from . import _fast


def _time(fn, repeats=5):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _workloads():
    rng = np.random.default_rng(0)
    u = np.exp(rng.uniform(np.log(1e-3), np.log(400.0), 200000))
    z = -np.exp(rng.uniform(np.log(1e-3), np.log(1e6), 100000))
    theta = (rng.random(2000000) - 0.5) * np.pi
    w = rng.standard_exponential(2000000)
    sites = np.linspace(0.0, 1.0, 512)
    nodes = np.linspace(-40.0, 41.0, 8192)
    # moving-average Riemann-sum geometry: sites and cell midpoints on one
    # lattice of step 1/32, so each distinct lag is evaluated once
    lattice_sites = np.arange(513) / 32 - 4.0
    lattice_nodes = (np.arange(8192) + 0.5) / 32 - 124.0
    path = np.cumsum(rng.standard_normal(65536))
    path = 4.0 * (path - path.min()) / (path.max() - path.min())
    return [
        ("bessel_k batch (nu=0.45, 2e5 args)",
         lambda: _fast.kv_batch(0.45, u)),
        ("hyp2f1 batch (1e5 args)",
         lambda: _fast.hyp2f1_batch(0.65, 1.15, 0.5, z)),
        ("CMS stable transform (2e6 variates)",
         lambda: _fast.cms_batch(theta, w, 1.5)),
        ("MA kernel matrix, dense (512 x 8192)",
         lambda: _fast.ma_matrix_1d(sites, nodes, 0.2, 0.5)),
        ("MA kernel matrix, lag lattice (513 x 8192)",
         lambda: _fast.ma_matrix_1d(lattice_sites, lattice_nodes, 0.2, 0.5)),
        ("box count (65536 samples)",
         lambda: _fast.box_count(path, 64, 2.0 ** -6)),
    ]


def main():
    rows = [(name, _time(fn)) for name, fn in _workloads()]
    width = max(len(name) for name, _ in rows)
    print(f"{'workload':<{width}}  {'seconds':>9}")
    for name, seconds in rows:
        print(f"{name:<{width}}  {seconds:9.4f}")


if __name__ == "__main__":
    main()
