"""The three seeded workloads: fixed job lists of ``trfield`` CLI configs.

A workload is a list of jobs.  Each job is one ``trfield <command>``
invocation on a generated JSON config, plus the name of the correctness
check the benchmark applies to its output.  The seed draws the Hurst
values, the tempering lambda and the position of the origin inside each
site grid, within the ranges below; sizes are fixed per workload.

Site grids use power-of-two spacings, so the origin is an exact grid point
and every draw must be exactly 0 there.
"""

import random

WORKLOADS = ("exact_gram", "ma_stream", "spectral_xcheck")

# Seed-drawn parameter ranges.  They are kept narrow so that the amount of
# quadrature work, which depends on H and lambda, varies little by seed.
H_RANGE = (0.70, 0.75)
H2_RANGE = (0.55, 0.60)          # second eigenvalue of operator H
LAMBDA_RANGE = (0.50, 0.55)
E2 = [[1.0, 0.0], [0.0, 1.5]]    # anisotropic domain exponent for d = 2

# Full sizes, and the shortened ones the benchmark's own test uses.
SIZES = {
    False: {
        "ib1_sites": 25, "ib_n2_sites": 9, "ib2_side": 4, "it1_sites": 17,
        "tfbm_sites": 1025, "exact_draws": 64,
        "ma1_sites": 513, "ma1_nodes": 8193, "ma1_draws": 64,
        "tfsm_times": 513, "tfsm_draws": 128, "ma2_side": 7,
        "ma2_nodes": 129, "rad_nodes": 25, "mab_sites": 16, "mab_nodes": 513,
        "sp1_sites": 513, "sp1_freq": 1024, "sp2_side": 16, "sp2_freq": 32,
        "fh_side": 8, "fh_freq": 32, "spec_draws": 32,
    },
    True: {
        "ib1_sites": 9, "ib_n2_sites": 5, "ib2_side": 3, "it1_sites": 9,
        "tfbm_sites": 257, "exact_draws": 16,
        "ma1_sites": 257, "ma1_nodes": 4097, "ma1_draws": 16,
        "tfsm_times": 65, "tfsm_draws": 16, "ma2_side": 3,
        "ma2_nodes": 33, "rad_nodes": 9, "mab_sites": 4, "mab_nodes": 129,
        "sp1_sites": 65, "sp1_freq": 256, "sp2_side": 4, "sp2_freq": 8,
        "fh_side": 4, "fh_freq": 8, "spec_draws": 8,
    },
}


class Job:
    """One CLI invocation: ``command``, its ``config`` document, the
    correctness ``check`` to run on its output and that check's inputs."""

    def __init__(self, name, command, config, check, **info):
        self.name = name
        self.command = command
        self.config = config
        self.check = check
        self.info = info

    @property
    def n_values(self):
        """Field values a successful ``simulate`` job writes."""
        if self.command != "simulate":
            return 0
        counts = self.config["grid"]["counts"]
        sites = 1
        for c in counts:
            sites *= c
        return sites * self.info.get("n", 1) * self.config["n_draws"]


def _grid(rng, counts, spacing):
    """Grid with the given spacing whose origin sits at a seed-drawn
    index on each axis (within the first quarter, at least one step in)."""
    ranges = []
    for c in counts:
        k = rng.randint(1, max(1, (c - 1) // 4))
        ranges.append([-k * spacing, (c - 1 - k) * spacing])
    return {"ranges": ranges, "counts": list(counts)}


def _iso(variant, d, lam, h):
    return {"variant": variant, "d": d, "n": len(h), "lambda": lam, "H": h}


def _field(flavor, d, lam, h, e, phi, measure=None):
    return {"flavor": flavor, "d": d, "n": len(h), "lambda": lam, "E": e,
            "H": h, "phi": phi, "measure": measure or {"variant": "gaussian"}}


def _simulate(method, seed, draws, spec, grid, **extra):
    doc = {"command": "simulate", "method": method, "seed": seed,
           "n_draws": draws, "spec": spec, "grid": grid}
    doc.update(extra)
    return doc


def _widen(grid, margin):
    """Integration range covering the site grid plus ``margin`` per side."""
    return [[lo - margin, hi + margin] for lo, hi in grid["ranges"]]


def build(workload, seed, quick=False):
    """Job list of ``workload`` for ``seed`` (same seed, same jobs)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload '{workload}'")
    rng = random.Random(f"{workload}:{seed}")
    s = SIZES[quick]

    def hurst():
        return round(rng.uniform(*H_RANGE), 6)

    def lam():
        return round(rng.uniform(*LAMBDA_RANGE), 6)

    def sim_seed():
        return rng.randint(1, 2 ** 31 - 1)

    return globals()["_" + workload](rng, s, hurst, lam, sim_seed)


def _exact_gram(rng, s, hurst, lam, sim_seed):
    draws = s["exact_draws"]
    h_op = [[hurst(), 0.1], [0.0, round(rng.uniform(*H2_RANGE), 6)]]
    jobs = [
        ("ib1", _iso("IBTOFBF", 1, lam(), [[hurst()]]),
         _grid(rng, [s["ib1_sites"]], 1 / 32)),
        ("ib_n2", _iso("IBTOFBF", 1, lam(), h_op),
         _grid(rng, [s["ib_n2_sites"]], 1 / 16)),
        ("ib2", _iso("IBTOFBF", 2, lam(), [[hurst()]]),
         _grid(rng, [s["ib2_side"]] * 2, 1 / 4)),
        ("it1", _iso("ITOFBF", 1, lam(), [[hurst()]]),
         _grid(rng, [s["it1_sites"]], 1 / 32)),
        # the 2 x 2 grid has the origin at a corner: two distinct radii
        ("it2", _iso("ITOFBF", 2, lam(), [[hurst()]]),
         {"ranges": [[0.0, 0.5], [0.0, 0.5]], "counts": [2, 2]}),
        ("tfbm", {"variant": "TFBM_LINE", "h": hurst(), "lambda": lam()},
         _grid(rng, [s["tfbm_sites"]], 1 / 1024)),
    ]
    points = [[round(rng.uniform(-1.0, 1.0), 6)] for _ in range(6)]
    cov = Job("cov", "cov",
              {"command": "cov", "method": "closed_form",
               "spec": _iso("IBTOFBF", 1, lam(), [[hurst()]]),
               "pairs": [[x, x2] for x in points for x2 in points]},
              "cov")
    return [Job(name, "simulate",
                _simulate("gaussian_exact", sim_seed(), draws, spec, grid),
                "variance", n=spec.get("n", 1), reference="covariance")
            for name, spec, grid in jobs] + [cov]


def _ma_stream(rng, s, hurst, lam, sim_seed):
    h, lm = hurst(), lam()
    ma_spec = _field("MA", 1, lm, [[h]], [[1.0]], {"variant": "euclidean"})
    grid1 = _grid(rng, [s["ma1_sites"]], 1 / 32)
    # tempering radius 2 ln(1e10) / lambda < 93 for lambda >= 0.5
    igrid1 = {"ranges": _widen(grid1, 120.0), "counts": [s["ma1_nodes"]]}
    ma1 = Job("ma1", "simulate",
              _simulate("ma", sim_seed(), s["ma1_draws"], ma_spec, grid1,
                        integration_grid=igrid1, csv=True),
              "variance", reference="itofbf_ma", h=h, lam=lm)
    sas_spec = dict(ma_spec, measure={"variant": "sas", "alphas": [1.5]})
    sas1 = Job("sas1", "simulate",
               _simulate("ma", sim_seed(), s["ma1_draws"], sas_spec, grid1,
                         integration_grid=igrid1),
               "pinned")
    tgrid = _grid(rng, [s["tfsm_times"]], 1 / 32)
    t_lo, t_hi = tgrid["ranges"][0]
    tfsm_doc = {"command": "simulate", "method": "tfsm", "seed": sim_seed(),
                "n_draws": s["tfsm_draws"], "hurst": hurst(), "alpha": 1.5,
                "lambda": lam(), "grid": tgrid,
                "integration_grid": {"ranges": [[t_lo - 120.0, t_hi]],
                                     "counts": [s["ma1_nodes"]]}}
    tfsm = Job("tfsm", "simulate", tfsm_doc, "pinned")
    diag = _field("MA", 2, lam(), [[hurst()]], E2,
                  {"variant": "diag_power", "rho": 2.0})
    grid2 = _grid(rng, [s["ma2_side"]] * 2, 1 / 8)
    ma2 = Job("ma2_diag", "simulate",
              _simulate("ma", sim_seed(), 16, diag, grid2,
                        integration_grid={"ranges": [[-250.0, 250.0]] * 2,
                                          "counts": [s["ma2_nodes"]] * 2}),
              "pinned")
    radial = _field("MA", 2, lam(), [[hurst()]], E2, {"variant": "radial"})
    rad = Job("ma2_radial", "simulate",
              _simulate("ma", sim_seed(), 16, radial, _grid(rng, [3, 3], 1 / 4),
                        integration_grid={"ranges": [[-100.0, 100.0]] * 2,
                                          "counts": [s["rad_nodes"]] * 2}),
              "pinned")
    mab_spec = _field("MA_B", 1, lam(), [[hurst()]], [[1.0]],
                      {"variant": "euclidean"})
    grid_b = _grid(rng, [s["mab_sites"]], 1 / 16)
    # the Bessel flavor's tempering radius is twice the MA one (< 185)
    mab = Job("mab", "simulate",
              _simulate("ma", sim_seed(), 16, mab_spec, grid_b,
                        integration_grid={"ranges": _widen(grid_b, 200.0),
                                          "counts": [s["mab_nodes"]]}),
              "pinned")
    draws = [f"{{out}}/ma1/draw_{j:04d}.trf" for j in range(s["ma1_draws"])]
    holder = Job("holder", "estimate",
                 {"command": "estimate", "estimator": "directional_holder",
                  "realizations": draws, "direction": [1.0]},
                 "holder", h=h, lam=lm, spacing=1 / 32)
    box = Job("box", "estimate",
              {"command": "estimate", "estimator": "box_dimension",
               "realizations": draws},
              "box")
    return [ma1, sas1, tfsm, ma2, rad, mab, holder, box]


def _spectral_xcheck(rng, s, hurst, lam, sim_seed):
    draws = s["spec_draws"]
    lm = lam()
    grid1 = _grid(rng, [s["sp1_sites"]], 1 / 256)
    sp1 = Job("sp_it1", "simulate",
              _simulate("spectral", sim_seed(), draws,
                        _iso("ITOFBF", 1, lm, [[hurst()]]), grid1,
                        freq_count=s["sp1_freq"]),
              "variance", reference="covariance")
    # H = 1/2 is the Brownian-like case; it is kept even while it fails
    half = Job("sp_it1_half", "simulate",
               _simulate("spectral", sim_seed(), draws,
                         _iso("ITOFBF", 1, lm, [[0.5]]), grid1,
                         freq_count=s["sp1_freq"]),
               "variance", reference="covariance")
    sp2 = Job("sp_ib2", "simulate",
              _simulate("spectral", sim_seed(), draws,
                        _iso("IBTOFBF", 2, lam(), [[hurst()]]),
                        _grid(rng, [s["sp2_side"]] * 2, 1 / 16),
                        freq_count=s["sp2_freq"]),
              "variance", reference="covariance")
    h_op = [[hurst(), 0.1], [0.0, round(rng.uniform(*H2_RANGE), 6)]]
    fh_spec = _field("H", 2, lam(), h_op, E2,
                     {"variant": "diag_power", "rho": 2.0})
    fh = Job("sp_fh", "simulate",
             _simulate("spectral", sim_seed(), draws, fh_spec,
                       _grid(rng, [s["fh_side"]] * 2, 1 / 16),
                       freq_count=s["fh_freq"]),
             "variance", reference="frequency_sum", n=2)

    def xcheck(name, check, d):
        # x and x' on opposite sides of the origin along a seeded direction,
        # with norms near 1/2: the quadrature work depends on the norms only
        u = [rng.gauss(0.0, 1.0) for _ in range(d)]
        norm = sum(c * c for c in u) ** 0.5
        r1, r2 = rng.uniform(0.45, 0.55), -rng.uniform(0.45, 0.55)
        pair = [[round(r * c / norm, 6) for c in u] for r in (r1, r2)]
        doc = {"command": "xcheck", "check": check, "h": hurst(),
               "lambda": lam(), "d": d, "rtol": 1e-4, "pairs": [pair]}
        return Job(name, "xcheck", doc, "xcheck")

    semi_lam = lam()
    semi = Job("semi_lrd", "estimate",
               {"command": "estimate", "estimator": "semi_lrd",
                "spec": _iso("IBTOFBF", 1, semi_lam, [[hurst()]]),
                "lambda_target": semi_lam,
                "slope_tolerance": round(0.2 * semi_lam, 6)},
               "semi_lrd")
    return [sp1, half, sp2, fh,
            xcheck("xc_ib2", "ibtofbf_closed_vs_spectral", 2),
            xcheck("xc_it1", "itofbf_kernel_vs_spectral", 1),
            xcheck("xc_it3", "itofbf_kernel_vs_spectral", 3),
            semi]
