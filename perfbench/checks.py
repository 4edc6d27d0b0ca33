"""Correctness checks of job outputs, run outside the timed region.

Every check returns ``None`` when the output is correct, or a one-line
reason.  Tolerances:

* every artifact listed in ``manifest.json`` matches its sha256 digest;
* every draw loads (the ``.trf`` loader rejects non-finite values), the
  job wrote ``n_draws`` of them, and each is 0 at the origin site within
  1e-12 of the draw's largest magnitude;
* ``variance``: at the site farthest from the origin, the sample variance
  over the draws matches the reference variance within 5 standard errors,
  ``5 * var * sqrt(2 / n_draws)``, per component;
* ``cov``: the covariance table is symmetric and obeys Cauchy-Schwarz,
  both within 1e-12 of its largest entry;
* ``xcheck``: the report says ok at the config's ``rtol``;
* ``holder``: the Monte-Carlo Hölder estimate lies within 0.4 of the
  analytic-mode estimate on the covariance module's ITOFBF variogram over
  the same lags.  0.4 is 5 times the 0.08 standard deviation of the
  difference measured over 40 seeds at 64 paths;
* ``box``: the box-counting dimension of a continuous path graph lies in
  [1, 2];
* ``semi_lrd``: the report passes its slope target (-lambda within
  0.2 lambda) and finds an exponential window.
"""

import csv
import glob
import hashlib
import json
import math
import os

import numpy as np

ORIGIN_RTOL = 1e-12
N_SE = 5.0
HOLDER_TOL = 0.4
COV_RTOL = 1e-12


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def manifest_outputs(out_dir):
    """Output digests recorded by the run, or None if there is none."""
    path = os.path.join(out_dir, "manifest.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)["outputs"]


def _digests(out_dir):
    outputs = manifest_outputs(out_dir)
    if outputs is None:
        return "no manifest.json"
    for name, digest in sorted(outputs.items()):
        if _sha256(os.path.join(out_dir, name)) != digest:
            return f"{name}: sha256 differs from manifest"
    return None


def _load_draws(job, out_dir):
    from trfield.simulate import Realization, SimulationError
    paths = sorted(glob.glob(os.path.join(out_dir, "draw_*.trf")))
    if len(paths) != job.config["n_draws"]:
        return None, f"{len(paths)} draws written, {job.config['n_draws']} asked"
    try:
        return [Realization.load(p) for p in paths], None
    except SimulationError as exc:
        return None, f"draw does not load: {exc}"


def _pinned(draws):
    sites = draws[0].grid.sites()
    at_origin = np.flatnonzero(np.all(sites == 0.0, axis=1))
    if at_origin.size != 1:
        return None, "origin is not a grid site"
    origin = int(at_origin[0])
    for j, real in enumerate(draws):
        scale = float(np.max(np.abs(real.values)))
        if np.max(np.abs(real.values[origin])) > ORIGIN_RTOL * scale:
            return None, f"draw {j} is {real.values[origin].tolist()} at the origin"
    return sites, None


def reference_variance(job, x):
    """Per-component variance of the job's field at site ``x``."""
    from trfield.covariance import (CovarianceModel, IsotropicGaussianSpec,
                                    TFBMCovariance, itofbf_variance)
    kind = job.info["reference"]
    spec_doc = job.config.get("spec")
    if kind == "itofbf_ma":
        # the MA field with Euclidean phi is the ITOFBF field: the paper's
        # cross-check between the two representations
        spec = IsotropicGaussianSpec("ITOFBF", 1, 1, job.info["lam"],
                                     [[job.info["h"]]])
        return np.diag(itofbf_variance(spec, x))
    if kind == "frequency_sum":
        return _frequency_sum_variance(job, x)
    if spec_doc["variant"] == "TFBM_LINE":
        model = TFBMCovariance(spec_doc["h"], spec_doc["lambda"])
    else:
        model = CovarianceModel(IsotropicGaussianSpec.from_json(spec_doc))
    return np.diag(model.variance(x))


def _frequency_sum_variance(job, x):
    """Expected variance of the frequency sum itself.

    No closed form exists for an anisotropic phi, so this checks the
    sampler against its own density: Var X_i(x) = 2 dv sum_m
    |e^{-i<x, xi_m>} - 1|^2 sum_j |A_m[i, j]|^2 over the half grid.
    """
    from trfield.kernels import FieldSpec
    from trfield.simulate import (_spectral_density_for, spectral_tail_cutoff,
                                  symmetric_freq_grid)
    spec = FieldSpec.from_json(job.config["spec"])
    density, _, p_decay, lam = _spectral_density_for(spec)
    xi_max = spectral_tail_cutoff(p_decay, lam, spec.d)
    xi, dvol = symmetric_freq_grid(xi_max, job.config["freq_count"], spec.d)
    amp = density(xi)
    phase2 = np.abs(np.exp(-1j * xi @ np.asarray(x)) - 1.0) ** 2
    return 2.0 * dvol * np.einsum("m,mij->i", phase2, np.abs(amp) ** 2)


def _variance(job, draws, sites, refs):
    far = int(np.argmax(np.linalg.norm(sites, axis=1)))
    if job.name not in refs:
        refs[job.name] = reference_variance(job, sites[far])
    ref = refs[job.name]
    n_draws = len(draws)
    sample = np.mean([real.values[far] ** 2 for real in draws], axis=0)
    bound = N_SE * ref * math.sqrt(2.0 / n_draws)
    if np.any(np.abs(sample - ref) > bound):
        return (f"variance at {sites[far].tolist()}: sample "
                f"{sample.tolist()} vs reference {ref.tolist()} "
                f"(5 SE = {bound.tolist()})")
    return None


def _report(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _holder(job, rep, refs):
    from trfield.covariance import IsotropicGaussianSpec, itofbf_variance
    from trfield.estimate import directional_holder
    if job.name not in refs:
        spec = IsotropicGaussianSpec("ITOFBF", 1, 1, job.info["lam"],
                                     [[job.info["h"]]])
        lags = np.arange(2, 17) * job.info["spacing"]
        refs[job.name] = directional_holder(
            variogram=lambda t: itofbf_variance(spec, [t])[0, 0],
            lags=lags).estimate
    target = refs[job.name]
    if abs(rep["estimate"] - target) > HOLDER_TOL:
        return (f"Hölder estimate {rep['estimate']:.4f} vs analytic "
                f"{target:.4f} (tolerance {HOLDER_TOL})")
    return None


def _cov(out_dir):
    with open(os.path.join(out_dir, "covariance.csv")) as fh:
        rows = list(csv.DictReader(fh))
    cov = {(r["x"], r["x2"]): float(r["value"]) for r in rows}
    scale = max(abs(v) for v in cov.values())
    for (x, x2), value in cov.items():
        if abs(value - cov[x2, x]) > COV_RTOL * scale:
            return f"Cov({x}, {x2}) = {value!r} but Cov({x2}, {x}) = {cov[x2, x]!r}"
        if value * value > cov[x, x] * cov[x2, x2] * (1.0 + COV_RTOL) + \
                COV_RTOL * scale ** 2:
            return f"Cov({x}, {x2}) = {value!r} breaks Cauchy-Schwarz"
    return None


def check(job, out_dir, refs):
    """None if the job's output in ``out_dir`` is correct, else why not.

    ``refs`` caches reference values by job name across passes.
    """
    problem = _digests(out_dir)
    if problem:
        return problem
    if job.command == "simulate":
        draws, problem = _load_draws(job, out_dir)
        if problem:
            return problem
        sites, problem = _pinned(draws)
        if problem:
            return problem
        if job.config["method"] == "ma" and \
                job.config["spec"]["measure"]["variant"] == "sas":
            frac = _report(out_dir, "sas_truncation.json")["fraction"]
            if frac > 0.10:
                return f"SaS truncation fraction {frac:.3f} above 0.10"
        if job.check == "variance":
            return _variance(job, draws, sites, refs)
        return None
    if job.check == "cov":
        return _cov(out_dir)
    if job.check == "xcheck":
        rep = _report(out_dir, "xcheck_report.json")
        if not rep["ok"] or rep["worst_rel_error"] > rep["rtol"]:
            return f"xcheck worst rel error {rep['worst_rel_error']:.3e}"
        return None
    rep = _report(out_dir, "estimate_report.json")
    if job.check == "holder":
        return _holder(job, rep, refs)
    if job.check == "box":
        if not 1.0 <= rep["estimate"] <= 2.0:
            return f"box dimension {rep['estimate']:.4f} outside [1, 2]"
        return None
    if job.check == "semi_lrd":
        if rep["passed"] is not True or \
                not rep["extras"]["exponential_window"]:
            return (f"semi-LRD slope {rep['estimate']:.4f} vs target "
                    f"{rep['target']} (passed={rep['passed']}, window="
                    f"{rep['extras']['exponential_window']})")
        return None
    raise ValueError(f"unknown check '{job.check}'")
