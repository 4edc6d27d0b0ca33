"""Experiment runner: validates specs, runs covariance/simulation/estimator
pipelines from JSON configs, writes reproducible artifacts.

Exit codes: 0 success, 2 config/schema violation, 3 existence-check
failure, 4 numerical tolerance failure, 5 I/O error.

A run writes its artifacts atomically (temp file, then rename) together
with ``manifest.json`` recording the config digest, input digests and
output digests; rerunning an identical config with the same seed and
build reproduces identical payload digests.

Config documents (see README for full examples)::

    {"command": "check",    "spec": {<FieldSpec>}}
    {"command": "cov",      "spec": {<IsotropicGaussianSpec>},
     "method": "closed_form", "pairs": [[[x...],[x2...]], ...]}
    {"command": "simulate", "method": "gaussian_exact" | "spectral" |
     "ma" | "tfsm", "spec": {...}, "grid": {...}, "seed": 1,
     "n_draws": 2, ...}
    {"command": "estimate", "estimator": "directional_holder" |
     "box_dimension" | "semi_lrd", ...}
    {"command": "xcheck",   "check": "ibtofbf_closed_vs_spectral" |
     "itofbf_kernel_vs_spectral", "h": 0.7, "lambda": 1.0, "d": 1,
     "pairs": [...], "rtol": 1e-4}
"""

import argparse
import hashlib
import json
import os
import secrets
import sys
import time

import numpy as np

from . import __version__
from .aniso import AnisoError
from .covariance import (CovarianceError, CovarianceModel,
                         IsotropicGaussianSpec, ibtofbf_increment_cov)
from .estimate import (EstimateError, box_dimension, directional_holder,
                       semi_lrd_profile)
from .kernels import FieldSpec, KernelError, existence_check
from .matfun import MatfunError
from .quadrature import QuadratureError
from .simulate import (GridSpec, Realization, SimulationConfigError,
                       SimulationError, SimulationToleranceError,
                       _check_seed, gaussian_exact_many, ma_synthesis,
                       sas_truncation_report, spectral_synthesis,
                       tfsm_synthesis, tfsm_truncation_report)
from .specfun import SpecfunError

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_EXISTENCE = 3
EXIT_TOLERANCE = 4
EXIT_IO = 5


class SchemaError(ValueError):
    pass


def _np_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _require(doc, key, where="config"):
    if key not in doc:
        raise SchemaError(f"{where}: missing required field '{key}'")
    return doc[key]


def _integer(value, name, low=None):
    """``value`` if it is a JSON integer (not a bool, float or string) of at
    least ``low``; else SchemaError."""
    if type(value) is not int or (low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise SchemaError(f"{name} must be an integer{bound}, got {value!r}")
    return value


def _number(value, name):
    """``value`` as a float if it is a JSON number; else SchemaError."""
    if type(value) not in (int, float):
        raise SchemaError(f"{name} must be a number, got {value!r}")
    return float(value)


def _numbers(value, name):
    """``value`` as an at least 1-d float array if it is a JSON number or a
    regular list of numbers; else SchemaError."""
    try:
        arr = np.atleast_1d(np.asarray(value))
    except ValueError:                  # a ragged list
        arr = np.array([None])
    if arr.dtype.kind not in "iuf":
        raise SchemaError(f"{name} must be numbers, got {value!r}")
    return arr.astype(float)


def _pairs(config, where):
    """The config's "pairs" as (2, d) float arrays, one per [x, x2] of two
    points of one length d (a number is a point of length 1)."""
    pairs = _require(config, "pairs")
    out = [_numbers(p, f"{where}: pair") for p in pairs] \
        if isinstance(pairs, list) else None
    if out is None or any(len(p) != 2 or p.ndim > 2 for p in out):
        raise SchemaError(f"{where}: pairs must be a list of [x, x2]")
    return [p.reshape(2, -1) for p in out]


def _paths(value, name):
    """``value`` if it is a list of file paths; else SchemaError."""
    if not isinstance(value, list) or not all(isinstance(p, str)
                                              for p in value):
        raise SchemaError(f"{name} must be a list of paths, got {value!r}")
    return value


def _sha256_bytes(blob):
    return hashlib.sha256(blob).hexdigest()


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class _Run:
    """Output directory with atomic writes and a manifest."""

    def __init__(self, out_dir, config_blob, inputs=()):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.manifest = {
            "config_sha256": _sha256_bytes(config_blob),
            "version": __version__,
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "inputs": {p: _sha256_file(p) for p in inputs},
            "outputs": {},
        }

    def _replace(self, name, blob):
        """Write ``name`` through a fresh temp file and a rename; like
        open(), the file gets mode 0666 less the umask."""
        path = os.path.join(self.out_dir, name)
        tmp = os.path.join(self.out_dir, ".tmp-" + secrets.token_hex(8))
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
        with os.fdopen(os.open(tmp, flags, 0o666), "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
        return path

    def write_bytes(self, name, blob):
        path = self._replace(name, blob)
        self.manifest["outputs"][name] = _sha256_bytes(blob)
        return path

    def write_json(self, name, doc):
        return self.write_bytes(name, json.dumps(
            doc, indent=2, sort_keys=True, default=_np_default).encode("utf-8"))

    def finish(self):
        self._replace("manifest.json", json.dumps(
            self.manifest, indent=2, sort_keys=True).encode("utf-8"))


# ---------------------------------------------------------------------------
# commands

def _cmd_check(config, run, args):
    spec = FieldSpec.from_json(_require(config, "spec"))
    report = existence_check(spec)
    run.write_json("existence_report.json", report.to_json())
    run.finish()
    if not report.ok:
        print(f"existence check FAILED: {report.margins}", file=sys.stderr)
        return EXIT_EXISTENCE
    print(f"existence check ok: {report.margins}")
    return EXIT_OK


def _cmd_cov(config, run, args):
    spec_doc = _require(config, "spec")
    model = CovarianceModel(IsotropicGaussianSpec.from_json(spec_doc),
                            config.get("method"))
    lines = ["x,x2,i,j,value"]
    pairs = _pairs(config, "cov")
    # one V batch for all pairs: points zero-padded to the longest, which
    # leaves |x|, |x2| and |x - x2| unchanged to the last bit
    stacked = np.zeros((2, len(pairs), max((p.shape[1] for p in pairs),
                                            default=0)))
    for k, p in enumerate(pairs):
        stacked[:, k, :p.shape[1]] = p
    covs = model.evaluate(*stacked) if pairs else []
    for (x, x2), cov in zip(pairs, covs):
        for i in range(cov.shape[0]):
            for j in range(cov.shape[1]):
                lines.append('"%s","%s",%d,%d,%s' % (
                    " ".join(repr(float(v)) for v in x),
                    " ".join(repr(float(v)) for v in x2), i, j,
                    repr(float(cov[i, j]))))
    run.write_bytes("covariance.csv", ("\n".join(lines) + "\n").encode())
    run.write_json("covariance_meta.json", {
        "spec": spec_doc, "method": model.method, "rtol": model.rtol})
    run.finish()
    return EXIT_OK


def _refuse_truncation(run, report):
    print(f"SaS truncation error {report['fraction']:.1%} exceeds 10% at "
          f"site {report['site']}; refusing grid", file=sys.stderr)
    run.finish()
    return EXIT_TOLERANCE


def _cmd_simulate(config, run, args):
    seed = config.get("seed", args.seed)
    if seed is None:
        raise SchemaError("simulate: a seed is mandatory")
    seed = _check_seed(_integer(seed, "simulate: seed"))
    method = _require(config, "method")
    n_draws = _integer(config.get("n_draws", 1), "simulate: n_draws", 1)
    grid = GridSpec.from_json(_require(config, "grid"))
    if method == "gaussian_exact":
        model = CovarianceModel(IsotropicGaussianSpec.from_json(
            _require(config, "spec")))
        reals = gaussian_exact_many(model, grid, seed, n_draws)
    elif method == "spectral":
        count = _integer(config.get("freq_count", 512),
                         "simulate: freq_count", 2)
        spec_doc = _require(config, "spec")
        if "flavor" in spec_doc:
            spec = FieldSpec.from_json(spec_doc)
        else:
            spec = IsotropicGaussianSpec.from_json(spec_doc)
        reals = spectral_synthesis(spec, grid, seed, n_draws=n_draws,
                                   count_per_axis=count)
        if n_draws == 1:
            reals = [reals]
    elif method == "ma":
        spec = FieldSpec.from_json(_require(config, "spec"))
        report = existence_check(spec)
        if not report.ok:
            run.write_json("existence_report.json", report.to_json())
            run.finish()
            print(f"existence check FAILED: {report.margins}",
                  file=sys.stderr)
            return EXIT_EXISTENCE
        igrid = GridSpec.from_json(_require(config, "integration_grid"))
        if spec.measure.variant == "sas":
            tr = sas_truncation_report(spec, grid, igrid)
            run.write_json("sas_truncation.json", tr)
            if tr["fraction"] > 0.10:
                return _refuse_truncation(run, tr)
        reals = ma_synthesis(spec, grid, igrid, seed, n_draws=n_draws)
        if n_draws == 1:
            reals = [reals]
    elif method == "tfsm":
        igrid = GridSpec.from_json(_require(config, "integration_grid"))
        if grid.d != 1:
            raise SimulationConfigError(
                f"simulate tfsm: the grid must be 1-d, got d = {grid.d}")
        params = [_number(_require(config, key), f"simulate tfsm: {key}")
                  for key in ("hurst", "alpha", "lambda")]
        times = grid.sites()[:, 0]
        tr = tfsm_truncation_report(*params, times, igrid)
        run.write_json("tfsm_truncation.json", tr)
        if tr["fraction"] > 0.10:
            return _refuse_truncation(run, tr)
        vals = tfsm_synthesis(*params, times, igrid, seed, n_draws=n_draws)
        meta = {"method": "tfsm", "seed": seed,
                "hurst": config["hurst"], "alpha": config["alpha"],
                "lambda": config["lambda"]}
        reals = [Realization(grid, vals[j][:, None], {**meta, "draw": j})
                 for j in range(n_draws)]
    else:
        raise SchemaError(f"simulate: unknown method '{method}'")
    for j, real in enumerate(reals):
        run.write_bytes(f"draw_{j:04d}.trf", real.to_bytes())
    if config.get("csv"):
        for j, real in enumerate(reals):
            run.write_bytes(f"draw_{j:04d}.csv", real.to_csv_bytes())
    run.finish()
    print(f"wrote {len(reals)} draw(s) to {run.out_dir}")
    return EXIT_OK


def _cmd_estimate(config, run, args):
    estimator = _require(config, "estimator")
    if estimator == "directional_holder":
        if "realizations" in config:
            reals = [Realization.load(p) for p in _paths(
                config["realizations"], "estimate: realizations")]
            rep = directional_holder(
                realizations=reals, direction=config.get("direction", [1.0]),
                target=config.get("target"),
                tolerance=config.get("tolerance"))
        else:
            spec_doc = _require(config, "spec")
            if isinstance(spec_doc, dict):  # the TFBM_LINE of h and lambda
                spec_doc = dict(spec_doc, variant="TFBM_LINE")
            model = CovarianceModel(IsotropicGaussianSpec.from_json(spec_doc))
            lags = _numbers(_require(config, "lags"), "estimate: lags")
            rep = directional_holder(
                variogram=lambda t: model.variance([t])[0, 0], lags=lags,
                target=config.get("target"), tolerance=config.get("tolerance"))
    elif estimator == "box_dimension":
        reals = [Realization.load(p) for p in _paths(
            _require(config, "realizations"), "estimate: realizations")]
        rep = box_dimension(reals, scales=config.get("scales"),
                            target=config.get("target"),
                            tolerance=config.get("tolerance"))
    elif estimator == "semi_lrd":
        spec = IsotropicGaussianSpec.from_json(_require(config, "spec"))
        rep = semi_lrd_profile(
            lambda k: ibtofbf_increment_cov(spec, k)[0, 0],
            np.asarray(config.get("lags_small", list(range(1, 9)))),
            np.asarray(config.get("lags_large", list(range(30, 61)))),
            lambda_target=config.get("lambda_target"),
            slope_tolerance=config.get("slope_tolerance"))
    else:
        raise SchemaError(f"estimate: unknown estimator '{estimator}'")
    run.write_json("estimate_report.json", rep.to_json())
    stats = rep.extras.get("scale_statistics")
    if stats:
        lines = ["scale,statistic"] + [f"{a!r},{b!r}" for a, b in stats]
        run.write_bytes("scale_statistics.csv",
                        ("\n".join(lines) + "\n").encode())
    run.finish()
    print(rep)
    if rep.passed is False:
        return EXIT_TOLERANCE
    return EXIT_OK


# check -> the spec's variant and the bounds of the spectral side's rtol
_XCHECKS = {"ibtofbf_closed_vs_spectral": ("IBTOFBF", 1e-9, 1e-7),
            "itofbf_kernel_vs_spectral": ("ITOFBF", 1e-8, 1e-6)}


def _cmd_xcheck(config, run, args):
    check = _require(config, "check")
    h = _number(_require(config, "h"), "xcheck: h")
    lam = _number(_require(config, "lambda"), "xcheck: lambda")
    d = _integer(config.get("d", 1), "xcheck: d", 1)
    rtol = _number(config.get("rtol", 1e-4), "xcheck: rtol") \
        * args.tolerance_scale
    pairs = _pairs(config, "xcheck")
    if not isinstance(check, str) or check not in _XCHECKS:
        raise SchemaError(f"xcheck: unknown check '{check}'")
    variant, low, high = _XCHECKS[check]
    spec = IsotropicGaussianSpec(variant, d, 1, lam, [[h]])
    first = CovarianceModel(spec)
    second = CovarianceModel(spec, "spectral_integral",
                             rtol=min(max(rtol * 1e-2, low), high))
    rows = []
    worst = 0.0
    for x, x2 in pairs:
        a = first.evaluate(x, x2)[0, 0]
        b = second.evaluate(x, x2)[0, 0]
        rel = abs(a - b) / max(abs(a), abs(b), 1e-300)
        worst = max(worst, rel)
        rows.append({"x": x.tolist(), "x2": x2.tolist(),
                     "first": a, "second": b, "rel_error": rel})
    ok = worst <= rtol
    run.write_json("xcheck_report.json", {
        "check": check, "h": h, "lambda": lam, "d": d, "rtol": rtol,
        "worst_rel_error": worst, "ok": ok, "pairs": rows})
    run.finish()
    print(f"xcheck {check}: worst rel error {worst:.3e} "
          f"({'ok' if ok else 'FAILED'} at rtol {rtol:g})")
    return EXIT_OK if ok else EXIT_TOLERANCE


_COMMANDS = {
    "check": _cmd_check,
    "cov": _cmd_cov,
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "xcheck": _cmd_xcheck,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="trfield",
        description="Tempered operator-scaling random field toolkit")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed override for stochastic commands")
    parser.add_argument("--out", default="trfield_out",
                        help="output directory")
    parser.add_argument("--tolerance-scale", type=float, default=1.0,
                        help="multiplier applied to xcheck tolerances")
    args = parser.parse_args(argv)
    try:
        with open(args.config, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        config = json.loads(blob.decode("utf-8"))
    except ValueError as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    if not isinstance(config, dict):
        print("config must be a JSON object", file=sys.stderr)
        return EXIT_SCHEMA
    if "command" in config and config["command"] != args.command:
        print(f"config command '{config['command']}' does not match "
              f"'{args.command}'", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        run = _Run(args.out, blob, inputs=[args.config])
    except OSError as exc:
        print(f"cannot prepare output directory: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        return _COMMANDS[args.command](config, run, args)
    except (SchemaError, KernelError, CovarianceError, EstimateError,
            AnisoError, MatfunError, SpecfunError,
            SimulationConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (QuadratureError, SimulationToleranceError) as exc:
        print(f"numerical tolerance failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_EXISTENCE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
