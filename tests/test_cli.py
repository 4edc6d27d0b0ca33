import json
import os
import stat

import numpy as np
import pytest

from trfield.cli import (EXIT_EXISTENCE, EXIT_IO, EXIT_OK, EXIT_SCHEMA,
                         EXIT_TOLERANCE, main)
from trfield.covariance import CovarianceModel, IsotropicGaussianSpec
from trfield.simulate import GridSpec, Realization

IB_SPEC = {"variant": "IBTOFBF", "d": 1, "n": 1, "lambda": 0.5,
           "H": [[0.7]]}
MA_SPEC = {"flavor": "MA", "d": 1, "n": 1, "lambda": 1.0,
           "E": [[1.0]], "H": [[0.7]],
           "phi": {"variant": "euclidean"},
           "measure": {"variant": "gaussian"}}


def write_config(tmp_path, name, doc):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def run(tmp_path, command, doc, *extra):
    cfg = write_config(tmp_path, f"{command}_cfg.json", doc)
    out = os.path.join(tmp_path, f"out_{command}_{len(os.listdir(tmp_path))}")
    return main([command, "--config", cfg, "--out", out, *extra]), out


def test_check_ok(tmp_path):
    code, out = run(tmp_path, "check", {"command": "check", "spec": MA_SPEC})
    assert code == EXIT_OK
    report = json.load(open(os.path.join(out, "existence_report.json")))
    assert report["ok"]
    assert report["margins"]["eigenvalue_margin"] == pytest.approx(0.7)
    assert os.path.exists(os.path.join(out, "manifest.json"))


def test_check_schema_violation_bad_lambda(tmp_path):
    bad = dict(MA_SPEC, **{"lambda": -1.0})
    code, _ = run(tmp_path, "check", {"spec": bad})
    assert code == EXIT_SCHEMA


def test_check_schema_violation_missing_field(tmp_path):
    code, _ = run(tmp_path, "check", {"spec": {"flavor": "MA"}})
    assert code == EXIT_SCHEMA


def test_check_existence_failure(tmp_path):
    bad = {"flavor": "MA_B", "d": 2, "n": 1, "lambda": 1.0,
           "E": [[1.0, 0.0], [0.0, 1.0]], "H": [[0.4]],
           "phi": {"variant": "euclidean"},
           "measure": {"variant": "gaussian"}}
    code, _ = run(tmp_path, "check", {"spec": bad})
    assert code == EXIT_EXISTENCE


def test_command_mismatch(tmp_path):
    code, _ = run(tmp_path, "check", {"command": "cov", "spec": MA_SPEC})
    assert code == EXIT_SCHEMA


def test_check_non_diagonal_e_with_diag_power_phi(tmp_path, capsys):
    spec = dict(MA_SPEC, d=2, E=[[1.0, 0.3], [0.0, 1.5]],
                phi={"variant": "diag_power", "rho": 2.0})
    code, _ = run(tmp_path, "check", {"spec": spec})
    assert code == EXIT_SCHEMA
    assert "Traceback" not in capsys.readouterr().err


def test_cov_quadrature_failure_exits_tolerance(tmp_path, capsys,
                                                monkeypatch):
    # a NaN pair-integral profile makes the kernel quadrature fail
    from trfield import covariance

    monkeypatch.setattr(covariance, "_focal_profile_d2",
                        lambda a, b, u: np.full_like(u, np.nan))
    doc = {"spec": {"variant": "ITOFBF", "d": 2, "n": 1, "lambda": 1.0,
                    "H": [[0.3]]},
           "pairs": [[[0.1, 0.0], [0.1, 0.0]]]}
    code, _ = run(tmp_path, "cov", doc)
    assert code == EXIT_TOLERANCE
    assert "adaptive_gk" in capsys.readouterr().err


def test_simulate_gram_tolerance_failure_exits_tolerance(tmp_path, capsys,
                                                        monkeypatch):
    from trfield import simulate

    def fail(gram, n_sites_total):
        raise simulate.SimulationToleranceError(
            "gram factorization failed at maximal jitter")

    monkeypatch.setattr(simulate, "_factor_gram", fail)
    doc = {"method": "gaussian_exact", "seed": 1,
           "spec": {"variant": "IBTOFBF", "d": 2, "n": 1, "lambda": 0.5,
                    "H": [[0.7]]},
           "grid": {"ranges": [[0.0, 1.0], [0.0, 1.0]], "counts": [3, 3]}}
    code, _ = run(tmp_path, "simulate", doc)
    assert code == EXIT_TOLERANCE
    err = capsys.readouterr().err
    assert "maximal jitter" in err
    assert "Traceback" not in err


def test_simulate_circulant_tolerance_failure_exits_tolerance(
        tmp_path, capsys, monkeypatch):
    # V(r) = r^3 makes every embedding indefinite; past the Gram route's
    # cap the line cannot draw
    monkeypatch.setattr(CovarianceModel, "radial_variance",
                        lambda self, r: (r ** 3)[:, None, None])
    doc = {"method": "gaussian_exact", "seed": 1,
           "spec": {"variant": "TFBM_LINE", "h": 0.6, "lambda": 0.2},
           "grid": {"ranges": [[0.0, 1.0]], "counts": [20000]}}
    code, _ = run(tmp_path, "simulate", doc)
    assert code == EXIT_TOLERANCE
    err = capsys.readouterr().err
    assert "circulant embedding" in err
    assert "tolerance -1e-08" in err
    assert "Traceback" not in err


def test_missing_config_file(tmp_path):
    code = main(["check", "--config", os.path.join(tmp_path, "nope.json"),
                 "--out", os.path.join(tmp_path, "o")])
    assert code == EXIT_IO


def test_invalid_json(tmp_path):
    p = os.path.join(tmp_path, "bad.json")
    open(p, "w").write("{not json")
    code = main(["check", "--config", p, "--out",
                 os.path.join(tmp_path, "o")])
    assert code == EXIT_SCHEMA


def test_cov_artifacts(tmp_path):
    doc = {"command": "cov",
           "spec": {"variant": "IBTOFBF", "d": 1, "n": 1, "lambda": 0.5,
                    "H": [[0.7]]},
           "pairs": [[[1.0], [0.4]], [[0.5], [0.0]]]}
    code, out = run(tmp_path, "cov", doc)
    assert code == EXIT_OK
    csv = open(os.path.join(out, "covariance.csv")).read().splitlines()
    assert csv[0] == "x,x2,i,j,value"
    assert len(csv) == 3
    meta = json.load(open(os.path.join(out, "covariance_meta.json")))
    assert meta["spec"]["variant"] == "IBTOFBF"
    # values round-trip through repr at full precision
    spec = IsotropicGaussianSpec.from_json(doc["spec"])
    expect = CovarianceModel(spec).evaluate([1.0], [0.4])[0, 0]
    assert float(csv[1].split(",")[-1]) == expect


def test_cov_pairs_of_two_lengths_match_each_pair(tmp_path):
    # pairs whose points differ in length share one V batch and give each
    # pair's value as evaluated alone, bit for bit
    pairs = [[[1.0], [0.4]], [[1.0, 0.0], [0.4, 0.2]], [[0.3, -0.5, 0.2],
                                                        [0.0, 0.0, 0.0]]]
    code, out = run(tmp_path, "cov", {"spec": IB_SPEC, "pairs": pairs})
    assert code == EXIT_OK
    rows = open(os.path.join(out, "covariance.csv")).read().splitlines()
    model = CovarianceModel(IsotropicGaussianSpec.from_json(IB_SPEC))
    assert len(rows) == 1 + len(pairs)
    for row, (x, x2) in zip(rows[1:], pairs):
        assert row.startswith('"%s","%s",' % (
            " ".join(map(repr, x)), " ".join(map(repr, x2))))
        assert float(row.split(",")[-1]) == model.evaluate(x, x2)[0, 0]


def test_simulate_itofbf_d2_small_hurst_exits_ok(tmp_path):
    # the kernel-side pair integral covers every H in (0, 1) at d = 2
    doc = {"method": "gaussian_exact", "seed": 1,
           "spec": {"variant": "ITOFBF", "d": 2, "n": 1, "lambda": 0.52,
                    "H": [[0.3]]},
           "grid": {"ranges": [[0.0, 0.5], [0.0, 0.5]], "counts": [2, 2]}}
    code, out = run(tmp_path, "simulate", doc)
    assert code == EXIT_OK
    real = Realization.load(os.path.join(out, "draw_0000.trf"))
    assert real.values.shape == (4, 1)
    assert np.all(np.isfinite(real.values))


def test_simulate_itofbf_fine_line_exits_ok(tmp_path):
    # 1025 sites ask for V at lags down to mu = h lambda; the pair integral
    # converges per mu
    doc = {"method": "gaussian_exact", "seed": 1,
           "spec": {"variant": "ITOFBF", "d": 1, "n": 1, "lambda": 0.5,
                    "H": [[0.7]]},
           "grid": {"ranges": [[-0.25, 0.75]], "counts": [1025]}}
    code, out = run(tmp_path, "simulate", doc)
    assert code == EXIT_OK
    real = Realization.load(os.path.join(out, "draw_0000.trf"))
    assert real.provenance["algorithm"] == "circulant"
    assert real.values[256, 0] == 0.0


def test_simulate_requires_seed(tmp_path):
    doc = {"method": "gaussian_exact",
           "spec": {"variant": "TFBM_LINE", "h": 0.6, "lambda": 0.2},
           "grid": {"ranges": [[0.0, 1.0]], "counts": [16]}}
    code, _ = run(tmp_path, "simulate", doc)
    assert code == EXIT_SCHEMA


def test_simulate_reproducible_payload_digests(tmp_path):
    doc = {"method": "gaussian_exact", "seed": 42, "n_draws": 2,
           "spec": {"variant": "ITOFBF", "d": 1, "n": 1, "lambda": 0.5,
                    "H": [[0.7]]},
           "grid": {"ranges": [[0.0, 1.0]], "counts": [32]}}
    code1, out1 = run(tmp_path, "simulate", doc)
    code2, out2 = run(tmp_path, "simulate", doc)
    assert code1 == code2 == EXIT_OK
    m1 = json.load(open(os.path.join(out1, "manifest.json")))
    m2 = json.load(open(os.path.join(out2, "manifest.json")))
    assert m1["outputs"] == m2["outputs"]
    assert m1["config_sha256"] == m2["config_sha256"]
    # artifacts load back through the library
    real = Realization.load(os.path.join(out1, "draw_0000.trf"))
    assert real.values.shape == (32, 1)
    assert real.values[0, 0] == 0.0


def test_simulate_seed_flag_override(tmp_path):
    doc = {"method": "tfsm", "hurst": 0.7, "alpha": 1.5, "lambda": 0.3,
           "grid": {"ranges": [[0.0, 1.0]], "counts": [8]},
           "integration_grid": {"ranges": [[-120.0, 1.0]], "counts": [512]}}
    cfg = write_config(tmp_path, "tfsm.json", doc)
    out = os.path.join(tmp_path, "out_tfsm")
    assert main(["simulate", "--config", cfg, "--out", out,
                 "--seed", "9"]) == EXIT_OK
    real = Realization.load(os.path.join(out, "draw_0000.trf"))
    assert real.provenance["seed"] == 9


def test_simulate_ma_existence_gate(tmp_path):
    bad_spec = dict(MA_SPEC, **{"lambda": 0.0})
    doc = {"method": "ma", "seed": 1, "spec": bad_spec,
           "grid": {"ranges": [[0.0, 1.0]], "counts": [4]},
           "integration_grid": {"ranges": [[-50.0, 51.0]], "counts": [256]}}
    code, _ = run(tmp_path, "simulate", doc)
    assert code == EXIT_EXISTENCE


def test_simulate_sas_truncation_refusal(tmp_path):
    sas_spec = dict(MA_SPEC, **{"lambda": 0.05,
                                "measure": {"variant": "sas",
                                            "alphas": [1.5]},
                                "H": [[0.3]]})
    doc = {"method": "ma", "seed": 1, "spec": sas_spec,
           "grid": {"ranges": [[0.0, 1.0]], "counts": [4]},
           "integration_grid": {"ranges": [[-40.0, 41.0]], "counts": [512]}}
    code, out = run(tmp_path, "simulate", doc)
    # grid covers far less than the tempering radius: refused with a
    # truncation report before any drawing happens
    assert code in (EXIT_TOLERANCE, EXIT_EXISTENCE)


SAS_SPEC_D2 = dict(MA_SPEC, d=2, E=[[1.0, 0.0], [0.0, 1.0]],
                   measure={"variant": "sas", "alphas": [1.5]})


@pytest.mark.parametrize("spec,grid,igrid", [
    (dict(MA_SPEC, measure={"variant": "sas", "alphas": [1.5]}),
     {"ranges": [[-1.0, 1.0]], "counts": [9]},
     {"ranges": [[-50.0, 50.0]], "counts": [1024]}),
    (SAS_SPEC_D2, {"ranges": [[-1.0, 1.0]] * 2, "counts": [5, 5]},
     {"ranges": [[-50.0, 50.0]] * 2, "counts": [101, 101]}),
], ids=["d1", "d2"])
def test_simulate_sas_grid_centred_on_origin_exits_ok(tmp_path, spec, grid,
                                                      igrid):
    # the pinned kernel row at the origin is 0: the report reads the
    # corners, which cover least
    doc = {"method": "ma", "seed": 1, "spec": spec, "grid": grid,
           "integration_grid": igrid}
    code, out = run(tmp_path, "simulate", doc)
    assert code == EXIT_OK
    report = json.load(open(os.path.join(out, "sas_truncation.json")))
    assert report["fraction"] < 1e-20 and report["inside_mass"] > 0.0
    assert report["site"] == [-1.0] * len(grid["counts"])
    real = Realization.load(os.path.join(out, "draw_0000.trf"))
    assert real.values[len(real.values) // 2, 0] == 0.0


@pytest.mark.parametrize("key,value", [
    ("hurst", 0.0), ("hurst", -0.2), ("lambda", 0.0), ("lambda", -0.3),
    ("alpha", 0.0), ("alpha", 2.5), ("hurst", "0.7"), ("alpha", "x"),
    ("lambda", None), ("lambda", float("inf")), ("hurst", float("nan")),
])
def test_simulate_tfsm_domain_exits_schema(tmp_path, capsys, monkeypatch,
                                           key, value):
    _refuse_synthesis(monkeypatch)
    code, out = run(tmp_path, "simulate", dict(TFSM_DOC, seed=1,
                                               **{key: value}))
    assert code == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "config error" in err and key in err and "Traceback" not in err
    assert not os.path.exists(os.path.join(out, "draw_0000.trf"))


def test_simulate_tfsm_short_integration_grid_exits_tolerance(
        tmp_path, capsys, monkeypatch):
    _refuse_synthesis(monkeypatch)
    doc = dict(TFSM_DOC, seed=1, integration_grid={"ranges": [[-1.0, 1.0]],
                                                    "counts": [512]})
    code, out = run(tmp_path, "simulate", doc)
    assert code == EXIT_TOLERANCE
    assert "truncation error" in capsys.readouterr().err
    report = json.load(open(os.path.join(out, "tfsm_truncation.json")))
    assert report["fraction"] > 0.10 and report["site"] == [1.0]
    assert not os.path.exists(os.path.join(out, "draw_0000.trf"))


def test_simulate_tfsm_integration_grid_below_times_exits_schema(
        tmp_path, capsys, monkeypatch):
    _refuse_synthesis(monkeypatch)
    doc = dict(TFSM_DOC, seed=1, integration_grid={"ranges": [[-120.0, 0.5]],
                                                    "counts": [512]})
    code, out = run(tmp_path, "simulate", doc)
    assert code == EXIT_SCHEMA
    assert "below max(times, 0)" in capsys.readouterr().err


def test_simulate_tfsm_doc_report_is_small(tmp_path):
    code, out = run(tmp_path, "simulate", dict(TFSM_DOC, seed=1))
    assert code == EXIT_OK
    report = json.load(open(os.path.join(out, "tfsm_truncation.json")))
    assert report["fraction"] < 1e-10 and report["site"] == [1.0]


def test_simulate_spectral_csv_export(tmp_path):
    doc = {"method": "spectral", "seed": 3, "csv": True,
           "spec": {"variant": "IBTOFBF", "d": 1, "n": 1, "lambda": 1.0,
                    "H": [[0.7]]},
           "grid": {"ranges": [[0.0, 1.0]], "counts": [8]},
           "freq_count": 128}
    code, out = run(tmp_path, "simulate", doc)
    assert code == EXIT_OK
    assert os.path.exists(os.path.join(out, "draw_0000.csv"))


def test_simulate_artifacts_hashed_in_memory(tmp_path):
    import hashlib
    doc = {"method": "spectral", "seed": 3, "csv": True,
           "spec": {"variant": "IBTOFBF", "d": 1, "n": 1, "lambda": 1.0,
                    "H": [[0.7]]},
           "grid": {"ranges": [[0.0, 1.0]], "counts": [8]},
           "freq_count": 128}
    code, out = run(tmp_path, "simulate", doc)
    assert code == EXIT_OK
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    for name in ("draw_0000.trf", "draw_0000.csv"):
        with open(os.path.join(out, name), "rb") as fh:
            blob = fh.read()
        assert manifest["outputs"][name] == hashlib.sha256(blob).hexdigest()
    real = Realization.load(os.path.join(out, "draw_0000.trf"))
    assert real.to_bytes() == open(os.path.join(out, "draw_0000.trf"),
                                   "rb").read()
    saved = os.path.join(tmp_path, "copy.trf")
    real.save(saved)
    with open(saved, "rb") as fh:
        assert fh.read() == real.to_bytes()
    assert not [f for f in os.listdir(out) if f.startswith(".tmp-")]


def test_estimate_analytic_holder(tmp_path):
    doc = {"estimator": "directional_holder",
           "spec": {"h": 0.5, "lambda": 0.1},
           "lags": list(np.arange(2, 17) / 1023),
           "target": 0.5, "tolerance": 0.05}
    code, out = run(tmp_path, "estimate", doc)
    assert code == EXIT_OK
    rep = json.load(open(os.path.join(out, "estimate_report.json")))
    assert rep["passed"]
    assert os.path.exists(os.path.join(out, "scale_statistics.csv"))


def test_estimate_semi_lrd(tmp_path):
    doc = {"estimator": "semi_lrd",
           "spec": {"variant": "IBTOFBF", "d": 1, "n": 1, "lambda": 0.5,
                    "H": [[0.7]]},
           "lags_small": list(range(1, 9)),
           "lags_large": list(range(30, 61)),
           "lambda_target": 0.5, "slope_tolerance": 0.1}
    code, out = run(tmp_path, "estimate", doc)
    assert code == EXIT_OK
    rep = json.load(open(os.path.join(out, "estimate_report.json")))
    assert rep["extras"]["exponential_window"]


TFBM_SIM = {"method": "gaussian_exact", "seed": 1,
            "spec": {"variant": "TFBM_LINE", "h": 0.6, "lambda": 0.2},
            "grid": {"ranges": [[0.0, 1.0]], "counts": [9]}}


@pytest.mark.parametrize("command,doc,field", [
    ("cov", {"spec": dict(IB_SPEC, d=True, H=[["0.7"]], **{"lambda": "0.5"}),
             "pairs": [[[1.0], [0.4]]]}, "d"),
    ("cov", {"spec": dict(IB_SPEC, **{"lambda": "0.5"}),
             "pairs": [[[1.0], [0.4]]]}, "lambda"),
    ("cov", {"spec": dict(IB_SPEC, H=[["0.7"]]),
             "pairs": [[[1.0], [0.4]]]}, "H"),
    ("simulate", dict(TFBM_SIM, spec={"variant": "TFBM_LINE", "h": "0.7",
                                      "lambda": 0.2}), "h"),
    ("simulate", dict(TFBM_SIM, spec={"variant": "TFBM_LINE", "h": 0.7,
                                      "lambda": True}), "lambda"),
    ("simulate", dict(TFBM_SIM, method="spectral",
                      spec=dict(IB_SPEC, n="1")), "n"),
    ("estimate", {"estimator": "directional_holder", "lags": [0.1, 0.2],
                  "spec": {"h": "0.7", "lambda": 0.5}}, "h"),
    ("estimate", {"estimator": "directional_holder", "lags": [0.1, 0.2],
                  "spec": {"h": 0.7, "lambda": True}}, "lambda"),
    ("estimate", {"estimator": "semi_lrd",
                  "spec": dict(IB_SPEC, H=[[True]])}, "H"),
], ids=["cov_d_bool", "cov_lambda_string", "cov_H_string",
        "simulate_tfbm_h_string", "simulate_tfbm_lambda_bool",
        "simulate_spectral_n_string", "holder_h_string", "holder_lambda_bool",
        "semi_lrd_H_bool"])
def test_isotropic_spec_non_number_exits_schema(tmp_path, capsys, command,
                                                doc, field):
    code, _ = run(tmp_path, command, doc)
    assert code == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "config error" in err and f"'{field}' must be" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,doc", [
    ("cov", {"method": "kernel_quadrature", "spec": TFBM_SIM["spec"],
             "pairs": [[[1.0], [0.4]]]}),
    ("simulate", dict(TFBM_SIM, method="spectral")),
])
def test_tfbm_line_other_methods_exit_schema(tmp_path, capsys, command, doc):
    code, _ = run(tmp_path, command, doc)
    assert code == EXIT_SCHEMA
    assert "config error" in capsys.readouterr().err


SEMI_LRD = {"estimator": "semi_lrd", "spec": IB_SPEC}


@pytest.mark.parametrize("doc,field", [
    (dict(SEMI_LRD, lags_small="abc"), "lags_small"),
    (dict(SEMI_LRD, lags_large=[[1, 2], [3]]), "lags_large"),
    (dict(SEMI_LRD, lambda_target="0.5"), "lambda_target"),
    (dict(SEMI_LRD, slope_tolerance="x"), "slope_tolerance"),
    ({"estimator": "directional_holder", "direction": "x"}, "direction"),
    ({"estimator": "directional_holder", "tolerance": "0.1",
      "target": 0.5}, "tolerance"),
    ({"estimator": "box_dimension", "scales": "abc"}, "scales"),
    ({"estimator": "box_dimension", "target": "1.3", "tolerance": 0.2},
     "target"),
], ids=["semi_lrd_lags_small_string", "semi_lrd_lags_large_ragged",
        "semi_lrd_lambda_target_string", "semi_lrd_slope_tolerance_string",
        "holder_direction_string", "holder_tolerance_string",
        "box_scales_string", "box_target_string"])
def test_estimate_non_number_exits_schema(tmp_path, capsys, doc, field):
    # the realizations exist and would serve both estimators
    path = os.path.join(tmp_path, "line.trf")
    grid = GridSpec([(0.0, 1.0)], [257])
    Realization(grid, np.sin(8.0 * grid.sites()[:, 0]), {}).save(path)
    if doc["estimator"] != "semi_lrd":
        doc = dict(doc, realizations=[path])
    code, out = run(tmp_path, "estimate", doc)
    assert code == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "config error" in err and f"{field} must be" in err
    assert "Traceback" not in err
    assert not os.path.exists(os.path.join(out, "estimate_report.json"))


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_artifacts_honour_the_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        runs = [run(tmp_path, "simulate", dict(TFBM_SIM, csv=True)),
                run(tmp_path, "cov", {"spec": IB_SPEC,
                                      "pairs": [[[1.0], [0.4]]]})]
    finally:
        os.umask(old)
    for code, out in runs:
        assert code == EXIT_OK
        names = os.listdir(out)
        assert "manifest.json" in names and len(names) == 3
        for name in names:
            assert stat.S_IMODE(os.stat(os.path.join(out, name)).st_mode) \
                == mode, name


def test_estimate_box_dimension_from_saved_paths(tmp_path):
    sim = {"method": "gaussian_exact", "seed": 5, "n_draws": 3,
           "spec": {"variant": "TFBM_LINE", "h": 0.5, "lambda": 0.1},
           "grid": {"ranges": [[0.0, 1.0]], "counts": [1025]}}
    code, out_sim = run(tmp_path, "simulate", sim)
    assert code == EXIT_OK
    paths = [os.path.join(out_sim, f"draw_000{j}.trf") for j in range(3)]
    doc = {"estimator": "box_dimension", "realizations": paths,
           "target": 1.5, "tolerance": 0.2}
    code, out = run(tmp_path, "estimate", doc)
    assert code == EXIT_OK


def test_xcheck_pass_and_tolerance_failure(tmp_path):
    doc = {"check": "ibtofbf_closed_vs_spectral", "h": 0.7, "lambda": 1.0,
           "d": 1, "rtol": 1e-4,
           "pairs": [[[1.0], [0.4]], [[0.5], [-0.3]]]}
    code, out = run(tmp_path, "xcheck", doc)
    assert code == EXIT_OK
    rep = json.load(open(os.path.join(out, "xcheck_report.json")))
    assert rep["ok"] and rep["worst_rel_error"] < 1e-4
    # impossible tolerance trips exit 4 (tolerance-scale shrinks rtol)
    cfg = write_config(tmp_path, "xc2.json", doc)
    out2 = os.path.join(tmp_path, "out_xc2")
    code = main(["xcheck", "--config", cfg, "--out", out2,
                 "--tolerance-scale", "1e-8"])
    assert code == EXIT_TOLERANCE


def test_manifest_lists_inputs_and_outputs(tmp_path):
    doc = {"command": "check", "spec": MA_SPEC}
    code, out = run(tmp_path, "check", doc)
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert len(manifest["inputs"]) == 1
    assert "existence_report.json" in manifest["outputs"]
    assert manifest["version"]


TFSM_DOC = {"method": "tfsm", "hurst": 0.7, "alpha": 1.5, "lambda": 0.3,
            "grid": {"ranges": [[0.0, 1.0]], "counts": [8]},
            "integration_grid": {"ranges": [[-120.0, 1.0]], "counts": [512]}}


@pytest.mark.parametrize("seed", [-3, 2 ** 64])
@pytest.mark.parametrize("where", ["config", "flag"])
def test_simulate_seed_outside_u64_exits_schema(tmp_path, capsys, where,
                                                seed):
    if where == "config":
        code, out = run(tmp_path, "simulate", dict(TFSM_DOC, seed=seed))
    else:
        code, out = run(tmp_path, "simulate", TFSM_DOC, "--seed", str(seed))
    assert code == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "config error" in err and "outside the range [0, 2^64)" in err
    assert not os.path.exists(os.path.join(out, "draw_0000.trf"))


@pytest.mark.parametrize("where", ["config", "flag"])
def test_simulate_seed_at_u64_max_runs(tmp_path, where):
    seed = 2 ** 64 - 1
    if where == "config":
        code, out = run(tmp_path, "simulate", dict(TFSM_DOC, seed=seed))
    else:
        code, out = run(tmp_path, "simulate", TFSM_DOC, "--seed", str(seed))
    assert code == EXIT_OK
    real = Realization.load(os.path.join(out, "draw_0000.trf"))
    assert real.provenance["seed"] == seed


@pytest.mark.parametrize("lo", [float("nan"), float("-inf")])
def test_simulate_non_finite_grid_range_refused_before_synthesis(
        tmp_path, capsys, monkeypatch, lo):
    from trfield import cli

    def synthesis(*args, **kwargs):
        raise AssertionError("synthesis ran on a non-finite grid")

    monkeypatch.setattr(cli, "tfsm_synthesis", synthesis)
    doc = dict(TFSM_DOC, seed=1, grid={"ranges": [[lo, 1.0]], "counts": [8]})
    code, out = run(tmp_path, "simulate", doc)
    assert code == EXIT_SCHEMA
    assert "empty or non-finite grid range" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "draw_0000.trf"))


@pytest.mark.parametrize("grid", [
    {"ranges": [[1.0, 0.0]], "counts": [8]},
    {"ranges": [[0.0, 1.0]], "counts": [1]},
    {"ranges": [[0.0, 1.0], [0.0, 1.0]], "counts": [8]},
])
def test_simulate_grid_violation_exits_schema(tmp_path, capsys, grid):
    code, out = run(tmp_path, "simulate", dict(TFSM_DOC, seed=1, grid=grid))
    assert code == EXIT_SCHEMA
    assert "config error" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "draw_0000.trf"))


@pytest.mark.parametrize("grid", [
    {"ranges": [[0.0, 1.0]]},
    {"counts": [8]},
    [[0.0, 1.0], [8]],
    {"ranges": [[0.0, 1.0]], "counts": [8.9]},
    {"ranges": [[0.0, 1.0]], "counts": ["9"]},
    {"ranges": [[0.0, 1.0]], "counts": [True]},
    {"ranges": [[0.0, 1.0]], "counts": 8},
    {"ranges": [0.0, 1.0], "counts": [8]},
    {"ranges": [[0.0, "1"]], "counts": [8]},
    {"ranges": [[0.0, 0.5, 1.0]], "counts": [8]},
])
def test_simulate_malformed_grid_exits_schema(tmp_path, capsys, monkeypatch,
                                              grid):
    _refuse_synthesis(monkeypatch)
    code, out = run(tmp_path, "simulate", dict(TFSM_DOC, seed=1, grid=grid))
    assert code == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "config error" in err and "grid" in err
    assert "Traceback" not in err
    assert not os.path.exists(os.path.join(out, "draw_0000.trf"))


def _refuse_synthesis(monkeypatch):
    from trfield import cli

    def synthesis(*args, **kwargs):
        raise AssertionError("a model was built for a bad config")

    for name in ("tfsm_synthesis", "spectral_synthesis", "CovarianceModel"):
        monkeypatch.setattr(cli, name, synthesis)


@pytest.mark.parametrize("field,value", [
    ("seed", "abc"), ("seed", 1.7), ("seed", True), ("seed", "2"),
    ("seed", None), ("n_draws", "abc"), ("n_draws", -2), ("n_draws", 0),
    ("n_draws", 2.0), ("n_draws", True),
])
def test_simulate_integer_fields_refused_before_synthesis(
        tmp_path, capsys, monkeypatch, field, value):
    _refuse_synthesis(monkeypatch)
    doc = dict(TFSM_DOC, seed=1)
    doc[field] = value
    code, out = run(tmp_path, "simulate", doc)
    assert code == EXIT_SCHEMA
    assert "config error" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "draw_0000.trf"))


@pytest.mark.parametrize("value", ["abc", 1, 64.0, False])
def test_simulate_freq_count_refused_before_synthesis(
        tmp_path, capsys, monkeypatch, value):
    _refuse_synthesis(monkeypatch)
    doc = {"method": "spectral", "seed": 3, "freq_count": value,
           "spec": {"variant": "IBTOFBF", "d": 1, "n": 1, "lambda": 1.0,
                    "H": [[0.7]]},
           "grid": {"ranges": [[0.0, 1.0]], "counts": [8]}}
    code, out = run(tmp_path, "simulate", doc)
    assert code == EXIT_SCHEMA
    assert "freq_count" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "draw_0000.trf"))


def test_simulate_bad_seed_refused_before_gram(tmp_path, capsys,
                                               monkeypatch):
    _refuse_synthesis(monkeypatch)
    doc = {"method": "gaussian_exact", "seed": -3,
           "spec": {"variant": "ITOFBF", "d": 1, "n": 1, "lambda": 0.5,
                    "H": [[0.7]]},
           "grid": {"ranges": [[0.0, 1.0]], "counts": [2048]}}
    code, _ = run(tmp_path, "simulate", doc)
    assert code == EXIT_SCHEMA
    assert "outside the range [0, 2^64)" in capsys.readouterr().err


GRID_1D = {"ranges": [[0.0, 1.0]], "counts": [5]}
GRID_2D = {"ranges": [[0.0, 1.0], [0.0, 1.0]], "counts": [5, 5]}
IGRID_2D = {"ranges": [[-50.0, 51.0], [-50.0, 51.0]], "counts": [8, 8]}
SAS_SPEC = dict(MA_SPEC, measure={"variant": "sas", "alphas": [1.5]})


@pytest.mark.parametrize("doc", [
    {"method": "spectral", "grid": GRID_1D,
     "spec": {"variant": "IBTOFBF", "d": 2, "n": 1, "lambda": 1.0,
              "H": [[0.7]]}},
    {"method": "ma", "spec": MA_SPEC, "grid": GRID_2D,
     "integration_grid": IGRID_2D},
    {"method": "ma", "spec": MA_SPEC, "grid": GRID_1D,
     "integration_grid": IGRID_2D},
    {"method": "ma", "spec": SAS_SPEC, "grid": GRID_1D,
     "integration_grid": IGRID_2D},
    dict(TFSM_DOC, grid=GRID_2D),
    dict(TFSM_DOC, integration_grid=IGRID_2D),
], ids=["spectral", "ma_grid", "ma_integration_grid",
        "ma_sas_integration_grid", "tfsm_grid", "tfsm_integration_grid"])
def test_simulate_grid_of_another_dimension_exits_schema(
        tmp_path, capsys, monkeypatch, doc):
    # a d = 2 field on a line, or a line field on a plane, is refused
    # before any noise is drawn
    from trfield import simulate

    def draws(*args, **kwargs):
        raise AssertionError("synthesis ran on a grid of another dimension")

    for name in ("_spectral_density_for", "_draw_products"):
        monkeypatch.setattr(simulate, name, draws)
    code, out = run(tmp_path, "simulate", dict(doc, seed=1))
    assert code == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "config error" in err and "d = " in err
    assert not os.path.exists(os.path.join(out, "draw_0000.trf"))


XCHECK_DOC = {"check": "ibtofbf_closed_vs_spectral", "h": 0.7,
              "lambda": 1.0, "d": 1, "pairs": [[[1.0], [0.4]]]}


@pytest.mark.parametrize("command,doc", [
    ("check", {"spec": dict(MA_SPEC, phi={})}),
    ("check", {"spec": dict(MA_SPEC, measure={"alphas": [1.5]})}),
    ("cov", {"spec": {k: v for k, v in IB_SPEC.items() if k != "lambda"},
             "pairs": [[[1.0], [0.4]]]}),
    ("cov", {"spec": {k: v for k, v in IB_SPEC.items() if k != "H"},
             "pairs": [[[1.0], [0.4]]]}),
    ("xcheck", dict(XCHECK_DOC, d="two")),
    ("xcheck", dict(XCHECK_DOC, h="0.7x")),
    ("xcheck", dict(XCHECK_DOC, pairs=3)),
    ("cov", {"spec": IB_SPEC, "pairs": [[[1.0]]]}),
    ("xcheck", dict(XCHECK_DOC, pairs=[[[1.0]]])),
    ("cov", {"spec": IB_SPEC, "pairs": [[[1.0], [0.4, 0.2]]]}),
    ("xcheck", dict(XCHECK_DOC, pairs=[[[1.0, 0.0], [0.4]]])),
    ("estimate", {"estimator": "directional_holder", "lags": "abc",
                  "spec": {"h": 0.6, "lambda": 0.2}}),
    ("estimate", {"estimator": "box_dimension", "realizations": "x.trf"}),
    ("check", {"spec": dict(MA_SPEC, **{"lambda": "1.0"})}),
    ("check", {"spec": dict(MA_SPEC, H=[["0.7"]])}),
    ("check", {"spec": dict(MA_SPEC, E="one")}),
    ("check", {"spec": dict(MA_SPEC, measure={"variant": "sas",
                                              "alphas": ["1.5"]})}),
], ids=["check_phi_without_variant", "check_measure_without_variant",
        "cov_spec_without_lambda", "cov_spec_without_H", "xcheck_d_string",
        "xcheck_h_string", "xcheck_pairs_number", "cov_one_point_pair",
        "xcheck_one_point_pair", "cov_pair_lengths_differ",
        "xcheck_pair_lengths_differ", "holder_lags_string",
        "box_realizations_string", "check_lambda_string", "check_H_string",
        "check_E_string", "check_alphas_string"])
def test_malformed_config_exits_schema(tmp_path, capsys, command, doc):
    code, _ = run(tmp_path, command, doc)
    assert code == EXIT_SCHEMA
    assert "config error" in capsys.readouterr().err
