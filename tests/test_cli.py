"""Experiment runner: exit codes, artifact layout, manifests, reruns."""

import csv
import hashlib
import json
import pathlib
import re

import numpy as np
import pytest

import elglm.cli as cli_mod
import elglm.selection as selection_mod
from elglm.cli import ConfigError, _apply_overrides, _validate, main, run_experiment
from elglm.estimators import fit_exact, mele
from elglm.families import Gaussian, Poisson
from elglm.glm import ExactObjective, GlmDataset, load_dataset, save_dataset
from elglm.population import (
    CoupledFilterSet,
    HistoryBasis,
    bits_per_second,
    build_population_design,
    filterset_params,
    load_population,
)
from elglm.risk import RiskSpec, mse_closed_form
from elglm.sampling import hmc_chain, load_chain, make_potential
from elglm.selection import gaussian_evidence, laplace_evidence
from elglm.structured import KINDS, Banded, Circulant, Dense, Diagonal, Kronecker, ScaledIdentity


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def fit_cfg(N=120, p=5, seed=11):
    return {
        "seed": seed,
        "experiment": "demo",
        "data": {
            "simulate": {
                "stimulus": {"kind": "gaussian_iid", "N": N, "p": p},
                "family": {"family": "gaussian", "sigma2": 1.0},
                "theta_norm": 1.0,
            }
        },
        "estimator": {
            "kind": "mele",
            "R": {"kind": "scaled_identity", "dim": p, "scale": 0.5},
        },
    }


def run_cli(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- exit codes

def test_missing_config_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["fit", str(tmp_path / "nope.json")])
    assert code == 2
    assert "not found" in err


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{nope")
    code, _, err = run_cli(capsys, ["fit", str(path)])
    assert code == 2
    assert "valid JSON" in err


def test_config_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    code, _, err = run_cli(capsys, ["fit", str(path)])
    assert code == 2
    assert "JSON object" in err


def test_schema_violation_reports_the_path(tmp_path, capsys):
    cfg = fit_cfg()
    cfg["estimator"]["kind"] = "banana"
    code, _, err = run_cli(capsys, ["fit", write_cfg(tmp_path, cfg)])
    assert code == 2
    assert "schema" in err
    assert "estimator" in err


def test_missing_required_key(tmp_path, capsys):
    cfg = fit_cfg()
    del cfg["estimator"]
    code, _, err = run_cli(capsys, ["fit", write_cfg(tmp_path, cfg)])
    assert code == 2


def test_runner_config_error_is_exit_2(tmp_path, capsys):
    # mele on stored data without a covariance: schema-valid, still a config error
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 3))
    data = GlmDataset(X, X @ np.ones(3) + rng.standard_normal(30), Gaussian())
    stem = str(tmp_path / "stored")
    save_dataset(data, stem)
    cfg = {"data": {"stem": stem}, "estimator": {"kind": "mele"}}
    code, _, err = run_cli(capsys, ["fit", write_cfg(tmp_path, cfg), "--out-root", str(tmp_path / "out")])
    assert code == 2
    assert "covariance" in err


def test_empty_data_node_is_exit_2(tmp_path, capsys):
    cfg = fit_cfg()
    cfg["data"] = {}
    code, _, err = run_cli(capsys, ["fit", write_cfg(tmp_path, cfg), "--out-root", str(tmp_path / "out")])
    assert code == 2
    assert "stem" in err and "simulate" in err


def test_numerical_failure_is_exit_3_and_cleans_up(tmp_path, capsys):
    # unpenalized Gaussian likelihood with p >= N has no unique maximizer
    cfg = fit_cfg(N=4, p=9)
    cfg["estimator"] = {"kind": "exact"}
    out_root = tmp_path / "out"
    code, _, err = run_cli(capsys, ["fit", write_cfg(tmp_path, cfg), "--out-root", str(out_root)])
    assert code == 3
    assert "numerical failure" in err
    # the timestamped artifact dir must not survive a failed run
    assert (out_root / "demo").exists()
    assert list((out_root / "demo").iterdir()) == []


@pytest.mark.parametrize("value", ["nosuch", "banana"], ids=["family", "matrix_kind"])
def test_fit_unknown_family_or_matrix_kind_is_exit_2(tmp_path, capsys, value):
    cfg = fit_cfg()
    if value == "nosuch":
        cfg["data"]["simulate"]["family"]["family"] = value
    else:
        cfg["C"] = {"kind": value}
    code, _, err = run_cli(capsys, ["fit", write_cfg(tmp_path, cfg), "--out-root", str(tmp_path / "out")])
    assert code == 2
    assert "schema" in err and value in err


@pytest.mark.parametrize(
    "C,path,message",
    [
        (
            {"kind": "kronecker", "factors": [{"kind": "banana"}, {"kind": "scaled_identity", "dim": 2, "scale": 1.0}]},
            "$.C.factors[0].kind",
            "banana",
        ),
        ({"kind": "scaled_identity"}, "$.C", "'dim' is a required property"),
        (
            {"kind": "kronecker", "factors": [{"kind": "diagonal", "values": [1.0, 2.0]}, {"kind": "circulant"}]},
            "$.C.factors[1]",
            "'first_row' is a required property",
        ),
        ({"kind": "kronecker", "factors": [{"kind": "diagonal", "values": [1.0]}]}, "$.C.factors", "short"),
        ({"kind": "diagonal", "values": "ones"}, "$.C.values", "not of type 'array'"),
    ],
    ids=["kronecker_factor_kind", "missing_field", "kronecker_factor_field", "one_factor", "field_type"],
)
def test_structured_matrix_config_errors_are_exit_2_with_the_path(tmp_path, capsys, C, path, message):
    cfg = fit_cfg()
    cfg["C"] = C
    code, _, err = run_cli(capsys, ["fit", write_cfg(tmp_path, cfg), "--out-root", str(tmp_path / "out")])
    assert code == 2
    assert f"at {path}: " in err and message in err


def test_every_structured_kind_round_trips_through_the_schema():
    mats = [
        ScaledIdentity(2, 1.5),
        Diagonal([1.0, 2.0]),
        Banded([[2.0, 2.0, 2.0], [0.5, 0.5]]),
        Circulant([2.0, 0.5, 0.5]),
        Dense(np.eye(2)),
        Kronecker([Diagonal([1.0, 2.0]), ScaledIdentity(3, 1.0)]),
    ]
    assert {m.to_config()["kind"] for m in mats} == set(KINDS)
    for m in mats:
        _validate({"data": {"stem": "x"}, "estimator": {"kind": "mele"}, "C": m.to_config()}, "fit")


@pytest.mark.parametrize(
    "cfg,message",
    [
        # the MAP without a ridge has no unique solution once p >= N
        ({"N": 40, "kinds": ["map"], "rho_grid": [0.5, 1.5], "trials": 5}, "c > 0"),
        ({"N": 40, "kinds": ["mele"], "rho_grid": [0.5], "trials": 1}, "trials"),
        # the default grid reaches rho = 0.9, p = 9 >= N - 1
        ({"N": 10, "kinds": ["mle"], "trials": 3}, "p < N - 1"),
    ],
    ids=["map_without_ridge", "one_trial", "mle_near_p_eq_N"],
)
def test_risk_monte_carlo_cells_are_checked_before_any_work(tmp_path, capsys, cfg, message):
    code, _, err = run_cli(capsys, ["risk", write_cfg(tmp_path, cfg), "--out-root", str(tmp_path / "out")])
    assert code == 2
    assert "config error" in err and message in err


def test_run_experiment_rejects_unknown_subcommand(tmp_path):
    with pytest.raises(ConfigError, match="subcommand"):
        run_experiment("tickle", {}, out_root=str(tmp_path / "out"))


# ------------------------------------------------- layout and reproducibility

def test_fit_layout_and_manifest(tmp_path, capsys):
    cfg = fit_cfg()
    out_root = tmp_path / "out"
    code, out, _ = run_cli(capsys, ["fit", write_cfg(tmp_path, cfg), "--out-root", str(out_root)])
    assert code == 0
    outdir = pathlib.Path(out.strip())
    assert outdir.parent == out_root / "demo"
    assert re.fullmatch(r"\d{8}T\d{12}-[0-9a-f]{8}", outdir.name)

    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["subcommand"] == "fit"
    assert manifest["experiment"] == "demo"
    assert manifest["seed"] == 11
    assert manifest["config"] == cfg
    assert outdir.name.endswith(manifest["config_sha256"][:8])
    assert manifest["versions"]["numpy"] == np.__version__
    assert manifest["outputs"] == ["fit.json", "trace.csv"]
    for name in manifest["outputs"]:
        assert (outdir / name).exists()

    fit = json.loads((outdir / "fit.json").read_text())
    assert len(fit["theta"]) == 5
    assert fit["converged"] is True
    lines = (outdir / "trace.csv").read_text().splitlines()
    assert lines[0] == "step,objective"


def test_manifest_embeds_the_hashed_config_blob(tmp_path):
    """The manifest carries the canonical compact config that was hashed, so
    the hash is reproducible from the manifest's own text."""
    cfg = fit_cfg()
    outdir = run_experiment("fit", cfg, out_root=str(tmp_path / "out"))
    text = (outdir / "manifest.json").read_text()
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    assert f'"config": {blob}' in text
    manifest = json.loads(text)
    assert manifest["config"] == cfg
    assert manifest["config_sha256"] == hashlib.sha256(blob.encode()).hexdigest()


def _poisson_fit_cfg(estimator, data=None):
    cfg = fit_cfg()
    cfg["data"]["simulate"]["family"] = {"family": "poisson"}
    cfg["data"]["simulate"]["rate"] = 0.5
    cfg["estimator"] = estimator
    if data is not None:
        cfg["data"] = data
    return cfg


def _exact_fit(tmp_path, capsys, estimator, data=None):
    cfg = _poisson_fit_cfg(estimator, data)
    code, out, err = run_cli(
        capsys, ["fit", write_cfg(tmp_path, cfg), "--out-root", str(tmp_path / "out")]
    )
    fit = json.loads((pathlib.Path(out.strip()) / "fit.json").read_text()) if code == 0 else None
    return code, fit, err


def test_exact_estimator_runs_newton_cg_when_c_is_known(tmp_path, capsys):
    ridge = {"kind": "scaled_identity", "dim": 5, "scale": 1.0}
    estimator = {"kind": "exact", "R": ridge, "fit_offset": True}
    _, ncg, _ = _exact_fit(tmp_path, capsys, estimator)
    data, _, _ = cli_mod._resolve_dataset(_poisson_fit_cfg(estimator)["data"], 11)
    newton = cli_mod._fit_json(
        fit_exact(data, R=ScaledIdentity(5, 1.0), fit_offset=True)
    )
    assert ncg["solver"] == "fit_exact_newton_cg" and ncg["converged"]
    assert newton["solver"] == "fit_exact_newton" and newton["converged"]
    np.testing.assert_allclose(ncg["theta"], newton["theta"], atol=1e-7)
    assert ncg["theta0"] == pytest.approx(newton["theta0"], abs=1e-7)


def test_exact_estimator_method_errors_are_exit_2(tmp_path, capsys):
    """The estimator takes no method key: the solver follows from the data
    and C. An unknown estimator key, misspelt or removed, is a config error
    that names the key."""
    for key, value in (("method", "newton"), ("method", "newton_cg"), ("lamda", 1.0)):
        code, _, err = _exact_fit(tmp_path, capsys, {"kind": "exact", key: value})
        assert code == 2 and f"'{key}' was unexpected" in err
    # stored data carries no covariance: Newton
    stem = tmp_path / "stored"
    rng = np.random.default_rng(0)
    X = rng.standard_normal((80, 3))
    save_dataset(GlmDataset(X, rng.standard_normal(80), Gaussian()), str(stem))
    code, fit, _ = _exact_fit(tmp_path, capsys, {"kind": "exact"}, data={"stem": str(stem)})
    assert code == 0 and fit["solver"] == "fit_exact_newton"


def test_pcg_refine_estimator_matches_the_library_call(tmp_path, capsys):
    """The CLI's pcg_refine is fit_exact(data, R=R, C=C, max_iter=k): k
    truncated-Newton steps from the MPELE, with the offset fitted for Poisson
    data. fit.json bit for bit."""
    ridge = {"kind": "scaled_identity", "dim": 5, "scale": 1.0}
    estimator = {"kind": "pcg_refine", "R": ridge, "k": 4}
    code, fit, _ = _exact_fit(tmp_path, capsys, estimator)
    assert code == 0
    data, C, _ = cli_mod._resolve_dataset(_poisson_fit_cfg(estimator)["data"], 11)
    want = fit_exact(data, R=ScaledIdentity(5, 1.0), C=C, max_iter=4, fit_offset=True)
    assert fit == json.loads(json.dumps(cli_mod._fit_json(want)))
    assert fit["solver"] == "fit_exact_newton_cg" and 1 <= fit["iterations"] <= 4
    # k = 0 returns the MPELE
    code, fit, _ = _exact_fit(tmp_path, capsys, {**estimator, "k": 0})
    start = mele(data, C, R=ScaledIdentity(5, 1.0)).params
    assert code == 0 and fit["iterations"] == 0
    assert fit["theta"] == start.theta.tolist() and fit["theta0"] == start.theta0


def test_pcg_refine_estimator_config_errors_are_exit_2(tmp_path, capsys):
    """pcg_refine needs C, and Gaussian or Poisson data for its EL start:
    fit_exact would run dense Newton from zero on other families."""
    stem = tmp_path / "stored"
    rng = np.random.default_rng(0)
    X = rng.standard_normal((80, 3))
    save_dataset(GlmDataset(X, rng.standard_normal(80), Gaussian()), str(stem))
    code, _, err = _exact_fit(tmp_path, capsys, {"kind": "pcg_refine"}, data={"stem": str(stem)})
    assert code == 2 and "'C'" in err
    cfg = fit_cfg(p=3)
    cfg["data"]["simulate"]["family"] = {"family": "bernoulli"}
    cfg["estimator"] = {"kind": "pcg_refine"}
    code, _, err = run_cli(
        capsys, ["fit", write_cfg(tmp_path, cfg), "--out-root", str(tmp_path / "out")]
    )
    assert code == 2 and "Gaussian or Poisson" in err


def test_el_estimator_kinds_take_their_scale_from_the_family(tmp_path, capsys):
    """mele and mpele run the same closed form; mpele_l1 at lam=0 lands on it,
    since it scales by N_s on Poisson data too; Bernoulli data have no closed
    form, so all three are config errors."""
    code, fit_mele, _ = _exact_fit(tmp_path, capsys, {"kind": "mele"})
    assert code == 0 and fit_mele["solver"] == "mele"
    code, fit_mpele, _ = _exact_fit(tmp_path, capsys, {"kind": "mpele"})
    assert code == 0 and fit_mpele == fit_mele
    code, fit_l1, _ = _exact_fit(tmp_path, capsys, {"kind": "mpele_l1", "lam_path": [0.0]})
    assert code == 0
    np.testing.assert_allclose(fit_l1["theta"], fit_mele["theta"], rtol=0, atol=1e-8)
    for kind in ("mele", "mpele", "mpele_l1"):
        cfg = fit_cfg(p=3)
        cfg["data"]["simulate"]["family"] = {"family": "bernoulli"}
        cfg["estimator"] = {"kind": kind}
        code, _, err = run_cli(
            capsys, ["fit", write_cfg(tmp_path, cfg), "--out-root", str(tmp_path / "out")]
        )
        assert code == 2 and "Gaussian or Poisson" in err, kind


def test_rerun_is_bitwise_identical(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, fit_cfg())
    roots = [tmp_path / "a", tmp_path / "b"]
    for root in roots:
        code, _, _ = run_cli(capsys, ["fit", cfg_path, "--out-root", str(root)])
        assert code == 0
    dir_a = next((roots[0] / "demo").iterdir())
    dir_b = next((roots[1] / "demo").iterdir())
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


def test_set_overrides_and_seed_flag(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, fit_cfg())
    out_root = tmp_path / "out"
    code, out, _ = run_cli(
        capsys,
        [
            "fit",
            cfg_path,
            "--out-root",
            str(out_root),
            "--set",
            "data.simulate.stimulus.N=150",
            "--set",
            "experiment=override",
            "--seed",
            "99",
        ],
    )
    assert code == 0
    outdir = pathlib.Path(out.strip())
    assert outdir.parent.name == "override"
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["config"]["data"]["simulate"]["stimulus"]["N"] == 150
    assert manifest["seed"] == 99


def test_apply_overrides_parses_json_values():
    cfg = _apply_overrides({}, ["a.b=2.5", "a.c=[1,2]", "name=plain", "flag=true"])
    assert cfg == {"a": {"b": 2.5, "c": [1, 2]}, "name": "plain", "flag": True}


def test_apply_overrides_rejects_bad_items():
    with pytest.raises(ConfigError, match="key=value"):
        _apply_overrides({}, ["oops"])
    with pytest.raises(ConfigError, match="non-object"):
        _apply_overrides({"a": 1}, ["a.b=2"])


def test_set_without_equals_is_exit_2(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, fit_cfg())
    code, _, err = run_cli(capsys, ["fit", cfg_path, "--set", "oops"])
    assert code == 2


# ------------------------------------------------------ subcommand runners

def test_select_sweep_matches_direct_evidence(tmp_path, capsys):
    rng = np.random.default_rng(5)
    N, p = 60, 4
    X = rng.standard_normal((N, p))
    r = X @ rng.standard_normal(p) + rng.standard_normal(N)
    data = GlmDataset(X, r, Gaussian(sigma2=1.0))
    stem = str(tmp_path / "gdata")
    save_dataset(data, stem)
    cfg = {
        "seed": 0,
        "mode": "sweep",
        "data": {"stem": stem},
        "evidence": "gaussian_exact",
        "beta_grid": [0.5, 2.0, 8.0],
    }
    code, out, _ = run_cli(capsys, ["select", write_cfg(tmp_path, cfg), "--out-root", str(tmp_path / "out")])
    assert code == 0
    lines = (pathlib.Path(out.strip()) / "sweep.csv").read_text().splitlines()
    assert lines[0] == "beta,log_evidence"
    assert len(lines) == 4
    for line, beta in zip(lines[1:], cfg["beta_grid"]):
        want = gaussian_evidence(data, R=ScaledIdentity(p, beta), mode="exact").value
        # repr-formatted floats round trip exactly
        assert float(line.split(",")[1]) == want


def _count_exact_fits(monkeypatch):
    """Record the method of every fit_exact call the select runner makes, and
    count the dense Hessians built."""
    log = {"methods": [], "hess_dense": 0}

    def fit(*args, **kw):
        out = fit_exact(*args, **kw)
        log["methods"].append(out.solver.removeprefix("fit_exact_"))
        return out

    dense = ExactObjective.hess_dense

    def hess(self, x):
        log["hess_dense"] += 1
        return dense(self, x)

    monkeypatch.setattr(cli_mod, "fit_exact", fit)
    monkeypatch.setattr(selection_mod, "fit_exact", fit)
    monkeypatch.setattr(ExactObjective, "hess_dense", hess)
    return log


def test_select_laplace_exact_sweep_is_hessian_free_with_c(tmp_path, capsys, monkeypatch):
    """With C known, the laplace_exact sweep's MAPs are truncated Newton fits
    and give the evidence of the Newton MAP; the Laplace log-determinant is
    the only dense Hessian, one per beta."""
    rng = np.random.default_rng(6)
    N, p = 400, 4
    X = rng.standard_normal((N, p))
    data = GlmDataset(X, rng.poisson(np.exp(0.4 * X[:, 0] - 0.5)).astype(float), Poisson())
    stem = str(tmp_path / "pdata")
    save_dataset(data, stem)
    cfg = {
        "seed": 0,
        "mode": "sweep",
        "data": {"stem": stem},
        "C": {"kind": "scaled_identity", "dim": p, "scale": 1.0},
        "evidence": "laplace_exact",
        "beta_grid": [0.5, 2.0, 8.0],
    }
    log = _count_exact_fits(monkeypatch)
    code, out, _ = run_cli(capsys, ["select", write_cfg(tmp_path, cfg), "--out-root", str(tmp_path / "out")])
    assert code == 0
    assert log["methods"] == ["newton_cg"] * 3
    assert log["hess_dense"] == 3
    lines = (pathlib.Path(out.strip()) / "sweep.csv").read_text().splitlines()
    for line, beta in zip(lines[1:], cfg["beta_grid"]):
        R = ScaledIdentity(p, beta)
        fit = fit_exact(data, R=R, fit_offset=True)
        want = laplace_evidence(data, R, fit.params, mode="exact", fit_offset=True).value
        assert float(line.split(",")[1]) == pytest.approx(want, rel=1e-10)


def test_select_ridge_recovery_refits_are_hessian_free(tmp_path, capsys, monkeypatch):
    """ridge_recovery knows C = I: every fixed-point refit is truncated Newton,
    and the only dense Hessians are the traces, one per refit."""
    cfg = {"seed": 2, "mode": "ridge_recovery", "replicates": 2, "N": 250, "p": 8,
           "norm": 2.0, "rate": 1.0, "max_iter": 15}
    log = _count_exact_fits(monkeypatch)
    code, _, _ = run_cli(capsys, ["select", write_cfg(tmp_path, cfg), "--out-root", str(tmp_path / "out")])
    assert code == 0
    assert log["methods"] and set(log["methods"]) == {"newton_cg"}
    assert log["hess_dense"] == len(log["methods"])


def test_select_sweep_requires_its_keys(tmp_path, capsys):
    cfg = {"mode": "sweep", "data": {"simulate": {
        "stimulus": {"kind": "gaussian_iid", "N": 30, "p": 2},
        "family": {"family": "gaussian"},
    }}}
    code, _, err = run_cli(capsys, ["select", write_cfg(tmp_path, cfg), "--out-root", str(tmp_path / "out")])
    assert code == 2
    assert "evidence" in err


def test_select_ridge_recovery_smoke(tmp_path, capsys):
    cfg = {
        "seed": 2,
        "mode": "ridge_recovery",
        "replicates": 2,
        "N": 250,
        "p": 8,
        "norm": 2.0,
        "rate": 1.0,
        "max_iter": 15,
    }
    code, out, _ = run_cli(capsys, ["select", write_cfg(tmp_path, cfg), "--out-root", str(tmp_path / "out")])
    assert code == 0
    summary = json.loads((pathlib.Path(out.strip()) / "summary.json").read_text())
    assert len(summary["replicates"]) == 2
    for row in summary["replicates"]:
        assert row["beta_el"] > 0
        assert row["beta_exact"] > 0
    assert summary["median_abs_log_ratio_el"] >= 0.0
    assert summary["median_abs_log_ratio_onestep"] >= 0.0


def test_sample_laplace_gaussian(tmp_path, capsys):
    p = 3
    cfg = {
        "seed": 4,
        "data": {
            "simulate": {
                "stimulus": {"kind": "gaussian_iid", "N": 80, "p": p},
                "family": {"family": "gaussian"},
            }
        },
        "target": "laplace-gaussian",
        "draws": 60,
        "R": {"kind": "scaled_identity", "dim": p, "scale": 1.0},
    }
    code, out, _ = run_cli(capsys, ["sample", write_cfg(tmp_path, cfg), "--out-root", str(tmp_path / "out")])
    assert code == 0
    outdir = pathlib.Path(out.strip())
    meta = json.loads((outdir / "chain.json").read_text())
    assert meta["draws"] == 60
    assert meta["dim"] == p
    assert meta["acceptance_rate"] == 1.0
    lines = (outdir / "summary.csv").read_text().splitlines()
    assert lines[0] == "coordinate,median,q025,q975"
    assert len(lines) == 1 + p


def test_sample_laplace_gaussian_builds_one_dense_hessian(tmp_path, capsys, monkeypatch):
    """With C known for Poisson data, the Laplace target's MAP is truncated
    Newton: the Laplace covariance is the only dense Hessian."""
    p = 4
    cfg = {
        "seed": 4,
        "data": {
            "simulate": {
                "stimulus": {"kind": "gaussian_iid", "N": 300, "p": p},
                "family": {"family": "poisson"},
                "theta_norm": 0.5,
                "rate": 0.5,
            }
        },
        "target": "laplace-gaussian",
        "draws": 20,
        "fit_offset": True,
        "R": {"kind": "scaled_identity", "dim": p, "scale": 1.0},
    }
    log = _count_exact_fits(monkeypatch)
    code, _, _ = run_cli(capsys, ["sample", write_cfg(tmp_path, cfg), "--out-root", str(tmp_path / "out")])
    assert code == 0
    assert log["methods"] == ["newton_cg"]
    assert log["hess_dense"] == 1


def test_sample_el_hmc(tmp_path, capsys):
    cfg = {
        "seed": 9,
        "data": {
            "simulate": {
                "stimulus": {"kind": "gaussian_iid", "N": 150, "p": 3},
                "family": {"family": "poisson", "dt": 1.0},
                "theta_norm": 0.5,
                "rate": 0.5,
            }
        },
        "target": "el",
        "draws": 40,
        "step": 0.03,
        "n_leapfrog": 10,
        "burn_in": 10,
    }
    code, out, _ = run_cli(capsys, ["sample", write_cfg(tmp_path, cfg), "--out-root", str(tmp_path / "out")])
    assert code == 0
    meta = json.loads((pathlib.Path(out.strip()) / "chain.json").read_text())
    assert meta["target"] == "el"
    assert meta["draws"] == 40
    assert 0.0 < meta["acceptance_rate"] <= 1.0


def test_sample_exact_hmc_energies_are_the_float64_potential(tmp_path, capsys):
    """The exact chain leapfrogs on the single-precision force (it is the
    library chain driven by ExactObjective.grad32, byte for byte), but its
    manifest's energies are the float64 negative log posterior at the
    retained draws."""
    rng = np.random.default_rng(21)
    N, p = 300, 4
    X = rng.standard_normal((N, p))
    r = rng.poisson(np.exp(0.3 * X[:, 0] - 0.7)).astype(float)
    data = GlmDataset(X, r, Poisson())
    stem = str(tmp_path / "lnp")
    save_dataset(data, stem)
    R = {"kind": "scaled_identity", "dim": p, "scale": 1.0}
    cfg = {
        "seed": 3,
        "data": {"stem": stem},
        "C": {"kind": "scaled_identity", "dim": p, "scale": 1.0},
        "R": R,
        "fit_offset": True,
        "target": "exact",
        "draws": 30,
        "step": 0.02,
        "n_leapfrog": 8,
        "burn_in": 5,
    }
    code, out, _ = run_cli(capsys, ["sample", write_cfg(tmp_path, cfg), "--out-root", str(tmp_path / "out")])
    assert code == 0
    chain = load_chain(pathlib.Path(out.strip()) / "chain")
    assert chain.target == "exact"
    assert 0.5 < chain.acceptance_rate <= 1.0
    obj = ExactObjective(load_dataset(stem), fit_offset=True, R=ScaledIdentity(p, 1.0))
    want = np.array([-obj.value(x) for x in chain.samples])
    np.testing.assert_array_equal(chain.energies, want)
    init = mele(obj.data, ScaledIdentity(p, 1.0)).params
    x0 = np.concatenate(([init.theta0], init.theta))
    u = make_potential(obj)
    lib = hmc_chain(u, x0, 0.02, 8, 30, 5, 3, "exact", force=lambda x: -obj.grad32(x))
    assert chain.samples.tobytes() == lib.samples.tobytes()
    assert chain.samples.tobytes() != hmc_chain(u, x0, 0.02, 8, 30, 5, 3).samples.tobytes()


def test_risk_csv_matches_closed_forms(tmp_path, capsys):
    cfg = {"seed": 0, "N": 40, "kinds": ["mele", "mle"], "rho_grid": [0.25, 0.5], "snr": [1.0], "trials": 0}
    code, out, _ = run_cli(capsys, ["risk", write_cfg(tmp_path, cfg), "--out-root", str(tmp_path / "out")])
    assert code == 0
    outdir = pathlib.Path(out.strip())
    with open(outdir / "risk.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        spec = RiskSpec(kind=row["kind"], N=40, p=int(row["p"]), theta_norm2=1.0)
        assert float(row["mse_closed_form"]) == mse_closed_form(spec)
        assert np.isnan(float(row["mse_mc"]))
    cross = (outdir / "crossover.csv").read_text().splitlines()
    assert cross[0] == "snr,crossover_rho"
    assert float(cross[1].split(",")[1]) == pytest.approx(0.5)  # snr/(1+snr) at snr=1


def test_simulate_glm_writes_dataset(tmp_path, capsys):
    cfg = {
        "seed": 21,
        "stem": "sim",
        "glm": {
            "stimulus": {"kind": "gaussian_iid", "N": 100, "p": 4},
            "family": {"family": "poisson", "dt": 0.5},
            "theta_norm": 0.8,
            "rate": 1.2,
        },
    }
    code, out, _ = run_cli(capsys, ["simulate", write_cfg(tmp_path, cfg), "--out-root", str(tmp_path / "out")])
    assert code == 0
    outdir = pathlib.Path(out.strip())
    data = load_dataset(str(outdir / "sim"))
    assert data.X.shape == (100, 4)
    assert np.all(data.r >= 0)
    truth = json.loads((outdir / "sim_truth.json").read_text())
    theta = np.asarray(truth["theta"])
    assert np.linalg.norm(theta) == pytest.approx(0.8)
    # mean-rate identity under the unit-variance stimulus
    assert truth["theta0"] == pytest.approx(np.log(1.2) - 0.5 * 0.8**2)
    assert json.loads((outdir / "sim_C.json").read_text())["kind"] == "scaled_identity"


def _population_cfg():
    return {
        "seed": 13,
        "lam_path": [8.0, 2.0],
        "simulate": {
            "M": 3,
            "stimulus": {"kind": "gaussian_iid", "N": 500, "p": 2},
            "basis": {"tau": 5, "n_bumps": 2},
            "dt": 1.0,
            "baseline_rate": 0.3,
            "filter_norm": 0.5,
            "coupling_density": 0.3,
            "coupling_scale": 0.3,
        },
    }


def test_population_pipeline(tmp_path, capsys):
    cfg = _population_cfg()
    code, out, _ = run_cli(capsys, ["population", write_cfg(tmp_path, cfg), "--out-root", str(tmp_path / "out")])
    assert code == 0
    outdir = pathlib.Path(out.strip())
    manifest = json.loads((outdir / "manifest.json").read_text())
    for name in ("popdata_spikes.bin", "popdata_stim.bin", "filters_000.json", "filters_001.json", "metrics.csv"):
        assert name in manifest["outputs"]
        assert (outdir / name).exists()
    lines = (outdir / "metrics.csv").read_text().splitlines()
    assert lines[0] == "lam,coupling_nnz,mean_bits_per_s"
    assert len(lines) == 3
    assert [float(row.split(",")[0]) for row in lines[1:]] == [8.0, 2.0]


def test_population_scores_every_lambda_on_one_design_per_neuron(tmp_path, monkeypatch):
    built = []

    def counted(pop, basis, target):
        built.append(target)
        return build_population_design(pop, basis, target)

    monkeypatch.setattr("elglm.cli.build_population_design", counted)
    outdir = run_experiment("population", _population_cfg(), out_root=str(tmp_path / "out"))
    assert sorted(built) == [0, 1, 2]
    # the per-lambda mean matches scoring each filter set on fresh designs
    pop = load_population(outdir / "popdata")
    basis = HistoryBasis(tau=5, n_bumps=2)
    rows = list(csv.DictReader((outdir / "metrics.csv").read_text().splitlines()))
    for k, row in enumerate(rows):
        filters = CoupledFilterSet.from_json((outdir / f"filters_{k:03d}.json").read_text())
        bits = [
            bits_per_second(build_population_design(pop, basis, i), filterset_params(filters, basis, i), pop.N)
            for i in range(pop.M)
        ]
        assert float(row["mean_bits_per_s"]) == float(np.mean(bits))


def test_bench_el_scaling(tmp_path, capsys):
    cfg = {"seed": 1, "mode": "el_scaling", "p": 6, "N_grid": [400], "repeats": 1}
    code, out, _ = run_cli(capsys, ["bench", write_cfg(tmp_path, cfg), "--out-root", str(tmp_path / "out")])
    assert code == 0
    lines = (pathlib.Path(out.strip()) / "bench.csv").read_text().splitlines()
    assert lines[0] == "N,t_el,t_exact,speedup"
    assert len(lines) == 2
