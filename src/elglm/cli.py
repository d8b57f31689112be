"""Batch experiment runner.

Subcommands: fit, select, sample, risk, simulate, population, bench. Each
takes a JSON config, validates it against a schema, and writes its artifacts
under out/<experiment>/<timestamp>/ together with a manifest recording the
seed, config hash, and library versions. Exit codes: 0 success, 2 config
error, 3 numerical failure. Outputs contain no wall-clock values, so a rerun
with the same config and seed reproduces them bitwise.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import pathlib
import shutil
import sys
import time

import jsonschema
import numpy as np
import scipy

from . import __version__
from .el import AnalyticExponential, AnalyticQuadratic, ELObjective, el_loglik
from .estimators import (
    default_lambda_path,
    fit_exact,
    fit_exact_l1,
    mele,
    mpele_l1_path,
)
from .families import FAMILIES, Gaussian, Poisson, family_from_config
from .glm import ExactObjective, GlmDataset, GlmParams, exact_loglik, load_dataset, save_dataset, simulate_responses
from .population import (
    CoupledFilterSet,
    HistoryBasis,
    build_population_design,
    bits_per_second,
    filterset_params,
    load_population,
    save_population,
    stagewise_population_fit,
)
from .risk import RiskSpec, check_mc, crossover_rho, mc_mse, mse_asymptotic, mse_closed_form
from .sampling import (
    chain_summary,
    hmc_chain,
    laplace_gaussian_chain,
    make_potential,
    save_chain,
    surrogate_hmc_chain,
    write_summary_csv,
)
from .selection import gaussian_evidence, laplace_evidence, rhat_analytic, rhat_fixed_point
from .simulate import (
    StimulusSpec,
    gen_coupled_population,
    gen_stimuli,
    spatiotemporal_covariance,
)
from .structured import KINDS as MATRIX_KINDS, ScaledIdentity, from_config as structured_from_config


# The coordinate-descent kernel has a single pure-Python implementation,
# elglm._cd. The name stays because benchmark reports record it
# (perfbench/run.py reads it for the run environment).
CD_BACKEND = "python"


class ConfigError(Exception):
    pass


class NumericalFailure(Exception):
    pass


# ---------------------------------------------------------------- schemas

# Each structured-matrix kind requires its own fields; Kronecker factors are
# matrices again, through $ref. Entries of a dense matrix are left to its
# constructor, so a large C config costs no per-entry validation.
_NUMBERS = {"type": "array", "minItems": 1, "items": {"type": "number"}}
_MATRIX_FIELDS = {
    "scaled_identity": {"dim": {"type": "integer", "minimum": 1}, "scale": {"type": "number"}},
    "diagonal": {"values": _NUMBERS},
    "banded": {"diagonals": {"type": "array", "minItems": 1, "items": _NUMBERS}},
    "circulant": {"first_row": _NUMBERS},
    "dense": {"values": {"type": "array", "minItems": 1, "items": {"type": "array"}}},
    "kronecker": {
        "factors": {"type": "array", "minItems": 2, "items": {"$ref": "#/$defs/matrix"}}
    },
}
_MATRIX = {
    "type": "object",
    "required": ["kind"],
    "properties": {"kind": {"enum": list(MATRIX_KINDS)}},
    "allOf": [
        {
            "if": {"required": ["kind"], "properties": {"kind": {"const": kind}}},
            "then": {"required": list(_MATRIX_FIELDS[kind]), "properties": _MATRIX_FIELDS[kind]},
        }
        for kind in MATRIX_KINDS
    ],
}
_STRUCTURED = {"$ref": "#/$defs/matrix"}
_FAMILY = {
    "type": "object",
    "required": ["family"],
    "properties": {"family": {"enum": list(FAMILIES)}},
}
_STIMULUS = {
    "type": "object",
    "required": ["kind", "N", "p"],
    "properties": {
        "kind": {"enum": ["gaussian_iid", "gaussian_structured", "binary_iid", "weibull_iid"]},
        "N": {"type": "integer", "minimum": 1},
        "p": {"type": "integer", "minimum": 1},
        "sigma": {"type": "number"},
        "mean": {"type": "number"},
        "scale": {"type": "number"},
        "shape": {"type": "number"},
        "C": _STRUCTURED,
        "spatiotemporal": {
            "type": "object",
            "required": ["side", "T"],
            "properties": {
                "side": {"type": "integer", "minimum": 2},
                "T": {"type": "integer", "minimum": 1},
                "phi": {"type": "number"},
            },
        },
    },
}
_SIM_GLM = {
    "type": "object",
    "required": ["stimulus", "family"],
    "properties": {
        "stimulus": _STIMULUS,
        "family": _FAMILY,
        "theta": {"type": "array", "items": {"type": "number"}},
        "theta_norm": {"type": "number"},
        "theta0": {"type": "number"},
        "rate": {"type": "number", "exclusiveMinimum": 0},
    },
}
_SIM_POPULATION = {
    "type": "object",
    "required": ["M", "stimulus"],
    "properties": {
        "M": {"type": "integer", "minimum": 1},
        "stimulus": _STIMULUS,
        "basis": {"type": "object"},
        "dt": {"type": "number", "exclusiveMinimum": 0},
        "baseline_rate": {"type": "number", "exclusiveMinimum": 0},
        "filter_norm": {"type": "number", "minimum": 0},
        "coupling_density": {"type": "number", "minimum": 0, "maximum": 1},
        "coupling_scale": {"type": "number"},
        "self_scale": {"type": "number"},
    },
}
_DATA = {
    "type": "object",
    "properties": {"stem": {"type": "string"}, "simulate": _SIM_GLM},
}

SCHEMAS = {
    "fit": {
        "type": "object",
        "required": ["data", "estimator"],
        "properties": {
            "seed": {"type": "integer"},
            "experiment": {"type": "string"},
            "data": _DATA,
            "C": _STRUCTURED,
            "estimator": {
                "type": "object",
                "required": ["kind"],
                "additionalProperties": False,
                "properties": {
                    "kind": {
                        "enum": ["mele", "mpele", "mpele_l1", "exact", "exact_l1", "pcg_refine"]
                    },
                    "R": _STRUCTURED,
                    "lam": {"type": "number", "minimum": 0},
                    "lam_path": {"type": "array", "items": {"type": "number"}},
                    "k": {"type": "integer", "minimum": 0},
                    "fit_offset": {"type": "boolean"},
                },
            },
        },
    },
    "select": {
        "type": "object",
        "required": ["mode"],
        "properties": {
            "seed": {"type": "integer"},
            "experiment": {"type": "string"},
            "mode": {"enum": ["ridge_recovery", "sweep"]},
            "replicates": {"type": "integer", "minimum": 1},
            "N": {"type": "integer", "minimum": 2},
            "p": {"type": "integer", "minimum": 1},
            "norm": {"type": "number", "exclusiveMinimum": 0},
            "stim_sigma": {"type": "number", "exclusiveMinimum": 0},
            "rate": {"type": "number", "exclusiveMinimum": 0},
            "max_iter": {"type": "integer", "minimum": 1},
            "data": _DATA,
            "C": _STRUCTURED,
            "evidence": {
                "enum": ["gaussian_exact", "gaussian_el", "laplace_exact", "laplace_el"]
            },
            "beta_grid": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}},
        },
    },
    "sample": {
        "type": "object",
        "required": ["data", "target", "draws"],
        "properties": {
            "seed": {"type": "integer"},
            "experiment": {"type": "string"},
            "data": _DATA,
            "C": _STRUCTURED,
            "target": {"enum": ["exact", "el", "surrogate", "laplace-gaussian"]},
            "draws": {"type": "integer", "minimum": 1},
            "step": {"type": "number", "exclusiveMinimum": 0},
            "n_leapfrog": {"type": "integer", "minimum": 1},
            "burn_in": {"type": "integer", "minimum": 0},
            "fit_offset": {"type": "boolean"},
            "R": _STRUCTURED,
        },
    },
    "risk": {
        "type": "object",
        "required": ["N", "kinds"],
        "properties": {
            "seed": {"type": "integer"},
            "experiment": {"type": "string"},
            "N": {"type": "integer", "minimum": 3},
            "kinds": {"type": "array", "items": {"enum": ["mele", "mle", "mpele", "map"]}},
            "rho_grid": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}},
            "snr": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}},
            "trials": {"type": "integer", "minimum": 0},
            "c": {"type": "number", "minimum": 0},
            "asymptotic": {"type": "boolean"},
        },
    },
    "simulate": {
        "type": "object",
        "properties": {
            "seed": {"type": "integer"},
            "experiment": {"type": "string"},
            "glm": _SIM_GLM,
            "population": _SIM_POPULATION,
            "stem": {"type": "string"},
        },
        "anyOf": [{"required": ["glm"]}, {"required": ["population"]}],
    },
    "population": {
        "type": "object",
        "required": ["lam_path"],
        "properties": {
            "seed": {"type": "integer"},
            "experiment": {"type": "string"},
            "data_stem": {"type": "string"},
            "simulate": _SIM_POPULATION,
            "basis": {"type": "object"},
            "C": _STRUCTURED,
            "lam_path": {"type": "array", "items": {"type": "number", "minimum": 0}},
            "pcg_budget": {"type": "integer", "minimum": 0},
        },
    },
    "bench": {
        "type": "object",
        "required": ["mode"],
        "properties": {
            "seed": {"type": "integer"},
            "experiment": {"type": "string"},
            "mode": {"enum": ["el_scaling"]},
            "N_grid": {"type": "array", "items": {"type": "integer", "minimum": 1}},
            "p": {"type": "integer", "minimum": 1},
            "repeats": {"type": "integer", "minimum": 1},
        },
    },
}
for _schema in SCHEMAS.values():
    _schema["$defs"] = {"matrix": _MATRIX}


def _validate(cfg: dict, subcommand: str) -> None:
    validator = jsonschema.Draft202012Validator(SCHEMAS[subcommand])
    errors = sorted(validator.iter_errors(cfg), key=lambda e: e.json_path)
    if errors:
        lines = [f"  at {e.json_path}: {e.message}" for e in errors]
        raise ConfigError(f"config does not match the {subcommand} schema:\n" + "\n".join(lines))


# ------------------------------------------------------------- resolution

def _stimulus_spec(node: dict) -> StimulusSpec:
    kw = {k: node[k] for k in ("sigma", "mean", "scale", "shape") if k in node}
    C = None
    if node["kind"] == "gaussian_structured":
        if "spatiotemporal" in node:
            st = node["spatiotemporal"]
            C = spatiotemporal_covariance(st["side"], st["T"], st.get("phi", 0.9))
        elif "C" in node:
            C = structured_from_config(node["C"])
        else:
            raise ConfigError("gaussian_structured stimulus needs 'C' or 'spatiotemporal'")
    return StimulusSpec(kind=node["kind"], N=node["N"], p=node["p"], C=C, **kw)


def _simulate_glm(node: dict, seed: int):
    """Returns (GlmDataset, true C, GlmParams used)."""
    spec = _stimulus_spec(node["stimulus"])
    family = family_from_config(node["family"])
    s_stim, s_theta, s_resp = np.random.SeedSequence(seed).generate_state(3)
    X, C = gen_stimuli(spec, int(s_stim))
    if "theta" in node:
        theta = np.asarray(node["theta"], dtype=float)
        if theta.size != spec.p:
            raise ConfigError(f"theta has {theta.size} entries, stimulus p={spec.p}")
    else:
        theta = np.random.default_rng(int(s_theta)).standard_normal(spec.p)
        theta *= node.get("theta_norm", 1.0) / np.linalg.norm(theta)
    if "theta0" in node:
        theta0 = float(node["theta0"])
    elif "rate" in node:
        # mean-rate identity for Gaussian stimuli: E exp(theta0 + x'theta) = rate
        theta0 = float(np.log(node["rate"]) - 0.5 * theta @ C.matvec(theta))
    else:
        theta0 = 0.0
    params = GlmParams(theta0=theta0, theta=theta)
    r = simulate_responses(family, X, params, int(s_resp))
    return GlmDataset(X, r, family), C, params


def _resolve_dataset(node: dict, seed: int):
    """(data, C-or-None, true-params-or-None) from a stem or a simulation."""
    if "stem" in node:
        return load_dataset(node["stem"]), None, None
    if "simulate" in node:
        return _simulate_glm(node["simulate"], seed)
    raise ConfigError("data must give either 'stem' or 'simulate'")


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, np.integer):
        return str(int(x))
    return str(x)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _fit_json(fit) -> dict:
    return {
        "theta0": fit.params.theta0,
        "theta": fit.params.theta.tolist(),
        "solver": fit.solver,
        "iterations": fit.iterations,
        "converged": fit.converged,
        "diagnostics": {k: float(v) for k, v in fit.diagnostics.items()},
    }


# ---------------------------------------------------------------- runners

def _run_fit(cfg: dict, outdir: pathlib.Path, seed: int):
    data, C_true, _ = _resolve_dataset(cfg["data"], seed)
    C = structured_from_config(cfg["C"]) if "C" in cfg else C_true
    est = cfg["estimator"]
    kind = est["kind"]
    # the EL kinds start from the closed form, which only Gaussian and Poisson
    # data have; fit_exact would otherwise run dense Newton from zero
    if kind in ("mele", "mpele", "mpele_l1", "pcg_refine"):
        if C is None:
            raise ConfigError(f"estimator {kind!r} needs a covariance: give 'C' in the config")
        if not isinstance(data.family, (Gaussian, Poisson)):
            raise ConfigError(f"estimator {kind!r} needs a Gaussian or Poisson dataset")
    R = structured_from_config(est["R"]) if "R" in est else None
    fit_offset = est.get("fit_offset", False)
    outputs = []
    if kind == "mpele_l1":
        lam_path = np.asarray(est.get("lam_path", default_lambda_path(data)), dtype=float)
        fits = mpele_l1_path(data, C, lam_path)
        rows = [
            (lam, int(np.count_nonzero(f.params.theta)), f.diagnostics.get("kkt", 0.0))
            for lam, f in zip(lam_path, fits)
        ]
        _write_csv(outdir / "path.csv", ["lam", "nnz", "kkt"], rows)
        outputs.append("path.csv")
        fit = fits[-1]
    elif kind in ("mele", "mpele"):
        fit = mele(data, C, R=R)
    elif kind == "exact":
        fit = fit_exact(data, R=R, fit_offset=fit_offset, C=C)
    elif kind == "exact_l1":
        if "lam" not in est:
            raise ConfigError("estimator exact_l1 needs 'lam'")
        fit = fit_exact_l1(data, est["lam"], R=R, fit_offset=fit_offset)
    else:  # pcg_refine: k truncated-Newton steps from the EL estimate
        fit = fit_exact(
            data,
            R=R,
            C=C,
            max_iter=est.get("k", 10),
            fit_offset=fit_offset or isinstance(data.family, Poisson),
        )
    (outdir / "fit.json").write_text(json.dumps(_fit_json(fit), indent=2))
    _write_csv(
        outdir / "trace.csv",
        ["step", "objective"],
        list(enumerate(fit.objective_trace)),
    )
    return outputs + ["fit.json", "trace.csv"]


def _run_select(cfg: dict, outdir: pathlib.Path, seed: int):
    if cfg["mode"] == "ridge_recovery":
        reps = cfg.get("replicates", 30)
        N = cfg.get("N", 2000)
        p = cfg.get("p", 250)
        norm = cfg.get("norm", 10.0)
        # unit-power stimulus: contrast defaults to 1/sqrt(p), folded into the
        # filter after whitening so all formulas below see C = I
        sigma = cfg.get("stim_sigma", p ** -0.5)
        rate = cfg.get("rate", 1.0)
        max_iter = cfg.get("max_iter", 40)
        rows = []
        for child in np.random.SeedSequence(seed).spawn(reps):
            s_theta, s_x, s_r = child.generate_state(3)
            rng = np.random.default_rng(int(s_theta))
            theta = rng.standard_normal(p)
            theta *= norm * sigma / np.linalg.norm(theta)
            theta0 = float(np.log(rate) - 0.5 * theta @ theta)  # white-noise C = I
            X = np.random.default_rng(int(s_x)).standard_normal((N, p))
            fam = Poisson()
            r = simulate_responses(fam, X, GlmParams(theta0=theta0, theta=theta), int(s_r))
            data = GlmDataset(X, r, fam)
            q = float(data.s @ data.s)
            beta_el = rhat_analytic(q, data.N_s, p)
            row = {"beta_el": beta_el, "N_s": data.N_s}
            if np.isfinite(beta_el):
                fp = rhat_fixed_point(data, beta_el, max_iter=max_iter, C=ScaledIdentity(p, 1.0))
                row["beta_onestep"] = fp.betas[1]
                row["beta_exact"] = fp.betas[-1]
                row["fp_converged"] = fp.converged
            rows.append(row)
        fin = [
            row for row in rows if np.isfinite(row["beta_el"]) and "beta_exact" in row
        ]
        med = lambda key: float(
            np.median([abs(np.log(row[key] / row["beta_exact"])) for row in fin])
        )
        summary = {
            "replicates": rows,
            "median_abs_log_ratio_el": med("beta_el"),
            "median_abs_log_ratio_onestep": med("beta_onestep"),
        }
        (outdir / "summary.json").write_text(json.dumps(summary, indent=2))
        return ["summary.json"]
    # sweep mode: evidence over a beta grid for one dataset
    for key in ("data", "evidence", "beta_grid"):
        if key not in cfg:
            raise ConfigError(f"select sweep mode needs '{key}'")
    data, C_true, _ = _resolve_dataset(cfg["data"], seed)
    C = structured_from_config(cfg["C"]) if "C" in cfg else C_true
    method = cfg["evidence"]
    if method in ("gaussian_el", "laplace_el") and C is None:
        raise ConfigError(f"evidence {method!r} needs a covariance C")
    rows = []
    for beta in cfg["beta_grid"]:
        R = ScaledIdentity(data.p, float(beta))
        if method == "gaussian_exact":
            ev = gaussian_evidence(data, R=R, mode="exact")
        elif method == "gaussian_el":
            ev = gaussian_evidence(data, R=R, mode="el", C=C)
        elif method == "laplace_exact":
            fit = fit_exact(data, R=R, fit_offset=True, C=C)
            ev = laplace_evidence(data, R, fit.params, mode="exact", fit_offset=True)
        else:
            fit = mele(data, C, R=R)
            ev = laplace_evidence(data, R, fit.params, mode="el", C=C)
        rows.append((beta, ev.value))
    _write_csv(outdir / "sweep.csv", ["beta", "log_evidence"], rows)
    return ["sweep.csv"]


def _build_potentials(data, C, R, fit_offset):
    exact_obj = ExactObjective(data, fit_offset=fit_offset, R=R)
    if isinstance(data.family, Gaussian):
        engine = AnalyticQuadratic(C)
    elif isinstance(data.family, Poisson):
        engine = AnalyticExponential(C)
    else:
        raise ConfigError("sampling setup supports Gaussian and Poisson datasets")
    init_fit = mele(data, C)
    el_obj = ELObjective(engine, data, fit_offset=fit_offset, R=R)
    x0 = exact_obj.vector(init_fit.params)
    return exact_obj, make_potential(exact_obj), make_potential(el_obj), x0


def _run_sample(cfg: dict, outdir: pathlib.Path, seed: int):
    data, C_true, _ = _resolve_dataset(cfg["data"], seed)
    C = structured_from_config(cfg["C"]) if "C" in cfg else C_true
    target = cfg["target"]
    R = structured_from_config(cfg["R"]) if "R" in cfg else None
    fit_offset = cfg.get("fit_offset", False)
    draws = cfg["draws"]
    step = cfg.get("step", 0.01)
    n_leapfrog = cfg.get("n_leapfrog", 20)
    burn_in = cfg.get("burn_in")
    if target == "laplace-gaussian":
        fit = fit_exact(data, R=R, fit_offset=fit_offset, C=C)
        obj = ExactObjective(data, fit_offset=fit_offset, R=R)
        x = obj.vector(fit.params)
        chain = laplace_gaussian_chain(x, -obj.hess_dense(x), draws, seed=seed)
    else:
        if C is None:
            raise ConfigError("sampling needs a covariance C for the EL side and the init")
        exact_obj, u_exact, u_el, x0 = _build_potentials(data, C, R, fit_offset)
        if target == "exact":
            # single-precision leapfrog force; the float64 Metropolis test
            # keeps the chain on the exact posterior
            chain = hmc_chain(
                u_exact, x0, step, n_leapfrog, draws, burn_in, seed, "exact",
                force=lambda x: -exact_obj.grad32(x),
            )
        elif target == "el":
            chain = hmc_chain(u_el, x0, step, n_leapfrog, draws, burn_in, seed, "el")
        else:
            chain = surrogate_hmc_chain(u_el, u_exact, x0, step, n_leapfrog, draws, burn_in, seed)
    save_chain(outdir / "chain", chain)
    write_summary_csv(outdir / "summary.csv", chain_summary(chain))
    return ["chain.bin", "chain.json", "summary.csv"]


def _run_risk(cfg: dict, outdir: pathlib.Path, seed: int):
    N = cfg["N"]
    kinds = cfg["kinds"]
    rho_grid = cfg.get("rho_grid", [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9])
    snrs = cfg.get("snr", [1.0])
    trials = cfg.get("trials", 0)
    c = cfg.get("c", 0.0)
    want_asym = cfg.get("asymptotic", True)
    ps = [max(1, int(round(rho * N))) for rho in rho_grid]
    if trials > 0:
        for p in ps:
            for kind in kinds:
                try:
                    check_mc(kind, N, p, trials, c)
                except ValueError as e:
                    raise ConfigError(f"risk Monte Carlo for {kind!r} at p={p}: {e}") from None
    rows = []
    ss = np.random.SeedSequence(seed)
    for snr in snrs:
        for p in ps:
            for kind in kinds:
                closed = asym = mc = stderr = float("nan")
                try:
                    closed = mse_closed_form(RiskSpec(kind=kind, N=N, p=p, theta_norm2=snr, c=c))
                except ValueError:
                    pass
                if want_asym:
                    try:
                        asym = mse_asymptotic(kind, p / N, snr, c=c)
                    except ValueError:
                        pass
                if trials > 0:
                    s_theta, s_mc = ss.spawn(1)[0].generate_state(2)
                    theta = np.random.default_rng(int(s_theta)).standard_normal(p)
                    theta *= np.sqrt(snr) / np.linalg.norm(theta)
                    mc, stderr = mc_mse(kind, N, p, theta, trials, int(s_mc), c=c)
                rows.append((kind, snr, p / N, p, closed, asym, mc, stderr))
    _write_csv(
        outdir / "risk.csv",
        ["kind", "snr", "rho", "p", "mse_closed_form", "mse_asymptotic", "mse_mc", "mc_stderr"],
        rows,
    )
    _write_csv(
        outdir / "crossover.csv",
        ["snr", "crossover_rho"],
        [(snr, crossover_rho(snr)) for snr in snrs],
    )
    return ["risk.csv", "crossover.csv"]


def _random_filterset(rng, M, p_s, basis, norm, baseline_rate, self_scale, coupling_density, coupling_scale):
    theta_s = rng.standard_normal((M, p_s))
    theta_s *= norm / np.linalg.norm(theta_s, axis=1, keepdims=True)
    theta0 = np.full(M, np.log(baseline_rate) - 0.5 * norm**2)  # white-noise identity
    self_coeffs = np.zeros((M, basis.n_self))
    self_coeffs[:, 0] = self_scale  # refractory weight (basis column is -1 at lag 1)
    couplings = {}
    for i in range(M):
        for j in range(M):
            if i != j and rng.uniform() < coupling_density:
                couplings[(i, j)] = float(coupling_scale * rng.choice([-1.0, 1.0]))
    return CoupledFilterSet(
        theta0=theta0,
        theta_s=theta_s,
        alpha=np.ones(M),
        self_coeffs=self_coeffs,
        couplings=couplings,
    )


def _run_simulate(cfg: dict, outdir: pathlib.Path, seed: int):
    stem = cfg.get("stem", "dataset")
    if "glm" in cfg:
        data, C, params = _simulate_glm(cfg["glm"], seed)
        save_dataset(data, str(outdir / stem))
        (outdir / f"{stem}_C.json").write_text(json.dumps(C.to_config()))
        (outdir / f"{stem}_truth.json").write_text(
            json.dumps({"theta0": params.theta0, "theta": params.theta.tolist()})
        )
        return [f"{stem}.bin", f"{stem}.json", f"{stem}_C.json", f"{stem}_truth.json"]
    node = cfg["population"]
    spec = _stimulus_spec(node["stimulus"])
    basis = HistoryBasis(**node.get("basis", {}))
    s_filters, s_pop = np.random.SeedSequence(seed).generate_state(2)
    rng = np.random.default_rng(int(s_filters))
    filters = _random_filterset(
        rng,
        node["M"],
        spec.p,
        basis,
        norm=node.get("filter_norm", 1.0),
        baseline_rate=node.get("baseline_rate", 0.2),
        self_scale=node.get("self_scale", 1.0),
        coupling_density=node.get("coupling_density", 0.1),
        coupling_scale=node.get("coupling_scale", 0.2),
    )
    pop, C = gen_coupled_population(
        node["M"], spec, filters, basis, int(s_pop), dt=node.get("dt", 1.0)
    )
    save_population(outdir / stem, pop)
    (outdir / f"{stem}_C.json").write_text(json.dumps(C.to_config()))
    (outdir / f"{stem}_truth.json").write_text(filters.to_json())
    (outdir / f"{stem}_basis.json").write_text(json.dumps(basis.to_config()))
    return [
        f"{stem}_spikes.bin",
        f"{stem}_stim.bin",
        f"{stem}.json",
        f"{stem}_C.json",
        f"{stem}_truth.json",
        f"{stem}_basis.json",
    ]


def _run_population(cfg: dict, outdir: pathlib.Path, seed: int):
    if "data_stem" in cfg:
        pop = load_population(cfg["data_stem"])
        if "C" not in cfg:
            raise ConfigError("population fits on stored data need 'C'")
        C = structured_from_config(cfg["C"])
        basis = HistoryBasis(**cfg.get("basis", {}))
        outputs = []
    else:
        outputs = _run_simulate({"population": cfg["simulate"], "stem": "popdata"}, outdir, seed)
        pop = load_population(outdir / "popdata")
        C = structured_from_config(json.loads((outdir / "popdata_C.json").read_text()))
        basis = HistoryBasis(**cfg["simulate"].get("basis", {}))
    lam_path = np.asarray(cfg["lam_path"], dtype=float)
    result = stagewise_population_fit(pop, basis, C, lam_path, pcg_budget=cfg.get("pcg_budget", 0))
    T = pop.N * pop.dt
    # one design per neuron, scored under every lambda's filters
    bits = np.empty((len(result.filters), pop.M))
    for i in range(pop.M):
        d = build_population_design(pop, basis, i)
        for k, filters in enumerate(result.filters):
            bits[k, i] = bits_per_second(d, filterset_params(filters, basis, i), T)
    rows = []
    for k, (lam, filters) in enumerate(zip(lam_path, result.filters)):
        name = f"filters_{k:03d}.json"
        (outdir / name).write_text(filters.to_json())
        outputs.append(name)
        rows.append((lam, len(filters.couplings), float(np.mean(bits[k]))))
    _write_csv(outdir / "metrics.csv", ["lam", "coupling_nnz", "mean_bits_per_s"], rows)
    outputs.append("metrics.csv")
    return outputs


def _median_time(fn, repeats):
    best = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best.append(time.perf_counter() - t0)
    return float(np.median(best))


def _run_bench(cfg: dict, outdir: pathlib.Path, seed: int):
    """Mode ``el_scaling``: EL and exact evaluation times over an N grid."""
    rng = np.random.default_rng(seed)
    repeats = cfg.get("repeats", 5)
    p = cfg.get("p", 100)
    N_grid = cfg.get("N_grid", [1000, 10000, 100000])
    theta = rng.standard_normal(p) / np.sqrt(p)
    params = GlmParams(theta0=0.0, theta=theta)
    C = ScaledIdentity(p, 1.0)
    engine = AnalyticExponential(C)
    fam = Poisson()
    rows = []
    for N in N_grid:
        X = rng.standard_normal((N, p))
        r = simulate_responses(fam, X, params, seed=int(rng.integers(2**31)))
        data = GlmDataset(X, r, fam)
        t_el = _median_time(lambda: el_loglik(engine, data, params), repeats)
        t_exact = _median_time(lambda: exact_loglik(data, params), repeats)
        rows.append((N, t_el, t_exact, t_exact / t_el))
    _write_csv(outdir / "bench.csv", ["N", "t_el", "t_exact", "speedup"], rows)
    return ["bench.csv"]


_RUNNERS = {
    "fit": _run_fit,
    "select": _run_select,
    "sample": _run_sample,
    "risk": _run_risk,
    "simulate": _run_simulate,
    "population": _run_population,
    "bench": _run_bench,
}


# ------------------------------------------------------------ entry point

def run_experiment(subcommand: str, cfg: dict, out_root="out") -> pathlib.Path:
    """Validate, run, and write artifacts plus a manifest; returns the
    artifact directory. Partial outputs are removed if the run fails."""
    if subcommand not in _RUNNERS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    _validate(cfg, subcommand)
    seed = int(cfg.get("seed", 0))
    experiment = cfg.get("experiment", subcommand)
    # the canonical config text: hashed here, and embedded in the manifest as is
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    h = hashlib.sha256(blob.encode()).hexdigest()
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S%f")
    outdir = pathlib.Path(out_root) / experiment / f"{stamp}-{h[:8]}"
    outdir.mkdir(parents=True, exist_ok=False)
    try:
        outputs = _RUNNERS[subcommand](cfg, outdir, seed)
    except Exception:
        shutil.rmtree(outdir, ignore_errors=True)
        raise
    manifest = {
        "experiment": experiment,
        "subcommand": subcommand,
        "seed": seed,
        "config_sha256": h,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "elglm": __version__,
        },
        "outputs": sorted(outputs),
    }
    # appended as the last key, so a large config (a dense C) is serialized
    # once per run
    text = json.dumps(manifest, indent=2)
    (outdir / "manifest.json").write_text(f'{text[:-2]},\n  "config": {blob}\n}}')
    return outdir


def _apply_overrides(cfg: dict, sets) -> dict:
    for item in sets or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {key!r} crosses a non-object value")
        node[parts[-1]] = value
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="elglm", description="expected log-likelihood GLM experiment runner"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _RUNNERS:
        sp = sub.add_parser(name, help=f"run a {name} experiment")
        sp.add_argument("config", help="JSON config file")
        sp.add_argument("--seed", type=int, help="override the config seed")
        sp.add_argument("--out-root", default="out", help="artifact root directory")
        sp.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config key (dotted path, JSON value)",
        )
    args = parser.parse_args(argv)
    try:
        try:
            cfg = json.loads(pathlib.Path(args.config).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}")
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        cfg = _apply_overrides(cfg, args.set)
        if args.seed is not None:
            cfg["seed"] = args.seed
        outdir = run_experiment(args.subcommand, cfg, out_root=args.out_root)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (
        FloatingPointError,
        ZeroDivisionError,
        RuntimeError,
        np.linalg.LinAlgError,
        ValueError,
    ) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    print(outdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
