"""The benchmark's workloads: inputs from a seed, one operation, its checks.

Every operation goes through ``elglm.cli.run_experiment``, the entry point
behind the ``elglm`` command, looked up on the module at call time so that a
traced run sees the wrapped version. Inputs are written by the CLI's own
``simulate`` subcommand (dataset and population stems) and read back by the
operation, so the program sees only stored, generated inputs. Checks run
outside the timed region and recompute what they judge from the artifacts.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import pathlib
import time

import numpy as np
from elglm.population import (
    CoupledFilterSet, HistoryBasis, build_population_design, filterset_params,
)
from elglm.simulate import StimulusSpec, gen_coupled_population

from ess import ess_median


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _unit_vector(rng, p):
    v = rng.standard_normal(p)
    return v / np.linalg.norm(v)


def _simulate(cli, root, stem, seed, node):
    """Write a stem with the CLI's simulate subcommand; returns (stem path, outdir)."""
    cfg = {"seed": int(seed), "experiment": stem, "stem": stem, **node}
    outdir = cli.run_experiment("simulate", cfg, out_root=str(root))
    return outdir / stem, outdir


def _poisson_loglik(X, r, theta0, theta, dt=1.0):
    """Exact Poisson log-likelihood up to -sum log r!, computed independently."""
    u = theta0 + X @ theta
    return float(u @ r - dt * np.sum(np.exp(u)))


def _fit_params(outdir):
    fit = json.loads((outdir / "fit.json").read_text())
    theta = np.asarray(fit["theta"], dtype=float)
    if not (np.all(np.isfinite(theta)) and math.isfinite(fit["theta0"])):
        raise CheckFailed(f"{outdir.name}: non-finite fitted parameters")
    return fit, fit["theta0"], theta


# ------------------------------------------------------------ part: fit

@dataclasses.dataclass
class GlmInput:
    stem: pathlib.Path
    C: dict
    X_held: np.ndarray = None
    r_held: np.ndarray = None


class LnpFit:
    """PCG refinement and the ridge MAP on stored p=250, N=12000 LNP sets.

    One operation fits one white-noise set (scaled-identity C) and one AR(1)
    set (dense C), so every operation carries the same mix: the two kinds
    differ in cost by about 2x, mostly in the CLI's handling of the dense C
    config, and single-set operations made the median latency jump between
    the two modes.
    """

    name = "fit"
    cycle = 2  # pairs of datasets
    p, N, N_held, phi, rate = 250, 12000, 6000, 0.7, 1.0
    ridge = {"kind": "scaled_identity", "dim": 250, "scale": 1.0}

    def _ar1(self):
        lags = np.abs(np.subtract.outer(np.arange(self.p), np.arange(self.p)))
        return self.phi ** lags

    def generate(self, cli, root, seq):
        inputs = []
        for k, child in enumerate(seq.spawn(2 * self.cycle)):
            s_theta, s_train, s_held = child.generate_state(3)
            theta = _unit_vector(np.random.default_rng(s_theta), self.p)
            stimulus = {"kind": "gaussian_iid", "N": self.N, "p": self.p}
            C = np.eye(self.p)
            if k % 2:
                C = self._ar1()
                stimulus.update(kind="gaussian_structured", C={"kind": "dense", "values": C.tolist()})
            node = {"stimulus": stimulus, "family": {"family": "poisson"},
                    "theta": theta.tolist(), "rate": self.rate}
            stem, outdir = _simulate(cli, root, f"train{k}", s_train, {"glm": node})
            # held-out rows from the same truth, drawn here: the check's data
            # does not go through the program
            rng = np.random.default_rng(s_held)
            X_held = rng.standard_normal((self.N_held, self.p)) @ np.linalg.cholesky(C).T
            theta0 = math.log(self.rate) - 0.5 * float(theta @ C @ theta)
            r_held = rng.poisson(np.exp(theta0 + X_held @ theta)).astype(float)
            C_cfg = json.loads((outdir / f"train{k}_C.json").read_text())
            inputs.append(GlmInput(stem, C_cfg, X_held, r_held))
        return inputs

    def _pair(self, inputs, i):
        k = 2 * (i % self.cycle)
        return inputs[k : k + 2]

    def operate(self, cli, inputs, i, seed, out_root):
        rec = []
        for d in self._pair(inputs, i):
            base = {"seed": seed, "data": {"stem": str(d.stem)}, "C": d.C}
            pcg = {**base, "experiment": f"pcg-{i}",
                   "estimator": {"kind": "pcg_refine", "k": 10, "R": self.ridge}}
            exact = {**base, "experiment": f"map-{i}",
                     "estimator": {"kind": "exact", "R": self.ridge, "fit_offset": True}}
            rec.append((cli.run_experiment("fit", pcg, out_root=out_root),
                        cli.run_experiment("fit", exact, out_root=out_root)))
        return rec

    def check(self, inputs, i, rec):
        gaps = []
        for d, (pcg_dir, map_dir) in zip(self._pair(inputs, i), rec):
            _, t0_pcg, th_pcg = _fit_params(pcg_dir)
            fit_map, t0_map, th_map = _fit_params(map_dir)
            if not fit_map["converged"]:
                raise CheckFailed(f"{d.stem.name}: ridge MAP did not converge")
            L_pcg = _poisson_loglik(d.X_held, d.r_held, t0_pcg, th_pcg)
            L_map = _poisson_loglik(d.X_held, d.r_held, t0_map, th_map)
            gap = abs(L_pcg - L_map) / abs(L_map)
            if not gap <= 0.01:
                raise CheckFailed(f"{d.stem.name}: held-out PCG/MAP log-likelihood gap {gap:.4f} > 0.01")
            gaps.append(gap)
        return {"pcg_map_gap": gaps}

    def summarize(self, results):
        return {"pcg_map_gap": float(np.median([g for q, _ in results for g in q["pcg_map_gap"]]))}, None


# --------------------------------------------------------- part: sample

class LnpHmc:
    """Exact, EL and surrogate HMC on one stored N=4000, p=100 LNP set."""

    name = "sample"
    cycle = 3
    p, N = 100, 4000
    targets = ("exact", "el", "surrogate")
    chain = {"draws": 150, "step": 0.01, "n_leapfrog": 30, "fit_offset": True}

    def generate(self, cli, root, seq):
        inputs = []
        for k, child in enumerate(seq.spawn(self.cycle)):
            s_theta, s_data = child.generate_state(2)
            node = {
                "stimulus": {"kind": "gaussian_iid", "N": self.N, "p": self.p},
                "family": {"family": "poisson"},
                "theta": _unit_vector(np.random.default_rng(s_theta), self.p).tolist(),
                "rate": 0.5,
            }
            stem, outdir = _simulate(cli, root, f"hmc{k}", s_data, {"glm": node})
            inputs.append(GlmInput(stem, json.loads((outdir / f"hmc{k}_C.json").read_text())))
        return inputs

    def operate(self, cli, inputs, i, seed, out_root):
        d = inputs[i % self.cycle]
        rec = {}
        for target in self.targets:
            cfg = {"seed": seed, "experiment": f"{target}-{i}", "data": {"stem": str(d.stem)},
                   "C": d.C, "target": target, **self.chain}
            t0 = time.perf_counter()
            outdir = cli.run_experiment("sample", cfg, out_root=out_root)
            rec[target] = (outdir, time.perf_counter() - t0)
        return rec

    def check(self, inputs, i, rec):
        out = {}
        for target, (outdir, seconds) in rec.items():
            meta = json.loads((outdir / "chain.json").read_text())
            samples = np.fromfile(outdir / "chain.bin", dtype=np.float64)
            samples = samples.reshape(meta["draws"], meta["dim"])
            if meta["draws"] != self.chain["draws"] or not np.all(np.isfinite(samples)):
                raise CheckFailed(f"{target} chain has the wrong length or non-finite draws")
            out[target] = (meta["acceptance_rate"], ess_median(samples), seconds)
        acc = {t: v[0] for t, v in out.items()}
        if not (acc["exact"] > 0.5 and acc["el"] > 0.5):
            raise CheckFailed(f"exact/EL acceptance {acc['exact']:.3f}/{acc['el']:.3f} not above 0.5")
        if not acc["surrogate"] < acc["exact"]:
            raise CheckFailed(f"surrogate acceptance {acc['surrogate']:.3f} not below exact")
        return out

    def summarize(self, results):
        metrics = {}
        for target in self.targets:
            ess = sum(q[target][1] for q, _ in results)
            seconds = sum(q[target][2] for q, _ in results)
            metrics[f"ess_per_s.{target}"] = ess / seconds
        return metrics, None


# ----------------------------------------------------- part: population

@dataclasses.dataclass
class PopulationInput:
    stem: pathlib.Path
    C: dict
    basis: dict
    held: object  # PopulationDataset simulated from the same truth


class Population:
    """Staged coupled-population fit along a lambda path (M=20, p_s=5, N=6000)."""

    name = "population"
    # the fit's cost depends on the set; with eight sets a 45 s run (about
    # eight operations) sees each about once, instead of a few sets the
    # seed happened to draw setting the run's median
    cycle = 8
    M, p_s, N, N_held = 20, 5, 6000, 3000
    basis = {"n_bumps": 3, "tau": 10, "b": 0.4}
    lam_path = [60.0, 30.0, 15.0, 8.0, 4.0]
    truth = {"baseline_rate": 0.25, "filter_norm": 0.4, "self_scale": 2.0,
             "coupling_density": 0.15, "coupling_scale": 0.3, "dt": 1.0}
    max_draws = 10

    def generate(self, cli, root, seq):
        inputs = []
        for k, child in enumerate(seq.spawn(self.cycle)):
            for _ in range(self.max_draws):
                try:
                    inputs.append(self._generate_one(cli, root, k, child))
                    break
                except FloatingPointError:
                    # some random coupling draws make the network unstable and
                    # the simulator refuses them; draw again from this stream
                    child = child.spawn(1)[0]
            else:
                raise RuntimeError(f"no stable population in {self.max_draws} draws")
        return inputs

    def _generate_one(self, cli, root, k, seq):
        s_train, s_held = seq.generate_state(2)
        node = {"M": self.M, "basis": self.basis, **self.truth,
                "stimulus": {"kind": "gaussian_iid", "N": self.N, "p": self.p_s}}
        stem, outdir = _simulate(cli, root, f"pop{k}", s_train, {"population": node})
        truth = CoupledFilterSet.from_json((outdir / f"pop{k}_truth.json").read_text())
        held, _ = gen_coupled_population(
            self.M, StimulusSpec(kind="gaussian_iid", N=self.N_held, p=self.p_s),
            truth, HistoryBasis(**self.basis), int(s_held), dt=self.truth["dt"],
        )
        C = json.loads((outdir / f"pop{k}_C.json").read_text())
        return PopulationInput(stem, C, self.basis, held)

    def operate(self, cli, inputs, i, seed, out_root):
        d = inputs[i % self.cycle]
        cfg = {"seed": seed, "experiment": f"pop-{i}", "data_stem": str(d.stem), "C": d.C,
               "basis": d.basis, "lam_path": self.lam_path, "pcg_budget": 3}
        return {"out": cli.run_experiment("population", cfg, out_root=out_root)}

    def _bits(self, designs, filters, basis):
        dt = self.truth["dt"]
        bits = []
        for j, design in enumerate(designs):
            prm = filterset_params(filters, basis, j)
            L = _poisson_loglik(design.X, design.r, prm.theta0, prm.theta, dt)
            n_s = float(design.r.sum())
            L_homog = n_s * math.log(n_s / (design.N * dt)) - n_s
            bits.append((L - L_homog) / (design.N * dt * math.log(2.0)))
        return float(np.mean(bits))

    def check(self, inputs, i, rec):
        d = inputs[i % self.cycle]
        basis = HistoryBasis(**d.basis)
        designs = [build_population_design(d.held, basis, j) for j in range(self.M)]
        nnz, bits = [], []
        for k in range(len(self.lam_path)):
            text = (rec["out"] / f"filters_{k:03d}.json").read_text()
            try:
                filters = CoupledFilterSet.from_json(text)  # rejects non-finite entries
            except ValueError as e:
                raise CheckFailed(f"filters_{k:03d}.json: {e}")
            nnz.append(len(filters.couplings))
            bits.append(self._bits(designs, filters, basis))
        if any(b < a for a, b in zip(nnz, nnz[1:])):
            raise CheckFailed(f"coupling nnz decreases along the path: {nnz}")
        best = max(bits)
        if not best > 0.0:
            raise CheckFailed(f"best held-out bits/s {best:.4f} is not positive")
        return {"heldout_bits_per_s": best}

    def summarize(self, results):
        return {"heldout_bits_per_s": float(np.median([q["heldout_bits_per_s"] for q, _ in results]))}, None


# ------------------------------------------------------------------ risk_mc

class RiskMc:
    """MELE/MLE Monte Carlo risk at N=2000, SNR 5, either side of the crossover."""

    name = "risk_mc"
    cfg = {"N": 2000, "kinds": ["mele", "mle"], "rho_grid": [0.78, 0.88], "snr": [5.0],
           "trials": 3, "asymptotic": False}

    def generate(self, cli, root, seq):
        return [None]

    def operate(self, cli, inputs, i, seed, out_root):
        cfg = {"seed": seed, "experiment": f"risk-{i}", **self.cfg}
        return {"out": cli.run_experiment("risk", cfg, out_root=out_root)}

    def check(self, inputs, i, rec):
        with open(rec["out"] / "risk.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != len(self.cfg["kinds"]) * len(self.cfg["rho_grid"]):
            raise CheckFailed(f"risk.csv has {len(rows)} rows")
        cells = {}
        for row in rows:
            vals = [float(row[k]) for k in ("mse_closed_form", "mse_mc", "mc_stderr")]
            if not all(math.isfinite(v) for v in vals):
                raise CheckFailed(f"non-finite risk row {row}")
            cells[(row["kind"], float(row["rho"]))] = vals
        return {"cells": cells, "trials": len(rows) * self.cfg["trials"]}

    def summarize(self, results):
        """MC means pooled over the run's operations against the closed forms.

        Each operation's mean has stderr se_i from its own trials; the pooled
        mean of n equal-size operations has stderr sqrt(mean(se_i^2) / n).
        """
        n = len(results)
        pooled, err = {}, None
        for key in results[0][0]["cells"]:
            closed = results[0][0]["cells"][key][0]
            mc = np.array([q["cells"][key][1] for q, _ in results])
            se = math.sqrt(float(np.mean([q["cells"][key][2] ** 2 for q, _ in results])) / n)
            pooled[key] = float(mc.mean())
            if abs(mc.mean() - closed) > 4.0 * se:
                err = f"{key}: pooled MC {mc.mean():.4f} vs closed form {closed:.4f} (4 SE = {4 * se:.4f})"
        lo, hi = self.cfg["rho_grid"]
        if not (pooled[("mle", lo)] < pooled[("mele", lo)] and pooled[("mele", hi)] < pooled[("mle", hi)]):
            err = f"MELE/MLE ordering does not flip across the crossover: {pooled}"
        trials = sum(q["trials"] for q, _ in results)
        seconds = sum(latency for _, latency in results)
        return {"mc_trials_per_s": trials / seconds}, err


# ------------------------------------------------------------------ glm_mix

class GlmMix:
    """The GLM stack through the CLI: one operation runs the three parts below.

    ``fit`` (LnpFit) is bound by O(Np) data passes and Hessian builds,
    ``sample`` (LnpHmc) by the per-call overhead of many small exact and EL
    calls, ``population`` by the coordinate-descent kernel on small dense
    problems. Part ``j`` cycles through its own inputs. Each part's latency is
    reported as a per-layer figure, so a change can be traced to its part.
    """

    name = "glm_mix"
    parts = (LnpFit(), LnpHmc(), Population())

    def generate(self, cli, root, seq):
        return [part.generate(cli, root / part.name, child)
                for part, child in zip(self.parts, seq.spawn(len(self.parts)))]

    def operate(self, cli, inputs, i, seed, out_root):
        rec = []
        for part, part_inputs in zip(self.parts, inputs):
            t0 = time.perf_counter()
            out = part.operate(cli, part_inputs, i, seed, out_root)
            rec.append((out, time.perf_counter() - t0))
        return rec

    def check(self, inputs, i, rec):
        return [(part.check(part_inputs, i, out), seconds)
                for part, part_inputs, (out, seconds) in zip(self.parts, inputs, rec)]

    def summarize(self, results):
        metrics = {}
        for j, part in enumerate(self.parts):
            part_results = [q[j] for q, _ in results]
            metrics.update(part.summarize(part_results)[0])
            metrics[f"glm_mix.{part.name}_s"] = float(np.median([s for _, s in part_results]))
        return metrics, None


WORKLOADS = {w.name: w for w in (GlmMix(), RiskMc())}
# workload figures, reported in traced runs from the untraced copies; 0 where
# the workload has no such figure
QUALITY_METRICS = (
    "glm_mix.fit_s", "glm_mix.sample_s", "glm_mix.population_s",
    "ess_per_s.exact", "ess_per_s.el", "ess_per_s.surrogate",
    "mc_trials_per_s", "pcg_map_gap", "heldout_bits_per_s",
)
