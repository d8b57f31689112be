"""Coupled population GLM: design construction and the staged fitting
pipeline (MPELE stimulus filters, then gain + self-history, then sparse
couplings by penalized coordinate descent on the exact likelihood)."""

from __future__ import annotations

import dataclasses
import json
import pathlib
import time

import numpy as np
import scipy.linalg

from .families import Poisson
from .glm import ExactObjective, GlmDataset, GlmParams, exact_loglik
from .estimators import fit_exact, fit_exact_l1, mele
from .structured import StructuredMatrix

__all__ = [
    "PopulationDataset",
    "HistoryBasis",
    "CoupledFilterSet",
    "build_population_design",
    "stagewise_population_fit",
    "StagewiseFit",
    "history_uncertainty",
    "history_function_variance",
    "bits_per_second",
    "linear_predictor",
    "save_population",
    "load_population",
]


class PopulationDataset:
    """M spike trains over a shared stimulus. spikes is (M, N) nonnegative
    integer counts; X_s is the (N, p_s) stimulus design."""

    def __init__(self, spikes, X_s, dt: float = 1.0):
        spikes = np.ascontiguousarray(spikes)
        X_s = np.ascontiguousarray(X_s, dtype=float)
        if spikes.ndim != 2 or X_s.ndim != 2:
            raise ValueError("spikes must be (M, N) and X_s must be (N, p_s)")
        if spikes.shape[1] != X_s.shape[0]:
            raise ValueError(
                f"spike-train length {spikes.shape[1]} != stimulus rows {X_s.shape[0]}"
            )
        if np.any(spikes < 0) or not np.all(spikes == np.floor(spikes)):
            raise ValueError("spike counts must be nonnegative integers")
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.spikes = spikes.astype(np.int64)
        self.X_s = X_s
        self.dt = float(dt)
        self.M, self.N = self.spikes.shape
        self.p_s = X_s.shape[1]

    def __repr__(self):
        return f"PopulationDataset(M={self.M}, N={self.N}, p_s={self.p_s}, dt={self.dt})"


class HistoryBasis:
    """Self-history basis: raised-cosine bumps over lags 1..tau plus a
    refractory indicator fixed at -1 on the first lag; couplings use one
    exponential column exp(-b * lag).

    The refractory magnitude is a convention; its coefficient is learned, so
    only the sign convention matters downstream.
    """

    def __init__(self, n_bumps: int = 4, tau: int = 20, b: float = 0.5):
        if n_bumps < 1 or tau < 1:
            raise ValueError("need n_bumps >= 1 and tau >= 1")
        if b <= 0:
            raise ValueError("coupling decay b must be positive")
        self.n_bumps = int(n_bumps)
        self.tau = int(tau)
        self.b = float(b)
        lags = np.arange(1, tau + 1, dtype=float)
        B = np.zeros((tau, n_bumps + 1))
        B[0, 0] = -1.0  # refractory
        centers = np.linspace(1.0, float(tau), n_bumps)
        width = (tau - 1.0) / max(n_bumps - 1, 1) if tau > 1 else 1.0
        width = max(width, 1.0)
        for j, c in enumerate(centers):
            arg = (lags - c) / width
            bump = 0.5 * (1.0 + np.cos(np.pi * arg))
            bump[np.abs(arg) >= 1.0] = 0.0
            B[:, j + 1] = bump
        self.B = B  # (tau, n_self)
        self.coupling_kernel = np.exp(-self.b * lags)  # (tau,)

    @property
    def n_self(self) -> int:
        return self.B.shape[1]

    def to_config(self):
        return {"n_bumps": self.n_bumps, "tau": self.tau, "b": self.b}


@dataclasses.dataclass
class CoupledFilterSet:
    """Per-neuron parameters. couplings is a dict {(target, source): weight}
    holding only the nonzeros; self-history lives in self_coeffs."""

    theta0: np.ndarray  # (M,)
    theta_s: np.ndarray  # (M, p_s)
    alpha: np.ndarray  # (M,)
    self_coeffs: np.ndarray  # (M, n_self)
    couplings: dict

    def __post_init__(self):
        for a in (self.theta0, self.theta_s, self.alpha, self.self_coeffs):
            if not np.all(np.isfinite(a)):
                raise ValueError("filter set contains non-finite entries")
        for (i, j), w in self.couplings.items():
            if i == j:
                raise ValueError("self terms belong in self_coeffs, not couplings")
            if not np.isfinite(w):
                raise ValueError("non-finite coupling weight")

    @property
    def M(self) -> int:
        return self.theta0.size

    def coupling_matrix(self) -> np.ndarray:
        W = np.zeros((self.M, self.M))
        for (i, j), w in self.couplings.items():
            W[i, j] = w
        return W

    def to_json(self) -> str:
        return json.dumps(
            {
                "theta0": self.theta0.tolist(),
                "theta_s": self.theta_s.tolist(),
                "alpha": self.alpha.tolist(),
                "self_coeffs": self.self_coeffs.tolist(),
                "couplings": [[i, j, w] for (i, j), w in sorted(self.couplings.items())],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "CoupledFilterSet":
        d = json.loads(text)
        return cls(
            theta0=np.asarray(d["theta0"], dtype=float),
            theta_s=np.asarray(d["theta_s"], dtype=float),
            alpha=np.asarray(d["alpha"], dtype=float),
            self_coeffs=np.asarray(d["self_coeffs"], dtype=float),
            couplings={(int(i), int(j)): float(w) for i, j, w in d["couplings"]},
        )


def _causal_filter(r, kernel):
    """out[n] = sum_k kernel[k-1] * r[n-k], lags 1..tau, zero-padded."""
    full = np.convolve(r.astype(float), kernel)
    return np.concatenate(([0.0], full))[: r.size]


def self_history_columns(
    data: PopulationDataset, basis: HistoryBasis, target: int
) -> np.ndarray:
    """n_self columns of basis-filtered self spikes; cost independent of M."""
    return np.column_stack(
        [_causal_filter(data.spikes[target], basis.B[:, k]) for k in range(basis.n_self)]
    )


def history_columns(data: PopulationDataset, basis: HistoryBasis, target: int) -> np.ndarray:
    """History block of the design for one target neuron: n_self columns of
    basis-filtered self spikes, then one exponential-filtered column per
    other source neuron, ordered by source index."""
    cols = [self_history_columns(data, basis, target)]
    for j in range(data.M):
        if j == target:
            continue
        cols.append(_causal_filter(data.spikes[j], basis.coupling_kernel)[:, None])
    return np.hstack(cols)


def build_population_design(
    data: PopulationDataset, basis: HistoryBasis, target: int
) -> GlmDataset:
    """GlmDataset for one neuron: stimulus columns, then the self-history
    basis columns, then one coupling column per other neuron."""
    if not 0 <= target < data.M:
        raise ValueError(f"target {target} out of range for M={data.M}")
    if basis.tau >= data.N:
        raise ValueError(f"basis support tau={basis.tau} must be < N={data.N}")
    X = np.hstack([data.X_s, history_columns(data, basis, target)])
    return GlmDataset(X, data.spikes[target], Poisson(dt=data.dt))


def linear_predictor(
    data: PopulationDataset, basis: HistoryBasis, filters: CoupledFilterSet, target: int
) -> np.ndarray:
    """u_n for one neuron under the staged parametrization
    theta0 + alpha * (X_s theta_s) + self-history + couplings."""
    u = filters.theta0[target] + filters.alpha[target] * (
        data.X_s @ filters.theta_s[target]
    )
    u = u + self_history_columns(data, basis, target) @ filters.self_coeffs[target]
    for (i, j), w in filters.couplings.items():
        if i == target and w != 0.0:
            u = u + w * _causal_filter(data.spikes[j], basis.coupling_kernel)
    return u


@dataclasses.dataclass
class StagewiseFit:
    filters: list  # one CoupledFilterSet per lambda
    lam_path: np.ndarray
    stage1: list  # per-neuron stimulus-only FitResult
    stage2: list  # per-neuron (theta0, alpha, self) FitResult
    diagnostics: dict


def _stage2_design(data: PopulationDataset, basis: HistoryBasis, i: int, theta_s):
    stim_col = data.X_s @ theta_s
    X2 = np.column_stack([stim_col, self_history_columns(data, basis, i)])
    return GlmDataset(X2, data.spikes[i], Poisson(dt=data.dt))


def stagewise_population_fit(
    data: PopulationDataset,
    basis: HistoryBasis,
    C: StructuredMatrix,
    lam_path,
    pcg_budget: int = 0,
) -> StagewiseFit:
    """Three-stage fit, one neuron at a time, total cost linear in M.

    Stage 1 computes each neuron's stimulus filter by MPELE against C,
    optionally polished by at most pcg_budget truncated-Newton steps on the
    exact likelihood, each solved by CG preconditioned with the EL Hessian
    (``fit_exact(C=C, max_iter=pcg_budget)``). Stage 2 fixes
    that filter up to a gain and fits (theta0, alpha, self-history) by exact
    Newton. Stage 3 builds each neuron's history design once and sweeps the
    decreasing lam_path on it, refitting (theta0, self-history, couplings) by
    penalized coordinate descent on the exact likelihood with the stimulus
    term frozen at alpha * X_s theta_s; only the couplings carry the L1
    penalty, and fits are warm-started along the path.
    """
    lam_path = np.asarray(lam_path, dtype=float)
    if lam_path.ndim != 1 or lam_path.size == 0:
        raise ValueError("lam_path must be a nonempty 1-D array")
    if np.any(lam_path < 0) or np.any(np.diff(lam_path) > 0):
        raise ValueError("lam_path must be nonnegative and nonincreasing")
    M = data.M
    if np.any(data.spikes.sum(axis=1) == 0):
        quiet = np.flatnonzero(data.spikes.sum(axis=1) == 0)
        raise ValueError(f"neurons {quiet.tolist()} fired no spikes (N_s = 0)")

    t0 = time.perf_counter()
    stage1 = []
    for i in range(M):
        d1 = GlmDataset(data.X_s, data.spikes[i], Poisson(dt=data.dt))
        if pcg_budget > 0:
            stage1.append(fit_exact(d1, C=C, max_iter=pcg_budget, fit_offset=True))
        else:
            stage1.append(mele(d1, C))

    stage2 = []
    for i in range(M):
        d2 = _stage2_design(data, basis, i, stage1[i].params.theta)
        init = GlmParams(
            theta0=stage1[i].params.theta0,
            theta=np.concatenate(([1.0], np.zeros(basis.n_self))),
        )
        fit = fit_exact(d2, init=init, fit_offset=True)
        if not fit.converged:
            raise RuntimeError(f"stage 2 did not converge for neuron {i}")
        stage2.append(fit)
    t_stage12 = time.perf_counter() - t0

    t0 = time.perf_counter()
    n_self = basis.n_self
    K = lam_path.size
    theta0 = np.empty((K, M))
    self_coeffs = np.empty((K, M, n_self))
    couplings = [{} for _ in range(K)]
    kkts = []
    for i in range(M):
        # one design per neuron; the lambda path walks it with warm starts
        offset = stage2[i].params.theta[0] * (data.X_s @ stage1[i].params.theta)
        d3 = GlmDataset(history_columns(data, basis, i), data.spikes[i], Poisson(dt=data.dt))
        sources = [j for j in range(M) if j != i]
        # kkt residuals scale with the gradient, i.e. with the spike count;
        # an absolute 1e-8 would sit below the line-search float plateau
        tol_i = 1e-8 * max(1.0, float(data.spikes[i].sum()))
        init = GlmParams(
            theta0=stage2[i].params.theta0,
            theta=np.concatenate([stage2[i].params.theta[1:], np.zeros(M - 1)]),
        )
        for k, lam in enumerate(lam_path):
            lam_vec = np.concatenate([np.zeros(n_self), np.full(M - 1, lam)])
            fit = fit_exact_l1(
                d3, lam_vec, init=init, fit_offset=True, offset=offset, tol=tol_i
            )
            init = fit.params
            kkts.append(fit.diagnostics["kkt"])
            theta0[k, i] = fit.params.theta0
            self_coeffs[k, i] = fit.params.theta[:n_self]
            for j, w in zip(sources, fit.params.theta[n_self:]):
                if w != 0.0:
                    couplings[k][(i, j)] = float(w)
    theta_s = np.vstack([f.params.theta for f in stage1])
    alpha = np.array([f.params.theta[0] for f in stage2])
    filters_per_lam = [
        CoupledFilterSet(
            theta0=theta0[k],
            theta_s=theta_s.copy(),
            alpha=alpha.copy(),
            self_coeffs=self_coeffs[k],
            couplings=couplings[k],
        )
        for k in range(K)
    ]
    return StagewiseFit(
        filters=filters_per_lam,
        lam_path=lam_path,
        stage1=stage1,
        stage2=stage2,
        diagnostics={
            "stage3_kkt_max": float(np.max(kkts)),
            "t_stage12": t_stage12,
            "t_stage3": time.perf_counter() - t0,
        },
    )


def filterset_params(
    filters: CoupledFilterSet, basis: HistoryBasis, target: int
) -> GlmParams:
    """GlmParams aligned with build_population_design's column order for one
    neuron: gain-scaled stimulus filter, self-history coefficients, then one
    coupling weight per other source neuron."""
    W = filters.coupling_matrix()
    coup = np.array([W[target, j] for j in range(filters.M) if j != target])
    theta = np.concatenate(
        [
            filters.alpha[target] * filters.theta_s[target],
            filters.self_coeffs[target],
            coup,
        ]
    )
    return GlmParams(theta0=filters.theta0[target], theta=theta)


def history_uncertainty(B, H0) -> np.ndarray:
    """diag(B' (-H0)^{-1} B): per-lag variance of the spike-history function
    given the (negative definite) no-coupling Hessian H0 over the rows of B."""
    B = np.atleast_2d(np.asarray(B, dtype=float))
    H0 = np.asarray(H0, dtype=float)
    if H0.shape[0] != H0.shape[1] or B.shape[0] != H0.shape[0]:
        raise ValueError("B must be (k, m) with H0 (k, k)")
    try:
        cf = scipy.linalg.cho_factor(-H0)
    except scipy.linalg.LinAlgError as e:
        raise np.linalg.LinAlgError(f"H0 is not negative definite: {e}")
    Y = scipy.linalg.cho_solve(cf, B)
    return np.einsum("km,km->m", B, Y)


def history_function_variance(
    data: PopulationDataset, basis: HistoryBasis, filters: CoupledFilterSet, target: int
) -> np.ndarray:
    """Per-lag variance of the fitted self-history function under the
    no-coupling model, via the embedded-basis form of history_uncertainty."""
    d2 = _stage2_design(data, basis, target, filters.theta_s[target])
    x = np.concatenate(
        (
            [filters.theta0[target]],
            [filters.alpha[target]],
            filters.self_coeffs[target],
        )
    )
    H = ExactObjective(d2, fit_offset=True).hess_dense(x)
    B_aug = np.zeros((H.shape[0], basis.tau))
    B_aug[2:, :] = basis.B.T  # rows: offset, gain, then self-history coefficients
    return history_uncertainty(B_aug, H)


def bits_per_second(data: GlmDataset, params: GlmParams, T: float, offset=None) -> float:
    """(L_model - L_homogeneous) / (T log 2). The homogeneous benchmark is a
    constant-rate Poisson process at N_s / (N dt)."""
    if T <= 0:
        raise ValueError("T must be positive")
    if not isinstance(data.family, Poisson):
        raise ValueError("bits/s is defined for the Poisson family")
    L_model = exact_loglik(data, params, offset=offset).value
    if data.N_s == 0:
        L_homog = 0.0
    else:
        L_homog = data.N_s * np.log(data.N_s / (data.N * data.family.dt)) - data.N_s
    return float((L_model - L_homog) / (T * np.log(2.0)))


def save_population(stem, data: PopulationDataset) -> None:
    stem = pathlib.Path(stem)
    data.spikes.astype(np.int64).tofile(stem.with_name(stem.name + "_spikes.bin"))
    data.X_s.astype(np.float64).tofile(stem.with_name(stem.name + "_stim.bin"))
    manifest = {"M": data.M, "N": data.N, "p_s": data.p_s, "dt": data.dt}
    stem.with_suffix(".json").write_text(json.dumps(manifest, indent=2))


def load_population(stem) -> PopulationDataset:
    stem = pathlib.Path(stem)
    manifest = json.loads(stem.with_suffix(".json").read_text())
    spikes = np.fromfile(stem.with_name(stem.name + "_spikes.bin"), dtype=np.int64)
    spikes = spikes.reshape(manifest["M"], manifest["N"])
    X_s = np.fromfile(stem.with_name(stem.name + "_stim.bin"), dtype=np.float64)
    X_s = X_s.reshape(manifest["N"], manifest["p_s"])
    return PopulationDataset(spikes, X_s, dt=manifest["dt"])
