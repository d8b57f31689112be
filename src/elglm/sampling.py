"""Hamiltonian Monte Carlo over exact and EL posteriors.

Unit mass matrix throughout. A chain takes two plain callables:

- ``energy(x) -> U``, the potential (a negative log posterior), which scores
  the Metropolis test and the stored energies in float64;
- ``force(x) -> gradU``, which drives the leapfrog trajectories.

For a log-posterior objective the pair is ``lambda x: -obj.value(x)`` and
``lambda x: -obj.grad(x)``, and the prior is the objective's ridge ``R``. The
force may come from another callable:

- the CLI's exact chain uses the exact gradient computed in single precision
  (``ExactObjective.grad32``), which reads the dataset's cached float32
  design, half the bytes per step;
- its surrogate chain (target ``"surrogate"``) uses the EL gradient, so its
  trajectories cost O(p) per step.

So the force steers and the energy scores. Every step of a trajectory calls
only the force, and the force reads (theta0, theta) straight from the vector:
neither ``grad32`` nor the EL gradient builds a ``GlmParams``, a
``LikelihoodEval`` or a Hessian closure per step. A non-finite x, or a
float32 result that is not finite, goes through the checked float64 pass,
which raises as it always did. The energy, one float64 pass per proposal,
scores the Metropolis test and the stored energies.

Any force that is a deterministic function of x keeps the leapfrog flow
reversible and volume preserving, so the Metropolis test against the
float64 Hamiltonian leaves the energy's posterior invariant (Neal 2011,
*MCMC using Hamiltonian dynamics*); a force that disagrees with gradU costs
acceptance, not exactness.

A trajectory diverges when its force, or the energy at its end point, raises
``FloatingPointError`` (an overflowing exp, say). The chain rejects that
proposal and counts it in ``Chain.divergences``. A non-finite energy or force
at the initial point still raises.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import pathlib

import numpy as np
import scipy.linalg

from .estimators import _el_system
from .families import Poisson
from .structured import StructuredMatrix

__all__ = [
    "Chain",
    "hmc_chain",
    "laplace_gaussian_chain",
    "chain_summary",
    "lnp_el_profile_gaussian",
    "save_chain",
    "load_chain",
    "write_summary_csv",
]


@dataclasses.dataclass
class Chain:
    samples: np.ndarray  # (draws, dim)
    acceptance_rate: float
    energies: np.ndarray  # potential at each retained sample
    seed: int
    target: str
    step: float = np.nan
    n_leapfrog: int = 0
    burn_in: int = 0
    divergences: int = 0  # proposals rejected because their trajectory diverged

    def __post_init__(self):
        if not 0.0 <= self.acceptance_rate <= 1.0:
            raise ValueError("acceptance rate must lie in [0, 1]")
        if self.samples.ndim != 2:
            raise ValueError("samples must be a (draws, dim) matrix")


def _leapfrog(grad_u, x, rho, step, n_steps, g0):
    half, g = 0.5 * step, g0
    rho = rho.copy()  # kicked in place; x is not, since a force may keep it
    for _ in range(n_steps):
        rho -= half * g
        x = x + step * rho
        g = grad_u(x)
        rho -= half * g
    return x, rho, g


def hmc_chain(
    energy,
    force,
    init,
    step: float = 0.01,
    n_leapfrog: int = 20,
    draws: int = 1000,
    burn_in: int = None,
    seed: int = 0,
    target: str = "exact",
) -> Chain:
    """Standard HMC: energy(x) -> U scores the Metropolis test and the stored
    energies; force(x) -> gradU drives the leapfrog trajectories."""
    x = np.asarray(init, dtype=float).copy()
    dim = x.size
    if burn_in is None:
        burn_in = max(1, draws // 10)
    rng = np.random.default_rng(seed)
    g = force(x)
    u_cur = energy(x)
    if not np.isfinite(u_cur) or not np.all(np.isfinite(g)):
        raise FloatingPointError("non-finite energy or gradient at the initial point")
    total = draws + burn_in
    samples = np.empty((draws, dim))
    energies = np.empty(draws)
    accepted = divergences = 0
    for i in range(total):
        rho = rng.standard_normal(dim)
        h_cur = u_cur + 0.5 * float(rho @ rho)
        try:
            x_new, rho_new, g_new = _leapfrog(force, x, rho, step, n_leapfrog, g)
            u_new = energy(x_new)
        except FloatingPointError:
            divergences += 1
            log_alpha = -np.inf
        else:
            log_alpha = h_cur - (u_new + 0.5 * float(rho_new @ rho_new))
        if np.isfinite(log_alpha) and np.log(rng.uniform()) < log_alpha:
            x, g, u_cur = x_new, g_new, u_new
            accepted += 1
        if i >= burn_in:
            samples[i - burn_in] = x
            energies[i - burn_in] = u_cur
    return Chain(
        samples=samples,
        acceptance_rate=accepted / total,
        energies=energies,
        seed=seed,
        target=target,
        step=step,
        n_leapfrog=n_leapfrog,
        burn_in=burn_in,
        divergences=divergences,
    )


def laplace_gaussian_chain(mean, neg_hess, draws: int, seed: int = 0) -> Chain:
    """Direct draws from N(mean, neg_hess^{-1}): the Laplace approximation.

    Not a Markov chain; acceptance is reported as 1.
    """
    mean = np.asarray(mean, dtype=float)
    H = neg_hess.to_dense() if isinstance(neg_hess, StructuredMatrix) else np.asarray(neg_hess)
    cf = scipy.linalg.cho_factor(H, lower=False)  # H = U'U
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((draws, mean.size))
    # x = mean + U^{-1} z has covariance U^{-1} U^{-T} = H^{-1}
    samples = mean + scipy.linalg.solve_triangular(cf[0], z.T, lower=False).T
    dev = samples - mean
    energies = 0.5 * np.einsum("ij,ij->i", dev @ H, dev)
    return Chain(
        samples=samples,
        acceptance_rate=1.0,
        energies=energies,
        seed=seed,
        target="laplace-gaussian",
    )


def chain_summary(chain: Chain, coordinates=None) -> dict:
    """Per-coordinate median and central 95% interval."""
    if chain.samples.shape[0] == 0:
        raise ValueError("empty chain")
    S = chain.samples if coordinates is None else chain.samples[:, coordinates]
    lo, med, hi = np.quantile(S, [0.025, 0.5, 0.975], axis=0)
    return {
        "median": med,
        "lo": lo,
        "hi": hi,
        "acceptance_rate": chain.acceptance_rate,
        "target": chain.target,
    }


def lnp_el_profile_gaussian(data, C: StructuredMatrix):
    """Flat-prior LNP EL posterior with the offset integrated out: theta is
    exactly N(mpele, (N_s C)^{-1}), mean and precision the EL's closed-form
    system's solution and matrix. Returns (mean, precision, per-coordinate sd).
    """
    if not isinstance(data.family, Poisson):
        raise ValueError("the profile Gaussian applies to the Poisson (LNP) family")
    prec, b = _el_system(data, C, None)
    cov = np.linalg.inv(prec.to_dense())
    return prec.solve_shifted(0.0, b), prec, np.sqrt(np.diag(cov))


def save_chain(stem, chain: Chain) -> None:
    stem = pathlib.Path(stem)
    chain.samples.astype(np.float64).tofile(stem.with_suffix(".bin"))
    manifest = {
        "draws": int(chain.samples.shape[0]),
        "dim": int(chain.samples.shape[1]),
        "acceptance_rate": chain.acceptance_rate,
        "seed": chain.seed,
        "target": chain.target,
        "step": chain.step,
        "n_leapfrog": chain.n_leapfrog,
        "burn_in": chain.burn_in,
        # only a chain with trajectories can diverge; the Laplace draws have none
        **({"divergences": chain.divergences} if chain.n_leapfrog else {}),
        "energies": chain.energies.tolist(),
    }
    stem.with_suffix(".json").write_text(json.dumps(manifest, indent=2))


def load_chain(stem) -> Chain:
    stem = pathlib.Path(stem)
    manifest = json.loads(stem.with_suffix(".json").read_text())
    samples = np.fromfile(stem.with_suffix(".bin"), dtype=np.float64)
    samples = samples.reshape(manifest["draws"], manifest["dim"])
    return Chain(
        samples=samples,
        acceptance_rate=manifest["acceptance_rate"],
        energies=np.asarray(manifest["energies"], dtype=float),
        seed=manifest["seed"],
        target=manifest["target"],
        step=manifest["step"],
        n_leapfrog=manifest["n_leapfrog"],
        burn_in=manifest["burn_in"],
        divergences=manifest.get("divergences", 0),
    )


def write_summary_csv(path, summary: dict) -> None:
    med = np.atleast_1d(summary["median"])
    lo = np.atleast_1d(summary["lo"])
    hi = np.atleast_1d(summary["hi"])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["coordinate", "median", "q025", "q975"])
        for j in range(med.size):
            w.writerow([j, med[j], lo[j], hi[j]])
