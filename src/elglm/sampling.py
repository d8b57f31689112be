"""Hamiltonian Monte Carlo over exact and EL posteriors.

Unit mass matrix throughout. A chain scores its Metropolis test, and stores
its energies, with its potential U in float64, and moves along leapfrog
trajectories driven by a force x -> gradU(x). By default the force is U's own
gradient; a chain may take it from another callable instead:

- the surrogate chain uses the EL gradient, so its trajectories cost O(p)
  per step;
- the CLI's exact chain uses the exact gradient computed in single precision
  (``ExactObjective.grad32``), which reads half the bytes per step.

Any force that is a deterministic function of x keeps the leapfrog flow
reversible and volume preserving, so the Metropolis test against the
float64 Hamiltonian leaves the exact posterior invariant (Neal 2011,
*MCMC using Hamiltonian dynamics*); a force that disagrees with gradU costs
acceptance, not exactness.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import pathlib

import numpy as np
import scipy.linalg

from .estimators import mele
from .families import Poisson
from .structured import StructuredMatrix

__all__ = [
    "Chain",
    "hmc_chain",
    "surrogate_hmc_chain",
    "laplace_gaussian_chain",
    "chain_summary",
    "make_potential",
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

    def __post_init__(self):
        if not 0.0 <= self.acceptance_rate <= 1.0:
            raise ValueError("acceptance rate must lie in [0, 1]")
        if self.samples.ndim != 2:
            raise ValueError("samples must be a (draws, dim) matrix")


def _leapfrog(grad_u, x, rho, step, n_steps, g0):
    g = g0
    for _ in range(n_steps):
        rho = rho - 0.5 * step * g
        x = x + step * rho
        g = grad_u(x)
        rho = rho - 0.5 * step * g
    return x, rho, g


def _value_of(potential):
    """x -> U(x): the potential's ``.value`` pass if it has one (see
    make_potential), else the first entry of its (U, gradU) pair."""
    return getattr(potential, "value", None) or (lambda z: potential(z)[0])


def _grad_of(potential):
    """x -> gradU(x): the potential's ``.grad`` pass if it has one, else the
    second entry of its (U, gradU) pair."""
    return getattr(potential, "grad", None) or (lambda z: potential(z)[1])


def _run_chain(energy, force, init, step, n_leapfrog, draws, burn_in, seed, target):
    """energy(x) -> U scores the Metropolis test and the stored energies;
    force(x) -> gradU drives the leapfrog trajectories."""
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
    accepted = 0
    for i in range(total):
        rho = rng.standard_normal(dim)
        h_cur = u_cur + 0.5 * float(rho @ rho)
        x_new, rho_new, g_new = _leapfrog(force, x, rho, step, n_leapfrog, g)
        u_new = energy(x_new)
        h_new = u_new + 0.5 * float(rho_new @ rho_new)
        log_alpha = h_cur - h_new
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
    )


def hmc_chain(
    neg_log_posterior,
    init,
    step: float = 0.01,
    n_leapfrog: int = 20,
    draws: int = 1000,
    burn_in: int = None,
    seed: int = 0,
    target: str = "exact",
    force=None,
) -> Chain:
    """Standard HMC. neg_log_posterior(x) -> (value, gradient).

    ``force(x)``, if given, replaces the potential's gradient in the leapfrog
    steps (for example ``lambda x: -objective.grad32(x)``); the Metropolis
    test keeps the potential's value, so the chain still targets it.
    """
    return _run_chain(
        _value_of(neg_log_posterior),
        _grad_of(neg_log_posterior) if force is None else force,
        init,
        step,
        n_leapfrog,
        draws,
        burn_in,
        seed,
        target,
    )


def surrogate_hmc_chain(
    el_posterior,
    exact_posterior,
    init,
    step: float = 0.01,
    n_leapfrog: int = 20,
    draws: int = 1000,
    burn_in: int = None,
    seed: int = 0,
) -> Chain:
    """HMC on the exact posterior with the EL gradient as its force.

    el_posterior(x) -> (value, gradient) shapes the trajectories;
    exact_posterior(x) -> value (or a (value, gradient) pair) enters the
    accept ratio. Samples target the exact posterior.
    """
    acc = exact_posterior
    if hasattr(acc, "value"):
        acc = acc.value
    elif not np.isscalar(acc(np.asarray(init, dtype=float))):
        # allow (value, grad) callables on the acceptance side too
        acc = _value_of(exact_posterior)
    return _run_chain(
        acc, _grad_of(el_posterior), init, step, n_leapfrog, draws, burn_in, seed, "surrogate"
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


def make_potential(objective):
    """Negative log posterior (value, gradient) from a log-posterior objective;
    the prior is the objective's ridge ``R``. The callable also carries
    ``.value`` and ``.grad``, the objective's partial passes negated, which
    the chains use where they need only one of the two."""

    def f(x):
        val, grad = objective.value_grad(x)
        return -val, -grad

    f.value = lambda x: -objective.value(x)
    f.grad = lambda x: -objective.grad(x)
    return f


def lnp_el_profile_gaussian(data, C: StructuredMatrix):
    """Flat-prior LNP EL posterior with the offset integrated out: theta is
    exactly N(mpele, (N_s C)^{-1}). Returns (mean, precision, per-coordinate sd).
    """
    if not isinstance(data.family, Poisson):
        raise ValueError("the profile Gaussian applies to the Poisson (LNP) family")
    fit = mele(data, C)
    prec = C.scaled(data.N_s)
    cov = np.linalg.inv(prec.to_dense())
    return fit.params.theta, prec, np.sqrt(np.diag(cov))


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
