"""Canonical GLM families: Gaussian/identity, Poisson/exp, Bernoulli/logit.

Each family is the pair (G, extras) where G is the cumulant-style
nonlinearity in the canonical log-likelihood

    L = scale * sum_n [ u_n r_n - weight * G(u_n) ],   u_n = theta0 + x_n' theta.

``scale`` is 1/sigma^2 for the Gaussian family (kept explicit so evidence
values are correctly scaled) and 1 otherwise; ``weight`` is the bin width
dt for Poisson (so the rate in a bin is dt * exp(u)) and 1 otherwise.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

__all__ = [
    "CanonicalFamily",
    "Gaussian",
    "Poisson",
    "Bernoulli",
    "nonlinearity_eval",
    "family_from_config",
    "FAMILIES",
]

_FLOAT32 = np.dtype(np.float32)


def _real(u):
    """u as a float array: float32 input stays single precision, so G and its
    derivatives can run in the precision of their caller's pass; anything
    else becomes float64."""
    return u if getattr(u, "dtype", None) is _FLOAT32 else np.asarray(u, dtype=float)


class CanonicalFamily:
    name: str
    scale: float = 1.0
    weight: float = 1.0

    def g(self, u):
        raise NotImplementedError

    def dg(self, u):
        raise NotImplementedError

    def d2g(self, u):
        raise NotImplementedError

    def simulate(self, u, rng):
        """Draw responses given the linear predictor u, one per entry."""
        raise NotImplementedError

    def validate_responses(self, r):
        """Raise ValueError if r is outside the family's response space."""
        if not np.all(np.isfinite(r)):
            raise ValueError(f"{self.name}: non-finite responses")

    def to_config(self):
        return {"family": self.name}

    def __repr__(self):
        return f"{type(self).__name__}()"


class Gaussian(CanonicalFamily):
    """Identity-link linear regression; G(u) = u^2 / 2, scaled by 1/sigma^2."""

    name = "gaussian"

    def __init__(self, sigma2: float = 1.0):
        if sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        self.sigma2 = float(sigma2)
        self.scale = 1.0 / self.sigma2

    def g(self, u):
        u = _real(u)
        return 0.5 * u * u

    def dg(self, u):
        return _real(u)

    def d2g(self, u):
        return np.ones_like(_real(u))

    def simulate(self, u, rng):
        u = np.asarray(u, dtype=float)
        return rng.normal(u, np.sqrt(self.sigma2))

    def to_config(self):
        return {"family": self.name, "sigma2": self.sigma2}

    def __repr__(self):
        return f"Gaussian(sigma2={self.sigma2})"


class Poisson(CanonicalFamily):
    """Exponential-nonlinearity Poisson counts (LNP); G(u) = exp(u).

    The rate in a bin of width dt is dt * exp(u). dt defaults to 1, matching
    the unweighted count likelihood; it enters evidence formulas through the
    offset term and is exposed here for that purpose.
    """

    name = "poisson"

    # simulated rates above this are treated as a modeling error, not clipped
    MAX_MEAN = 1e12

    def __init__(self, dt: float = 1.0):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.dt = float(dt)
        self.weight = self.dt

    def g(self, u):
        return np.exp(_real(u))

    dg = g
    d2g = g

    def simulate(self, u, rng):
        mean = self.dt * np.exp(np.asarray(u, dtype=float))
        if np.any(~np.isfinite(mean)) or np.any(mean > self.MAX_MEAN):
            bad = int(np.argmax(~np.isfinite(mean) | (mean > self.MAX_MEAN)))
            raise ValueError(f"poisson mean overflow at index {bad}: u={np.asarray(u).ravel()[bad]}")
        return rng.poisson(mean).astype(float)

    def validate_responses(self, r):
        super().validate_responses(r)
        r = np.asarray(r)
        if np.any(r < 0) or np.any(r != np.round(r)):
            raise ValueError("poisson: responses must be nonnegative integers")

    def to_config(self):
        return {"family": self.name, "dt": self.dt}

    def __repr__(self):
        return f"Poisson(dt={self.dt})"


class Bernoulli(CanonicalFamily):
    """Logistic regression; G(u) = log(1 + exp(u)), evaluated without overflow."""

    name = "bernoulli"

    def g(self, u):
        return np.logaddexp(0.0, _real(u))

    def dg(self, u):
        return expit(_real(u))

    def d2g(self, u):
        s = expit(_real(u))
        return s * (1.0 - s)

    def simulate(self, u, rng):
        return rng.binomial(1, expit(np.asarray(u, dtype=float))).astype(float)

    def validate_responses(self, r):
        super().validate_responses(r)
        r = np.asarray(r)
        if not np.all((r == 0) | (r == 1)):
            raise ValueError("bernoulli: responses must be 0 or 1")


def nonlinearity_eval(family: CanonicalFamily, u):
    """(G(u), G'(u), G''(u)) for scalar or array u."""
    return family.g(u), family.dg(u), family.d2g(u)


# config constructors by name; the CLI schema takes its family enum from the keys
FAMILIES = {
    "gaussian": lambda c: Gaussian(sigma2=c.get("sigma2", 1.0)),
    "poisson": lambda c: Poisson(dt=c.get("dt", 1.0)),
    "bernoulli": lambda c: Bernoulli(),
}


def family_from_config(config: dict) -> CanonicalFamily:
    name = config.get("family")
    if name not in FAMILIES:
        raise ValueError(f"unknown family: {name!r}")
    return FAMILIES[name](config)
