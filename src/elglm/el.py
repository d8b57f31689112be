"""The expected log-likelihood: engines for E[G(theta0 + x' theta)] and the EL.

The EL replaces the data sum over the nonlinearity with N times its
expectation under the stimulus distribution,

    EL = scale * ( theta0 * N_s + s' theta - N * weight * E[G(theta0 + x' theta)] ),

so after the one-time contraction s = X'r its evaluation cost does not grow
with N. Under each engine's stimulus law the expectation depends on
(theta0, theta) only through the mean m = theta0 (+ mu' theta) and the norm
t = ||theta'|| = sqrt(theta' C theta). An engine therefore supplies one
scalar function, ``_scalars(m, t^2)``, returning F(m, t) and the five
derivatives (F_m, F_mm, F_t/t, F_mt/t, (F_tt - F_t/t)/t^2), each at its
finite limit as t -> 0; ``ExpectationEngine.expected_g`` applies the chain
rule to them once for all engines. Four engines cover the cases where the
expectation is tractable:

- AnalyticQuadratic: Gaussian family, F = (m^2 + t^2)/2.
- AnalyticExponential: Poisson with Gaussian stimuli (the Gaussian MGF),
  F = exp(m + t^2/2), equal to all five of its derivatives.
- Elliptic1D: any elliptically symmetric stimulus law; F is read from 1-D
  tables in t, precomputed by sphere-coordinate quadrature and interpolated.
- GaussianCLT: non-elliptic stimuli; q = x' theta treated as N(m, t^2)
  and integrated by Gauss-Hermite quadrature. The only engine with a
  stimulus mean mu.

All gradients/Hessians are over (theta0, theta) jointly, ordered with the
offset first, and Hessians are applied lazily through C matvecs.
"""

from __future__ import annotations

import numpy as np
import scipy.integrate
import scipy.interpolate
import scipy.special

from .families import Bernoulli, CanonicalFamily, Gaussian, Poisson, family_from_config
from .glm import ExactObjective, GlmDataset, GlmParams, LikelihoodEval
from .structured import Dense, StructuredMatrix, from_config as structured_from_config

__all__ = [
    "ExpectationEngine",
    "AnalyticQuadratic",
    "AnalyticExponential",
    "Elliptic1D",
    "GaussianCLT",
    "el_loglik",
    "ELObjective",
    "build_elliptic_table",
    "radial_from_h",
    "build_clt_engine",
    "engine_from_config",
]

_T_FLOOR = 1e-12  # ||theta'|| below this is treated as exactly zero
_SIGMA_FLOOR = 1e-9


def _check_mean_free(mu, what):
    if mu is not None and np.any(np.asarray(mu, dtype=float) != 0.0):
        raise ValueError(f"{what} assumes mean-zero stimuli; use GaussianCLT for nonzero means")


class ExpectationEngine:
    """Base: evaluator of E[G(theta0 + x' theta)] = F(m, t) with derivatives.

    An engine supplies ``_scalars(m, t2)``, t2 = t^2, returning

        (F, F_m, F_mm, a, b, c),  a = F_t/t,  b = F_mt/t,  c = (F_tt - F_t/t)/t^2,

    each at its finite limit as t -> 0; ``expected_g`` does the rest.
    """

    C: StructuredMatrix
    mu = None  # stimulus mean; only GaussianCLT carries one

    @property
    def p(self):
        return self.C.p

    def supports(self, family: CanonicalFamily) -> bool:
        raise NotImplementedError

    def _scalars(self, m: float, t2: float):
        raise NotImplementedError

    def expected_g(self, params: GlmParams) -> LikelihoodEval:
        """With v = C theta and d = w0 + mu' w_theta, the chain rule gives

        grad = [F_m, F_m mu + a v],
        H w  = [h0, mu h0 + v (b d + c v'w_theta) + a C w_theta],
        h0   = F_mm d + b v'w_theta.
        """
        if params.p != self.p:
            raise ValueError(f"theta has length {params.p}, engine expects {self.p}")
        theta, mu, C = params.theta, self.mu, self.C
        v = C.matvec(theta)
        t2 = max(float(theta @ v), 0.0)
        m = params.theta0 if mu is None else params.theta0 + float(mu @ theta)
        F, F_m, F_mm, a, b, c = self._scalars(m, t2)
        grad = np.empty(self.p + 1)
        grad[0] = F_m
        grad[1:] = a * v if mu is None else F_m * mu + a * v

        def hess_action(w):
            w = np.asarray(w, dtype=float)
            w0, wt = w[0], w[1:]
            vw = float(v @ wt)
            d = w0 if mu is None else w0 + float(mu @ wt)
            h0 = F_mm * d + b * vw
            out = np.empty(w.size)
            out[0] = h0
            out[1:] = v * (b * d + c * vw) + a * C.matvec(wt)
            if mu is not None:
                out[1:] += h0 * mu
            return out

        return LikelihoodEval(F, grad, hess_action)

    def to_config(self) -> dict:
        raise NotImplementedError


class AnalyticQuadratic(ExpectationEngine):
    """Gaussian family: E[(theta0 + q)^2]/2 = (theta0^2 + theta' C theta)/2.

    Exact for any mean-zero stimulus law with covariance C; the Hessian is
    the constant block-diagonal [[1, 0], [0, C]].
    """

    def __init__(self, C: StructuredMatrix, mu=None):
        _check_mean_free(mu, "AnalyticQuadratic")
        self.C = C

    def supports(self, family):
        return isinstance(family, Gaussian)

    def _scalars(self, m, t2):
        return 0.5 * (m**2 + t2), m, 1.0, 1.0, 0.0, 0.0

    def to_config(self):
        return {"kind": "analytic_quadratic", "C": self.C.to_config()}


class AnalyticExponential(ExpectationEngine):
    """Poisson with Gaussian stimuli: E = exp(theta0 + theta' C theta / 2).

    F = exp(m + t^2/2) equals all five of its scaled derivatives, so the
    Hessian is E * [[1, v'], [v, v v' + C]] with v = C theta.
    """

    def __init__(self, C: StructuredMatrix, mu=None):
        _check_mean_free(mu, "AnalyticExponential")
        self.C = C

    def supports(self, family):
        return isinstance(family, Poisson)

    def _scalars(self, m, t2):
        with np.errstate(over="ignore"):
            F = float(np.exp(m + 0.5 * t2))
        if not np.isfinite(F):
            raise FloatingPointError("E[exp] overflow; theta' C theta too large")
        return F, F, F, F, F, F

    def to_config(self):
        return {"kind": "analytic_exponential", "C": self.C.to_config()}


def radial_from_h(h, p: int):
    """Density of the whitened radius R = ||C^{-1/2}x|| from the elliptic
    profile h (p(x) = h(x'C^{-1}x)): f(rho) proportional to rho^{p-1} h(rho^2)."""

    def density(rho):
        rho = np.asarray(rho, dtype=float)
        return rho ** (p - 1) * np.asarray(h(rho * rho), dtype=float)

    return density


def _angle_rule(p: int, n: int):
    """Quadrature for w = cos(angle(y, theta')) on [-1,1], y uniform on S^{p-1}."""
    if p == 1:
        return np.array([-1.0, 1.0]), np.array([0.5, 0.5])
    a = 0.5 * (p - 3)
    x, w = scipy.special.roots_jacobi(n, a, a)
    return x, w / np.sum(w)


def _radial_rule_from_density(density, n: int):
    total, _ = scipy.integrate.quad(density, 0.0, np.inf, limit=200)
    if not np.isfinite(total) or total <= 0:
        raise ValueError("radial law is not normalizable")
    r_hi = 1.0
    while scipy.integrate.quad(density, r_hi, np.inf, limit=200)[0] > 1e-12 * total:
        r_hi *= 2.0
        if r_hi > 1e8:
            raise ValueError("radial law tail too heavy to truncate")
    x, w = np.polynomial.legendre.leggauss(n)
    nodes = 0.5 * r_hi * (x + 1.0)
    wts = 0.5 * r_hi * w * np.asarray(density(nodes), dtype=float)
    wts = wts / np.sum(wts)
    return nodes, wts


def _radial_rule_from_samples(samples, n: int):
    radii = np.sort(np.asarray(samples, dtype=float))
    if radii.ndim != 1 or radii.size < 2:
        raise ValueError("need a 1-D array of at least 2 radius samples")
    if np.any(radii < 0) or not np.all(np.isfinite(radii)):
        raise ValueError("radius samples must be finite and nonnegative")
    if radii.size <= n:
        return radii, np.full(radii.size, 1.0 / radii.size)
    # compress to n equal-mass strata, one node (the stratum mean) each
    edges = np.linspace(0, radii.size, n + 1).astype(int)
    nodes = np.array([radii[a:b].mean() for a, b in zip(edges[:-1], edges[1:])])
    return nodes, np.full(n, 1.0 / n)


class Elliptic1D(ExpectationEngine):
    """Lookup-table engine for elliptically symmetric stimuli.

    Tables hold E[G], E[G'], E[G''] of q = y' theta' on a strictly increasing
    grid of t = ||theta'||, interpolated by monotone cubics (C^1, as the EL
    gradient differentiates the table). Offsets are handled per family:
    exp factors out for Poisson, shifts analytically for Gaussian, and the
    logistic family is restricted to theta0 = 0 (a 1-D table cannot carry a
    second degree of freedom).
    """

    def __init__(self, family, C, knots, values, d1_values, d2_values):
        knots = np.asarray(knots, dtype=float)
        if knots.ndim != 1 or knots.size < 4:
            raise ValueError("need at least 4 grid knots")
        if np.any(np.diff(knots) <= 0):
            raise ValueError("grid knots must be strictly increasing")
        self.family = family
        self.C = C
        self.knots = knots
        self.r_max = float(knots[-1])
        self._values = (
            np.asarray(values, float),
            np.asarray(d1_values, float),
            np.asarray(d2_values, float),
        )
        self._interp = [scipy.interpolate.PchipInterpolator(knots, v) for v in self._values]
        self._interp_d = [f.derivative() for f in self._interp]
        self._interp_dd = [f.derivative(2) for f in self._interp]

    def supports(self, family):
        return type(family) is type(self.family)

    def _radial(self, which, t):
        """Table ``which`` at t: (T, T'/t, (T'' - T'/t)/t^2)."""
        T = float(self._interp[which](t))
        if t < _T_FLOOR:
            # even function of t: T(t) = T(0) + c2 t^2/2 + O(t^4), so T'/t -> c2,
            # found by a secant over the first segment (the PCHIP second
            # derivative is unreliable at the boundary knot); the third
            # scalar enters only times |v|^2 = O(t^2) and is taken as 0
            tv = self._values[which]
            t1 = self.knots[1]
            return T, 2.0 * (float(tv[1]) - float(tv[0])) / (t1 * t1), 0.0
        td, tdd = float(self._interp_d[which](t)), float(self._interp_dd[which](t))
        return T, td / t, (tdd - td / t) / (t * t)

    def _scalars(self, m, t2):
        t = float(np.sqrt(t2))
        if t > self.r_max * (1 + 1e-12):
            raise ValueError(
                f"||theta'|| = {t:.6g} outside table domain [0, {self.r_max:.6g}]; "
                "rebuild the table with a larger r_max"
            )
        t = min(t, self.r_max)
        T, a, c = self._radial(0, t)
        if isinstance(self.family, Poisson):
            # G = exp: E[G(m+q)] = e^m T(t), all derivatives share the factor
            f = float(np.exp(m))
            F = f * T
            return F, F, F, f * a, f * a, f * c
        if isinstance(self.family, Gaussian):
            # G = u^2/2: E[G(m+q)] = m^2/2 + T(t) for mean-zero q
            return 0.5 * m * m + T, m, 1.0, a, 0.0, c
        # logistic (or other) family: offset-free table only
        if m != 0.0:
            raise ValueError(
                f"Elliptic1D with {self.family.name}: nonzero offsets are unsupported"
            )
        T1, b, _ = self._radial(1, t)
        return T, T1, float(self._interp[2](t)), a, b, c

    def to_config(self):
        return {
            "kind": "elliptic1d",
            "C": self.C.to_config(),
            **self.family.to_config(),
            "knots": self.knots.tolist(),
            "values": self._values[0].tolist(),
            "d1_values": self._values[1].tolist(),
            "d2_values": self._values[2].tolist(),
        }


def build_elliptic_table(
    family: CanonicalFamily,
    C: StructuredMatrix,
    *,
    radial_samples=None,
    radial_density=None,
    r_max: float = 4.0,
    n_knots: int = 200,
    grid=None,
    n_radial: int = 1024,
    n_angle: int = 64,
) -> Elliptic1D:
    """Build the 1-D lookup engine by quadrature against the radial law.

    The stimulus law is specified through the distribution of the whitened
    radius R = ||C^{-1/2} x||: either ``radial_density`` (an unnormalized
    density callable on [0, inf); use :func:`radial_from_h` to convert an
    elliptic profile h) or ``radial_samples`` (draws of R, compressed to
    equal-mass strata). For each grid value t of ||theta'||, the tables store

        E[F(R t w)],  F in (G, G', G''),

    with w the cosine of the angle between a uniform sphere direction and
    theta', integrated by Gauss-Jacobi quadrature. Note C equals the stimulus
    covariance only when the radial law satisfies E[R^2] = p.
    """
    if (radial_samples is None) == (radial_density is None):
        raise ValueError("provide exactly one of radial_samples or radial_density")
    p = C.p
    if radial_density is not None:
        R, wR = _radial_rule_from_density(radial_density, n_radial)
    else:
        R, wR = _radial_rule_from_samples(radial_samples, n_radial)
    wcos, wW = _angle_rule(p, n_angle)
    if grid is None:
        if r_max <= 0:
            raise ValueError("r_max must be positive")
        grid = np.geomspace(1e-4 * r_max / 4.0, r_max, n_knots)
    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= 0):
        raise ValueError("grid values must be positive (0 is prepended automatically)")
    knots = np.concatenate(([0.0], grid))

    q_unit = np.outer(R, wcos)  # (n_radial, n_angle) products R*w
    weights = np.outer(wR, wW)
    tables = []
    for F in (family.g, family.dg, family.d2g):
        vals = np.empty(knots.size)
        vals[0] = float(F(0.0))
        for k, t in enumerate(knots[1:], start=1):
            vals[k] = float(np.sum(weights * F(t * q_unit)))
        tables.append(vals)
    return Elliptic1D(family, C, knots, *tables)


class GaussianCLT(ExpectationEngine):
    """CLT engine: q = x' theta taken as N(theta0 + mu' theta, theta' C theta).

    Valid for any family; accuracy rests on q being close to Gaussian (many
    weakly dependent stimulus entries, spread-out theta). The one engine that
    handles mean-nonzero stimuli.
    """

    def __init__(self, family: CanonicalFamily, C: StructuredMatrix, mu=None, m: int = 50):
        if m < 2:
            raise ValueError("Gauss-Hermite order m must be >= 2")
        self.family = family
        self.C = C
        self.mu = np.zeros(C.p) if mu is None else np.asarray(mu, dtype=float)
        if self.mu.shape != (C.p,):
            raise ValueError("mu length does not match C")
        self.m = int(m)
        z, w = np.polynomial.hermite_e.hermegauss(self.m)
        self._z = z
        self._w = w / np.sqrt(2.0 * np.pi)

    def supports(self, family):
        return type(family) is type(self.family)

    def _scalars(self, m, t2):
        fam = self.family
        sigma = float(np.sqrt(t2))
        if sigma < _SIGMA_FLOOR:
            # degenerate q: point mass at the mean
            g2 = float(fam.d2g(m))
            return float(fam.g(m)), float(fam.dg(m)), g2, g2, 0.0, 0.0
        z = self._z
        u = m + sigma * z
        wg1 = self._w * fam.dg(u)  # weighted G' and G'' at the nodes
        wg2 = self._w * fam.d2g(u)
        a = float(np.sum(wg1 * z)) / sigma  # F_t = E[G'(u) z]
        return (
            float(np.sum(self._w * fam.g(u))),
            float(np.sum(wg1)),
            float(np.sum(wg2)),
            a,
            float(np.sum(wg2 * z)) / sigma,
            (float(np.sum(wg2 * z**2)) - a) / (sigma * sigma),
        )

    def to_config(self):
        return {
            "kind": "gaussian_clt",
            "C": self.C.to_config(),
            **self.family.to_config(),
            "mu": self.mu.tolist(),
            "m": self.m,
        }


def build_clt_engine(family, C=None, mu=None, samples=None, m: int = 50) -> GaussianCLT:
    """CLT engine from analytic moments or estimated from stimulus samples."""
    if samples is not None:
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 2:
            raise ValueError("samples must be an (n, p) array")
        mu_hat = samples.mean(axis=0)
        centered = samples - mu_hat
        C_hat = Dense(centered.T @ centered / samples.shape[0])
        return GaussianCLT(family, C_hat, mu=mu_hat, m=m)
    if C is None:
        raise ValueError("provide C (and optionally mu) or samples")
    return GaussianCLT(family, C, mu=mu, m=m)


def el_loglik(engine: ExpectationEngine, data: GlmDataset, params: GlmParams) -> LikelihoodEval:
    """EL value/gradient/Hessian over (theta0, theta); cost independent of N.

    value = scale * (theta0 N_s + s' theta - N * weight * E[G]); the Hessian
    action wraps the engine's with the -N*weight*scale factor.
    """
    fam = data.family
    if not engine.supports(fam):
        raise ValueError(f"engine {type(engine).__name__} does not support family {fam.name}")
    if engine.p != data.p:
        raise ValueError("engine dimension does not match data")
    ev = engine.expected_g(params)
    scale, w = fam.scale, fam.weight
    c = data.N * w
    value = scale * (params.theta0 * data.N_s + float(data.s @ params.theta) - c * ev.value)
    grad = scale * (np.concatenate(([data.N_s], data.s)) - c * ev.grad)

    def hess_action(vv):
        return -scale * c * ev.hess_action(vv)

    return LikelihoodEval(value=value, grad=grad, hess_action=hess_action)


class ELObjective(ExactObjective):
    """glm.ExactObjective with the EL in place of the exact log-likelihood."""

    def __init__(self, engine, data, fit_offset=False, theta0=0.0, R=None):
        super().__init__(data, fit_offset=fit_offset, theta0=theta0, R=R)
        self.engine = engine

    def _loglik(self, x):
        return el_loglik(self.engine, self.data, self.params(x))

    def hess_dense(self, x):
        act = self.hess_action(x)
        eye = np.eye(self.dim)
        return np.column_stack([act(eye[:, j]) for j in range(self.dim)])


def engine_from_config(config: dict) -> ExpectationEngine:
    kind = config.get("kind")
    if kind == "analytic_quadratic":
        return AnalyticQuadratic(structured_from_config(config["C"]))
    if kind == "analytic_exponential":
        return AnalyticExponential(structured_from_config(config["C"]))
    if kind == "elliptic1d":
        return Elliptic1D(
            family_from_config(config),
            structured_from_config(config["C"]),
            config["knots"],
            config["values"],
            config["d1_values"],
            config["d2_values"],
        )
    if kind == "gaussian_clt":
        return GaussianCLT(
            family_from_config(config),
            structured_from_config(config["C"]),
            mu=np.asarray(config["mu"], dtype=float),
            m=config.get("m", 50),
        )
    raise ValueError(f"unknown engine kind: {kind!r}")
