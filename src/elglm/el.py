"""The expected log-likelihood: engines for E[G(theta0 + x' theta)] and the EL.

The EL replaces the data sum over the nonlinearity with N times its
expectation under the stimulus distribution,

    EL = scale * ( theta0 * N_s + s' theta - N * weight * E[G(theta0 + x' theta)] ),

so after the one-time contraction s = X'r its evaluation cost does not grow
with N. Four engines cover the cases where the expectation is tractable:

- AnalyticQuadratic: Gaussian family, E = (theta0^2 + theta' C theta)/2.
- AnalyticExponential: Poisson with Gaussian stimuli (the Gaussian MGF),
  E = exp(theta0 + theta' C theta / 2).
- Elliptic1D: any elliptically symmetric stimulus law; E depends on theta
  only through ||theta'|| = sqrt(theta' C theta) and is precomputed on a 1-D
  grid by sphere-coordinate quadrature, then interpolated.
- GaussianCLT: non-elliptic stimuli; q = x' theta treated as Gaussian with
  matched mean/variance and integrated by Gauss-Hermite quadrature.

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
    """Base: evaluator of E[G(theta0 + x' theta)] with derivatives."""

    C: StructuredMatrix

    @property
    def p(self):
        return self.C.p

    def supports(self, family: CanonicalFamily) -> bool:
        raise NotImplementedError

    def expected_g(self, params: GlmParams) -> LikelihoodEval:
        raise NotImplementedError

    def _check(self, params):
        if params.p != self.p:
            raise ValueError(f"theta has length {params.p}, engine expects {self.p}")

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

    def expected_g(self, params):
        self._check(params)
        v = self.C.matvec(params.theta)
        value = 0.5 * (params.theta0**2 + float(params.theta @ v))
        grad = np.concatenate(([params.theta0], v))

        def hess_action(w):
            w = np.asarray(w, dtype=float)
            return np.concatenate(([w[0]], self.C.matvec(w[1:])))

        return LikelihoodEval(value, grad, hess_action)

    def to_config(self):
        return {"kind": "analytic_quadratic", "C": self.C.to_config()}


class AnalyticExponential(ExpectationEngine):
    """Poisson with Gaussian stimuli: E = exp(theta0 + theta' C theta / 2).

    The Hessian is E * [[1, v'], [v, v v' + C]] with v = C theta, applied
    lazily so only C matvecs are ever needed.
    """

    def __init__(self, C: StructuredMatrix, mu=None):
        _check_mean_free(mu, "AnalyticExponential")
        self.C = C

    def supports(self, family):
        return isinstance(family, Poisson)

    def expected_g(self, params):
        self._check(params)
        v = self.C.matvec(params.theta)
        with np.errstate(over="ignore"):
            value = float(np.exp(params.theta0 + 0.5 * float(params.theta @ v)))
        if not np.isfinite(value):
            raise FloatingPointError("E[exp] overflow; theta' C theta too large")
        grad = value * np.concatenate(([1.0], v))
        C = self.C

        def hess_action(w):
            w = np.asarray(w, dtype=float)
            w0, wt = w[0], w[1:]
            vw = float(v @ wt)
            out = np.empty(w.size)
            out[0] = value * (w0 + vw)
            out[1:] = value * (v * (w0 + vw) + C.matvec(wt))
            return out

        return LikelihoodEval(value, grad, hess_action)

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

    def _norm(self, theta):
        v = self.C.matvec(theta)
        t = float(np.sqrt(max(float(theta @ v), 0.0)))
        if t > self.r_max * (1 + 1e-12):
            raise ValueError(
                f"||theta'|| = {t:.6g} outside table domain [0, {self.r_max:.6g}]; "
                "rebuild the table with a larger r_max"
            )
        return v, min(t, self.r_max)

    def _theta_block(self, v, t, which=0):
        """Value, gradient, and lazy Hessian action of T(||theta'||) in theta."""
        T, Td, Tdd = self._interp[which], self._interp_d[which], self._interp_dd[which]
        val = float(T(t))
        if t < _T_FLOOR:
            # even function of t: T'(0)=0 and T(t) = T(0) + c2 t^2/2 + O(t^4),
            # so a secant over the first segment recovers c2 (the PCHIP second
            # derivative is unreliable at the boundary knot)
            tv = self._values[which]
            t1 = self.knots[1]
            c2 = 2.0 * (float(tv[1]) - float(tv[0])) / (t1 * t1)
            grad = np.zeros(self.p)

            def hess_action(w):
                return c2 * self.C.matvec(w)

            return val, grad, hess_action
        td, tdd = float(Td(t)), float(Tdd(t))
        grad = (td / t) * v
        C = self.C

        def hess_action(w):
            w = np.asarray(w, dtype=float)
            vw = float(v @ w)
            return (tdd / (t * t) - td / t**3) * vw * v + (td / t) * C.matvec(w)

        return val, grad, hess_action

    def expected_g(self, params):
        self._check(params)
        th0 = params.theta0
        v, t = self._norm(params.theta)
        p = self.p
        if isinstance(self.family, Poisson):
            # G = exp: E[G(th0+q)] = e^{th0} T(t), all derivatives share the factor
            f = float(np.exp(th0))
            val, gth, hact = self._theta_block(v, t)
            value = f * val
            grad = np.concatenate(([value], f * gth))

            def hess_action(w):
                w = np.asarray(w, dtype=float)
                w0, wt = w[0], w[1:]
                out = np.empty(p + 1)
                out[0] = value * w0 + f * float(gth @ wt)
                out[1:] = f * (gth * w0 + hact(wt))
                return out

            return LikelihoodEval(value, grad, hess_action)
        if isinstance(self.family, Gaussian):
            # G = u^2/2: E[G(th0+q)] = th0^2/2 + T(t) for mean-zero q
            val, gth, hact = self._theta_block(v, t)
            value = 0.5 * th0 * th0 + val
            grad = np.concatenate(([th0], gth))

            def hess_action(w):
                w = np.asarray(w, dtype=float)
                return np.concatenate(([w[0]], hact(w[1:])))

            return LikelihoodEval(value, grad, hess_action)
        # logistic (or other) family: offset-free table only
        if th0 != 0.0:
            raise ValueError(
                f"Elliptic1D with {self.family.name}: nonzero offsets are unsupported"
            )
        val, gth, hact = self._theta_block(v, t, which=0)
        d1, gd1, _ = self._theta_block(v, t, which=1)
        d2 = float(self._interp[2](t))
        grad = np.concatenate(([d1], gth))

        def hess_action(w):
            w = np.asarray(w, dtype=float)
            w0, wt = w[0], w[1:]
            out = np.empty(p + 1)
            out[0] = d2 * w0 + float(gd1 @ wt)
            out[1:] = gd1 * w0 + hact(wt)
            return out

        return LikelihoodEval(val, grad, hess_action)

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

    def expected_g(self, params):
        self._check(params)
        fam = self.family
        v = self.C.matvec(params.theta)
        var = max(float(params.theta @ v), 0.0)
        sigma = np.sqrt(var)
        mean = params.theta0 + float(self.mu @ params.theta)
        p = self.p
        if sigma < _SIGMA_FLOOR:
            # degenerate q: point mass at the mean
            g0, g1, g2 = float(fam.g(mean)), float(fam.dg(mean)), float(fam.d2g(mean))
            grad = np.concatenate(([g1], g1 * self.mu + g2 * v))
            mu, C = self.mu, self.C

            def hess_action(w):
                w = np.asarray(w, dtype=float)
                w0, wt = w[0], w[1:]
                muw = float(mu @ wt)
                out = np.empty(p + 1)
                out[0] = g2 * (w0 + muw)
                out[1:] = g2 * (mu * (w0 + muw) + C.matvec(wt))
                return out

            return LikelihoodEval(g0, grad, hess_action)

        u = mean + sigma * self._z
        a = self._w * fam.dg(u)
        b = self._w * fam.d2g(u)
        value = float(np.sum(self._w * fam.g(u)))
        A, Az = float(np.sum(a)), float(np.sum(a * self._z))
        B, Bz, Bzz = float(np.sum(b)), float(np.sum(b * self._z)), float(np.sum(b * self._z**2))
        vs = v / sigma
        grad = np.concatenate(([A], A * self.mu + Az * vs))
        mu, C = self.mu, self.C

        def hess_action(w):
            w = np.asarray(w, dtype=float)
            w0, wt = w[0], w[1:]
            muw = float(mu @ wt)
            vsw = float(vs @ wt)
            d_mean = w0 + muw  # directional derivative of the mean
            out = np.empty(p + 1)
            out[0] = B * d_mean + Bz * vsw
            out[1:] = (
                mu * (B * d_mean + Bz * vsw)
                + vs * (Bz * d_mean + Bzz * vsw)
                + (Az / sigma) * (C.matvec(wt) - vs * vsw)
            )
            return out

        return LikelihoodEval(value, grad, hess_action)

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
