"""MSE theory for the linear-Gaussian model: closed forms, rho-asymptotics,
Marchenko-Pastur integration, and Monte Carlo oracles.

Model: r|x ~ N(x'theta, 1), x ~ N(0, I), ridge penalty log f(theta)
= -c p ||theta||^2 / 2 (the ridge weight scales with p so the asymptotics
stay finite). With unit noise and identity covariance theta'theta is the SNR.

Estimator kinds: "mele" X'r/N, "mle" (X'X)^{-1}X'r, "mpele" X'r/(N+cp),
"map" (X'X+cpI)^{-1}X'r.

The Monte Carlo draws no design. Left-first Golub-Kahan bidiagonalization
gives X = U [B; 0] V' with V e_1 = e_1 and B upper bidiagonal with
independent chi entries (Dumitriu & Edelman, "Matrix models for beta
ensembles", J. Math. Phys. 2002). Then X'X = V B'B V' and X'eps = V B'w,
where w = U'eps ~ N(0, I) is independent of B. The design is isotropic, so
rotating theta onto ||theta|| e_1 leaves the law of every error unchanged:
the risk depends on theta only through its norm. Each error is therefore a
function of (B, w), which a trial draws in O(p) numbers and evaluates in
O(p) work with a bidiagonal or tridiagonal solve, instead of an N x p
design, its gram and a p x p solve. The draws do not depend on the kind, so
one call to mc_mse with several kinds draws each trial's (B, w) once and
evaluates every kind on it: the kinds share their datasets (common random
numbers), and one seed gives them the same datasets in separate calls too.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy.linalg import lapack, solveh_banded

__all__ = [
    "RiskSpec",
    "KINDS",
    "mse_closed_form",
    "mse_asymptotic",
    "MPLaw",
    "mc_mse",
    "check_mc",
    "crossover_rho",
    "optimal_ridge",
]

KINDS = ("mele", "mle", "mpele", "map")


@dataclasses.dataclass(frozen=True)
class RiskSpec:
    kind: str
    N: int
    p: int
    theta_norm2: float
    c: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.N < 1 or self.p < 1:
            raise ValueError("N and p must be >= 1")
        if self.c < 0 or self.theta_norm2 < 0:
            raise ValueError("c and theta_norm2 must be nonnegative")


def mse_closed_form(spec: RiskSpec) -> float:
    """Finite-sample E||theta_hat - theta||^2; no closed form exists for the
    ridge MAP (use mc_mse or the asymptotic formula)."""
    snr, N, p, c = spec.theta_norm2, spec.N, spec.p, spec.c
    if spec.kind == "mele":
        return (snr + p * (snr + 1.0)) / N
    if spec.kind == "mle":
        if N <= p + 1:
            raise ValueError("MLE closed form requires N > p + 1")
        return p / (N - p - 1.0)
    if spec.kind == "mpele":
        shrink = N / (N + c * p) - 1.0
        return shrink * shrink * snr + (N * p * (1.0 + snr) + N * snr) / (N + c * p) ** 2
    raise ValueError("no finite-sample closed form for the MAP; use mc_mse")


class MPLaw:
    """Marchenko-Pastur law for eigenvalues of X'X/N, aspect ratio rho = p/N.

    Callable as the continuous density on [a, b] = [(1-sqrt(rho))^2,
    (1+sqrt(rho))^2]; ``expect`` integrates a function against the full law,
    including the point mass of weight 1 - 1/rho at zero when rho > 1. The
    inverse-square-root endpoint behavior is removed by the substitution
    l = a + (b - a) sin^2 t before Gauss-Legendre quadrature.
    """

    def __init__(self, rho: float, n_quad: int = 400):
        if rho <= 0:
            raise ValueError("rho must be positive")
        self.rho = float(rho)
        self.a = (1.0 - math.sqrt(rho)) ** 2
        self.b = (1.0 + math.sqrt(rho)) ** 2
        self.zero_mass = max(0.0, 1.0 - 1.0 / rho)
        x, w = np.polynomial.legendre.leggauss(n_quad)
        t = 0.25 * math.pi * (x + 1.0)
        s, cth = np.sin(t), np.cos(t)
        self._l = self.a + (self.b - self.a) * s * s
        # dmu = (1/(2 pi rho l)) sqrt((b-l)(l-a)) dl with dl = 2(b-a) s c dt
        self._w = (
            0.25 * math.pi * w * (self.b - self.a) ** 2 * (s * cth) ** 2 / (math.pi * self.rho * self._l)
        )

    def __call__(self, l):
        l = np.asarray(l, dtype=float)
        inside = (l > self.a) & (l < self.b)
        dens = np.zeros_like(l)
        li = l[inside]
        dens[inside] = np.sqrt((self.b - li) * (li - self.a)) / (2.0 * math.pi * li * self.rho)
        return dens if dens.ndim else float(dens)

    def expect(self, f) -> float:
        """E[f(l)] under the full law (continuous part + point mass at 0)."""
        val = float(np.sum(self._w * f(self._l)))
        if self.zero_mass > 0:
            val += self.zero_mass * float(f(0.0))
        return val


def mse_asymptotic(kind: str, rho: float, theta_norm2: float, c: float = 0.0) -> float:
    """Limiting MSE as N, p -> infinity with p/N -> rho.

    mele: rho (snr + 1); mle: rho/(1-rho) for rho < 1;
    mpele: (rho + snr (c^2 rho^2 + rho)) / (1 + c rho)^2;
    map: rho E[l/(l+c rho)^2] + snr E[(l/(l+c rho) - 1)^2] over the MP law.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if rho <= 0:
        raise ValueError("rho must be positive")
    snr = float(theta_norm2)
    if kind == "mele":
        return rho * (snr + 1.0)
    if kind == "mle":
        if rho >= 1:
            raise ValueError("MLE asymptotics require rho < 1 (non-unique beyond)")
        return rho / (1.0 - rho)
    if kind == "mpele":
        return (rho + snr * (c * c * rho * rho + rho)) / (1.0 + c * rho) ** 2
    if c <= 0 and rho >= 1:
        raise ValueError("MAP asymptotics at rho >= 1 require c > 0")
    law = MPLaw(rho)
    cr = c * rho
    var_term = law.expect(lambda l: l / (l + cr) ** 2)
    bias_term = law.expect(lambda l: (l / (l + cr) - 1.0) ** 2)
    return rho * var_term + snr * bias_term


def crossover_rho(snr: float) -> float:
    """The rho above which the MELE beats the MLE: snr / (1 + snr)."""
    if snr < 0:
        raise ValueError("snr must be nonnegative")
    return snr / (1.0 + snr)


def check_mc(kind: str, N: int, p: int, trials: int, c: float = 0.0) -> None:
    """Raise ValueError unless mc_mse can estimate this cell: at least two
    trials, and an estimator whose risk is finite."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if trials < 2:
        raise ValueError("trials must be >= 2")
    if kind == "mle" and p >= N - 1:
        raise ValueError("MLE Monte Carlo requires p < N - 1")
    if kind == "map" and c <= 0 and p >= N:
        raise ValueError("MAP Monte Carlo at p >= N requires c > 0")


def _bidiagonal(rng, N, p):
    """One draw of the upper bidiagonal B (n x p, n = min(N, p)) of a standard
    Gaussian N x p design, plus w ~ N(0, I_n) standing for the rotated noise.

    Left-first Golub-Kahan gives diagonal d_i ~ chi_{N-i+1} and superdiagonal
    e_i ~ chi_{p-i}. Only the first m = min(N + 1, p) columns of B are nonzero,
    so d and w come back zero-padded to length m and e has length m - 1.
    """
    n = min(N, p)
    d = np.sqrt(rng.chisquare(np.arange(N, N - n, -1)))
    e = np.sqrt(rng.chisquare(np.arange(p - 1, p - 1 - min(n, p - 1), -1)))
    w = rng.standard_normal(n)
    if N < p:  # column N + 1 holds e_N only
        return np.pad(d, (0, 1)), e, np.pad(w, (0, 1))
    return d, e, w


def _squared_error(kind, d, e, w, N, p, s, c):
    """||theta_hat - theta||^2 for theta = s e_1, in the frame where X = U B V'
    with V e_1 = e_1 (coordinates beyond B's nonzero columns are zero).
    Reads d, e and w without writing them, so one draw serves every kind."""
    if kind == "mle":
        # (X'X)^{-1} X'eps = V B^{-1} w, with B square since p < N - 1: a
        # back substitution on B in LAPACK's upper band storage
        ab = np.empty((2, d.size))
        ab[0, 0] = 0.0
        ab[0, 1:] = e
        ab[1] = d
        x, info = lapack.dtbtrs(ab, w)
        if info != 0:
            raise np.linalg.LinAlgError("singular matrix")
        return float(x @ x)
    g = d * w
    g[1:] += e * w[:-1]  # B'w
    if kind == "map":
        # (B'B + lam I)^{-1} (s B'B e_1 + B'w) - s e_1
        #   = (B'B + lam I)^{-1} (B'w - lam s e_1), which has no cancellation
        lam = c * p
        g[0] -= lam * s
        ab = np.array([np.r_[0.0, d[:-1] * e], d * d + np.r_[0.0, e * e] + lam])
        # the tridiagonal path of solveh_banded needs m >= 2
        x = solveh_banded(ab if d.size > 1 else ab[1:], g, check_finite=False)
        return float(x @ x)
    # g = X'r in this frame: B'w + s B'B e_1, where B'B e_1 = d_1 (d_1, e_1, 0, ...)
    g[0] += s * d[0] * d[0]
    if e.size:
        g[1] += s * d[0] * e[0]
    x = g / (N if kind == "mele" else N + c * p)
    x[0] -= s
    return float(x @ x)


def _mc_errors(kind, N, p, theta_true, trials, seed, c=0.0):
    """Per-trial squared errors behind mc_mse: a vector for one kind, or one
    row per kind for a sequence of kinds. Every kind is checked before the
    first draw, and each trial's (B, w) serves every kind."""
    kinds = [kind] if isinstance(kind, str) else list(kind)
    if not kinds:
        raise ValueError("kinds must not be empty")
    for k in kinds:
        check_mc(k, N, p, trials, c)
    theta = np.asarray(theta_true, dtype=float)
    if theta.shape != (p,):
        raise ValueError(f"theta_true must have shape ({p},)")
    s = float(np.linalg.norm(theta))
    errs = np.empty((len(kinds), trials))
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        d, e, w = _bidiagonal(np.random.default_rng(child), N, p)
        for j, k in enumerate(kinds):
            errs[j, i] = _squared_error(k, d, e, w, N, p, s, c)
    return errs[0] if isinstance(kind, str) else errs


def mc_mse(kind, N: int, p: int, theta_true, trials: int, seed, c: float = 0.0):
    """Monte Carlo E||theta_hat - theta||^2 over fresh (X, r) draws.

    Returns (estimate, stderr) for one kind, or a list of such pairs, in
    order, for a sequence of kinds. Each trial samples the bidiagonal factor
    of X and the rotated noise (see the module docstring) in O(p) draws and
    work; the result has the distribution of the brute-force draw of X and r.
    Only ||theta_true|| enters. All the kinds of one call see the same draws,
    so the comparison between them is paired; a single kind gives the same
    numbers as it does within a sequence, so the same seed in separate calls
    sees the same datasets too.
    """
    errs = np.atleast_2d(_mc_errors(kind, N, p, theta_true, trials, seed, c))
    out = [(float(e.mean()), float(e.std(ddof=1) / math.sqrt(trials))) for e in errs]
    return out[0] if isinstance(kind, str) else out


def optimal_ridge(kind: str, rho: float, theta_norm2: float):
    """Golden-section minimization of the asymptotic MSE over log10 c in [-6, 6].

    Returns (c_star, mse_star). Only the penalized kinds make sense here.
    """
    if kind not in ("mpele", "map"):
        raise ValueError("optimal_ridge applies to 'mpele' or 'map'")

    def f(logc):
        return mse_asymptotic(kind, rho, theta_norm2, c=10.0**logc)

    phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = -6.0, 6.0
    x1 = hi - phi * (hi - lo)
    x2 = lo + phi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(80):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - phi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + phi * (hi - lo)
            f2 = f(x2)
    logc = x1 if f1 <= f2 else x2
    return 10.0**logc, f(logc)
