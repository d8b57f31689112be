"""Marginal likelihood (evidence) and ridge hyperparameter selection.

Evidence values are reported up to additive constants in R; each mode's
docstring records what it drops, and the R-dependent parts agree across
modes, which is all that argmax-based selection compares. Infinity is a
first-class ridge value here: it encodes "shrink theta to zero".
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.linalg

from .estimators import Ridge, fit_exact
from .families import Gaussian, Poisson
from .glm import ExactObjective, GlmDataset, GlmParams
from .structured import ScaledIdentity, StructuredMatrix, add_structured

__all__ = [
    "EvidenceResult",
    "gaussian_evidence",
    "laplace_evidence",
    "el_logF_scalar",
    "rhat_analytic",
    "rhat_analytic_shared",
    "FixedPointResult",
    "rhat_fixed_point",
]


@dataclasses.dataclass
class EvidenceResult:
    value: float
    R: object
    method: str
    q: float
    N_s: float

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise FloatingPointError(f"evidence value is not finite ({self.value})")


def _chol_logdet_solve(M, b):
    try:
        cf = scipy.linalg.cho_factor(M)
    except scipy.linalg.LinAlgError as e:
        raise np.linalg.LinAlgError(f"evidence precision matrix not positive definite: {e}")
    logdet = 2.0 * float(np.sum(np.log(np.diag(cf[0]))))
    return logdet, scipy.linalg.cho_solve(cf, b)


def gaussian_evidence(
    data: GlmDataset, sigma2=None, R: StructuredMatrix = None, mode: str = "exact", C=None
) -> EvidenceResult:
    """Gaussian-model log evidence, 0.5 log det(Sigma R) + r'X Sigma X'r / (2 sigma^4).

    mode="exact" uses Sigma = (X'X sigma^2 + R)^{-1}; mode="el" replaces X'X
    by N C (structure-exploiting). Dropped constants (identical across
    modes): the Gaussian data normalization -N/2 log(2 pi sigma^2) and
    -r'r/(2 sigma^2).
    """
    if R is None:
        raise ValueError("R is required")
    if sigma2 is None:
        if not isinstance(data.family, Gaussian):
            raise ValueError("sigma2 must be given for non-Gaussian datasets")
        sigma2 = data.family.sigma2
    s = data.s
    if mode == "exact":
        M = (data.X.T @ data.X) * sigma2 + R.to_dense()
        logdet_M, x = _chol_logdet_solve(M, s)
    elif mode == "el":
        if C is None:
            raise ValueError("mode='el' requires the stimulus covariance C")
        Minv = add_structured(C.scaled(data.N * sigma2), R)
        logdet_M = Minv.logdet_shifted(0.0)
        x = Minv.solve_shifted(0.0, s)
    else:
        raise ValueError("mode must be 'exact' or 'el'")
    value = 0.5 * (R.logdet_shifted(0.0) - logdet_M) + float(s @ x) / (2.0 * sigma2**2)
    return EvidenceResult(
        value=value, R=R.to_config(), method=f"gaussian_{mode}", q=float(s @ s), N_s=data.N_s
    )


def laplace_evidence(
    data: GlmDataset,
    R: StructuredMatrix,
    params: GlmParams,
    mode: str = "exact",
    C=None,
    fit_offset: bool = False,
) -> EvidenceResult:
    """Laplace log evidence at a supplied mode point (MAP or MPELE).

    mode="exact": L(params) + 0.5 log det R - 0.5 theta'R theta
    - 0.5 log det(-H) with H the penalized exact Hessian; with
    fit_offset=True, H is the full (p+1)-dim Hessian and the offset carries a
    flat prior (drops a 0.5 log 2 pi constant). mode="el" is the LNP profile
    form with -H = C N_s + R; it additionally drops the profile constants
    N_s log(N_s / (N dt)) - N_s, which do not involve R.
    """
    if mode == "el":
        if C is None:
            raise ValueError("mode='el' requires the stimulus covariance C")
        if not isinstance(data.family, Poisson):
            raise ValueError("the EL profile evidence is for the Poisson (LNP) family")
        if data.N_s <= 0:
            raise ValueError("no events: N_s = 0")
        A = add_structured(C.scaled(data.N_s), R)
        theta = params.theta
        quad = float(theta @ A.matvec(theta))
        value = (
            -0.5 * quad
            + float(data.s @ theta)
            + 0.5 * R.logdet_shifted(0.0)
            - 0.5 * A.logdet_shifted(0.0)
        )
    elif mode == "exact":
        obj = ExactObjective(data, fit_offset=fit_offset, theta0=params.theta0, R=R)
        x = obj.vector(params)
        try:
            cf = scipy.linalg.cho_factor(-obj.hess_dense(x))
        except scipy.linalg.LinAlgError as e:
            raise np.linalg.LinAlgError(f"posterior Hessian not negative definite: {e}")
        logdet_negH = 2.0 * float(np.sum(np.log(np.diag(cf[0]))))
        value = obj.value(x) + 0.5 * R.logdet_shifted(0.0) - 0.5 * logdet_negH
    else:
        raise ValueError("mode must be 'exact' or 'el'")
    return EvidenceResult(
        value=value,
        R=R.to_config(),
        method=f"laplace_{mode}",
        q=float(data.s @ data.s),
        N_s=data.N_s,
    )


def el_logF_scalar(beta, q: float, N_s: float, p: int):
    """The scalar-ridge EL evidence in closed form (up to constants in R):
    q / (2 (N_s + beta)) + (p/2) log beta - (p/2) log(N_s + beta)."""
    beta = np.asarray(beta, dtype=float)
    return 0.5 * q / (N_s + beta) + 0.5 * p * np.log(beta) - 0.5 * p * np.log(N_s + beta)


def rhat_analytic(q: float, N_s: float, p: int) -> float:
    """Closed-form argmax of el_logF_scalar over beta > 0.

    p / (q/N_s^2 - p/N_s) when p < q/N_s, else infinity ("shrink to zero").
    """
    if q < 0 or N_s <= 0 or p < 1:
        raise ValueError("need q >= 0, N_s > 0, p >= 1")
    if p >= q / N_s:
        return np.inf
    return p / (q / N_s**2 - p / N_s)


def rhat_analytic_shared(q_tilde, dc, N_s: float) -> np.ndarray:
    """Per-eigendirection ridge when C and R share a diagonalizing basis.

    q_tilde holds the rotated statistic M'X'r; dc the eigenvalues of C.
    Entry j is (dc_j N_s)^2 / (q_tilde_j^2 - dc_j N_s) when q_tilde_j^2
    exceeds dc_j N_s, else infinity (boundary included).
    """
    q_tilde = np.asarray(q_tilde, dtype=float)
    dc = np.asarray(dc, dtype=float)
    if q_tilde.shape != dc.shape:
        raise ValueError("q_tilde and dc must have matching shapes")
    if N_s <= 0 or np.any(dc < 0):
        raise ValueError("need N_s > 0 and nonnegative eigenvalues")
    qq = q_tilde**2
    denom = qq - dc * N_s
    out = np.full(q_tilde.shape, np.inf)
    fin = denom > 0
    out[fin] = (dc[fin] * N_s) ** 2 / denom[fin]
    return out


@dataclasses.dataclass
class FixedPointResult:
    betas: list
    converged: bool
    fits: list  # MAP fit per iterate, aligned with betas[:-1]

    @property
    def beta(self):
        return self.betas[-1]


def rhat_fixed_point(
    data: GlmDataset,
    beta0: float,
    max_iter: int = 50,
    rtol: float = 1e-4,
    fit_offset: bool = True,
    init: GlmParams = None,
    C: StructuredMatrix = None,
) -> FixedPointResult:
    """Fixed-point iteration for the scalar ridge under the exact Laplace
    evidence: beta_{i+1} = (p - beta_i tr(H^{-1})) / ||theta_MAP(beta_i)||^2.

    H is the negative penalized posterior Hessian (positive definite); with a
    fitted offset the trace runs over the theta block of the full inverse,
    the offset itself carrying a flat prior. Each iterate refits the MAP,
    warm-starting from the previous solution; with the stimulus covariance
    ``C`` the refits are Hessian-free (``fit_exact(method="newton_cg")``),
    and only the trace takes a dense Hessian. Stops when the relative change
    drops below rtol or the budget runs out; a theta_MAP of zero raises,
    pointing at the infinite-ridge regime.
    """
    if beta0 <= 0 or not np.isfinite(beta0):
        raise ValueError("beta0 must be positive and finite")
    p = data.p
    betas = [float(beta0)]
    fits = []
    converged = False
    warm = init
    for _ in range(max_iter):
        beta = betas[-1]
        R = ScaledIdentity(p, beta)
        fit = fit_exact(
            data, penalty=Ridge(R), init=warm, fit_offset=fit_offset,
            method="newton" if C is None else "newton_cg", C=C,
        )
        fits.append(fit)
        warm = fit.params
        theta = fit.params.theta
        nrm2 = float(theta @ theta)
        if nrm2 <= 0:
            raise ZeroDivisionError(
                "theta_MAP = 0: the fixed point diverges; this is the R_hat = infinity regime"
            )
        obj = ExactObjective(data, fit_offset=fit_offset, R=R)
        # -H = L L', so diag(H^{-1}) holds the squared column norms of L^{-1}
        L = scipy.linalg.cholesky(-obj.hess_dense(obj.vector(fit.params)), lower=True)
        Linv = scipy.linalg.solve_triangular(L, np.eye(L.shape[0]), lower=True)
        tr = float(np.sum(Linv[:, 1:] ** 2 if fit_offset else Linv**2))
        beta_new = (p - beta * tr) / nrm2
        if beta_new <= 0 or not np.isfinite(beta_new):
            raise FloatingPointError(
                f"fixed-point produced beta = {beta_new}; posterior is prior-dominated"
            )
        betas.append(float(beta_new))
        if abs(beta_new - beta) / beta <= rtol:
            converged = True
            break
    return FixedPointResult(betas=betas, converged=converged, fits=fits)
