"""Marginal likelihood (evidence) and ridge hyperparameter selection.

For a Gaussian prior N(0, R^{-1}) on theta and a log-likelihood that is
quadratic in theta, b'theta - theta'(M - R)theta/2 + const, the log evidence
is, up to constants in R,

    0.5 (b' M^{-1} b + log det R - log det M),

and every quadratic evidence here is that one formula over the system
(M, b) that its estimate solves. :func:`gaussian_evidence` takes
(s_f X'X + R, s_f X'r) from Gaussian data, where s_f = 1/sigma^2: this is the
exact log marginal likelihood log N(r; 0, sigma^2 I + X R^{-1} X') less the
R-free terms -N/2 log(2 pi sigma^2) - r'r/(2 sigma^2) (MacKay, *Bayesian
interpolation*, 1992). :func:`el_evidence` takes the EL's closed-form system
(s_f n C + R, s_f X'r) from ``estimators._el_system``. :func:`laplace_evidence`
is the exact Laplace evidence at a given mode. Only R-dependent parts enter
an argmax over R, so each function drops what does not. Infinity is a
first-class ridge value here: it encodes "shrink theta to zero".
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.linalg

from .estimators import _el_system, fit_exact
from .families import Gaussian
from .glm import ExactObjective, GlmDataset, GlmParams
from .structured import Dense, ScaledIdentity, StructuredMatrix

__all__ = [
    "EvidenceResult",
    "gaussian_evidence",
    "el_evidence",
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


def _quadratic_evidence(data: GlmDataset, M, b, R, method: str) -> EvidenceResult:
    """0.5 (b' M^{-1} b + log det R - log det M) for a structured M."""
    value = 0.5 * (
        float(b @ M.solve_shifted(0.0, b)) + R.logdet_shifted(0.0) - M.logdet_shifted(0.0)
    )
    return EvidenceResult(
        value=value, R=R.to_config(), method=method, q=float(data.s @ data.s), N_s=data.N_s
    )


def gaussian_evidence(data: GlmDataset, R: StructuredMatrix) -> EvidenceResult:
    """Exact log evidence of Gaussian data under the prior N(0, R^{-1}): the
    quadratic evidence of (M, b) = (s_f X'X + R, s_f X'r), s_f = 1/sigma^2,
    with M factored once as a ``Dense``; X'X is the dataset's cached ``gram``."""
    if not isinstance(data.family, Gaussian):
        raise ValueError(f"the exact Gaussian evidence needs Gaussian data, not {data.family.name}")
    scale = data.family.scale
    M = Dense(scale * data.gram + R.to_dense())
    return _quadratic_evidence(data, M, scale * data.s, R, "gaussian_exact")


def el_evidence(data: GlmDataset, C: StructuredMatrix, R: StructuredMatrix) -> EvidenceResult:
    """EL log evidence: the quadratic evidence of the EL's closed-form system
    (M, b) = (s_f n C + R, s_f X'r) that :func:`~elglm.estimators.mele`
    solves, at structured-solve cost. For Gaussian data it is
    :func:`gaussian_evidence` with X'X replaced by N C; for Poisson data it
    is the profile (offset maximized out) LNP evidence, which also drops the
    R-free constants N_s log(N_s / (N dt)) - N_s. Other families raise."""
    M, b = _el_system(data, C, R)
    return _quadratic_evidence(data, M, b, R, "el")


def laplace_evidence(
    data: GlmDataset, R: StructuredMatrix, params: GlmParams, fit_offset: bool = False
) -> EvidenceResult:
    """Exact Laplace log evidence at a supplied mode point (usually the MAP):
    L(params) + 0.5 log det R - 0.5 theta'R theta - 0.5 log det(-H), with H
    the penalized exact Hessian. With fit_offset=True, H is the full
    (p+1)-dim Hessian and the offset carries a flat prior (drops a
    0.5 log 2 pi constant).
    """
    obj = ExactObjective(data, fit_offset=fit_offset, theta0=params.theta0, R=R)
    x = obj.vector(params)
    try:
        cf = scipy.linalg.cho_factor(-obj.hess_dense(x))
    except scipy.linalg.LinAlgError as e:
        raise np.linalg.LinAlgError(f"posterior Hessian not negative definite: {e}")
    logdet_negH = 2.0 * float(np.sum(np.log(np.diag(cf[0]))))
    value = obj.value(x) + 0.5 * R.logdet_shifted(0.0) - 0.5 * logdet_negH
    return EvidenceResult(
        value=value,
        R=R.to_config(),
        method="laplace_exact",
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
    ``C`` and Poisson or Gaussian data the refits are :func:`fit_exact`'s
    Hessian-free truncated Newton, and only the trace takes a dense Hessian.
    Stops when the relative change drops below rtol or the budget runs out;
    a theta_MAP of zero raises, pointing at the infinite-ridge regime.
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
        fit = fit_exact(data, R=R, init=warm, fit_offset=fit_offset, C=C)
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
