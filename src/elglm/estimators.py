"""Point estimators: the closed-form EL estimate, its L1 path and exact optimizers.

The closed forms solve (n C + R) theta = X'r, up to the family's scale, at
structured-solve cost (no data pass beyond the cached X'r). Only n depends on
the family, and ``_el_n`` decides it once: N_s for Poisson data (the MPELE,
with the offset profiled out) and N for Gaussian data (the MELE).
``_el_system`` is the one place that builds that system: :func:`mele`, its L1
path :func:`mele_l1_path` (which adds lambda ||theta||_1 to the same
quadratic), the exact MAP's start and preconditioner, the EL evidence and the
LNP profile posterior all read it. The exact-likelihood optimizers serve as
oracles and as the refinement stage: a few truncated-Newton steps from
:func:`mele`, preconditioned by the EL Hessian, turn it into a MAP-accuracy
estimate (``fit_exact`` with ``C`` and a small ``max_iter``).

Penalties apply to the filter theta only, never to the offset theta0.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from ._cd import _kkt_residual, cd_quadratic_l1
from .families import Gaussian, Poisson
from .glm import ExactObjective, GlmDataset, GlmParams
from .structured import StructuredMatrix, add_structured

__all__ = [
    "FitResult",
    "mele",
    "default_lambda_path",
    "mele_l1_path",
    "fit_exact",
    "fit_exact_l1",
]

ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
# cyclic CD sweeps run before each attempt to finish an L1 model on its support
SUPPORT_SWEEPS = 3
# KKT target and sweep budget of each lambda on mele_l1_path
L1_TOL = 1e-8
L1_MAX_SWEEPS = 10000


@dataclasses.dataclass
class FitResult:
    params: GlmParams
    objective_trace: list
    iterations: int
    wall_time: float
    converged: bool
    solver: str
    diagnostics: dict = dataclasses.field(default_factory=dict)


def _el_n(data: GlmDataset) -> float:
    """The data scale n of the EL's closed form (n C + R) theta = X'r: N_s for
    Poisson data, whose offset the profile EL maximizes out, and N for
    Gaussian data. Other families have no closed-form EL estimate."""
    if isinstance(data.family, Poisson):
        return float(data.N_s)
    if isinstance(data.family, Gaussian):
        return float(data.N)
    raise ValueError(
        f"no closed-form EL estimate for {data.family.name} data: needs Gaussian or Poisson"
    )


def _el_system(data: GlmDataset, C: StructuredMatrix, R):
    """The EL's closed-form system (M, b) = (s_f n C + R, s_f X'r), with s_f
    the family's ``scale`` (1/sigma^2 for Gaussian data, 1 for Poisson data)
    and n from ``_el_n``; raises when Poisson data hold no events."""
    n = _el_n(data)
    if n <= 0:
        raise ValueError("no events: N_s = 0, the spike-triggered average is undefined")
    scale = data.family.scale
    M = C.scaled(scale * n)
    return (M if R is None else add_structured(M, R)), scale * data.s


def _el_params(data: GlmDataset, C: StructuredMatrix, theta) -> GlmParams:
    """theta with the EL's offset: for Poisson data the profile-optimal
    theta0* = log(N_s / (N dt)) - theta' C theta / 2, else 0."""
    theta0 = 0.0
    if isinstance(data.family, Poisson):
        quad = float(theta @ C.matvec(theta))
        theta0 = float(np.log(data.N_s / (data.N * data.family.dt)) - 0.5 * quad)
    return GlmParams(theta=theta, theta0=theta0)


def mele(data: GlmDataset, C: StructuredMatrix, R=None) -> FitResult:
    """Closed-form maximizer of the (ridge-penalized) EL under the family's
    analytic engine: solve M theta = b with (M, b) = (s_f n C + R, s_f X'r),
    s_f the family's ``scale`` and n from the family (N_s or N).

    For Poisson data this is the MPELE, the (regularized) spike-triggered
    average, with the profile-optimal offset
    theta0* = log(N_s / (N dt)) - theta' C theta / 2; Gaussian data keep
    theta0 = 0. The reported objective is the defining quadratic
    b'theta - theta' M theta/2 (the EL up to theta-constants).
    """
    t0 = time.perf_counter()
    M, b = _el_system(data, C, R)
    theta = M.solve_shifted(0.0, b)
    obj = float(b @ theta) - 0.5 * float(theta @ M.matvec(theta))
    return FitResult(
        params=_el_params(data, C, theta),
        objective_trace=[obj],
        iterations=0,
        wall_time=time.perf_counter() - t0,
        converged=True,
        solver="mele",
    )


def default_lambda_path(data: GlmDataset, n: int = 100) -> np.ndarray:
    """100 log-spaced values from lam_max = ||s_f X'r||_inf, the smallest
    lambda at which :func:`mele_l1_path` returns theta = 0, down to
    1e-4 lam_max."""
    lam_max = float(np.max(np.abs(data.family.scale * data.s)))
    if lam_max <= 0:
        return np.zeros(1)
    return np.geomspace(lam_max, 1e-4 * lam_max, n)


def _check_path(lam_path, strict: bool) -> np.ndarray:
    """A lambda path as a float array: nonempty, 1-D, with no negative value,
    and strictly decreasing with ``strict``, else nonincreasing. Raises
    ``ValueError`` naming the rule that fails."""
    lam_path = np.asarray(lam_path, dtype=float)
    if lam_path.ndim != 1 or lam_path.size == 0:
        raise ValueError("lambda path must be a nonempty 1-D array")
    if np.any(lam_path < 0):
        raise ValueError("lambda values must be nonnegative")
    steps = np.diff(lam_path)
    if np.any(steps >= 0 if strict else steps > 0):
        order = "strictly decreasing" if strict else "nonincreasing"
        raise ValueError(f"lambda path must be {order}")
    return lam_path


def _support_solve(A, s, lam, x):
    """Stationary point of the model on the support and signs of x, or None
    if the solve fails or flips the sign of a penalized coordinate."""
    on = x != 0.0
    sign = np.sign(x[on])
    try:
        x_on = np.linalg.solve(A[np.ix_(on, on)], s[on] - sign * lam[on])
    except np.linalg.LinAlgError:
        return None
    penalized = lam[on] > 0.0
    if np.any(np.sign(x_on[penalized]) != sign[penalized]):
        return None
    out = np.zeros_like(x)
    out[on] = x_on
    return out


def _solve_l1_model(A, s, lam, x0, tol, max_sweeps):
    """Maximize s'x - x'Ax/2 - sum_j lam_j |x_j| to a KKT residual <= tol.

    A few cyclic CD sweeps fix the support and the signs; one dense solve of
    A_SS x_S = s_S - sign(x_S) lam_S then finishes the model on that support
    (glmnet's active-set idea). The solve is kept when every penalized
    coordinate keeps its sign and the KKT residual falls; otherwise sweeping
    resumes from the CD point. Returns (x, sweeps, kkt) like the CD kernel.
    """
    x, sweeps, kkt = x0, 0, np.inf
    while sweeps < max_sweeps:
        x, n, kkt = cd_quadratic_l1(
            A, s, lam, x, max_sweeps=min(SUPPORT_SWEEPS, max_sweeps - sweeps), tol=tol
        )
        sweeps += n
        if kkt <= tol:
            break
        x_new = _support_solve(A, s, lam, x)
        if x_new is None:
            continue
        kkt_new = _kkt_residual(s - A @ x_new, x_new, lam)
        if kkt_new < kkt:
            x, kkt = x_new, kkt_new
            if kkt <= tol:
                break
    return x, sweeps, kkt


def mele_l1_path(data: GlmDataset, C: StructuredMatrix, lam_path, R=None) -> list:
    """L1 path of :func:`mele`'s quadratic: for each lambda of the strictly
    decreasing ``lam_path``, maximize b'theta - theta' M theta/2
    - lambda ||theta||_1 with (M, b) = (s_f n C + R, s_f X'r).

    M is densified once (the CD kernel wants dense rows). Each lambda starts
    from the previous solution (glmnet's warm-started path), runs CD sweeps
    finished by a solve on the support, and raises ``RuntimeError`` with the
    residual if the KKT violation is still above ``L1_TOL`` after
    ``L1_MAX_SWEEPS`` sweeps; a diagonal M needs one sweep. Each fit carries
    :func:`mele`'s offset, and lambda = 0 lands on ``mele(data, C, R=R)``.
    """
    lam_path = _check_path(lam_path, strict=True)
    M, b = _el_system(data, C, R)
    A = M.to_dense()
    theta = np.zeros(data.p)
    out = []
    for lam in lam_path:
        t0 = time.perf_counter()
        theta, sweeps, kkt = _solve_l1_model(
            A, b, np.full(data.p, lam), theta, L1_TOL, L1_MAX_SWEEPS
        )
        if kkt > L1_TOL:
            raise RuntimeError(
                f"coordinate descent did not converge in {L1_MAX_SWEEPS} sweeps "
                f"(kkt residual {kkt:.3e})"
            )
        obj = float(b @ theta) - 0.5 * float(theta @ (A @ theta)) - lam * float(
            np.sum(np.abs(theta))
        )
        out.append(
            FitResult(
                params=_el_params(data, C, theta),
                objective_trace=[obj],
                iterations=sweeps,
                wall_time=time.perf_counter() - t0,
                converged=True,
                solver="mele_l1",
                diagnostics={"lam": float(lam), "kkt": kkt},
            )
        )
    return out


def _armijo(obj_value, x, d, v0, slope, alpha0=1.0):
    """Backtracking line search; returns (alpha, value) with value >= v0.

    A trial point whose value overflows counts as a rejected step.
    """
    alpha = alpha0
    while alpha > 1e-14:
        try:
            v = obj_value(x + alpha * d)
        except FloatingPointError:
            v = -np.inf
        if np.isfinite(v) and v >= v0 + ARMIJO_C * alpha * slope:
            return alpha, v
        alpha *= ARMIJO_SHRINK
    return 0.0, v0


def _el_recipe(data: GlmDataset, C, R, fit_offset: bool, init):
    """The EL side of an exact MAP: (start, g -> M^{-1} g), or None without C
    or for a family with no closed-form EL estimate.

    One ``_el_system`` call serves both. The start is ``init`` or
    :func:`mele`'s estimate, its solve; M is the EL Hessian
    blockdiag(s_f n, s_f n C + R), its theta block the system's matrix
    applied through a structured solve and its offset block present only when
    the offset is fitted. Poisson data with no events raise, as in
    :func:`mele`: they have no MAP.
    """
    if C is None:
        return None
    try:
        n = data.family.scale * _el_n(data)
    except ValueError:
        return None
    block, b = _el_system(data, C, R)

    def apply_pre(g):
        if not fit_offset:
            return block.solve_shifted(0.0, g)
        out = np.empty_like(g)
        out[0] = g[0] / n
        out[1:] = block.solve_shifted(0.0, g[1:])
        return out

    if init is None:
        init = _el_params(data, C, block.solve_shifted(0.0, b))
    return init, apply_pre


def _pcg(action, refine, b, apply_pre, rtol, max_iter):
    """Truncated preconditioned CG for A d = b with A = -(Hessian); stops at
    ||b - A d|| <= rtol ||b|| or at a direction of nonpositive curvature.
    Returns (d, Hessian actions taken).

    The first action is ``action``; the later ones are ``refine``, a
    cheaper, less accurate A. The first action scales the preconditioned
    residual, the bulk of d under a good preconditioner; the later ones only
    correct it, so their rounding errors reach d scaled by how much
    correction the preconditioner leaves."""
    d = np.zeros_like(b)
    res = b.copy()
    z = apply_pre(res)
    q = z.copy()
    rz = float(res @ z)
    target = rtol * float(np.linalg.norm(b))
    for k in range(1, max_iter + 1):
        Aq = action(q) if k == 1 else refine(q)
        curv = float(q @ Aq)
        if curv <= 0.0:
            return (d if k > 1 else z), k
        step = rz / curv
        d = d + step * q
        res = res - step * Aq
        if float(np.linalg.norm(res)) <= target:
            return d, k
        z = apply_pre(res)
        rz_new = float(res @ z)
        q = z + (rz_new / rz) * q
        rz = rz_new
    return d, max_iter


def fit_exact(
    data: GlmDataset,
    R: StructuredMatrix = None,
    init: GlmParams = None,
    fit_offset: bool = False,
    theta0: float = 0.0,
    tol: float = 1e-8,
    max_iter: int = 200,
    C: StructuredMatrix = None,
) -> FitResult:
    """Maximize the exact log-likelihood, penalized by the optional ridge
    theta'R theta/2 (MLE / ridge MAP).

    An ascent method with Armijo backtracking, stopping when the gradient
    infinity-norm drops below tol * max(1, |value|) (``converged``), or
    unconverged when max_iter steps are taken, the line search finds no
    ascent, or an accepted step leaves the value unchanged and the gradient
    test still fails. A step whose predicted gain g'd is below the value's
    typical rounding error, sqrt(N) rounding units, is one the line search
    cannot judge: it is taken in full, as the last step, when the gradient
    at its end passes the test, and line-searched otherwise. The method
    follows from the data and ``C``:

    - with the stimulus covariance ``C`` and Poisson or Gaussian data,
      truncated Newton (solver ``fit_exact_newton_cg``) starts from ``init``
      or :func:`mele` and solves each step by CG on O(Np) Hessian actions,
      preconditioned by the EL Hessian blockdiag(s_f n, s_f n C + R) with
      the family's scale s_f and n = N_s (Poisson) or N (Gaussian), to the
      forcing term 0.1 min(0.5, sqrt(||g||)) (Eisenstat & Walker 1996). The
      CG only steers, so after each solve's first action its actions read
      the float32 design (the twin action from ``value_grad_hess``); values,
      line searches and the convergence gradient stay float64;
    - otherwise Newton (solver ``fit_exact_newton``) solves with the dense
      O(N p^2) Hessian on every step, starting from ``init`` or zero.

    A refinement of the EL estimate is the first case with a small budget:
    ``max_iter=k`` takes at most k truncated-Newton steps, and k=0 returns
    the start. The Gaussian family with no ridge and p >= N raises the
    non-unique-MLE error instead of returning an arbitrary solution. L1
    penalties are :func:`fit_exact_l1`'s.
    """
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    dim = data.p + (1 if fit_offset else 0)
    if R is None and isinstance(data.family, Gaussian) and dim >= data.N:
        raise ValueError(f"non-unique MLE: p={dim} >= N={data.N} with no regularization")
    obj = ExactObjective(data, fit_offset=fit_offset, theta0=theta0, R=R)
    el = _el_recipe(data, C, R, fit_offset, init)
    if el is not None:
        start, apply_pre = el
        x = obj.vector(start)
    else:
        x = np.zeros(obj.dim) if init is None else obj.vector(init)

    def done(v, g):
        return np.max(np.abs(g)) <= tol * max(1.0, abs(v))

    t0 = time.perf_counter()
    trace = []
    converged = stalled = False
    it = actions = 0
    while True:
        if el is None:
            v, g = obj.value_grad(x)
        else:
            v, g, hess, hess32 = obj.value_grad_hess(x)
        trace.append(v)
        if done(v, g):
            converged = True
            break
        if it >= max_iter or stalled:
            break
        if el is None:
            try:
                d = np.linalg.solve(-obj.hess_dense(x), g)
            except np.linalg.LinAlgError as e:
                raise np.linalg.LinAlgError(f"Hessian numerically singular: {e}")
        else:
            forcing = 0.1 * min(0.5, np.sqrt(np.linalg.norm(g)))
            d, k = _pcg(
                lambda q: -hess(q), lambda q: -hess32(q), g, apply_pre, forcing, obj.dim
            )
            actions += k
        slope = float(g @ d)
        if slope <= 0:  # solve hit a flat/indefinite direction; fall back to gradient
            d, slope = g, float(g @ g)
        if slope <= np.sqrt(data.N) * np.spacing(abs(v)):
            # a gain below the value's typical rounding error, sqrt(N) units
            # for a sum over N data, is one the line search cannot judge; the
            # gradient can: a full step that passes its test ends the fit
            v_new, g_new = obj.value_grad(x + d)
            if done(v_new, g_new):
                x, g, converged = x + d, g_new, True
                trace.append(v_new)
                it += 1
                break
        alpha, v_new = _armijo(obj.value, x, d, v, slope)
        if alpha == 0.0:
            break
        x = x + alpha * d
        it += 1
        # a step that leaves the value unchanged means the value is at its
        # rounding floor; the step may still have shrunk the gradient, so
        # test it once more, then stop
        stalled = v_new == v
    diagnostics = {"grad_norm": float(np.max(np.abs(g)))}  # every exit leaves g at x
    if el is not None:
        diagnostics["hess_actions"] = actions
    return FitResult(
        params=obj.params(x),
        objective_trace=trace,
        iterations=it,
        wall_time=time.perf_counter() - t0,
        converged=converged,
        solver="fit_exact_newton" if el is None else "fit_exact_newton_cg",
        diagnostics=diagnostics,
    )


def fit_exact_l1(
    data: GlmDataset,
    lam,
    R=None,
    init: GlmParams = None,
    fit_offset: bool = False,
    theta0: float = 0.0,
    offset=None,
    max_outer: int = 100,
    tol: float = 1e-8,
    cd_sweeps: int = 2000,
) -> FitResult:
    """Proximal-Newton coordinate descent on the exact likelihood with L1.

    Each outer pass forms the local quadratic model of the smooth part
    (likelihood plus optional ridge) and solves it by cyclic coordinate
    descent with per-coordinate penalties, finished by a solve on the
    support, then backtracks toward the model's solution until the true
    penalized objective ascends. The gradient at the accepted point serves
    both the KKT check and the next model. ``lam`` may be a scalar (applied
    to every theta coordinate) or a length-p vector with zeros for
    unpenalized coordinates; the offset, when fitted, is never penalized.
    One outer pass solves Gaussian-family problems exactly.
    """
    smooth = ExactObjective(data, fit_offset=fit_offset, theta0=theta0, offset=offset, R=R)
    dim = smooth.dim
    lam_theta = np.broadcast_to(np.asarray(lam, dtype=float), (data.p,)).copy()
    if np.any(lam_theta < 0):
        raise ValueError("lam must be nonnegative")
    lam_vec = np.concatenate(([0.0], lam_theta)) if fit_offset else lam_theta

    def pen_value(x):
        return smooth.value(x) - float(lam_vec @ np.abs(x))

    x = np.zeros(dim) if init is None else smooth.vector(init)
    t0 = time.perf_counter()
    v, g = smooth.value_grad(x)
    trace = [v - float(lam_vec @ np.abs(x))]
    converged = False
    kkt = np.inf
    it = 0
    for it in range(1, max_outer + 1):
        A = -smooth.hess_dense(x)
        # tiny diagonal lift keeps CD defined when a coordinate has zero curvature
        dA = np.diag(A)
        lift = 1e-10 * max(np.max(dA), 1.0)
        A[np.diag_indices(dim)] = np.maximum(dA, lift)
        s_eff = A @ x + g
        # the outer kkt floor sits near the inner tolerance times the model's
        # condition number, so solve the model well below the outer target
        x_cd, _, _ = _solve_l1_model(A, s_eff, lam_vec, x, tol * 1e-3, cd_sweeps)
        d = x_cd - x
        v_new = trace[-1]
        if np.max(np.abs(d)) > 0:
            # slope 0: accept the first trial step that does not descend
            alpha, v_new = _armijo(pen_value, x, d, v_new, 0.0)
            if alpha > 0.0:
                x = x + alpha * d
                _, g = smooth.value_grad(x)
        trace.append(v_new)
        g_theta = g[1:] if fit_offset else g
        kkt = _kkt_residual(g_theta, x[1:] if fit_offset else x, lam_theta)
        if fit_offset:
            kkt = max(kkt, abs(g[0]))
        if kkt <= tol:
            converged = True
            break
    if not converged:
        raise RuntimeError(
            f"fit_exact_l1 did not converge in {max_outer} passes (kkt residual {kkt:.3e})"
        )
    return FitResult(
        params=smooth.params(x),
        objective_trace=trace,
        iterations=it,
        wall_time=time.perf_counter() - t0,
        converged=converged,
        solver="fit_exact_l1",
        diagnostics={"kkt": kkt},
    )
