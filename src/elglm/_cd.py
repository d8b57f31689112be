"""Coordinate descent for L1-penalized quadratic maximization.

Problem solved:

    maximize  s' theta - 0.5 theta' A theta - sum_j lam_j |theta_j|

with A symmetric positive definite. Cyclic sweeps; the running gradient
g = A theta is updated in O(p) per coordinate change, so a full sweep is
O(p^2) from dense rows of A.
"""

import numpy as np


def cd_quadratic_l1(A, s, lam, theta0, max_sweeps=1000, tol=1e-8):
    """Run cyclic coordinate descent; returns (theta, n_sweeps, kkt_residual).

    ``lam`` is a per-coordinate penalty vector (entries may be zero). The stop
    rule is the max KKT violation: |s_j - g_j| - lam_j for theta_j == 0 and
    |s_j - g_j - sign(theta_j) lam_j| otherwise, checked after each sweep.
    """
    A = np.ascontiguousarray(A, dtype=np.float64)
    s = np.ascontiguousarray(s, dtype=np.float64)
    lam = np.ascontiguousarray(lam, dtype=np.float64)
    theta = np.array(theta0, dtype=np.float64, copy=True)
    p = s.shape[0]
    g = A @ theta
    n_sweeps = 0
    kkt = np.inf
    for sweep in range(max_sweeps):
        for j in range(p):
            ajj = A[j, j]
            # partial residual: gradient of the smooth part with theta_j refit
            z = s[j] - g[j] + ajj * theta[j]
            if z > lam[j]:
                new = (z - lam[j]) / ajj
            elif z < -lam[j]:
                new = (z + lam[j]) / ajj
            else:
                new = 0.0
            delta = new - theta[j]
            if delta != 0.0:
                g += delta * A[:, j]
                theta[j] = new
        n_sweeps = sweep + 1
        kkt = _kkt_residual(s - g, theta, lam)
        if kkt <= tol:
            break
    return theta, n_sweeps, kkt


def _kkt_residual(grad, theta, lam):
    """Max L1 KKT violation, given the gradient of the smooth part at theta:
    |grad_j - sign(theta_j) lam_j| where theta_j != 0, else
    max(|grad_j| - lam_j, 0)."""
    active = theta != 0.0
    viol = np.abs(grad - np.sign(theta) * lam)
    viol_inactive = np.maximum(np.abs(grad) - lam, 0.0)
    return float(np.max(np.where(active, viol, viol_inactive)))
