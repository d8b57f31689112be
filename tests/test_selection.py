"""Evidence and R_hat selection: dense oracles, quadrature, fixed-point algebra."""

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

from elglm.estimators import fit_exact, mele
from elglm.families import Gaussian, Poisson
from elglm.glm import ExactObjective, GlmDataset, GlmParams, exact_loglik
from elglm.selection import (
    EvidenceResult,
    el_logF_scalar,
    gaussian_evidence,
    laplace_evidence,
    rhat_analytic,
    rhat_analytic_shared,
    rhat_fixed_point,
)
from elglm.structured import Dense, Diagonal, ScaledIdentity


def _spd(rng, p):
    A = rng.standard_normal((p, p))
    return A @ A.T / p + 0.5 * np.eye(p)


def _gauss_data(rng, N=40, p=5, sigma2=1.0):
    X = rng.standard_normal((N, p))
    r = X @ rng.standard_normal(p) * 0.3 + rng.standard_normal(N)
    return GlmDataset(X=X, r=r, family=Gaussian(sigma2=sigma2))


def _pois_data(rng, N=400, p=4, dt=1.0, rate=0.5):
    X = rng.standard_normal((N, p))
    th = rng.standard_normal(p) * 0.4 / np.sqrt(p)
    r = rng.poisson(rate * np.exp(X @ th) * dt).astype(float)
    return GlmDataset(X=X, r=r, family=Poisson(dt=dt))


def test_gaussian_evidence_exact_dense_oracle():
    rng = np.random.default_rng(0)
    sigma2 = 1.7
    data = _gauss_data(rng, sigma2=sigma2)
    Rm = _spd(rng, 5)
    ev = gaussian_evidence(data, R=Dense(Rm))
    M = data.X.T @ data.X * sigma2 + Rm
    want = 0.5 * (np.linalg.slogdet(Rm)[1] - np.linalg.slogdet(M)[1])
    want += data.s @ np.linalg.solve(M, data.s) / (2 * sigma2**2)
    assert ev.value == pytest.approx(want, rel=1e-12)
    assert ev.method == "gaussian_exact"
    assert ev.q == pytest.approx(data.s @ data.s)


def test_gaussian_evidence_el_dense_oracle():
    rng = np.random.default_rng(1)
    sigma2 = 0.8
    data = _gauss_data(rng, sigma2=sigma2)
    C = Dense(_spd(rng, 5))
    R = Diagonal(np.linspace(1.0, 3.0, 5))
    ev = gaussian_evidence(data, R=R, mode="el", C=C)
    M = data.N * C.to_dense() * sigma2 + R.to_dense()
    want = 0.5 * (np.linalg.slogdet(R.to_dense())[1] - np.linalg.slogdet(M)[1])
    want += data.s @ np.linalg.solve(M, data.s) / (2 * sigma2**2)
    assert ev.value == pytest.approx(want, rel=1e-12)


def test_gaussian_evidence_el_equals_exact_at_empirical_C():
    rng = np.random.default_rng(2)
    data = _gauss_data(rng, N=60, p=4, sigma2=1.3)
    C = Dense(data.X.T @ data.X / data.N)
    R = ScaledIdentity(4, 2.0)
    a = gaussian_evidence(data, R=R)
    b = gaussian_evidence(data, R=R, mode="el", C=C)
    assert a.value == pytest.approx(b.value, rel=1e-12)


def test_gaussian_evidence_guards():
    rng = np.random.default_rng(3)
    data = _gauss_data(rng)
    with pytest.raises(ValueError, match="R is required"):
        gaussian_evidence(data)
    with pytest.raises(ValueError, match="C"):
        gaussian_evidence(data, R=ScaledIdentity(5, 1.0), mode="el")
    with pytest.raises(ValueError, match="mode"):
        gaussian_evidence(data, R=ScaledIdentity(5, 1.0), mode="laplace")
    pdata = _pois_data(rng)
    with pytest.raises(ValueError, match="sigma2"):
        gaussian_evidence(pdata, R=ScaledIdentity(4, 1.0))


def test_laplace_equals_gaussian_evidence_quadratic_case():
    # for the Gaussian family at sigma2=1 the Laplace expansion is exact and
    # both routes compute the same integral
    rng = np.random.default_rng(4)
    data = _gauss_data(rng, N=50, p=4, sigma2=1.0)
    Rm = Dense(_spd(rng, 4))
    fit = fit_exact(data, R=Rm)
    a = laplace_evidence(data, Rm, fit.params)
    b = gaussian_evidence(data, R=Rm)
    assert a.value == pytest.approx(b.value, rel=1e-10)


def test_laplace_exact_vs_quadrature_poisson():
    # p=1 LNP: compare against brute-force integration of the posterior mass;
    # the Laplace error is O(1/N) and should shrink as N grows
    rng = np.random.default_rng(5)
    beta = 2.0
    R = ScaledIdentity(1, beta)
    errs = []
    for N in (300, 1200):
        X = rng.standard_normal((N, 1))
        r = rng.poisson(0.4 * np.exp(0.5 * X[:, 0])).astype(float)
        data = GlmDataset(X=X, r=r, family=Poisson(dt=1.0))
        fit = fit_exact(data, R=R)
        ev = laplace_evidence(data, R, fit.params)

        def f(th):
            L = exact_loglik(data, GlmParams(theta=np.array([th]))).value
            return L - 0.5 * beta * th * th

        L0 = f(fit.params.theta[0])
        mass, _ = scipy.integrate.quad(lambda t: np.exp(f(t) - L0), -6, 6, limit=200)
        logZ = np.log(mass) + L0 + 0.5 * np.log(beta) - 0.5 * np.log(2 * np.pi)
        errs.append(abs(ev.value - logZ))
    assert errs[0] < 5e-3
    assert errs[1] < errs[0]


def test_laplace_el_profile_dense_oracle():
    rng = np.random.default_rng(6)
    data = _pois_data(rng)
    C = Dense(_spd(rng, 4))
    R = ScaledIdentity(4, 1.5)
    fit = mele(data, C, R=R)
    ev = laplace_evidence(data, R, fit.params, mode="el", C=C)
    A = data.N_s * C.to_dense() + R.to_dense()
    th = fit.params.theta
    want = (
        -0.5 * th @ A @ th
        + data.s @ th
        + 0.5 * np.linalg.slogdet(R.to_dense())[1]
        - 0.5 * np.linalg.slogdet(A)[1]
    )
    assert ev.value == pytest.approx(want, rel=1e-12)
    assert ev.method == "laplace_el"


def test_laplace_el_matches_scalar_closed_form():
    # C = I, R = beta I at the MPELE collapses to el_logF_scalar
    rng = np.random.default_rng(7)
    data = _pois_data(rng)
    C = ScaledIdentity(4, 1.0)
    for beta in (0.5, 3.0, 20.0):
        R = ScaledIdentity(4, beta)
        fit = mele(data, C, R=R)
        ev = laplace_evidence(data, R, fit.params, mode="el", C=C)
        want = el_logF_scalar(beta, float(data.s @ data.s), data.N_s, data.p)
        assert ev.value == pytest.approx(float(want), rel=1e-12)


def test_laplace_guards():
    rng = np.random.default_rng(8)
    gdata = _gauss_data(rng)
    R = ScaledIdentity(5, 1.0)
    pr = GlmParams(theta=np.zeros(5))
    with pytest.raises(ValueError, match="C"):
        laplace_evidence(gdata, R, pr, mode="el")
    with pytest.raises(ValueError, match="Poisson"):
        laplace_evidence(gdata, R, pr, mode="el", C=ScaledIdentity(5, 1.0))
    with pytest.raises(ValueError, match="mode"):
        laplace_evidence(gdata, R, pr, mode="full")


def test_evidence_result_rejects_nonfinite():
    with pytest.raises(FloatingPointError):
        EvidenceResult(value=np.inf, R={}, method="x", q=1.0, N_s=1.0)


# --- analytic R_hat ---------------------------------------------------------

def test_rhat_analytic_is_argmax():
    q, N_s, p = 9000.0, 50.0, 12
    beta_star = rhat_analytic(q, N_s, p)
    assert beta_star == pytest.approx(p * N_s**2 / (q - p * N_s), rel=1e-12)
    f0 = el_logF_scalar(beta_star, q, N_s, p)
    for fac in (0.9, 0.99, 1.01, 1.1):
        assert el_logF_scalar(beta_star * fac, q, N_s, p) < f0
    # derivative vanishes at the optimum
    h = 1e-5 * beta_star
    fd = (el_logF_scalar(beta_star + h, q, N_s, p) - el_logF_scalar(beta_star - h, q, N_s, p)) / (2 * h)
    assert abs(fd) < 1e-8  # limited by float cancellation in the difference


def test_rhat_analytic_boundary_infinite():
    # q <= p N_s: the evidence increases in beta without bound
    q, N_s, p = 100.0, 50.0, 4
    assert rhat_analytic(q, N_s, p) == np.inf
    betas = np.array([1.0, 10.0, 1e3, 1e6])
    vals = el_logF_scalar(betas, q, N_s, p)
    assert np.all(np.diff(vals) > 0)


def test_rhat_shared_matches_scalar_case():
    N_s = 80.0
    q = np.array([90.0 * N_s, 2.0 * N_s, 0.5 * N_s])
    dc = np.array([1.0, 1.0, 1.0])
    got = rhat_analytic_shared(np.sqrt(q), dc, N_s)
    for j in range(3):
        assert got[j] == pytest.approx(rhat_analytic(q[j], N_s, 1), rel=1e-12) or (
            np.isinf(got[j]) and np.isinf(rhat_analytic(q[j], N_s, 1))
        )
    # below the boundary the entry is infinite
    assert np.isinf(got[2])


def test_rhat_shared_general_dc():
    # stationarity of q~^2/(2(dc N_s + b)) + log(b)/2 - log(dc N_s + b)/2
    N_s = 60.0
    dc = np.array([0.5, 2.0])
    qt = np.array([8.0, 30.0])
    out = rhat_analytic_shared(qt, dc, N_s)
    for j in range(2):
        if np.isinf(out[j]):
            assert qt[j] ** 2 <= dc[j] * N_s
            continue
        b = out[j]
        # closed form: b = (dc N_s)^2 / (q~^2 - dc N_s)
        assert b == pytest.approx((dc[j] * N_s) ** 2 / (qt[j] ** 2 - dc[j] * N_s), rel=1e-12)
        # and it satisfies the stationarity relation b (q~^2 - dc N_s) = (dc N_s)^2
        assert b * (qt[j] ** 2 - dc[j] * N_s) == pytest.approx((dc[j] * N_s) ** 2, rel=1e-12)


# --- fixed point ------------------------------------------------------------

def test_fixed_point_maximizes_gaussian_evidence():
    # for the Gaussian family (sigma2=1) the Laplace evidence is exact, so the
    # fixed point must land on the argmax of F(beta) computed densely
    rng = np.random.default_rng(9)
    N, p = 80, 6
    X = rng.standard_normal((N, p))
    r = X @ (0.4 * rng.standard_normal(p)) + rng.standard_normal(N)
    data = GlmDataset(X=X, r=r, family=Gaussian())
    G = X.T @ X
    s = data.s

    def F(beta):
        A = G + beta * np.eye(p)
        return (
            0.5 * s @ np.linalg.solve(A, s)
            + 0.5 * p * np.log(beta)
            - 0.5 * np.linalg.slogdet(A)[1]
        )

    res = scipy.optimize.minimize_scalar(
        lambda lb: -F(np.exp(lb)), bounds=(-6, 10), method="bounded",
        options={"xatol": 1e-10},
    )
    beta_opt = np.exp(res.x)
    fp = rhat_fixed_point(data, beta0=1.0, fit_offset=False, rtol=1e-8)
    assert fp.converged
    assert fp.beta == pytest.approx(beta_opt, rel=1e-4)


def test_fixed_point_equation_holds_at_convergence():
    rng = np.random.default_rng(10)
    data = _pois_data(rng, N=500, p=4)
    fp = rhat_fixed_point(data, beta0=1.0, fit_offset=True, rtol=1e-6)
    assert fp.converged
    beta = fp.beta
    fit = fp.fits[-1]
    th = fit.params.theta
    # recompute the update from scratch at the final iterate
    refit = fit_exact(
        data, R=ScaledIdentity(4, beta), init=fit.params, fit_offset=True
    )
    x = np.concatenate(([refit.params.theta0], refit.params.theta))
    H = ExactObjective(data, fit_offset=True).hess_dense(x)
    H[1:, 1:] -= beta * np.eye(4)
    tr = np.trace(np.linalg.inv(-H)[1:, 1:])
    nxt = (4 - beta * tr) / float(refit.params.theta @ refit.params.theta)
    assert nxt == pytest.approx(beta, rel=5e-4)


def test_fixed_point_with_c_runs_hessian_free_refits(monkeypatch):
    """Given C, every MAP refit is truncated Newton from the MPELE: the betas
    equal the Newton path's within 1e-6 relative, and the only dense
    Hessians left are the traces, one per iterate."""
    rng = np.random.default_rng(13)
    data = _pois_data(rng, N=800, p=6)
    calls = []
    dense = ExactObjective.hess_dense

    def counted(self, x):
        calls.append(1)
        return dense(self, x)

    monkeypatch.setattr(ExactObjective, "hess_dense", counted)
    newton = rhat_fixed_point(data, beta0=1.0, rtol=1e-6)
    n_newton = len(calls)
    calls.clear()
    ncg = rhat_fixed_point(data, beta0=1.0, rtol=1e-6, C=ScaledIdentity(6, 1.0))
    assert newton.converged and ncg.converged
    assert len(ncg.betas) == len(newton.betas)
    np.testing.assert_allclose(ncg.betas, newton.betas, rtol=1e-6)
    assert all(f.solver == "fit_exact_newton_cg" for f in ncg.fits)
    assert len(calls) == len(ncg.fits) < n_newton


def test_fixed_point_zero_theta_raises():
    # X'r = 0 by construction: centered columns, constant responses
    rng = np.random.default_rng(11)
    N, p = 40, 3
    X = rng.standard_normal((N, p))
    X -= X.mean(axis=0)
    r = np.ones(N)
    data = GlmDataset(X=X, r=r, family=Poisson(dt=1.0))
    assert np.allclose(data.s, 0.0)
    with pytest.raises(ZeroDivisionError, match="infinity regime"):
        rhat_fixed_point(data, beta0=1.0, fit_offset=True)


def test_fixed_point_guards():
    rng = np.random.default_rng(12)
    data = _pois_data(rng)
    with pytest.raises(ValueError, match="beta0"):
        rhat_fixed_point(data, beta0=0.0)
    with pytest.raises(ValueError, match="beta0"):
        rhat_fixed_point(data, beta0=np.nan)
