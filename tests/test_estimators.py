"""Estimator oracles: closed forms, sign-support enumeration, scipy cross-checks."""

import itertools

import numpy as np
import pytest
import scipy.optimize
from test_cd import brute_force_l1

import elglm.estimators as estimators
import elglm.glm as glm
from elglm._cd import cd_quadratic_l1
from elglm.el import AnalyticExponential, AnalyticQuadratic, ELObjective, el_loglik
from elglm.estimators import (
    default_lambda_path,
    fit_exact,
    fit_exact_l1,
    mele,
    mele_l1_path,
)
from elglm.families import Bernoulli, Gaussian, Poisson
from elglm.glm import GlmDataset, GlmParams, exact_loglik
from elglm.structured import Dense, Diagonal, ScaledIdentity


def _spd(rng, p):
    A = rng.standard_normal((p, p))
    return A @ A.T / p + 0.5 * np.eye(p)


def _gauss_data(rng, N=40, p=5, sigma2=1.0):
    X = rng.standard_normal((N, p))
    r = rng.standard_normal(N)
    return GlmDataset(X=X, r=r, family=Gaussian(sigma2=sigma2))


def _pois_data(rng, N=300, p=4, dt=0.5):
    X = rng.standard_normal((N, p))
    th = rng.standard_normal(p) / np.sqrt(p)
    rate = np.exp(X @ th - 0.2) * dt
    r = rng.poisson(rate).astype(float)
    return GlmDataset(X=X, r=r, family=Poisson(dt=dt))


# --- MELE / MPELE closed forms ---------------------------------------------

def test_mele_gaussian_closed_form():
    rng = np.random.default_rng(0)
    data = _gauss_data(rng)
    C = Dense(_spd(rng, 5))
    R = Diagonal(np.linspace(0.5, 2.0, 5))
    fr = mele(data, C, R=R)
    want = np.linalg.solve(data.N * C.to_dense() + R.to_dense(), data.s)
    assert np.allclose(fr.params.theta, want, rtol=1e-12)
    assert fr.params.theta0 == 0.0
    assert fr.converged and fr.solver == "mele"


def test_mele_equals_ols_at_empirical_covariance():
    rng = np.random.default_rng(1)
    N, p = 50, 4
    X = rng.standard_normal((N, p))
    r = rng.standard_normal(N)
    data = GlmDataset(X=X, r=r, family=Gaussian())
    fr = mele(data, Dense(X.T @ X / N))
    ols = np.linalg.lstsq(X, r, rcond=None)[0]
    assert np.allclose(fr.params.theta, ols, rtol=1e-10)


@pytest.mark.parametrize("family", ["poisson", "gaussian"])
def test_mpele_lnp_closed_form_and_stationarity(family):
    """mele solves (s_f n C + R) theta = s_f X'r with n = N_s (Poisson, dt=0.5)
    or N (Gaussian, sigma2=2.5), and is a stationary point of the ridge-
    penalized EL under the family's analytic engine."""
    rng = np.random.default_rng(2)
    if family == "poisson":
        data = _pois_data(rng)
        n, engine, fit_offset = data.N_s, AnalyticExponential, True
    else:
        data = _gauss_data(rng, N=300, p=4, sigma2=2.5)
        n, engine, fit_offset = data.N, AnalyticQuadratic, False
    C = Dense(_spd(rng, 4))
    R = ScaledIdentity(4, 3.0)
    fr = mele(data, C, R=R)
    sf = data.family.scale
    want = np.linalg.solve(sf * n * C.to_dense() + R.to_dense(), sf * data.s)
    assert np.allclose(fr.params.theta, want, rtol=1e-10)
    if family == "poisson":
        quad = fr.params.theta @ C.to_dense() @ fr.params.theta
        th0 = np.log(data.N_s / (data.N * 0.5)) - 0.5 * quad
        assert fr.params.theta0 == pytest.approx(th0, rel=1e-12)
    else:
        assert fr.params.theta0 == 0.0
    # a stationary point of the penalized EL under the matching engine (the
    # Poisson offset fitted too)
    obj = ELObjective(engine(C), data, fit_offset=fit_offset, R=R)
    g = obj.grad(obj.vector(fr.params))
    assert np.max(np.abs(g)) < 1e-8 * max(1.0, n)


def test_mpele_lnp_ridge():
    rng = np.random.default_rng(3)
    data = _pois_data(rng)
    C = Dense(_spd(rng, 4))
    R = ScaledIdentity(4, 3.0)
    fr = mele(data, C, R=R)
    want = np.linalg.solve(data.N_s * C.to_dense() + 3.0 * np.eye(4), data.s)
    assert np.allclose(fr.params.theta, want, rtol=1e-10)


def test_mpele_lnp_rejects():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((40, 5))
    bdata = GlmDataset(X=X, r=(rng.random(40) < 0.5).astype(float), family=Bernoulli())
    C = ScaledIdentity(5, 1.0)
    with pytest.raises(ValueError, match="Poisson"):
        mele(bdata, C)
    X = rng.standard_normal((10, 3))
    empty = GlmDataset(X=X, r=np.zeros(10), family=Poisson(dt=1.0))
    with pytest.raises(ValueError, match="N_s"):
        mele(empty, ScaledIdentity(3, 1.0))


# --- L1 paths ---------------------------------------------------------------

def test_default_lambda_path():
    rng = np.random.default_rng(5)
    data = _gauss_data(rng)
    path = default_lambda_path(data)
    assert path.size == 100
    assert path[0] == pytest.approx(np.max(np.abs(data.s)))
    assert path[-1] == pytest.approx(1e-4 * path[0])
    assert np.all(np.diff(path) < 0)
    zero = GlmDataset(X=np.zeros((5, 2)), r=np.zeros(5), family=Gaussian())
    assert np.array_equal(default_lambda_path(zero), np.zeros(1))


def test_diagonal_path_soft_threshold():
    """A diagonal C needs no path of its own: one CD sweep per lambda lands
    on the soft threshold."""
    rng = np.random.default_rng(6)
    data = _gauss_data(rng, N=30, p=6)
    diag = np.linspace(0.5, 3.0, 6)
    C = Diagonal(diag)
    lam_path = np.array([4.0, 1.0, 0.1])
    out = mele_l1_path(data, C, lam_path)
    for fr, lam in zip(out, lam_path):
        want = np.sign(data.s) * np.maximum(np.abs(data.s) - lam, 0.0) / (data.N * diag)
        assert np.allclose(fr.params.theta, want, rtol=1e-14)
        assert fr.iterations == 1 and fr.diagnostics["kkt"] <= 1e-8
        assert fr.solver == "mele_l1"
    # exact tie resolves to zero
    tie = GlmDataset(X=np.eye(3), r=np.array([2.0, 0.0, 0.0]), family=Gaussian())
    fr = mele_l1_path(tie, Diagonal(np.ones(3)), [2.0])[0]
    assert fr.params.theta[0] == 0.0


def test_diagonal_path_rejects_nondiagonal():
    rng = np.random.default_rng(7)
    data = _gauss_data(rng, p=3)
    with pytest.raises(ValueError, match="decreasing"):
        mele_l1_path(data, Diagonal(np.ones(3)), [1.0, 2.0])
    with pytest.raises(ValueError, match="nonnegative"):
        mele_l1_path(data, Diagonal(np.ones(3)), [-1.0])


def test_general_cd_matches_diagonal_closed_form():
    rng = np.random.default_rng(8)
    data = _gauss_data(rng, p=5)
    diag = np.linspace(0.4, 2.0, 5)
    for lam in (3.0, 0.5):
        a = mele_l1_path(data, Dense(np.diag(diag)), [lam])[0]
        b = np.sign(data.s) * np.maximum(np.abs(data.s) - lam, 0.0) / (data.N * diag)
        assert np.allclose(a.params.theta, b, atol=1e-9)
        assert a.diagnostics["kkt"] <= 1e-8


def test_l1_path_warm_equals_cold():
    rng = np.random.default_rng(9)
    data = _pois_data(rng, N=200, p=5)
    C = Dense(_spd(rng, 5))
    lam_path = np.geomspace(np.max(np.abs(data.s)), 0.05 * np.max(np.abs(data.s)), 6)
    warm = mele_l1_path(data, C, lam_path)
    for fr, lam in zip(warm, lam_path):
        cold = mele_l1_path(data, C, [float(lam)])[0]
        assert np.allclose(fr.params.theta, cold.params.theta, atol=1e-7)


def test_l1_path_is_mele_plus_l1():
    """mele_l1_path maximizes mele's quadratic minus lam ||theta||_1: on
    Gaussian data with sigma^2 != 1 and C = X'X/N it is the exact L1 MAP,
    and at lam = 0 it is mele with the same ridge, offset included."""
    rng = np.random.default_rng(31)
    data = _gauss_data(rng, N=60, p=5, sigma2=4.0)
    C = Dense(data.X.T @ data.X / data.N)
    lam_path = default_lambda_path(data, n=4)[1:]
    for fr, lam in zip(mele_l1_path(data, C, lam_path), lam_path):
        want = fit_exact_l1(data, lam).params.theta
        np.testing.assert_allclose(fr.params.theta, want, rtol=0, atol=1e-12)
    # the default path starts where theta leaves zero
    lam_max = default_lambda_path(data)[0]
    top = mele_l1_path(data, C, [lam_max, 0.99 * lam_max])
    assert [np.count_nonzero(fr.params.theta) for fr in top] == [0, 1]
    R = Diagonal(np.linspace(5.0, 50.0, 5))
    for data in (_gauss_data(rng, sigma2=4.0), _pois_data(rng, N=400, p=5)):
        C = Dense(_spd(rng, 5))
        fr = mele_l1_path(data, C, [0.0], R=R)[0]
        want = mele(data, C, R=R).params
        np.testing.assert_allclose(fr.params.theta, want.theta, rtol=0, atol=1e-10)
        assert fr.params.theta0 == pytest.approx(want.theta0, abs=1e-10)
    assert want.theta0 != 0.0
    X = rng.standard_normal((10, 3))
    empty = GlmDataset(X=X, r=np.zeros(10), family=Poisson(dt=1.0))
    with pytest.raises(ValueError, match="no events"):
        mele_l1_path(empty, ScaledIdentity(3, 1.0), [1.0, 0.5])


# --- L1 model solve: cyclic sweeps finished on the support ----------------------

def test_support_solve_matches_cyclic_cd_and_enumeration(monkeypatch):
    """Ill-conditioned random models with two unpenalized coordinates each,
    started from random points so that signs must flip: the support-solve
    finish lands on the enumerated optimum and on the converged cyclic
    kernel, including the problems where a solve is rejected and sweeping
    resumes."""
    outcomes = []
    solve = estimators._support_solve

    def recorded(*args):
        out = solve(*args)
        outcomes.append(out is not None)
        return out

    monkeypatch.setattr(estimators, "_support_solve", recorded)
    sweeps_model = sweeps_cyclic = flips = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        p = 6
        B = rng.standard_normal((p, p + 1))
        A = B @ B.T / p + 0.05 * np.eye(p)
        s = rng.standard_normal(p) * 2.0
        lam = rng.uniform(0.2, 1.5, p)
        lam[rng.permutation(p)[:2]] = 0.0
        x0 = rng.standard_normal(p) * 2.0
        x, n, kkt = estimators._solve_l1_model(A, s, lam, x0, 1e-12, 10000)
        x_cd, n_cd, _ = cd_quadratic_l1(A, s, lam, x0, max_sweeps=10000, tol=1e-12)
        x_star = brute_force_l1(A, s, lam)
        assert kkt <= 1e-12
        assert np.array_equal(x != 0.0, x_star != 0.0), seed
        np.testing.assert_allclose(x, x_star, atol=1e-9)
        np.testing.assert_allclose(x, x_cd, atol=1e-9)
        flips += int(np.any(np.sign(x_star) * np.sign(x0) < 0))
        sweeps_model += n
        sweeps_cyclic += n_cd
    assert flips > 0
    assert not all(outcomes) and any(outcomes)  # solves both kept and rejected
    assert sweeps_model * 5 < sweeps_cyclic


def test_support_solve_diagonal_and_tie_cases():
    # diagonal model: the first sweep is exact, no solve is needed
    d = np.array([1.0, 2.0, 0.5, 4.0])
    s = np.array([3.0, -1.0, 0.2, 0.05])
    lam = np.array([0.5, 0.0, 0.5, 0.5])
    x, n, kkt = estimators._solve_l1_model(np.diag(d), s, lam, np.zeros(4), 1e-10, 100)
    np.testing.assert_allclose(x, np.sign(s) * np.maximum(np.abs(s) - lam, 0.0) / d, atol=1e-14)
    assert n == 1 and kkt == 0.0
    # lam equal to |s_j| leaves the coordinate at exactly zero
    x, _, _ = estimators._solve_l1_model(np.eye(2), np.array([0.5, 2.0]), np.array([0.5, 0.1]),
                                         np.zeros(2), 1e-12, 100)
    assert x[0] == 0.0 and x[1] == pytest.approx(1.9)


def test_fit_exact_l1_reuses_line_search_values(monkeypatch):
    """Per outer step: one Hessian, the line-search values and one gradient at
    the accepted point; the trace holds the values the line search accepted."""
    rng = np.random.default_rng(21)
    data = _pois_data(rng, N=300, p=4)
    calls = {"value": 0, "value_grad": 0, "hess_dense": 0}
    for name in calls:
        method = getattr(estimators.ExactObjective, name)

        def counted(self, x, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, x)

        monkeypatch.setattr(estimators.ExactObjective, name, counted)
    lam = np.array([0.0, 2.0, 2.0, 2.0])
    fr = fit_exact_l1(data, lam, fit_offset=True)
    assert calls["hess_dense"] == fr.iterations
    assert calls["value_grad"] == fr.iterations + 1
    assert calls["value"] >= fr.iterations
    want = exact_loglik(data, fr.params).value - float(lam @ np.abs(fr.params.theta))
    assert fr.objective_trace[-1] == pytest.approx(want, rel=1e-14)
    assert np.all(np.diff(fr.objective_trace) >= 0.0)


def test_fit_exact_takes_one_gradient_per_trace_entry(monkeypatch):
    """Newton reports the gradient norm from its last loop gradient, which
    was taken at the returned point, instead of one more exact pass."""
    rng = np.random.default_rng(0)
    data = _pois_data(rng, N=500, p=5)
    calls = [0]
    value_grad = estimators.ExactObjective.value_grad

    def counted(self, x):
        calls[0] += 1
        return value_grad(self, x)

    monkeypatch.setattr(estimators.ExactObjective, "value_grad", counted)
    fr = fit_exact(data, fit_offset=True)
    assert fr.converged
    assert calls[0] == len(fr.objective_trace)
    g = exact_loglik(data, fr.params).grad
    assert fr.diagnostics["grad_norm"] == float(np.max(np.abs(g)))


def test_line_searches_reject_overflowing_steps(monkeypatch):
    """A trial step whose likelihood overflows is rejected by the line search
    (the objective itself keeps raising), in Newton and in prox-Newton."""
    rng = np.random.default_rng(0)
    r = np.zeros(40)
    r[0] = 1e6
    data = GlmDataset(X=rng.standard_normal((40, 2)), r=r, family=Poisson())
    overflows = [0]
    value = estimators.ExactObjective.value

    def counted(self, x):
        try:
            return value(self, x)
        except FloatingPointError:
            overflows[0] += 1
            raise

    monkeypatch.setattr(estimators.ExactObjective, "value", counted)
    for fit in (
        lambda: fit_exact(data, fit_offset=True),
        lambda: fit_exact_l1(data, 0.5, fit_offset=True),
    ):
        overflows[0] = 0
        assert fit().converged
        assert overflows[0] >= 1


# --- exact fits -------------------------------------------------------------

def test_fit_exact_gaussian_is_least_squares():
    rng = np.random.default_rng(11)
    data = _gauss_data(rng, N=60, p=4, sigma2=2.0)
    fr = fit_exact(data)
    want = np.linalg.lstsq(data.X, data.r, rcond=None)[0]
    assert np.allclose(fr.params.theta, want, atol=1e-8)
    assert fr.converged

    frо = fit_exact(data, fit_offset=True)
    X1 = np.column_stack([np.ones(data.N), data.X])
    want = np.linalg.lstsq(X1, data.r, rcond=None)[0]
    assert frо.params.theta0 == pytest.approx(want[0], abs=1e-8)
    assert np.allclose(frо.params.theta, want[1:], atol=1e-8)


def test_fit_exact_gaussian_ridge_closed_form():
    rng = np.random.default_rng(12)
    sigma2 = 2.0
    data = _gauss_data(rng, N=50, p=4, sigma2=sigma2)
    Rm = _spd(rng, 4)
    fr = fit_exact(data, R=Dense(Rm))
    want = np.linalg.solve(data.X.T @ data.X / sigma2 + Rm, data.s / sigma2)
    assert np.allclose(fr.params.theta, want, atol=1e-9)


def test_fit_exact_poisson_vs_scipy():
    rng = np.random.default_rng(13)
    data = _pois_data(rng, N=250, p=4)
    fr = fit_exact(data, fit_offset=True)

    def neg(x):
        ev = exact_loglik(data, GlmParams(theta=x[1:], theta0=x[0]))
        return -ev.value, -ev.grad

    res = scipy.optimize.minimize(neg, np.zeros(5), jac=True, method="BFGS")
    ours = np.concatenate(([fr.params.theta0], fr.params.theta))
    assert -fr.objective_trace[-1] <= res.fun + 1e-7
    assert np.allclose(ours, res.x, atol=1e-4)
    assert fr.diagnostics["grad_norm"] < 1e-6 * max(1.0, abs(fr.objective_trace[-1]))


def _ar1(p, phi=0.7):
    return phi ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))


def _newton_cg_case(family, design):
    """(data, C, fit_exact keywords) of a p=8, N=600 problem."""
    rng = np.random.default_rng(25)
    N, p = 600, 8
    Cm = np.eye(p) if design == "white" else _ar1(p)
    C = ScaledIdentity(p, 1.0) if design == "white" else Dense(Cm)
    X = rng.standard_normal((N, p)) @ np.linalg.cholesky(Cm).T
    th = 0.5 * rng.standard_normal(p) / np.sqrt(p)
    if family == "poisson":
        r = rng.poisson(np.exp(X @ th - 0.5)).astype(float)
        data = GlmDataset(X=X, r=r, family=Poisson())
        return data, C, {"R": ScaledIdentity(p, 2.0), "fit_offset": True}
    r = X @ th + rng.standard_normal(N)
    return GlmDataset(X=X, r=r, family=Gaussian()), C, {}


@pytest.mark.parametrize("design", ["white", "ar1"])
@pytest.mark.parametrize("family", ["poisson", "gaussian"])
def test_fit_exact_newton_cg_matches_newton(family, design):
    """Truncated Newton from the MPELE (MELE) reaches Newton's MAP."""
    data, C, kw = _newton_cg_case(family, design)
    newton = fit_exact(data, tol=1e-10, **kw)
    ncg = fit_exact(data, C=C, tol=1e-10, **kw)
    assert newton.converged and ncg.converged
    assert ncg.solver == "fit_exact_newton_cg"
    x_n = np.concatenate(([newton.params.theta0], newton.params.theta))
    x_c = np.concatenate(([ncg.params.theta0], ncg.params.theta))
    np.testing.assert_allclose(x_c, x_n, rtol=0, atol=1e-8 * np.max(np.abs(x_n)))
    assert ncg.diagnostics["hess_actions"] >= ncg.iterations


@pytest.mark.parametrize("ridge", [False, True])
@pytest.mark.parametrize("fit_offset", [False, True])
@pytest.mark.parametrize("family", ["poisson", "gaussian"])
def test_float32_cg_reaches_the_dense_newton_map(family, fit_offset, ridge):
    """The CG's later Hessian actions read the float32 design, and the MAP of
    fit_exact(C=) still matches dense Newton's within 1e-8, with and without
    a ridge and a fitted offset."""
    data, C, _ = _newton_cg_case(family, "ar1")
    kw = {"R": ScaledIdentity(data.p, 2.0) if ridge else None, "fit_offset": fit_offset}
    newton = fit_exact(data, **kw)
    ncg = fit_exact(data, C=C, **kw)
    assert newton.converged and ncg.converged and ncg.solver == "fit_exact_newton_cg"
    assert ncg.diagnostics["hess_actions"] > ncg.iterations  # some actions were float32
    assert "single" in vars(data)
    x_n = np.concatenate(([newton.params.theta0], newton.params.theta))
    x_c = np.concatenate(([ncg.params.theta0], ncg.params.theta))
    np.testing.assert_allclose(x_c, x_n, rtol=0, atol=1e-8 * np.max(np.abs(x_n)))


def test_float32_cg_keeps_the_float64_steps_and_actions(monkeypatch):
    """On a pinned Poisson set (N=3000, p=60, AR(1) stimuli and C with
    phi=0.5, R = I, fitted offset), the fit with float32 refining actions
    takes the 6 steps and 28 Hessian actions that all-float64 CG takes, and
    reaches its MAP within 1e-10."""
    g = np.random.default_rng(102)
    N, p = 3000, 60
    Cm = _ar1(p, 0.5)
    X = g.standard_normal((N, p)) @ np.linalg.cholesky(Cm).T
    theta = g.standard_normal(p) / np.sqrt(p)
    data = GlmDataset(X=X, r=g.poisson(np.exp(X @ theta)).astype(float), family=Poisson())
    kw = {"R": ScaledIdentity(p, 1.0), "C": Dense(Cm), "fit_offset": True}
    fr = fit_exact(data, **kw)
    monkeypatch.setattr(glm.ExactObjective, "_hess_action32", lambda self, ev: ev.hess_action)
    f64 = fit_exact(data, **kw)
    for f in (fr, f64):
        assert f.converged and (f.iterations, f.diagnostics["hess_actions"]) == (6, 28)
    x = np.concatenate(([fr.params.theta0], fr.params.theta))
    x64 = np.concatenate(([f64.params.theta0], f64.params.theta))
    np.testing.assert_allclose(x, x64, rtol=0, atol=1e-10)


@pytest.mark.parametrize("method", ["newton", "newton_cg"])
def test_fit_exact_stops_when_a_step_leaves_the_value_unchanged(method):
    """At tol=1e-12 the gradient test asks for more than the value's rounding
    can resolve: Armijo then accepts steps that leave the value unchanged.
    The fit stops after the first such step instead of running to max_iter,
    and reports converged exactly when the gradient test passed."""
    data, C, kw = _newton_cg_case("poisson", "ar1")
    fit = fit_exact(data, C=C if method == "newton_cg" else None, tol=1e-12, **kw)
    assert fit.iterations <= 20
    v = fit.objective_trace[-1]
    assert fit.converged == (fit.diagnostics["grad_norm"] <= 1e-12 * max(1.0, abs(v)))
    if not fit.converged:  # stopped on the flat step, not on the budget
        assert fit.objective_trace[-1] == fit.objective_trace[-2]
    want = fit_exact(data, tol=1e-10, **kw).params
    np.testing.assert_allclose(fit.params.theta, want.theta, rtol=0, atol=1e-8)


def test_fit_exact_newton_cg_uses_the_el_preconditioner():
    """With C the sample covariance, N C + R is the exact Gaussian Hessian:
    the MELE is already the MAP, and from zero one PCG action solves it."""
    rng = np.random.default_rng(27)
    data = _gauss_data(rng, N=80, p=5)
    C = Dense(data.X.T @ data.X / data.N)
    R = Diagonal(np.linspace(0.5, 2.0, 5))
    want = np.linalg.solve(data.X.T @ data.X + R.to_dense(), data.s)
    start = fit_exact(data, R=R, C=C)
    assert start.iterations == 0 and start.diagnostics["hess_actions"] == 0
    fr = fit_exact(data, R=R, C=C, init=GlmParams(theta=np.zeros(5)))
    assert fr.iterations == 1 and fr.diagnostics["hess_actions"] == 1
    for f in (start, fr):
        assert f.converged
        np.testing.assert_allclose(f.params.theta, want, rtol=1e-10)


def test_fit_exact_newton_cg_takes_one_full_pass_per_step(monkeypatch):
    """No dense Hessian, and one value/gradient/d2 pass per outer iterate: the
    Hessian actions reuse it and the line search takes value-only passes."""
    rng = np.random.default_rng(26)
    data = _pois_data(rng, N=500, p=6)
    calls = {"exact_loglik": 0, "hess_dense": 0}
    loglik = glm.exact_loglik
    hess_dense = estimators.ExactObjective.hess_dense

    def counted_loglik(*args, **kwargs):
        calls["exact_loglik"] += 1
        return loglik(*args, **kwargs)

    def counted_hess(self, x):
        calls["hess_dense"] += 1
        return hess_dense(self, x)

    monkeypatch.setattr(glm, "exact_loglik", counted_loglik)
    monkeypatch.setattr(estimators.ExactObjective, "hess_dense", counted_hess)
    fr = fit_exact(data, R=ScaledIdentity(6, 1.0), fit_offset=True,
                   C=ScaledIdentity(6, 1.0))
    assert fr.converged and fr.iterations >= 2
    assert calls["hess_dense"] == 0
    assert calls["exact_loglik"] == len(fr.objective_trace) == fr.iterations + 1


def test_fit_exact_with_c_builds_the_el_system_once(monkeypatch):
    """The start and the preconditioner of fit_exact(C=) read one EL system:
    one build of s_f n C + R per fit, and from mele's start the fit is the
    one that an explicit mele start gives, bit for bit."""
    rng = np.random.default_rng(28)
    data = _pois_data(rng, N=400, p=5)
    C = Dense(_spd(rng, 5))
    R = ScaledIdentity(5, 2.0)
    builds = []
    scaled = Dense.scaled

    def counted(self, a):
        builds.append(a)
        return scaled(self, a)

    monkeypatch.setattr(Dense, "scaled", counted)
    fr = fit_exact(data, R=R, C=C, fit_offset=True)
    assert builds == [data.N_s]
    warm = fit_exact(data, R=R, C=C, fit_offset=True, init=mele(data, C, R=R).params)
    np.testing.assert_array_equal(fr.params.theta, warm.params.theta)
    assert fr.params.theta0 == warm.params.theta0
    assert fr.converged and fr.diagnostics["hess_actions"] > 0


def test_fit_exact_with_c_on_no_events_raises():
    """Poisson data with no events have no MAP; with C, fit_exact raises
    mele's error even when given a start."""
    X = np.random.default_rng(29).standard_normal((20, 3))
    empty = GlmDataset(X=X, r=np.zeros(20), family=Poisson(dt=1.0))
    for init in (None, GlmParams(theta=np.zeros(3), theta0=-1.0)):
        with pytest.raises(ValueError, match="no events"):
            fit_exact(empty, R=ScaledIdentity(3, 1.0), C=ScaledIdentity(3, 1.0), init=init)


def test_fit_exact_guards():
    rng = np.random.default_rng(15)
    X = rng.standard_normal((4, 6))
    data = GlmDataset(X=X, r=rng.standard_normal(4), family=Gaussian())
    with pytest.raises(ValueError, match="non-unique"):
        fit_exact(data)
    small = _gauss_data(rng)
    # no closed-form EL start for Bernoulli data: C is not used, Newton runs
    binary = GlmDataset(X=small.X, r=(small.r > 0).astype(float), family=Bernoulli())
    assert fit_exact(binary, C=ScaledIdentity(small.p, 1.0)).solver == "fit_exact_newton"


def _lasso_oracle(A, b, lam_vec):
    """Maximize b'x - x'Ax/2 - sum lam_j |x_j| by sign-support enumeration."""
    p = b.size
    best, best_val = None, -np.inf
    for signs in itertools.product((-1, 0, 1), repeat=p):
        signs = np.array(signs, dtype=float)
        on = signs != 0
        x = np.zeros(p)
        if on.any():
            try:
                x[on] = np.linalg.solve(A[np.ix_(on, on)], (b - lam_vec * signs)[on])
            except np.linalg.LinAlgError:
                continue
            if np.any(np.sign(x[on]) != signs[on]):
                continue
        g = b - A @ x
        if np.any(np.abs(g[~on]) > lam_vec[~on] + 1e-9):
            continue
        val = b @ x - 0.5 * x @ A @ x - lam_vec @ np.abs(x)
        if val > best_val:
            best, best_val = x, val
    return best


def test_fit_exact_l1_gaussian_vs_enumeration():
    rng = np.random.default_rng(17)
    N, p = 40, 5
    sigma2 = 1.5
    data = _gauss_data(rng, N=N, p=p, sigma2=sigma2)
    lam0 = np.max(np.abs(data.s)) / sigma2
    for lam in (0.6 * lam0, 0.15 * lam0):
        fr = fit_exact_l1(data, lam * sigma2)  # lam applies to the scaled loglik
        A = data.X.T @ data.X / sigma2
        b = data.s / sigma2
        want = _lasso_oracle(A, b, np.full(p, lam * sigma2))
        assert np.allclose(fr.params.theta, want, atol=1e-7)
        assert fr.diagnostics["kkt"] <= 1e-8


def test_fit_exact_l1_unpenalized_coordinates():
    rng = np.random.default_rng(18)
    data = _pois_data(rng, N=200, p=4)
    lam_vec = np.array([0.0, 0.0, 5.0, 5.0])
    fr = fit_exact_l1(data, lam_vec, fit_offset=True)
    _, g = (lambda ev: (ev.value, ev.grad))(
        exact_loglik(data, fr.params)
    )
    # unpenalized coordinates (offset + first two) sit at an exact stationary point
    assert abs(g[0]) < 1e-7
    assert np.max(np.abs(g[1:3])) < 1e-7


def test_fit_exact_l1_offset_vector_gaussian():
    rng = np.random.default_rng(19)
    N, p = 30, 3
    X = rng.standard_normal((N, p))
    o = rng.standard_normal(N)
    r = rng.standard_normal(N)
    data = GlmDataset(X=X, r=r, family=Gaussian())
    fr = fit_exact_l1(data, 0.0, offset=o)
    want = np.linalg.lstsq(X, r - o, rcond=None)[0]
    assert np.allclose(fr.params.theta, want, atol=1e-8)


def test_fit_exact_l1_rejects_negative_lam():
    rng = np.random.default_rng(20)
    data = _gauss_data(rng)
    with pytest.raises(ValueError, match="nonnegative"):
        fit_exact_l1(data, -1.0)


# --- refinement: a few truncated-Newton steps from the EL estimate ------------

def test_pcg_k0_returns_init():
    rng = np.random.default_rng(21)
    data = _pois_data(rng)
    init = GlmParams(theta=0.1 * rng.standard_normal(4))
    fr = fit_exact(data, C=ScaledIdentity(4, 1.0), init=init, max_iter=0)
    assert np.array_equal(fr.params.theta, init.theta)
    assert fr.iterations == 0


def test_pcg_trace_monotone_and_improves():
    rng = np.random.default_rng(22)
    data = _pois_data(rng, N=400, p=5)
    C = Dense(data.X.T @ data.X / data.N)
    start = mele(data, C)
    fr = fit_exact(data, C=C, init=start.params, max_iter=2, theta0=start.params.theta0)
    trace = np.array(fr.objective_trace)
    assert len(trace) == fr.iterations + 1 <= 3
    assert np.all(np.diff(trace) >= -1e-10)
    exact = fit_exact(data, init=start.params, theta0=start.params.theta0)
    gap0 = exact.objective_trace[-1] - trace[0]
    gap = exact.objective_trace[-1] - trace[-1]
    assert gap < 0.1 * gap0  # a few preconditioned steps close most of the gap


def test_pcg_perfect_preconditioner_gaussian():
    rng = np.random.default_rng(23)
    data = _gauss_data(rng, N=50, p=4)
    C = Dense(data.X.T @ data.X / data.N)  # N C: the exact negative Hessian (sigma2=1)
    fr = fit_exact(data, C=C, init=GlmParams(theta=np.zeros(4)), max_iter=3, tol=1e-12)
    want = np.linalg.lstsq(data.X, data.r, rcond=None)[0]
    assert np.allclose(fr.params.theta, want, atol=1e-8)
    assert fr.converged


def test_pcg_preconditioner_carries_the_family_scale():
    """With C = X'X/N, the EL Hessian blockdiag(s_f N, s_f N C + R) is the
    exact one at sigma2 != 1 too, so one Newton step of one Hessian action
    from zero reaches the ridge MAP."""
    rng = np.random.default_rng(25)
    data = _gauss_data(rng, N=50, p=4, sigma2=2.5)
    C = Dense(data.X.T @ data.X / data.N)
    R = Diagonal(np.linspace(1.0, 20.0, 4))
    fr = fit_exact(data, R=R, C=C, init=GlmParams(theta=np.zeros(4)), tol=1e-12)
    want = np.linalg.solve(data.X.T @ data.X / 2.5 + R.to_dense(), data.s / 2.5)
    assert np.allclose(fr.params.theta, want, atol=1e-10)
    assert fr.converged and fr.iterations == 1 and fr.diagnostics["hess_actions"] == 1


def test_pcg_guards():
    rng = np.random.default_rng(24)
    data = _gauss_data(rng)
    for C in (None, ScaledIdentity(data.p, 1.0)):
        with pytest.raises(ValueError, match="max_iter"):
            fit_exact(data, C=C, max_iter=-1)
    # Bernoulli data have no EL start to refine: the budget goes to Newton from zero
    binary = GlmDataset(X=data.X, r=(data.r > 0).astype(float), family=Bernoulli())
    fr = fit_exact(binary, C=ScaledIdentity(data.p, 1.0), max_iter=0)
    assert fr.solver == "fit_exact_newton"
    assert not np.any(fr.params.theta)
