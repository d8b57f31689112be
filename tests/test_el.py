"""Expectation engines and the EL objective against closed forms and quadrature."""

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from elglm.el import (
    AnalyticExponential,
    AnalyticQuadratic,
    ELObjective,
    Elliptic1D,
    GaussianCLT,
    build_clt_engine,
    build_elliptic_table,
    el_loglik,
    engine_from_config,
    radial_from_h,
)
from elglm.families import Bernoulli, Gaussian, Poisson
from elglm.glm import GlmDataset, GlmParams, exact_loglik
from elglm.structured import Dense, Diagonal, ScaledIdentity


def _spd(rng, p):
    A = rng.standard_normal((p, p))
    return Dense(A @ A.T / p + 0.5 * np.eye(p))


def _fd_check(engine, params, atol=1e-6):
    """Finite-difference the engine's E[G] over (theta0, theta)."""
    ev = engine.expected_g(params)
    x0 = np.concatenate(([params.theta0], params.theta))
    h = 1e-5

    def val(x):
        return engine.expected_g(GlmParams(theta=x[1:], theta0=x[0])).value

    for j in range(x0.size):
        e = np.zeros_like(x0)
        e[j] = h
        fd = (val(x0 + e) - val(x0 - e)) / (2 * h)
        assert ev.grad[j] == pytest.approx(fd, abs=atol, rel=1e-4)

    def grad(x):
        return engine.expected_g(GlmParams(theta=x[1:], theta0=x[0])).grad

    rng = np.random.default_rng(7)
    for _ in range(3):
        w = rng.standard_normal(x0.size)
        fd = (grad(x0 + h * w) - grad(x0 - h * w)) / (2 * h)
        hv = ev.hess_action(w)
        assert np.allclose(hv, fd, atol=10 * atol, rtol=1e-4)


def test_analytic_quadratic_closed_form():
    rng = np.random.default_rng(0)
    C = _spd(rng, 5)
    eng = AnalyticQuadratic(C)
    th = rng.standard_normal(5)
    pr = GlmParams(theta=th, theta0=0.7)
    ev = eng.expected_g(pr)
    want = 0.5 * (0.7**2 + th @ C.to_dense() @ th)
    assert ev.value == pytest.approx(want, rel=1e-14)
    _fd_check(eng, pr)


def test_analytic_exponential_closed_form():
    rng = np.random.default_rng(1)
    C = _spd(rng, 4)
    eng = AnalyticExponential(C)
    th = rng.standard_normal(4)
    pr = GlmParams(theta=th, theta0=-0.4)
    ev = eng.expected_g(pr)
    want = np.exp(-0.4 + 0.5 * th @ C.to_dense() @ th)
    assert ev.value == pytest.approx(want, rel=1e-14)
    _fd_check(eng, pr)


def test_analytic_exponential_overflow():
    eng = AnalyticExponential(ScaledIdentity(3, 1.0))
    with pytest.raises(FloatingPointError):
        eng.expected_g(GlmParams(theta=np.full(3, 30.0), theta0=0.0))


def test_analytic_engines_reject_nonzero_mean():
    C = ScaledIdentity(3, 1.0)
    with pytest.raises(ValueError, match="mean-zero"):
        AnalyticQuadratic(C, mu=np.array([0.1, 0.0, 0.0]))
    with pytest.raises(ValueError, match="mean-zero"):
        AnalyticExponential(C, mu=np.ones(3))
    # explicit zero mean is fine
    AnalyticQuadratic(C, mu=np.zeros(3))


def test_dimension_mismatch():
    eng = AnalyticQuadratic(ScaledIdentity(4, 1.0))
    with pytest.raises(ValueError, match="length"):
        eng.expected_g(GlmParams(theta=np.zeros(3)))


def test_el_matches_exact_gaussian_empirical_covariance():
    # For the Gaussian family with column-centered X and C = X'X/N the EL is
    # not an approximation: sum u_i^2 = N (theta0^2 + theta' C theta) exactly.
    rng = np.random.default_rng(2)
    N, p = 60, 4
    X = rng.standard_normal((N, p))
    X -= X.mean(axis=0)
    r = rng.standard_normal(N)
    data = GlmDataset(X=X, r=r, family=Gaussian(sigma2=1.7))
    C = Dense(X.T @ X / N)
    eng = AnalyticQuadratic(C)
    for _ in range(5):
        pr = GlmParams(theta=rng.standard_normal(p), theta0=rng.standard_normal())
        a = el_loglik(eng, data, pr)
        b = exact_loglik(data, pr)
        assert a.value == pytest.approx(b.value, rel=1e-12)
        assert np.allclose(a.grad, b.grad, rtol=1e-12, atol=1e-10)
        w = rng.standard_normal(p + 1)
        assert np.allclose(a.hess_action(w), b.hess_action(w), rtol=1e-12, atol=1e-10)


def test_el_loglik_value_formula():
    rng = np.random.default_rng(3)
    N, p = 40, 3
    X = rng.standard_normal((N, p))
    r = rng.poisson(1.0, size=N).astype(float)
    dt = 0.5
    data = GlmDataset(X=X, r=r, family=Poisson(dt=dt))
    C = _spd(rng, p)
    eng = AnalyticExponential(C)
    th = 0.3 * rng.standard_normal(p)
    pr = GlmParams(theta=th, theta0=-0.2)
    Eg = np.exp(-0.2 + 0.5 * th @ C.to_dense() @ th)
    want = pr.theta0 * data.N_s + data.s @ th - N * dt * Eg
    assert el_loglik(eng, data, pr).value == pytest.approx(want, rel=1e-13)


def test_el_loglik_rejects_mismatches():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((10, 3))
    pdata = GlmDataset(X=X, r=np.ones(10), family=Poisson(dt=1.0))
    gdata = GlmDataset(X=X, r=np.ones(10), family=Gaussian())
    eng = AnalyticQuadratic(ScaledIdentity(3, 1.0))
    with pytest.raises(ValueError, match="support"):
        el_loglik(eng, pdata, GlmParams(theta=np.zeros(3)))
    eng4 = AnalyticQuadratic(ScaledIdentity(4, 1.0))
    with pytest.raises(ValueError, match="dimension"):
        el_loglik(eng4, gdata, GlmParams(theta=np.zeros(4)))


# --- Elliptic1D ------------------------------------------------------------

P_ELL = 4


@pytest.fixture(scope="module")
def gauss_table():
    rng = np.random.default_rng(5)
    C = _spd(rng, P_ELL)
    dens = radial_from_h(lambda t: np.exp(-0.5 * t), P_ELL)
    eng = build_elliptic_table(Poisson(dt=1.0), C, radial_density=dens, r_max=4.0)
    return eng, AnalyticExponential(C), C


def _at_norm(rng, C, scale):
    th = rng.standard_normal(C.p)
    t = np.sqrt(th @ C.matvec(th))
    return th * (scale / t)


@pytest.mark.parametrize("scale,tol", [(0.05, 1e-6), (0.3, 1e-6), (0.9, 1e-6), (1.7, 5e-5), (2.8, 1e-3)])
def test_elliptic_gaussian_radial_matches_closed_form(gauss_table, scale, tol):
    # tolerance tracks the interpolation error, which grows toward r_max
    eng, oracle, C = gauss_table
    rng = np.random.default_rng(int(scale * 100))
    th = _at_norm(rng, C, scale)
    pr = GlmParams(theta=th, theta0=0.4)
    a, b = eng.expected_g(pr), oracle.expected_g(pr)
    assert a.value == pytest.approx(b.value, rel=tol)
    assert np.allclose(a.grad, b.grad, rtol=0, atol=50 * tol * np.max(np.abs(b.grad)))


def test_elliptic_poisson_offset_factor(gauss_table):
    # G = exp so the offset enters as a global e^{theta0} factor
    eng, _, C = gauss_table
    rng = np.random.default_rng(6)
    th = _at_norm(rng, C, 1.2)
    base = eng.expected_g(GlmParams(theta=th, theta0=0.0))
    shifted = eng.expected_g(GlmParams(theta=th, theta0=0.8))
    f = np.exp(0.8)
    assert shifted.value == pytest.approx(f * base.value, rel=1e-13)
    assert np.allclose(shifted.grad[1:], f * base.grad[1:], rtol=1e-12)
    assert shifted.grad[0] == pytest.approx(shifted.value, rel=1e-13)


def test_elliptic_theta_zero_branch(gauss_table):
    eng, oracle, C = gauss_table
    ev = eng.expected_g(GlmParams(theta=np.zeros(P_ELL), theta0=0.3))
    assert ev.value == pytest.approx(np.exp(0.3), rel=1e-12)
    assert np.allclose(ev.grad[1:], 0.0)
    # curvature at 0 is the secant c2 times C; closed form gives e^{th0} C
    w = np.ones(P_ELL + 1)
    want = oracle.expected_g(GlmParams(theta=np.zeros(P_ELL), theta0=0.3)).hess_action(w)
    assert np.allclose(ev.hess_action(w), want, rtol=1e-6)


def test_elliptic_norm_outside_domain(gauss_table):
    eng, _, C = gauss_table
    rng = np.random.default_rng(8)
    th = _at_norm(rng, C, 4.5)
    with pytest.raises(ValueError, match="table domain"):
        eng.expected_g(GlmParams(theta=th))


def test_elliptic_fd_consistency(gauss_table):
    eng, _, C = gauss_table
    rng = np.random.default_rng(9)
    th = _at_norm(rng, C, 1.0)
    _fd_check(eng, GlmParams(theta=th, theta0=0.2), atol=5e-4)


def test_elliptic_gaussian_family_offset_shift():
    # mean-zero q: E[(th0+q)^2]/2 = th0^2/2 + E[q^2]/2
    rng = np.random.default_rng(10)
    C = _spd(rng, 3)
    dens = radial_from_h(lambda t: np.exp(-0.5 * t), 3)
    eng = build_elliptic_table(Gaussian(), C, radial_density=dens, r_max=4.0)
    th = _at_norm(rng, C, 0.9)
    base = eng.expected_g(GlmParams(theta=th, theta0=0.0))
    shifted = eng.expected_g(GlmParams(theta=th, theta0=1.1))
    assert shifted.value == pytest.approx(base.value + 0.5 * 1.1**2, rel=1e-12)
    # and the table itself matches E[q^2]/2 = theta' C theta / 2
    assert base.value == pytest.approx(0.5 * th @ C.matvec(th), rel=1e-5)


def test_elliptic_bernoulli_rejects_offset():
    rng = np.random.default_rng(11)
    C = _spd(rng, 3)
    dens = radial_from_h(lambda t: np.exp(-0.5 * t), 3)
    eng = build_elliptic_table(Bernoulli(), C, radial_density=dens, r_max=3.0)
    th = _at_norm(rng, C, 0.5)
    with pytest.raises(ValueError, match="offsets"):
        eng.expected_g(GlmParams(theta=th, theta0=0.1))
    # offset-free evaluation works and matches a 1-D Gaussian integral
    ev = eng.expected_g(GlmParams(theta=th))
    t = np.sqrt(th @ C.matvec(th))
    want, _ = scipy.integrate.quad(
        lambda q: np.log1p(np.exp(t * q)) * scipy.stats.norm.pdf(q), -12, 12
    )
    assert ev.value == pytest.approx(want, rel=1e-5)


def test_elliptic_table_from_samples():
    rng = np.random.default_rng(12)
    C = _spd(rng, P_ELL)
    R = scipy.stats.chi(df=P_ELL).rvs(size=200_000, random_state=13)
    eng = build_elliptic_table(Poisson(dt=1.0), C, radial_samples=R, r_max=4.0)
    oracle = AnalyticExponential(C)
    for scale in (0.3, 1.0):
        th = _at_norm(rng, C, scale)
        pr = GlmParams(theta=th, theta0=0.0)
        assert eng.expected_g(pr).value == pytest.approx(
            oracle.expected_g(pr).value, rel=5e-3
        )


def test_build_table_argument_errors():
    C = ScaledIdentity(3, 1.0)
    dens = radial_from_h(lambda t: np.exp(-0.5 * t), 3)
    with pytest.raises(ValueError, match="exactly one"):
        build_elliptic_table(Poisson(dt=1.0), C)
    with pytest.raises(ValueError, match="exactly one"):
        build_elliptic_table(Poisson(dt=1.0), C, radial_density=dens, radial_samples=np.ones(10))
    with pytest.raises(ValueError, match="r_max"):
        build_elliptic_table(Poisson(dt=1.0), C, radial_density=dens, r_max=0.0)
    with pytest.raises(ValueError, match="positive"):
        build_elliptic_table(Poisson(dt=1.0), C, radial_density=dens, grid=np.array([-1.0, 1.0]))


# --- GaussianCLT -----------------------------------------------------------

def test_clt_matches_analytic_exponential():
    # q is exactly Gaussian here, so Gauss-Hermite is essentially exact
    rng = np.random.default_rng(14)
    C = _spd(rng, 4)
    clt = GaussianCLT(Poisson(dt=1.0), C)
    oracle = AnalyticExponential(C)
    th = _at_norm(rng, C, 1.3)
    pr = GlmParams(theta=th, theta0=-0.2)
    a, b = clt.expected_g(pr), oracle.expected_g(pr)
    assert a.value == pytest.approx(b.value, rel=1e-12)
    assert np.allclose(a.grad, b.grad, rtol=1e-10, atol=1e-12)
    w = rng.standard_normal(5)
    assert np.allclose(a.hess_action(w), b.hess_action(w), rtol=1e-9, atol=1e-10)


def test_clt_bernoulli_nonzero_mean_vs_quad():
    rng = np.random.default_rng(15)
    p = 3
    C = _spd(rng, p)
    mu = np.array([0.4, -0.1, 0.2])
    clt = GaussianCLT(Bernoulli(), C, mu=mu)
    th = rng.standard_normal(p)
    pr = GlmParams(theta=th, theta0=0.3)
    mean = 0.3 + mu @ th
    sd = np.sqrt(th @ C.matvec(th))
    want, _ = scipy.integrate.quad(
        lambda z: np.log1p(np.exp(mean + sd * z)) * scipy.stats.norm.pdf(z), -12, 12
    )
    # Gauss-Hermite at m=50 on log1p(exp(.)) lands around 3e-9 relative
    assert clt.expected_g(pr).value == pytest.approx(want, rel=1e-7)
    _fd_check(clt, pr)


def test_clt_degenerate_sigma():
    C = ScaledIdentity(2, 1.0)
    mu = np.array([0.5, 0.0])
    clt = GaussianCLT(Poisson(dt=1.0), C, mu=mu)
    ev = clt.expected_g(GlmParams(theta=np.zeros(2), theta0=0.7))
    assert ev.value == pytest.approx(np.exp(0.7), rel=1e-14)
    # grad wrt theta0 is G'(mean); wrt theta is G'(mean)*mu at theta=0
    assert ev.grad[0] == pytest.approx(np.exp(0.7), rel=1e-14)
    assert np.allclose(ev.grad[1:], np.exp(0.7) * mu)


def test_clt_rejects_bad_args():
    C = ScaledIdentity(3, 1.0)
    with pytest.raises(ValueError, match="m"):
        GaussianCLT(Poisson(dt=1.0), C, m=1)
    with pytest.raises(ValueError, match="mu"):
        GaussianCLT(Poisson(dt=1.0), C, mu=np.ones(2))


def test_build_clt_engine_from_samples():
    rng = np.random.default_rng(16)
    n, p = 50_000, 3
    mu_true = np.array([0.3, -0.2, 0.1])
    L = np.linalg.cholesky(np.array([[1.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.0]]))
    samples = mu_true + rng.standard_normal((n, p)) @ L.T
    eng = build_clt_engine(Poisson(dt=1.0), samples=samples)
    assert np.allclose(eng.mu, mu_true, atol=0.02)
    assert np.allclose(eng.C.to_dense(), L @ L.T, atol=0.03)
    with pytest.raises(ValueError, match="provide C"):
        build_clt_engine(Poisson(dt=1.0))
    with pytest.raises(ValueError, match="\\(n, p\\)"):
        build_clt_engine(Poisson(dt=1.0), samples=np.ones(5))


# --- ELObjective and config round trips ------------------------------------

@pytest.mark.parametrize("fit_offset", [False, True])
def test_el_objective_fd(fit_offset):
    rng = np.random.default_rng(17)
    N, p = 30, 3
    X = rng.standard_normal((N, p))
    r = rng.poisson(0.8, size=N).astype(float)
    data = GlmDataset(X=X, r=r, family=Poisson(dt=0.7))
    engine = AnalyticExponential(_spd(rng, p))
    for R in (None, Diagonal(np.array([0.5, 1.5, 4.0]))):
        obj = ELObjective(engine, data, fit_offset=fit_offset, theta0=-0.1, R=R)
        x = 0.2 * rng.standard_normal(obj.dim)
        val, grad = obj.value_grad(x)
        assert val == pytest.approx(obj.value(x), rel=1e-14)
        if R is not None:
            th = x[1:] if fit_offset else x
            flat = ELObjective(engine, data, fit_offset=fit_offset, theta0=-0.1)
            want = flat.value(x) - 0.5 * float(th @ R.matvec(th))
            assert val == pytest.approx(want, rel=1e-14)
        h = 1e-6
        for j in range(obj.dim):
            e = np.zeros(obj.dim)
            e[j] = h
            fd = (obj.value(x + e) - obj.value(x - e)) / (2 * h)
            assert grad[j] == pytest.approx(fd, abs=1e-4, rel=1e-5)
        H = obj.hess_dense(x)
        assert H.shape == (obj.dim, obj.dim)
        w = rng.standard_normal(obj.dim)
        assert np.allclose(H @ w, obj.hess_action(x)(w), rtol=1e-12)
        g_up, g_dn = obj.value_grad(x + h * w)[1], obj.value_grad(x - h * w)[1]
        assert np.allclose(H @ w, (g_up - g_dn) / (2 * h), atol=1e-4, rtol=1e-4)


def test_engine_config_round_trips():
    rng = np.random.default_rng(18)
    C = _spd(rng, 3)
    th = _at_norm(rng, C, 0.8)
    pr = GlmParams(theta=th, theta0=0.0)

    engines = [
        AnalyticQuadratic(C),
        AnalyticExponential(C),
        build_elliptic_table(
            Poisson(dt=0.5), C,
            radial_density=radial_from_h(lambda t: np.exp(-0.5 * t), 3),
            r_max=3.0, n_knots=60,
        ),
        GaussianCLT(Bernoulli(), C, mu=np.array([0.1, 0.0, -0.2]), m=21),
    ]
    for eng in engines:
        back = engine_from_config(eng.to_config())
        assert type(back) is type(eng)
        assert back.expected_g(pr).value == pytest.approx(eng.expected_g(pr).value, rel=1e-12)

    with pytest.raises(ValueError, match="unknown engine"):
        engine_from_config({"kind": "nope"})
