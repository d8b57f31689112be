"""HMC correctness on tractable targets, surrogate acceptance, chain IO."""

import numpy as np
import pytest
import scipy.stats

from elglm.el import AnalyticExponential, AnalyticQuadratic, ELObjective
from elglm.estimators import mele
from elglm.families import Gaussian, Poisson
from elglm.glm import ExactObjective, GlmDataset, GlmParams, simulate_responses
from elglm.sampling import (
    Chain,
    chain_summary,
    hmc_chain,
    laplace_gaussian_chain,
    lnp_el_profile_gaussian,
    load_chain,
    make_potential,
    save_chain,
    surrogate_hmc_chain,
    write_summary_csv,
)
from elglm.structured import Dense, ScaledIdentity


def _quad_potential(prec, mean):
    prec = np.asarray(prec, dtype=float)
    mean = np.asarray(mean, dtype=float)

    def u(x):
        d = x - mean
        g = prec @ d
        return 0.5 * float(d @ g), g

    return u


def test_leapfrog_reversible():
    # integrate forward, flip the momentum, integrate back: exact return
    from elglm.sampling import _leapfrog

    prec = np.array([[2.0, 0.3], [0.3, 1.0]])
    u = _quad_potential(prec, np.zeros(2))
    grad = lambda x: u(x)[1]
    rng = np.random.default_rng(0)
    x0, r0 = rng.standard_normal(2), rng.standard_normal(2)
    x1, r1, _ = _leapfrog(grad, x0, r0, 0.1, 25, grad(x0))
    x2, r2, _ = _leapfrog(grad, x1, -r1, 0.1, 25, grad(x1))
    assert np.allclose(x2, x0, atol=1e-12)
    assert np.allclose(-r2, r0, atol=1e-12)


def test_hmc_recovers_gaussian_target():
    prec = np.array([[2.0, 0.6], [0.6, 1.5]])
    mean = np.array([0.7, -0.3])
    cov = np.linalg.inv(prec)
    chain = hmc_chain(
        _quad_potential(prec, mean), np.zeros(2), step=0.35, n_leapfrog=12,
        draws=4000, seed=3,
    )
    assert chain.acceptance_rate > 0.9
    assert chain.samples.shape == (4000, 2)
    assert np.allclose(chain.samples.mean(axis=0), mean, atol=0.08)
    assert np.allclose(np.cov(chain.samples.T), cov, atol=0.12)
    # KS on a thinned standardized marginal
    z = (chain.samples[::10, 0] - mean[0]) / np.sqrt(cov[0, 0])
    D, _ = scipy.stats.kstest(z, "norm")
    assert D < 0.1


def test_hmc_deterministic_by_seed():
    u = _quad_potential(np.eye(2), np.zeros(2))
    a = hmc_chain(u, np.zeros(2), step=0.3, n_leapfrog=5, draws=50, seed=11)
    b = hmc_chain(u, np.zeros(2), step=0.3, n_leapfrog=5, draws=50, seed=11)
    c = hmc_chain(u, np.zeros(2), step=0.3, n_leapfrog=5, draws=50, seed=12)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_hmc_burn_in_default_and_override():
    u = _quad_potential(np.eye(1), np.zeros(1))
    chain = hmc_chain(u, np.zeros(1), draws=200, seed=0)
    assert chain.burn_in == 20
    assert chain.samples.shape[0] == 200
    chain2 = hmc_chain(u, np.zeros(1), draws=30, burn_in=5, seed=0)
    assert chain2.burn_in == 5


def test_hmc_nonfinite_init_raises():
    def bad(x):
        return np.inf, np.zeros_like(x)

    with pytest.raises(FloatingPointError, match="non-finite"):
        hmc_chain(bad, np.zeros(2), draws=5)


def test_energies_track_current_point():
    prec = np.eye(2) * 1.5
    u = _quad_potential(prec, np.zeros(2))
    chain = hmc_chain(u, np.zeros(2), step=0.4, n_leapfrog=8, draws=100, seed=5)
    want = np.array([u(x)[0] for x in chain.samples])
    assert np.allclose(chain.energies, want, atol=1e-12)


def test_surrogate_targets_exact_not_el():
    # dynamics run under a mis-scaled precision; the Metropolis test uses the
    # exact one, so the retained samples must match the exact target
    prec_exact = np.array([[1.0]])
    prec_el = np.array([[1.8]])
    u_el = _quad_potential(prec_el, np.zeros(1))
    u_ex = _quad_potential(prec_exact, np.zeros(1))
    chain = surrogate_hmc_chain(
        u_el, lambda x: u_ex(x)[0], np.zeros(1), step=0.5, n_leapfrog=10,
        draws=6000, seed=7,
    )
    var = chain.samples.var()
    assert abs(var - 1.0) < 0.12          # exact variance, not 1/1.8
    assert abs(var - 1 / 1.8) > 0.25
    assert 0.3 < chain.acceptance_rate < 0.98  # mismatch costs acceptance
    assert chain.target == "surrogate"


def test_surrogate_accepts_value_grad_callable():
    u = _quad_potential(np.eye(1) * 2.0, np.zeros(1))
    a = surrogate_hmc_chain(u, lambda x: u(x)[0], np.zeros(1), draws=40, seed=1)
    b = surrogate_hmc_chain(u, u, np.zeros(1), draws=40, seed=1)
    assert np.array_equal(a.samples, b.samples)


def test_surrogate_equals_hmc_when_potentials_match():
    u = _quad_potential(np.array([[1.2, 0.2], [0.2, 0.9]]), np.ones(2))
    a = hmc_chain(u, np.zeros(2), step=0.3, n_leapfrog=6, draws=80, seed=9)
    b = surrogate_hmc_chain(u, lambda x: u(x)[0], np.zeros(2), step=0.3,
                            n_leapfrog=6, draws=80, seed=9)
    assert np.array_equal(a.samples, b.samples)
    assert a.acceptance_rate == b.acceptance_rate


def test_laplace_gaussian_chain_moments():
    rng = np.random.default_rng(10)
    A = rng.standard_normal((3, 3))
    H = A @ A.T + 2.0 * np.eye(3)
    mean = np.array([1.0, -2.0, 0.5])
    chain = laplace_gaussian_chain(mean, H, draws=40_000, seed=4)
    assert chain.acceptance_rate == 1.0
    assert chain.target == "laplace-gaussian"
    assert np.allclose(chain.samples.mean(axis=0), mean, atol=0.02)
    assert np.allclose(np.cov(chain.samples.T), np.linalg.inv(H), atol=0.02)
    dev = chain.samples - mean
    want = 0.5 * np.einsum("ij,ij->i", dev @ H, dev)
    assert np.allclose(chain.energies, want)
    # structured precision accepted too
    c2 = laplace_gaussian_chain(mean, Dense(H), draws=10, seed=4)
    assert np.array_equal(c2.samples, chain.samples[:10])


def test_chain_validation():
    with pytest.raises(ValueError, match="acceptance"):
        Chain(samples=np.zeros((2, 1)), acceptance_rate=1.5, energies=np.zeros(2),
              seed=0, target="x")
    with pytest.raises(ValueError, match="draws, dim"):
        Chain(samples=np.zeros(3), acceptance_rate=0.5, energies=np.zeros(3),
              seed=0, target="x")


def test_chain_summary_quantiles():
    samples = np.column_stack([np.arange(101.0), -np.arange(101.0)])
    chain = Chain(samples=samples, acceptance_rate=0.8, energies=np.zeros(101),
                  seed=0, target="exact")
    summ = chain_summary(chain)
    assert summ["median"][0] == pytest.approx(50.0)
    assert summ["lo"][0] == pytest.approx(2.5)
    assert summ["hi"][0] == pytest.approx(97.5)
    assert summ["acceptance_rate"] == 0.8
    only1 = chain_summary(chain, coordinates=[1])
    assert only1["median"][0] == pytest.approx(-50.0)
    empty = Chain(samples=np.zeros((0, 2)), acceptance_rate=0.0,
                  energies=np.zeros(0), seed=0, target="exact")
    with pytest.raises(ValueError, match="empty"):
        chain_summary(empty)


def test_make_potential_prior_and_flat_offset():
    rng = np.random.default_rng(11)
    N, p = 60, 3
    X = rng.standard_normal((N, p))
    r = rng.poisson(0.6, size=N).astype(float)
    data = GlmDataset(X=X, r=r, family=Poisson(dt=1.0))
    C = Dense(X.T @ X / N)
    obj = ELObjective(AnalyticExponential(C), data, fit_offset=True)
    R = ScaledIdentity(p, 2.5)
    u_flat = make_potential(obj)
    u_pri = make_potential(ELObjective(AnalyticExponential(C), data, fit_offset=True, R=R))
    x = 0.1 * rng.standard_normal(p + 1)
    v0, g0 = u_flat(x)
    v1, g1 = u_pri(x)
    th = x[1:]
    assert v1 - v0 == pytest.approx(0.5 * 2.5 * float(th @ th), rel=1e-12)
    assert g1[0] == pytest.approx(g0[0])  # offset coordinate stays flat
    assert np.allclose(g1[1:] - g0[1:], 2.5 * th)
    # sign: potential is the negative log posterior
    assert v0 == pytest.approx(-obj.value(x), rel=1e-12)


def test_partial_pass_potentials_give_byte_identical_chains():
    """Chains driven through make_potential's .grad/.value passes equal, byte
    for byte, the chains driven by plain (value, gradient) callables."""
    rng = np.random.default_rng(15)
    N, p = 300, 4
    X = rng.standard_normal((N, p))
    r = rng.poisson(np.exp(0.3 * X[:, 0] - 0.7)).astype(float)
    data = GlmDataset(X=X, r=r, family=Poisson())
    R = ScaledIdentity(p, 1.0)
    exact = ExactObjective(data, fit_offset=True, R=R)
    el = ELObjective(AnalyticExponential(ScaledIdentity(p, 1.0)), data, fit_offset=True, R=R)

    def plain(obj):
        def f(x):
            v, g = obj.value_grad(x)
            return -v, -g
        return f

    x0 = np.concatenate(([-0.7], np.zeros(p)))
    kw = dict(step=0.02, n_leapfrog=8, draws=40, seed=3)
    u_exact, u_el = make_potential(exact), make_potential(el)
    assert hasattr(u_exact, "grad") and hasattr(u_exact, "value")
    pairs = [
        (hmc_chain(u_exact, x0, **kw), hmc_chain(plain(exact), x0, **kw)),
        (surrogate_hmc_chain(u_el, u_exact, x0, **kw),
         surrogate_hmc_chain(plain(el), plain(exact), x0, **kw)),
    ]
    for ours, want in pairs:
        assert ours.samples.tobytes() == want.samples.tobytes()
        assert ours.energies.tobytes() == want.energies.tobytes()
        assert ours.acceptance_rate == want.acceptance_rate > 0.0


def test_force_drives_the_leapfrog_and_the_potential_scores_it():
    """A chain given a force moves with it: with the potential's own gradient
    as the force the chain is unchanged, and a mis-scaled force still leaves
    the Metropolis test, and so the target, with the potential."""
    prec = np.array([[1.2, 0.2], [0.2, 0.9]])
    u = _quad_potential(prec, np.ones(2))
    kw = dict(step=0.3, n_leapfrog=6, draws=80, seed=9)
    a = hmc_chain(u, np.zeros(2), **kw)
    b = hmc_chain(u, np.zeros(2), force=lambda x: u(x)[1], **kw)
    assert a.samples.tobytes() == b.samples.tobytes()
    u_off = _quad_potential(1.8 * prec, np.ones(2))
    c = hmc_chain(u, np.zeros(2), force=lambda x: u_off(x)[1], **kw)
    d = surrogate_hmc_chain(u_off, u, np.zeros(2), **kw)
    assert c.samples.tobytes() == d.samples.tobytes()
    assert c.target == "exact" and d.target == "surrogate"
    assert np.allclose(c.energies, [u(x)[0] for x in c.samples], atol=1e-12)


def _criterion_08_data():
    """The N=4000, p=100 LNP problem of acceptance criterion 08."""
    N, p = 4000, 100
    rng = np.random.default_rng(1234)
    theta = rng.standard_normal(p)
    theta /= np.linalg.norm(theta)
    X = rng.standard_normal((N, p))
    params = GlmParams(theta0=float(np.log(0.5) - 0.5), theta=theta)
    data = GlmDataset(X, simulate_responses(Poisson(), X, params, 77), Poisson())
    init = mele(data, ScaledIdentity(p, 1.0)).params
    return data, np.concatenate(([init.theta0], init.theta))


def test_single_precision_force_keeps_the_exact_chain():
    """Exactness oracle on criterion 08's data: the chain whose leapfrog runs
    on ExactObjective.grad32 accepts within 0.03 of the float64 chain, its
    95% intervals overlap the float64 chain's on >= 90% of coordinates, its
    energies are the float64 potential at the retained draws, and a rerun
    is byte-identical."""
    data, x0 = _criterion_08_data()
    obj = ExactObjective(data, fit_offset=True)
    u = make_potential(obj)
    force = lambda x: -obj.grad32(x)
    args = (x0, 0.010, 30, 600, 100, 5, "exact")
    ch64 = hmc_chain(u, *args)
    ch32 = hmc_chain(u, *args, force=force)
    assert ch32.acceptance_rate > 0.5
    assert abs(ch32.acceptance_rate - ch64.acceptance_rate) <= 0.03
    q64 = np.percentile(ch64.samples, [2.5, 97.5], axis=0)
    q32 = np.percentile(ch32.samples, [2.5, 97.5], axis=0)
    overlap = np.maximum(q64[0], q32[0]) < np.minimum(q64[1], q32[1])
    assert overlap.mean() >= 0.90, overlap.mean()
    picks = np.arange(0, 600, 50)
    want = np.array([-obj.value(ch32.samples[k]) for k in picks])
    np.testing.assert_array_equal(ch32.energies[picks], want)
    once, twice = (hmc_chain(u, x0, 0.010, 30, 60, 10, 5, "exact", force) for _ in range(2))
    assert once.samples.tobytes() == twice.samples.tobytes()
    assert once.energies.tobytes() == twice.energies.tobytes()


def test_el_gaussian_flat_posterior_covariance():
    # Gaussian-family EL with flat prior: theta ~ N(mele, sigma2 (N C)^{-1})
    rng = np.random.default_rng(12)
    N, p = 200, 2
    sigma2 = 1.5
    X = rng.standard_normal((N, p))
    r = rng.standard_normal(N)
    data = GlmDataset(X=X, r=r, family=Gaussian(sigma2=sigma2))
    C = Dense(np.array([[1.0, 0.3], [0.3, 1.0]]))
    obj = ELObjective(AnalyticQuadratic(C), data)
    chain = hmc_chain(make_potential(obj), np.zeros(p), step=0.02, n_leapfrog=20,
                      draws=4000, seed=13)
    want_cov = sigma2 * np.linalg.inv(C.to_dense()) / N
    want_mean = np.linalg.solve(N * C.to_dense(), data.s)
    assert chain.acceptance_rate > 0.8
    sd = np.sqrt(np.diag(want_cov))
    assert np.allclose(chain.samples.mean(axis=0), want_mean, atol=4 * sd.max() / 10)
    assert np.allclose(np.cov(chain.samples.T), want_cov, rtol=0.2, atol=0.2 * want_cov.max())


def test_lnp_el_profile_gaussian():
    rng = np.random.default_rng(14)
    N, p = 500, 3
    X = rng.standard_normal((N, p))
    r = rng.poisson(0.5, size=N).astype(float)
    data = GlmDataset(X=X, r=r, family=Poisson(dt=1.0))
    C = ScaledIdentity(p, 1.0)
    mean, prec, sd = lnp_el_profile_gaussian(data, C)
    assert np.allclose(mean, data.s / data.N_s)
    assert np.allclose(prec.to_dense(), data.N_s * np.eye(p))
    assert np.allclose(sd, 1.0 / np.sqrt(data.N_s))
    gdata = GlmDataset(X=X, r=r, family=Gaussian())
    with pytest.raises(ValueError, match="Poisson"):
        lnp_el_profile_gaussian(gdata, C)


def test_chain_save_load_round_trip(tmp_path):
    u = _quad_potential(np.eye(2), np.zeros(2))
    chain = hmc_chain(u, np.zeros(2), step=0.3, n_leapfrog=5, draws=25, seed=2)
    stem = tmp_path / "chain"
    save_chain(stem, chain)
    back = load_chain(stem)
    assert np.array_equal(back.samples, chain.samples)
    assert np.array_equal(back.energies, chain.energies)
    assert back.acceptance_rate == chain.acceptance_rate
    assert back.seed == chain.seed and back.target == chain.target
    assert back.step == chain.step and back.n_leapfrog == chain.n_leapfrog


def test_write_summary_csv(tmp_path):
    chain = Chain(samples=np.arange(20.0).reshape(10, 2), acceptance_rate=0.9,
                  energies=np.zeros(10), seed=0, target="exact")
    path = tmp_path / "summary.csv"
    write_summary_csv(path, chain_summary(chain))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "coordinate,median,q025,q975"
    assert len(lines) == 3
    assert lines[1].startswith("0,")
