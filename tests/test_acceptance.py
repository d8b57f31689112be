"""Acceptance suite: one test per criterion, run with -v for one line each.

Each test states its protocol inline and asserts the advertised tolerance.
Thresholds marked as measured were calibrated once on the frozen seeds and
hold with at least 2x headroom.
"""

import itertools
import json
import time

import numpy as np
import pytest
import scipy.optimize
from scipy.stats import rankdata

from elglm.cli import run_experiment
from elglm.el import AnalyticExponential, AnalyticQuadratic, ELObjective, el_loglik
from elglm.estimators import (
    fit_exact,
    fit_exact_l1,
    mele,
    mpele_l1_general,
    mpele_l1_path_diagonal,
)
from elglm.families import Gaussian, Poisson
from elglm.glm import ExactObjective, GlmDataset, GlmParams, exact_loglik, simulate_responses
from elglm.population import (
    CoupledFilterSet,
    HistoryBasis,
    bits_per_second,
    build_population_design,
    filterset_params,
    stagewise_population_fit,
)
from elglm.risk import RiskSpec, crossover_rho, mc_mse, mse_asymptotic, mse_closed_form
from elglm.sampling import hmc_chain, lnp_el_profile_gaussian, make_potential, surrogate_hmc_chain
from elglm.selection import el_logF_scalar, rhat_analytic
from elglm.simulate import StimulusSpec, ar1_covariance, gen_coupled_population, gen_stimuli
from elglm.structured import Dense, Diagonal, ScaledIdentity


def unit_theta(p, seed, norm=1.0):
    theta = np.random.default_rng(seed).standard_normal(p)
    return theta * (norm / np.linalg.norm(theta))


def test_criterion_01_mc_matches_closed_form_risk():
    """mc_mse (2000 trials, N=1000, p=50) agrees with mse_closed_form for the
    MELE and the MLE within 3 standard errors at SNR in {0.2, 1, 5}."""
    N, p, trials = 1000, 50, 2000
    for k, snr in enumerate((0.2, 1.0, 5.0)):
        theta = unit_theta(p, 100 + k, norm=np.sqrt(snr))
        for kind in ("mele", "mle"):
            closed = mse_closed_form(RiskSpec(kind=kind, N=N, p=p, theta_norm2=snr))
            mc, se = mc_mse(kind, N, p, theta, trials, seed=200 + k)
            assert abs(mc - closed) <= 3.0 * se, (kind, snr, mc, closed, se)


def test_criterion_02_finite_sample_risk_near_its_limit():
    """The finite-sample MELE risk at N=100 sits within 1% of the high
    dimensional limit for rho in {0.1, 0.5, 0.9} (SNR 0.1: the relative gap is
    snr / (p (1 + snr)), so the low-SNR regime is where the 1% claim holds)."""
    N, snr = 100, 0.1
    for rho in (0.1, 0.5, 0.9):
        p = int(round(rho * N))
        finite = mse_closed_form(RiskSpec(kind="mele", N=N, p=p, theta_norm2=snr))
        limit = mse_asymptotic("mele", rho, snr)
        assert abs(finite - limit) / limit <= 0.01, (rho, finite, limit)


def test_criterion_03_mse_crossover_location():
    """Monte Carlo MSE curves at N=2000 put the MELE/MLE crossing inside
    crossover_rho(snr) +- 0.05: the ordering flips between the two endpoints
    with a 3-standard-error separation on each side."""
    N = 2000
    for k, (snr, trials) in enumerate({0.2: 250, 1.0: 60, 5.0: 20}.items()):
        rho_star = crossover_rho(snr)
        for side, rho in (("lo", rho_star - 0.05), ("hi", rho_star + 0.05)):
            p = int(round(rho * N))
            theta = unit_theta(p, 300 + 10 * k + (side == "hi"), norm=np.sqrt(snr))
            seed = 400 + 10 * k + (side == "hi")
            mele, se_mele = mc_mse("mele", N, p, theta, trials, seed)
            mle, se_mle = mc_mse("mle", N, p, theta, trials, seed)
            margin = 3.0 * (se_mele + se_mle)
            if side == "lo":
                assert mele - mle > margin, (snr, rho, mele, mle, margin)
            else:
                assert mle - mele > margin, (snr, rho, mele, mle, margin)


def _random_spd(rng, p):
    Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    return Dense((Q * rng.uniform(0.5, 2.0, p)) @ Q.T)


def _numeric_el_max(obj, R, dim, theta_slice):
    """Independent maximizer of the penalized EL via trust-region Newton."""
    Rd = R.to_dense() if R is not None else None

    def value(x):
        v, _ = obj.value_grad(x)
        if Rd is not None:
            th = x[theta_slice]
            v -= 0.5 * th @ Rd @ th
        return -v

    def grad(x):
        _, g = obj.value_grad(x)
        g = -g
        if Rd is not None:
            g[theta_slice] += Rd @ x[theta_slice]
        return g

    def hess(x):
        H = -obj.hess_dense(x)
        if Rd is not None:
            H[np.ix_(theta_slice, theta_slice)] += Rd
        return H

    res = scipy.optimize.minimize(
        value, np.zeros(dim), jac=grad, hess=hess, method="trust-exact",
        options={"gtol": 1e-12, "maxiter": 400},
    )
    x = res.x
    for _ in range(5):  # Newton polish; trust-exact can stop on a flat step
        g = grad(x)
        if np.max(np.abs(g)) < 1e-11:
            break
        x = x - np.linalg.solve(hess(x), g)
    assert np.max(np.abs(grad(x))) < 1e-9
    return x


def test_criterion_04_closed_forms_match_numeric_el_maximization():
    """mele agrees with a numeric maximizer of the (penalized) EL, on Gaussian
    and on Poisson data, to 1e-7 in the infinity norm on 100 random instances."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for k in range(50):
        p = int(rng.integers(2, 51))
        N = int(rng.integers(100, 400))
        C = _random_spd(rng, p)
        X = rng.standard_normal((N, p))
        R = None if k % 3 == 0 else ScaledIdentity(p, float(rng.uniform(0.1, 10)))

        r = X @ rng.standard_normal(p) * 0.3 + rng.standard_normal(N)
        data = GlmDataset(X, r, Gaussian())
        x_num = _numeric_el_max(ELObjective(AnalyticQuadratic(C), data), R, p, np.arange(p))
        worst = max(worst, np.max(np.abs(x_num - mele(data, C, R=R).params.theta)))

        data2 = GlmDataset(X, rng.poisson(0.6, N), Poisson())
        obj = ELObjective(AnalyticExponential(C), data2, fit_offset=True)
        x_num2 = _numeric_el_max(obj, R, p + 1, np.arange(1, p + 1))
        fit = mele(data2, C, R=R)
        joint = np.concatenate(([fit.params.theta0], fit.params.theta))
        worst = max(worst, np.max(np.abs(x_num2 - joint)))
    assert worst <= 1e-7, worst


def _l1_oracle(A, s, lam):
    """Unique maximizer of s'th - th'A th/2 - lam ||th||_1 by enumerating all
    3^p sign patterns and keeping the KKT-consistent one."""
    p = s.size
    best = None
    for signs in itertools.product((-1.0, 0.0, 1.0), repeat=p):
        sg = np.array(signs)
        S = sg != 0.0
        theta = np.zeros(p)
        if S.any():
            theta[S] = np.linalg.solve(A[np.ix_(S, S)], s[S] - lam * sg[S])
            if np.any(np.sign(theta[S]) != sg[S]):
                continue
        g = s - A @ theta
        if np.all(np.abs(g[~S]) <= lam * (1 + 1e-12)):
            assert best is None or np.allclose(best, theta, atol=1e-10)
            best = theta
    assert best is not None
    return best


def test_criterion_05_l1_subgradient_conditions_and_brute_force():
    """Diagonal-C paths satisfy the soft-threshold subgradient conditions to
    float roundoff; the general-C coordinate descent matches a sign-support
    brute force at p=8 to 1e-8."""
    rng = np.random.default_rng(7)
    # diagonal path
    p, N = 30, 500
    X = rng.standard_normal((N, p))
    data = GlmDataset(X, rng.poisson(0.7, N), Poisson())
    C = Diagonal(rng.uniform(0.3, 2.0, p))
    n = float(data.N_s)
    s = data.s
    lam_path = np.geomspace(0.99 * np.max(np.abs(s)), 0.02 * np.max(np.abs(s)), 10)
    c = np.diag(C.to_dense())
    for lam, fit in zip(lam_path, mpele_l1_path_diagonal(data, C, lam_path)):
        theta = fit.params.theta
        active = theta != 0.0
        resid = s - n * c * theta
        tol = 1e-9 * np.maximum(1.0, np.abs(s))
        assert np.all(np.abs(resid[active] - lam * np.sign(theta[active])) <= tol[active])
        assert np.all(np.abs(s[~active]) <= lam * (1 + 1e-12))
    # general C at p = 8
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        p, N = 8, 400
        C = _random_spd(rng, p)
        X = rng.standard_normal((N, p))
        data = GlmDataset(X, rng.poisson(0.8, N), Poisson())
        n = float(data.N_s)
        lam = 0.25 * np.max(np.abs(data.s))
        got = mpele_l1_general(data, C, float(lam)).params.theta
        want = _l1_oracle(n * C.to_dense(), data.s, lam)
        assert np.max(np.abs(got - want)) <= 1e-8


def test_criterion_06_rhat_argmax_and_one_step_refinement(tmp_path):
    """rhat_analytic lands on the grid-search argmax of the scalar evidence on
    50 random (p, N_s, q) instances including the infinite regime; on the
    30-replicate p=250 protocol a single fixed-point step shrinks the median
    |log(beta / beta_exact)| below the raw EL value."""
    rng = np.random.default_rng(11)
    n_inf = 0
    for k in range(50):
        p = int(rng.integers(1, 301))
        N_s = float(rng.uniform(50, 5000))
        if k % 10 < 3:  # infinite-ridge regime: p >= q / N_s
            q = p * N_s * float(rng.uniform(0.0, 1.0))
            assert rhat_analytic(q, N_s, p) == np.inf
            grid = np.geomspace(1e-2 * N_s, 1e7 * N_s, 2001)
            F = el_logF_scalar(grid, q, N_s, p)
            assert np.argmax(F) == grid.size - 1
            assert np.all(np.diff(F) > 0)
            n_inf += 1
        else:
            q = p * N_s * (1.0 + float(rng.uniform(0.05, 10.0)))
            beta = rhat_analytic(q, N_s, p)
            grid = np.geomspace(beta / 30, beta * 30, 4001)
            F = el_logF_scalar(grid, q, N_s, p)
            nearest = int(np.argmin(np.abs(np.log(grid) - np.log(beta))))
            assert abs(int(np.argmax(F)) - nearest) <= 1
    assert n_inf == 15

    outdir = run_experiment("select", {"seed": 40, "mode": "ridge_recovery", "replicates": 30},
                            out_root=str(tmp_path))
    summary = json.loads((outdir / "summary.json").read_text())
    assert len(summary["replicates"]) == 30
    for row in summary["replicates"]:
        assert row["fp_converged"]
        assert np.isfinite(row["beta_el"]) and np.isfinite(row["beta_exact"])
    assert summary["median_abs_log_ratio_onestep"] < summary["median_abs_log_ratio_el"]


def _lnp_sim(spec, theta, rate, seed_x, seed_r):
    X, C = gen_stimuli(spec, seed_x)
    theta0 = float(np.log(rate) - 0.5 * theta @ C.matvec(theta))
    r = simulate_responses(Poisson(), X, GlmParams(theta0=theta0, theta=theta), seed_r)
    return GlmDataset(X, r, Poisson()), C


def _criterion_07_sets():
    """(kind, train, held, C) for criterion 07's p=250, N=12000 LNP data with
    white-noise and AR(1) stimuli."""
    p, N, N_held = 250, 12000, 6000
    for kind, C_in in (("gaussian_iid", None), ("gaussian_structured", ar1_covariance(p, 0.7))):
        theta = unit_theta(p, 50 + (C_in is not None))
        spec = StimulusSpec(kind=kind, N=N, p=p, C=C_in)
        train, C = _lnp_sim(spec, theta, 1.0, 51, 52)
        held, _ = _lnp_sim(StimulusSpec(kind=kind, N=N_held, p=p, C=C_in), theta, 1.0, 53, 54)
        yield kind, train, held, C


def test_criterion_07_pcg_refinement_reaches_map_quality():
    """On p=250, N=12000 LNP data (white-noise and AR(1) stimuli), 3
    truncated-Newton steps from the MPELE, each solved by EL-preconditioned
    CG, bring the held-out log-likelihood within 1% of the fully converged
    ridge MAP."""
    for kind, train, held, C in _criterion_07_sets():
        R = ScaledIdentity(train.p, 1.0)
        map_fit = fit_exact(train, R=R, fit_offset=True)
        assert map_fit.converged
        init = mele(train, C, R=R)
        refined = fit_exact(train, R=R, init=init.params, C=C, max_iter=3, fit_offset=True)

        L_map = exact_loglik(held, map_fit.params).value
        L_pcg = exact_loglik(held, refined.params).value
        assert np.isfinite(L_pcg)
        assert abs(L_pcg - L_map) <= 0.01 * abs(L_map), (kind, L_pcg, L_map)


def test_criterion_07_refinement_passes_are_counted(monkeypatch):
    """The count behind criterion 07: a 3-step refinement from the MPELE
    builds no dense Hessian, takes one full (value, gradient, Hessian-weight)
    pass per iterate and at most one value-only pass per step."""
    calls = dict.fromkeys(("value", "value_grad_hess", "hess_dense"), 0)
    for name in calls:
        method = getattr(ExactObjective, name)

        def counted(self, x, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, x)

        monkeypatch.setattr(ExactObjective, name, counted)
    for kind, train, _, C in _criterion_07_sets():
        R = ScaledIdentity(train.p, 1.0)
        init = mele(train, C, R=R)
        calls.update(dict.fromkeys(calls, 0))
        fit = fit_exact(train, R=R, init=init.params, C=C, max_iter=3, fit_offset=True)
        assert fit.solver == "fit_exact_newton_cg"
        assert calls["hess_dense"] == 0, (kind, calls)
        assert calls["value_grad_hess"] == fit.iterations + 1 == len(fit.objective_trace) <= 4
        assert calls["value"] <= 3, (kind, calls)


def test_criterion_08_el_hmc_against_exact_hmc_and_profile():
    """N=4000, p=100 LNP with a flat prior: the EL-HMC 95% credible intervals
    overlap the exact-HMC intervals for >= 90% of coordinates, the EL chain
    matches the analytic profile posterior within Monte Carlo error, and the
    surrogate chain's acceptance rate sits strictly below exact HMC's."""
    N, p = 4000, 100
    rng = np.random.default_rng(1234)
    theta = rng.standard_normal(p)
    theta /= np.linalg.norm(theta)
    X = rng.standard_normal((N, p))
    r = simulate_responses(Poisson(), X, GlmParams(theta0=float(np.log(0.5) - 0.5), theta=theta), 77)
    data = GlmDataset(X, r, Poisson())
    C = ScaledIdentity(p, 1.0)

    u_exact = make_potential(ExactObjective(data, fit_offset=True))
    u_el = make_potential(ELObjective(AnalyticExponential(C), data, fit_offset=True))
    init = mele(data, C).params
    x0 = np.concatenate(([init.theta0], init.theta))

    ch_ex = hmc_chain(u_exact, x0, 0.010, 30, 2500, 300, 5, "exact")
    ch_el = hmc_chain(u_el, x0, 0.010, 30, 2500, 300, 6, "el")
    ch_su = surrogate_hmc_chain(u_el, u_exact, x0, 0.010, 30, 600, 100, 7)
    assert ch_ex.acceptance_rate > 0.5 and ch_el.acceptance_rate > 0.5

    q_ex = np.percentile(ch_ex.samples, [2.5, 97.5], axis=0)
    q_el = np.percentile(ch_el.samples, [2.5, 97.5], axis=0)
    overlap = np.maximum(q_ex[0], q_el[0]) < np.minimum(q_ex[1], q_el[1])
    assert overlap.mean() >= 0.90, overlap.mean()

    # profile posterior is exactly N(mpele, (N_s C)^{-1}); deviations are pure
    # chain Monte Carlo error (thresholds measured at 2500 draws, 2x headroom)
    mu, _, sd = lnp_el_profile_gaussian(data, C)
    th = ch_el.samples[:, 1:]
    z = 1.959963984540054
    med_dev = np.abs(np.median(th, axis=0) - mu) / sd
    lo_dev = np.abs(np.percentile(th, 2.5, axis=0) - (mu - z * sd)) / sd
    hi_dev = np.abs(np.percentile(th, 97.5, axis=0) - (mu + z * sd)) / sd
    assert np.median(med_dev) <= 0.12 and med_dev.max() <= 0.35
    for dev in (lo_dev, hi_dev):
        assert np.median(dev) <= 0.20 and dev.max() <= 0.50

    assert ch_su.acceptance_rate < ch_ex.acceptance_rate


def _population_truth(M, p_s, basis, seed, density, w=0.3):
    rng = np.random.default_rng(seed)
    theta_s = rng.standard_normal((M, p_s))
    theta_s *= 0.4 / np.linalg.norm(theta_s, axis=1, keepdims=True)
    self_coeffs = np.zeros((M, basis.n_self))
    self_coeffs[:, 0] = 2.0  # refractory weight
    couplings = {}
    for i in range(M):
        for j in range(M):
            if i != j and rng.uniform() < density:
                couplings[(i, j)] = float(w * rng.choice([-1.0, 1.0]))
    return CoupledFilterSet(
        theta0=np.full(M, np.log(0.25) - 0.5 * 0.4**2),
        theta_s=theta_s,
        alpha=np.ones(M),
        self_coeffs=self_coeffs,
        couplings=couplings,
    )


def _coupling_auc(filters_list, truth, M):
    score = np.zeros((M, M))
    for f in filters_list:
        score = np.maximum(score, np.abs(f.coupling_matrix()))
    pairs = [(i, j) for i in range(M) for j in range(M) if i != j]
    y = np.array([(i, j) in truth.couplings for i, j in pairs])
    s = np.array([score[i, j] for i, j in pairs])
    ranks = rankdata(s)
    n1, n0 = int(y.sum()), int((~y).sum())
    return float((ranks[y].sum() - n1 * (n1 + 1) / 2) / (n1 * n0))


def test_criterion_09_population_staged_fit():
    """M=20 coupled population with sparse ground truth: the staged fit ranks
    true couplings with ROC-AUC >= 0.9 along the path, its held-out likelihood
    sits within 2% of full-MAP coordinate descent, and stage 1-2 wall time
    grows by at most 2.5x when M doubles."""
    M, p_s, N = 20, 5, 6000
    basis = HistoryBasis(n_bumps=3, tau=10, b=0.4)
    truth = _population_truth(M, p_s, basis, 11, density=0.15)
    pop, C = gen_coupled_population(M, StimulusSpec(kind="gaussian_iid", N=N, p=p_s),
                                    truth, basis, 21, dt=1.0)
    held, _ = gen_coupled_population(M, StimulusSpec(kind="gaussian_iid", N=3000, p=p_s),
                                     truth, basis, 22, dt=1.0)

    lam_path = np.array([60.0, 30.0, 15.0, 8.0, 4.0])
    staged = stagewise_population_fit(pop, basis, C, lam_path, pcg_budget=3)
    assert _coupling_auc(staged.filters, truth, M) >= 0.90

    test_designs = [build_population_design(held, basis, i) for i in range(M)]
    train_designs = [build_population_design(pop, basis, i) for i in range(M)]
    T_held = held.N * held.dt
    staged_bits = [
        np.mean([bits_per_second(test_designs[i], filterset_params(f, basis, i), T_held)
                 for i in range(M)])
        for f in staged.filters
    ]
    warm = [None] * M
    map_bits = []
    for lam in lam_path:
        vals = []
        for i in range(M):
            lam_vec = np.concatenate([np.zeros(p_s + basis.n_self), np.full(M - 1, lam)])
            tol_i = 1e-8 * max(1.0, float(pop.spikes[i].sum()))
            fit = fit_exact_l1(train_designs[i], lam_vec, init=warm[i], fit_offset=True, tol=tol_i)
            warm[i] = fit.params
            vals.append(bits_per_second(test_designs[i], fit.params, T_held))
        map_bits.append(np.mean(vals))
    best_staged, best_map = max(staged_bits), max(map_bits)
    assert abs(best_staged - best_map) <= 0.02 * abs(best_map), (best_staged, best_map)

    # doubling M with the in-degree held fixed; stage 1-2 cost is linear in M
    t12 = {}
    for M2 in (20, 40):
        truth2 = _population_truth(M2, p_s, basis, 11, density=0.15 * 20 / M2)
        pop2, C2 = gen_coupled_population(M2, StimulusSpec(kind="gaussian_iid", N=N, p=p_s),
                                          truth2, basis, 21, dt=1.0)
        t12[M2] = min(
            stagewise_population_fit(pop2, basis, C2, [30.0], pcg_budget=3).diagnostics["t_stage12"]
            for _ in range(3)
        )
    assert t12[40] / t12[20] <= 2.5, t12


def test_criterion_09_stage12_passes_are_linear_in_M(monkeypatch):
    """The count behind criterion 09's wall-clock gate: on the same generator,
    the exact-likelihood passes of stages 1-2 (value, gradient, full and
    dense-Hessian passes) grow by at most 2.5x when M doubles."""
    import elglm.population as population

    class Stage3(Exception):
        pass

    def stop(*args, **kwargs):
        raise Stage3

    calls = [0]
    for name in ("value", "grad", "value_grad_hess", "hess_dense"):
        method = getattr(ExactObjective, name)

        def counted(self, x, _method=method):
            calls[0] += 1
            return _method(self, x)

        monkeypatch.setattr(ExactObjective, name, counted)
    monkeypatch.setattr(population, "fit_exact_l1", stop)
    p_s, N = 5, 6000
    basis = HistoryBasis(n_bumps=3, tau=10, b=0.4)
    passes = {}
    for M2 in (20, 40):
        truth2 = _population_truth(M2, p_s, basis, 11, density=0.15 * 20 / M2)
        pop2, C2 = gen_coupled_population(M2, StimulusSpec(kind="gaussian_iid", N=N, p=p_s),
                                          truth2, basis, 21, dt=1.0)
        calls[0] = 0
        with pytest.raises(Stage3):
            stagewise_population_fit(pop2, basis, C2, [30.0], pcg_budget=3)
        passes[M2] = calls[0]
    assert passes[20] > 0
    assert passes[40] / passes[20] <= 2.5, passes


def _best_time(fn, inner, reps=7):
    best = np.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def test_criterion_10_el_evaluation_cost_is_flat_in_N():
    """el_loglik cost is independent of N once the sufficient statistics are
    cached (time ratio between N=1e6 and N=1e3 at most 1.2) while exact_loglik
    scales linearly (ratio at least 100)."""
    p = 20
    rng = np.random.default_rng(3)
    params = GlmParams(theta0=-1.0, theta=rng.standard_normal(p) * 0.15)
    engine = AnalyticExponential(ScaledIdentity(p, 1.0))
    data = {}
    for N in (1000, 1000000):
        X = rng.standard_normal((N, p))
        r = simulate_responses(Poisson(), X, params, 9)
        data[N] = GlmDataset(X, r, Poisson())
        el_loglik(engine, data[N], params)  # warm the X'r / N_s caches

    t_el = {N: _best_time(lambda N=N: el_loglik(engine, data[N], params), 300) for N in data}
    t_exact = {
        N: _best_time(lambda N=N: exact_loglik(data[N], params), 100 if N == 1000 else 3)
        for N in data
    }
    assert t_el[1000000] / t_el[1000] <= 1.2, t_el
    assert t_exact[1000000] / t_exact[1000] >= 100, t_exact


class _PoisonedArray:
    """Stands in for an O(N) array of the dataset; any use of it fails."""

    def _touched(self, *args, **kwargs):
        raise AssertionError("el_loglik read per-datum data")

    __getattr__ = __array__ = __array_ufunc__ = __array_function__ = _touched
    __getitem__ = __iter__ = __len__ = __matmul__ = __rmatmul__ = _touched
    __mul__ = __rmul__ = __add__ = __radd__ = __sub__ = __rsub__ = _touched


@pytest.mark.parametrize(
    "family,engine",
    [(Poisson(), AnalyticExponential), (Gaussian(sigma2=2.0), AnalyticQuadratic)],
    ids=["poisson", "gaussian"],
)
def test_criterion_10_el_loglik_reads_no_per_datum_data(family, engine):
    """The count-based side of criterion 10: with X and r replaced by objects
    that fail on any use, el_loglik still returns its value, gradient and
    Hessian action, so it makes no O(N) pass whatever the machine's timing."""
    p = 6
    rng = np.random.default_rng(10)
    params = GlmParams(theta0=-0.5, theta=rng.standard_normal(p) * 0.2)
    X = rng.standard_normal((500, p))
    data = GlmDataset(X, simulate_responses(family, X, params, 3), family)
    eng = engine(ScaledIdentity(p, 1.0))
    want = el_loglik(eng, data, params)
    v = rng.standard_normal(p + 1)
    data.X, data.r = _PoisonedArray(), _PoisonedArray()
    with pytest.raises(AssertionError, match="per-datum"):
        data.X @ params.theta
    got = el_loglik(eng, data, params)
    assert got.value == want.value
    np.testing.assert_array_equal(got.grad, want.grad)
    np.testing.assert_array_equal(got.hess_action(v), want.hess_action(v))


def test_criterion_11_recorded_data_results_out_of_scope():
    """The recorded retinal-data numbers need the original recordings, which
    this repository does not ship; the pipelines that produced them run
    end-to-end on simulated data in the three tests above (MAP refinement,
    EL-HMC sampling, staged population fitting)."""
    for entry_point in (fit_exact, hmc_chain, surrogate_hmc_chain,
                        stagewise_population_fit, bits_per_second):
        assert callable(entry_point)
