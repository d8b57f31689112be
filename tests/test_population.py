"""Population design construction, staged fitting, and diagnostics."""

import numpy as np
import pytest

import elglm.estimators as estimators
import elglm.population as population
from elglm._cd import cd_quadratic_l1
from elglm.estimators import fit_exact_l1
from elglm.families import Gaussian, Poisson
from elglm.glm import ExactObjective, GlmDataset, GlmParams, exact_loglik
from elglm.population import (
    CoupledFilterSet,
    HistoryBasis,
    PopulationDataset,
    bits_per_second,
    build_population_design,
    filterset_params,
    history_columns,
    history_function_variance,
    history_uncertainty,
    linear_predictor,
    load_population,
    save_population,
    self_history_columns,
    stagewise_population_fit,
)
from elglm.simulate import StimulusSpec, gen_coupled_population
from elglm.structured import ScaledIdentity


def _toy_data(rng, M=3, N=200, p_s=2, rate=0.4):
    spikes = rng.poisson(rate, size=(M, N))
    X_s = rng.standard_normal((N, p_s))
    return PopulationDataset(spikes, X_s, dt=0.5)


def test_dataset_validation():
    rng = np.random.default_rng(0)
    _toy_data(rng)
    with pytest.raises(ValueError, match="\\(M, N\\)"):
        PopulationDataset(np.zeros(5), np.zeros((5, 2)))
    with pytest.raises(ValueError, match="length"):
        PopulationDataset(np.zeros((2, 5), dtype=int), np.zeros((4, 2)))
    with pytest.raises(ValueError, match="nonnegative integers"):
        PopulationDataset(-np.ones((2, 5), dtype=int), np.zeros((5, 2)))
    with pytest.raises(ValueError, match="nonnegative integers"):
        PopulationDataset(0.5 * np.ones((2, 5)), np.zeros((5, 2)))
    with pytest.raises(ValueError, match="dt"):
        PopulationDataset(np.zeros((2, 5), dtype=int), np.zeros((5, 2)), dt=0.0)


def test_history_basis_structure():
    basis = HistoryBasis(n_bumps=3, tau=10, b=0.4)
    assert basis.B.shape == (10, 4)
    assert basis.n_self == 4
    # refractory column: -1 at lag 1 only
    assert basis.B[0, 0] == -1.0
    assert np.all(basis.B[1:, 0] == 0.0)
    # bumps are nonnegative, peak 1 at their centers 1, 5.5, 10
    assert np.all(basis.B[:, 1:] >= 0.0)
    assert basis.B[0, 1] == pytest.approx(1.0)
    assert basis.B[9, 3] == pytest.approx(1.0)
    lags = np.arange(1, 11)
    assert np.allclose(basis.coupling_kernel, np.exp(-0.4 * lags))
    assert basis.to_config() == {"n_bumps": 3, "tau": 10, "b": 0.4}
    with pytest.raises(ValueError, match="n_bumps"):
        HistoryBasis(n_bumps=0, tau=5)
    with pytest.raises(ValueError, match="decay"):
        HistoryBasis(n_bumps=2, tau=5, b=0.0)


def test_filterset_validation_and_json():
    fs = CoupledFilterSet(
        theta0=np.array([-1.0, -1.2]),
        theta_s=np.array([[0.1, 0.2], [0.3, -0.1]]),
        alpha=np.array([1.0, 0.9]),
        self_coeffs=np.array([[2.0, 0.1], [1.5, 0.0]]),
        couplings={(0, 1): 0.7},
    )
    assert fs.M == 2
    W = fs.coupling_matrix()
    assert W[0, 1] == 0.7 and W[1, 0] == 0.0
    back = CoupledFilterSet.from_json(fs.to_json())
    assert np.array_equal(back.theta_s, fs.theta_s)
    assert back.couplings == fs.couplings
    with pytest.raises(ValueError, match="self terms"):
        CoupledFilterSet(
            theta0=np.zeros(2), theta_s=np.zeros((2, 1)), alpha=np.ones(2),
            self_coeffs=np.zeros((2, 2)), couplings={(1, 1): 0.5},
        )
    with pytest.raises(ValueError, match="non-finite"):
        CoupledFilterSet(
            theta0=np.array([np.nan, 0.0]), theta_s=np.zeros((2, 1)),
            alpha=np.ones(2), self_coeffs=np.zeros((2, 2)), couplings={},
        )


def test_causal_filter_matches_naive_loop():
    rng = np.random.default_rng(1)
    data = _toy_data(rng, M=2, N=50)
    basis = HistoryBasis(n_bumps=2, tau=6)
    cols = history_columns(data, basis, target=0)
    assert cols.shape == (50, basis.n_self + 1)
    r = data.spikes[0].astype(float)
    for k in range(basis.n_self):
        kern = basis.B[:, k]
        want = np.zeros(50)
        for n in range(50):
            for lag in range(1, min(basis.tau, n) + 1):
                want[n] += kern[lag - 1] * r[n - lag]
        assert np.allclose(cols[:, k], want, atol=1e-12)
    # the coupling column filters the other neuron's train
    r1 = data.spikes[1].astype(float)
    want = np.zeros(50)
    for n in range(50):
        for lag in range(1, min(basis.tau, n) + 1):
            want[n] += basis.coupling_kernel[lag - 1] * r1[n - lag]
    assert np.allclose(cols[:, basis.n_self], want, atol=1e-12)


def test_history_columns_causal():
    # bins up to n only ever see spikes before n
    rng = np.random.default_rng(2)
    data = _toy_data(rng, M=2, N=80)
    basis = HistoryBasis(n_bumps=2, tau=5)
    full = history_columns(data, basis, 0)
    tampered = data.spikes.copy()
    tampered[:, 40:] += 3
    data2 = PopulationDataset(tampered, data.X_s, dt=data.dt)
    assert np.array_equal(history_columns(data2, basis, 0)[: 41], full[: 41])


def test_self_history_block_matches_full():
    rng = np.random.default_rng(3)
    data = _toy_data(rng, M=4, N=60)
    basis = HistoryBasis(n_bumps=3, tau=7)
    assert np.array_equal(
        self_history_columns(data, basis, 2),
        history_columns(data, basis, 2)[:, : basis.n_self],
    )


def test_build_design_and_guards():
    rng = np.random.default_rng(4)
    data = _toy_data(rng, M=3, N=100, p_s=2)
    basis = HistoryBasis(n_bumps=2, tau=6)
    d = build_population_design(data, basis, target=1)
    assert d.X.shape == (100, 2 + basis.n_self + 2)
    assert np.array_equal(d.X[:, :2], data.X_s)
    assert np.array_equal(d.r, data.spikes[1].astype(float))
    assert isinstance(d.family, Poisson) and d.family.dt == 0.5
    with pytest.raises(ValueError, match="target"):
        build_population_design(data, basis, target=3)
    big = HistoryBasis(n_bumps=2, tau=100)
    with pytest.raises(ValueError, match="tau"):
        build_population_design(data, big, target=0)


def test_linear_predictor_matches_design_params():
    # filterset_params must align with build_population_design column order
    rng = np.random.default_rng(5)
    data = _toy_data(rng, M=3, N=120, p_s=2)
    basis = HistoryBasis(n_bumps=2, tau=5)
    fs = CoupledFilterSet(
        theta0=np.array([-1.0, -0.8, -1.2]),
        theta_s=rng.standard_normal((3, 2)),
        alpha=np.array([1.1, 0.9, 1.0]),
        self_coeffs=rng.standard_normal((3, basis.n_self)) * 0.3,
        couplings={(0, 2): 0.5, (2, 1): -0.4},
    )
    for i in range(3):
        d = build_population_design(data, basis, i)
        pr = filterset_params(fs, basis, i)
        want = pr.theta0 + d.X @ pr.theta
        got = linear_predictor(data, basis, fs, i)
        assert np.allclose(got, want, atol=1e-12)


# --- staged fit -------------------------------------------------------------

@pytest.fixture(scope="module")
def coupled_sim():
    basis = HistoryBasis(n_bumps=2, tau=6, b=0.5)
    M, p_s, N = 4, 3, 3000
    rng = np.random.default_rng(6)
    theta_s = rng.standard_normal((M, p_s))
    theta_s /= np.linalg.norm(theta_s, axis=1, keepdims=True) / 0.5
    sc = np.zeros((M, basis.n_self))
    sc[:, 0] = 2.0  # refractory
    truth = CoupledFilterSet(
        theta0=np.full(M, -1.2),
        theta_s=theta_s,
        alpha=np.ones(M),
        self_coeffs=sc,
        couplings={(1, 0): 0.8, (3, 2): 0.6},
    )
    spec = StimulusSpec(kind="gaussian_iid", N=N, p=p_s)
    data, C = gen_coupled_population(M, spec, truth, basis, seed=7)
    return data, C, basis, truth


def test_stagewise_fit_recovers_planted_couplings(coupled_sim):
    data, C, basis, truth = coupled_sim
    lam_path = np.array([30.0, 10.0, 3.0])
    fit = stagewise_population_fit(data, basis, C, lam_path)
    # stage 3 stops at a per-neuron kkt tolerance of 1e-8 * N_s
    assert fit.diagnostics["stage3_kkt_max"] <= 1e-8 * data.spikes.sum(axis=1).max()
    assert fit.diagnostics["t_stage12"] > 0
    assert len(fit.filters) == 3
    final = fit.filters[-1]
    W = final.coupling_matrix()
    assert W[1, 0] > 0.3
    assert W[3, 2] > 0.15
    # planted couplings dominate everything spurious
    mask = np.ones_like(W, dtype=bool)
    mask[1, 0] = mask[3, 2] = False
    np.fill_diagonal(mask, False)
    assert np.max(np.abs(W[mask])) < W[1, 0]
    # gains hover near 1 when stage 1 found the right filter direction
    assert np.all(final.alpha > 0.3) and np.all(final.alpha < 2.0)
    # stimulus filters correlate with the truth
    for i in range(truth.M):
        cos = truth.theta_s[i] @ final.theta_s[i] / (
            np.linalg.norm(truth.theta_s[i]) * np.linalg.norm(final.theta_s[i])
        )
        assert cos > 0.8


def test_stagewise_support_shrinks_with_lambda(coupled_sim):
    data, C, basis, _ = coupled_sim
    lam_path = np.array([60.0, 3.0])
    fit = stagewise_population_fit(data, basis, C, lam_path)
    nnz = [len(f.couplings) for f in fit.filters]
    assert nnz[0] <= nnz[1]


def test_stagewise_pcg_budget_polishes_stage1(coupled_sim):
    data, C, basis, _ = coupled_sim
    lam = np.array([10.0])
    plain = stagewise_population_fit(data, basis, C, lam)
    polished = stagewise_population_fit(data, basis, C, lam, pcg_budget=5)
    one_step = stagewise_population_fit(data, basis, C, lam, pcg_budget=1)
    for i in range(data.M):
        d1 = GlmDataset(data.X_s, data.spikes[i], Poisson(dt=data.dt))
        L0 = exact_loglik(d1, plain.stage1[i].params).value
        L1 = exact_loglik(d1, polished.stage1[i].params).value
        assert L1 >= L0 - 1e-10
        # the budget counts truncated-Newton steps from the MPELE
        assert polished.stage1[i].solver == "fit_exact_newton_cg"
        assert one_step.stage1[i].iterations <= 1


def test_stagewise_fit_matches_the_cyclic_per_lambda_path(coupled_sim, monkeypatch):
    """Oracle: stage 3 run lambda-outer with a fresh history design per
    (lambda, neuron) and every L1 model solved by cyclic CD alone. The staged
    fit, neuron-outer with support solves, finds the same couplings."""
    data, C, basis, _ = coupled_sim
    lam_path = np.array([30.0, 10.0, 3.0, 1.0])
    fit = stagewise_population_fit(data, basis, C, lam_path)

    def cyclic(A, s, lam, x0, tol, max_sweeps):
        return cd_quadratic_l1(A, s, lam, x0, max_sweeps=max_sweeps, tol=tol)

    monkeypatch.setattr(estimators, "_solve_l1_model", cyclic)
    M, n_self = data.M, basis.n_self
    warm = [None] * M
    for lam, filters in zip(lam_path, fit.filters):
        for i in range(M):
            s1, s2 = fit.stage1[i].params, fit.stage2[i].params
            d3 = GlmDataset(history_columns(data, basis, i), data.spikes[i], Poisson(dt=data.dt))
            init = warm[i] or GlmParams(
                theta0=s2.theta0, theta=np.concatenate([s2.theta[1:], np.zeros(M - 1)])
            )
            lam_vec = np.concatenate([np.zeros(n_self), np.full(M - 1, lam)])
            warm[i] = fit_exact_l1(
                d3, lam_vec, init=init, fit_offset=True, offset=s2.theta[0] * (data.X_s @ s1.theta),
                tol=1e-8 * max(1.0, float(data.spikes[i].sum())),
            ).params
            want = warm[i].theta[n_self:]
            got = np.array([filters.couplings.get((i, j), 0.0) for j in range(M) if j != i])
            assert np.array_equal(got != 0.0, want != 0.0), (lam, i)
            np.testing.assert_allclose(got, want, atol=1e-8)
            np.testing.assert_allclose(filters.self_coeffs[i], warm[i].theta[:n_self], atol=1e-8)
            assert filters.theta0[i] == pytest.approx(warm[i].theta0, abs=1e-8)
    assert sum(len(f.couplings) for f in fit.filters) > 0
    assert len(fit.filters[0].couplings) < len(fit.filters[-1].couplings)


def test_stagewise_fit_builds_one_history_design_per_neuron(coupled_sim, monkeypatch):
    data, C, basis, _ = coupled_sim
    built = []

    def counted(pop, b, target):
        built.append(target)
        return history_columns(pop, b, target)

    monkeypatch.setattr(population, "history_columns", counted)
    fit = stagewise_population_fit(data, basis, C, [30.0, 10.0, 3.0])
    assert sorted(built) == list(range(data.M))
    assert len(fit.filters) == 3


def test_stagewise_guards(coupled_sim):
    data, C, basis, _ = coupled_sim
    with pytest.raises(ValueError, match="nonincreasing"):
        stagewise_population_fit(data, basis, C, [1.0, 2.0])
    with pytest.raises(ValueError, match="nonempty"):
        stagewise_population_fit(data, basis, C, [])
    quiet = PopulationDataset(
        np.zeros((2, 100), dtype=np.int64), np.random.default_rng(0).standard_normal((100, 3))
    )
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        stagewise_population_fit(quiet, basis, ScaledIdentity(3, 1.0), [1.0])


# --- uncertainty and metrics ------------------------------------------------

def test_history_uncertainty_dense_oracle():
    rng = np.random.default_rng(8)
    k, m = 5, 7
    A = rng.standard_normal((k, k))
    H0 = -(A @ A.T + np.eye(k))
    B = rng.standard_normal((k, m))
    got = history_uncertainty(B, H0)
    cov = np.linalg.inv(-H0)
    want = np.diag(B.T @ cov @ B)
    assert np.allclose(got, want, rtol=1e-10)
    assert np.all(got > 0)
    with pytest.raises(np.linalg.LinAlgError):
        history_uncertainty(B, np.eye(k))  # positive definite, not negative
    with pytest.raises(ValueError, match="\\(k, m\\)"):
        history_uncertainty(np.zeros((3, 2)), H0)


def test_history_function_variance(coupled_sim):
    data, C, basis, truth = coupled_sim
    var = history_function_variance(data, basis, truth, target=0)
    assert var.shape == (basis.tau,)
    assert np.all(var > 0)
    # direct reconstruction through the stage-2 Hessian
    from elglm.population import _stage2_design

    d2 = _stage2_design(data, basis, 0, truth.theta_s[0])
    x = np.concatenate(([truth.theta0[0]], [truth.alpha[0]], truth.self_coeffs[0]))
    H = ExactObjective(d2, fit_offset=True).hess_dense(x)
    cov = np.linalg.inv(-H)[2:, 2:]
    want = np.einsum("lj,jk,lk->l", basis.B, cov, basis.B)
    assert np.allclose(var, want, rtol=1e-10)


def test_bits_per_second():
    rng = np.random.default_rng(9)
    N, dt = 400, 0.5
    X = rng.standard_normal((N, 2))
    th = np.array([0.8, -0.5])
    r = rng.poisson(0.5 * np.exp(X @ th - 0.5)).astype(float)
    data = GlmDataset(X, r, Poisson(dt=dt))
    T = N * dt
    good = bits_per_second(data, GlmParams(theta=th, theta0=np.log(1.0)), T)
    assert good > 0
    # the homogeneous model itself scores exactly zero
    th0_flat = float(np.log(data.N_s / (data.N * dt)))
    flat = bits_per_second(data, GlmParams(theta=np.zeros(2), theta0=th0_flat), T)
    assert flat == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="T"):
        bits_per_second(data, GlmParams(theta=th), 0.0)
    gdata = GlmDataset(X, rng.standard_normal(N), Gaussian())
    with pytest.raises(ValueError, match="Poisson"):
        bits_per_second(gdata, GlmParams(theta=th), T)


def test_population_save_load(tmp_path):
    rng = np.random.default_rng(10)
    data = _toy_data(rng, M=2, N=30)
    stem = tmp_path / "pop"
    save_population(stem, data)
    back = load_population(stem)
    assert np.array_equal(back.spikes, data.spikes)
    assert np.array_equal(back.X_s, data.X_s)
    assert back.dt == data.dt
    assert (tmp_path / "pop_spikes.bin").exists()
    assert (tmp_path / "pop_stim.bin").exists()
