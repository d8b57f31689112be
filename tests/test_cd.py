import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elglm._cd import _kkt_residual, cd_quadratic_l1


def _soft(z, lam):
    return np.sign(z) * np.maximum(np.abs(z) - lam, 0.0)


def brute_force_l1(A, s, lam):
    """Enumerate sign supports: maximize s'x - x'Ax/2 - lam'|x|."""
    p = s.size
    best, best_val = np.zeros(p), 0.0
    for signs in itertools.product((-1.0, 0.0, 1.0), repeat=p):
        sg = np.array(signs)
        supp = sg != 0.0
        if not np.any(supp):
            val = 0.0
            x = np.zeros(p)
        else:
            rhs = s[supp] - lam[supp] * sg[supp]
            try:
                xs = np.linalg.solve(A[np.ix_(supp, supp)], rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(np.sign(xs) != sg[supp]):
                continue
            x = np.zeros(p)
            x[supp] = xs
            val = s @ x - 0.5 * x @ A @ x - lam @ np.abs(x)
        if val > best_val + 1e-13:
            best, best_val = x, val
    return best


def _random_problem(p, seed, lam_scale=0.5):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((p, p))
    A = B @ B.T / p + np.eye(p)
    s = rng.standard_normal(p) * 2.0
    lam = np.full(p, lam_scale)
    return A, s, lam


def test_diagonal_case_is_exact_soft_threshold():
    d = np.array([1.0, 2.0, 0.5, 4.0])
    A = np.diag(d)
    s = np.array([3.0, -1.0, 0.2, 0.05])
    lam = np.array([0.5, 0.5, 0.5, 0.5])
    x, _, kkt = cd_quadratic_l1(A, s, lam, np.zeros(4))
    np.testing.assert_allclose(x, _soft(s, lam) / d, atol=1e-12)
    assert kkt <= 1e-8


@pytest.mark.parametrize("seed", range(8))
def test_matches_brute_force(seed):
    A, s, lam = _random_problem(6, seed)
    x, _, _ = cd_quadratic_l1(A, s, lam, np.zeros(6), tol=1e-12)
    x_star = brute_force_l1(A, s, lam)
    np.testing.assert_allclose(x, x_star, atol=1e-8)


def test_exact_tie_gives_zero():
    A = np.eye(2)
    s = np.array([0.5, 2.0])
    lam = np.array([0.5, 0.1])  # lam[0] == |s[0]| exactly
    x, _, _ = cd_quadratic_l1(A, s, lam, np.zeros(2))
    assert x[0] == 0.0
    assert x[1] == pytest.approx(1.9)


def test_kkt_residual_reported():
    A, s, lam = _random_problem(12, 99)
    x, sweeps, kkt = cd_quadratic_l1(A, s, lam, np.zeros(12), tol=1e-10)
    assert kkt <= 1e-10
    g = s - A @ x
    on = x != 0
    assert np.max(np.abs(g[on] - lam[on] * np.sign(x[on])), initial=0.0) <= 1e-9
    assert np.all(np.abs(g[~on]) <= lam[~on] + 1e-9)
    # the shared residual helper, as the estimators call it, reads the same point
    assert _kkt_residual(g, x, lam) <= 1e-9


def test_warm_start_converges_faster():
    A, s, lam = _random_problem(30, 11)
    x, sweeps_cold, _ = cd_quadratic_l1(A, s, lam, np.zeros(30), tol=1e-10)
    _, sweeps_warm, _ = cd_quadratic_l1(A, s, lam, x.copy(), tol=1e-10)
    assert sweeps_warm <= sweeps_cold


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), lam_scale=st.floats(0.01, 3.0))
def test_kkt_always_satisfied(seed, lam_scale):
    A, s, lam = _random_problem(5, seed, lam_scale)
    x, _, kkt = cd_quadratic_l1(A, s, lam, np.zeros(5), tol=1e-9)
    assert kkt <= 1e-9
    assert np.all(np.isfinite(x))
