"""Risk formulas against Wishart/MP moment identities and Monte Carlo."""

import numpy as np
import pytest
import scipy.integrate
from scipy.stats import ks_2samp

from elglm.risk import (
    KINDS,
    MPLaw,
    RiskSpec,
    _bidiagonal,
    _mc_errors,
    _squared_error,
    crossover_rho,
    mc_mse,
    mse_asymptotic,
    mse_closed_form,
    optimal_ridge,
)


def test_riskspec_validation():
    RiskSpec(kind="mele", N=10, p=2, theta_norm2=1.0)
    with pytest.raises(ValueError, match="kind"):
        RiskSpec(kind="ols", N=10, p=2, theta_norm2=1.0)
    with pytest.raises(ValueError, match=">= 1"):
        RiskSpec(kind="mele", N=0, p=2, theta_norm2=1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        RiskSpec(kind="mele", N=10, p=2, theta_norm2=-1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        RiskSpec(kind="map", N=10, p=2, theta_norm2=1.0, c=-0.5)


def test_mele_closed_form_formula():
    # independent derivation: E||(W-I)theta||^2 = (p+1) snr / N for W = X'X/N,
    # plus the noise term p/N
    for N, p, snr in [(50, 5, 2.0), (200, 30, 0.3), (10, 1, 0.0)]:
        got = mse_closed_form(RiskSpec(kind="mele", N=N, p=p, theta_norm2=snr))
        want = (p + 1) * snr / N + p / N
        assert got == pytest.approx(want, rel=1e-14)


def test_mpele_closed_form_formula():
    # ((p+1) snr N + N p + c^2 p^2 snr) / (N + c p)^2, derived by expanding
    # theta_hat - theta = ((X'X - N I) theta + X'eps - c p theta) / (N + c p)
    for N, p, snr, c in [(80, 10, 1.5, 0.7), (40, 40, 3.0, 2.0)]:
        got = mse_closed_form(RiskSpec(kind="mpele", N=N, p=p, theta_norm2=snr, c=c))
        want = (N * (p + 1) * snr + N * p + c * c * p * p * snr) / (N + c * p) ** 2
        assert got == pytest.approx(want, rel=1e-12)
    # c = 0 reduces to the MELE
    a = mse_closed_form(RiskSpec(kind="mpele", N=60, p=8, theta_norm2=1.0, c=0.0))
    b = mse_closed_form(RiskSpec(kind="mele", N=60, p=8, theta_norm2=1.0))
    assert a == pytest.approx(b, rel=1e-14)


def test_mle_closed_form_guard():
    assert mse_closed_form(RiskSpec(kind="mle", N=20, p=5, theta_norm2=9.0)) == pytest.approx(
        5 / 14
    )
    with pytest.raises(ValueError, match="N > p \\+ 1"):
        mse_closed_form(RiskSpec(kind="mle", N=6, p=5, theta_norm2=1.0))
    with pytest.raises(ValueError, match="MAP"):
        mse_closed_form(RiskSpec(kind="map", N=20, p=5, theta_norm2=1.0, c=1.0))


@pytest.mark.parametrize(
    "kind,c", [("mele", 0.0), ("mle", 0.0), ("mpele", 0.8), ("map", 0.8)]
)
def test_mc_agrees_with_theory(kind, c):
    N, p, snr = 60, 8, 1.5
    rng = np.random.default_rng(100)
    theta = rng.standard_normal(p)
    theta *= np.sqrt(snr) / np.linalg.norm(theta)
    est, se = mc_mse(kind, N, p, theta, trials=400, seed=7, c=c)
    if kind == "map":
        # no closed form; check against a second independent MC stream
        est2, se2 = mc_mse(kind, N, p, theta, trials=400, seed=8, c=c)
        assert abs(est - est2) < 4 * np.hypot(se, se2)
    else:
        want = mse_closed_form(RiskSpec(kind=kind, N=N, p=p, theta_norm2=snr, c=c))
        assert abs(est - want) < 4 * se


def test_mc_determinism_and_guards(monkeypatch):
    theta = np.ones(3)
    a = mc_mse("mele", 20, 3, theta, trials=5, seed=1)
    b = mc_mse("mele", 20, 3, theta, trials=5, seed=1)
    assert a == b
    kinds = ["mele", "mle", "mpele", "map"]
    assert mc_mse(kinds, 20, 3, theta, 5, 1, c=0.5) == mc_mse(kinds, 20, 3, theta, 5, 1, c=0.5)
    with pytest.raises(ValueError, match="trials"):
        mc_mse("mele", 20, 3, theta, trials=1, seed=1)
    with pytest.raises(ValueError, match="p < N - 1"):
        mc_mse("mle", 4, 3, theta, trials=5, seed=1)
    with pytest.raises(ValueError, match="c > 0"):
        mc_mse("map", 3, 3, theta, trials=5, seed=1, c=0.0)
    with pytest.raises(ValueError, match="shape"):
        mc_mse("mele", 20, 4, theta, trials=5, seed=1)
    with pytest.raises(ValueError, match="kind"):
        mc_mse("ols", 20, 3, theta, trials=5, seed=1)
    # a sequence of kinds is checked whole before the first draw
    drawn = []
    monkeypatch.setattr("elglm.risk._bidiagonal", lambda *a: drawn.append(a))
    with pytest.raises(ValueError, match="p < N - 1"):
        mc_mse(["mele", "mle"], 4, 3, theta, trials=5, seed=1)
    with pytest.raises(ValueError, match="kind"):
        mc_mse(["mele", "ols"], 20, 3, theta, trials=5, seed=1)
    with pytest.raises(ValueError, match="empty"):
        mc_mse([], 20, 3, theta, trials=5, seed=1)
    assert drawn == []


def _brute_force_errors(kind, N, p, theta, trials, seed, c=0.0):
    """Reference for mc_mse: per-trial errors from a full (X, r) draw, the
    estimator computed from X'X and X'r."""
    errs = np.empty(trials)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        rng = np.random.default_rng(child)
        X = rng.standard_normal((N, p))
        r = X @ theta + rng.standard_normal(N)
        s = X.T @ r
        if kind == "mele":
            est = s / N
        elif kind == "mpele":
            est = s / (N + c * p)
        else:
            G = X.T @ X
            if kind == "map":
                G = G + (c * p) * np.eye(p)
            est = np.linalg.solve(G, s)
        errs[i] = (est - theta) @ (est - theta)
    return errs


def _theta(p, snr, seed):
    theta = np.random.default_rng(seed).standard_normal(p)
    return theta * np.sqrt(snr) / np.linalg.norm(theta)


@pytest.mark.parametrize(
    "kind,N,p,c",
    [
        ("mele", 40, 10, 0.0),
        ("mle", 40, 10, 0.0),
        ("mpele", 40, 10, 0.8),
        ("map", 40, 10, 0.8),
        ("mele", 10, 25, 0.0),
        ("mpele", 10, 25, 0.8),
        ("map", 10, 25, 0.8),
    ],
)
def test_mc_errors_match_brute_force_in_distribution(kind, N, p, c):
    theta = _theta(p, 1.5, 31)
    fast = _mc_errors(kind, N, p, theta, 1500, seed=41, c=c)
    slow = _brute_force_errors(kind, N, p, theta, 1500, seed=42, c=c)
    assert ks_2samp(fast, slow).pvalue > 1e-3


def test_mc_trials_pair_across_kinds_and_see_only_the_norm():
    N, p, trials = 30, 6, 50
    theta = _theta(p, 2.0, 3)
    Q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((p, p)))
    mele = _mc_errors("mele", N, p, theta, trials, seed=5)
    np.testing.assert_array_equal(_mc_errors("mpele", N, p, theta, trials, seed=5, c=0.0), mele)
    for row in _mc_errors(("mele", "mpele"), N, p, theta, trials, seed=5, c=0.0):
        np.testing.assert_array_equal(row, mele)
    np.testing.assert_allclose(
        _mc_errors("map", N, p, theta, trials, seed=5, c=0.0),
        _mc_errors("mle", N, p, theta, trials, seed=5),
        rtol=1e-10,
    )
    for kind, c in (("mele", 0.0), ("mle", 0.0), ("mpele", 0.5), ("map", 0.5)):
        np.testing.assert_allclose(
            _mc_errors(kind, N, p, Q @ theta, trials, seed=5, c=c),
            _mc_errors(kind, N, p, theta, trials, seed=5, c=c),
            rtol=1e-12,
        )


@pytest.mark.parametrize("N,p,c", [(30, 6, 0.0), (30, 6, 0.7), (10, 25, 0.7)], ids=["p<N-1", "c>0", "p>N"])
def test_mc_mse_with_several_kinds_equals_one_kind_calls(N, p, c):
    """One call over a sequence of kinds draws each trial once and returns
    the one-kind results bit for bit, in the order given."""
    kinds = [k for k in ("map", "mle", "mele", "mpele") if k != "mle" or p < N - 1]
    theta = _theta(p, 1.5, 6)
    got = mc_mse(kinds, N, p, theta, 20, seed=9, c=c)
    assert got == [mc_mse(k, N, p, theta, 20, seed=9, c=c) for k in kinds]
    rows = _mc_errors(kinds, N, p, theta, 20, seed=9, c=c)
    for k, row in zip(kinds, rows):
        assert row.tobytes() == _mc_errors(k, N, p, theta, 20, seed=9, c=c).tobytes()


def test_squared_error_leaves_the_draw_unchanged():
    for N, p in ((30, 6), (10, 25)):
        d, e, w = _bidiagonal(np.random.default_rng(2), N, p)
        # B has m = min(N + 1, p) nonzero columns; at p > N the last holds e_N only
        m = min(N + 1, p)
        assert (d.size, e.size, w.size) == (m, m - 1, m)
        assert (d[-1] == 0 and w[-1] == 0) == (p > N)
        before = [a.copy() for a in (d, e, w)]
        for kind in ("mele", "mpele", "map") + (("mle",) if p < N - 1 else ()):
            _squared_error(kind, d, e, w, N, p, 1.3, 0.5)
        for a, b in zip((d, e, w), before):
            assert a.tobytes() == b.tobytes()
    # a zero on B's diagonal leaves the MLE undefined
    d, e, w = _bidiagonal(np.random.default_rng(2), 30, 6)
    d[3] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        _squared_error("mle", d, e, w, 30, 6, 1.3, 0.0)


def test_asymptotic_is_large_N_limit():
    snr, c = 2.0, 0.6
    N = 2_000_000
    for kind, rho in [("mele", 0.3), ("mle", 0.4), ("mpele", 1.5)]:
        p = int(rho * N)
        exact = mse_closed_form(RiskSpec(kind=kind, N=N, p=p, theta_norm2=snr, c=c))
        limit = mse_asymptotic(kind, rho, snr, c=c)
        assert exact == pytest.approx(limit, rel=1e-4)


def test_asymptotic_guards():
    with pytest.raises(ValueError, match="rho < 1"):
        mse_asymptotic("mle", 1.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        mse_asymptotic("mele", 0.0, 1.0)
    with pytest.raises(ValueError, match="c > 0"):
        mse_asymptotic("map", 1.5, 1.0, c=0.0)
    with pytest.raises(ValueError, match="kind"):
        mse_asymptotic("ols", 0.5, 1.0)


# --- Marchenko-Pastur law ---------------------------------------------------

@pytest.mark.parametrize("rho", [0.25, 0.5, 0.9, 1.0, 2.0])
def test_mp_moments(rho):
    law = MPLaw(rho)
    # total mass 1, E[l] = 1, E[l^2] = 1 + rho
    assert law.expect(lambda l: np.ones_like(np.asarray(l, float))) == pytest.approx(1.0, abs=1e-10)
    assert law.expect(lambda l: l) == pytest.approx(1.0, abs=1e-9)
    assert law.expect(lambda l: l * l) == pytest.approx(1.0 + rho, rel=1e-8)


def test_mp_density_callable_matches_quad():
    law = MPLaw(0.5)
    mass, _ = scipy.integrate.quad(law, law.a, law.b, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-6)
    assert law(law.a - 0.01) == 0.0 and law(law.b + 0.01) == 0.0
    big = MPLaw(4.0)
    assert big.zero_mass == pytest.approx(0.75)
    mass, _ = scipy.integrate.quad(big, big.a, big.b, limit=200)
    assert mass + big.zero_mass == pytest.approx(1.0, abs=1e-6)


def test_mp_inverse_moment_gives_mle_risk():
    # E[1/l] = 1/(1-rho) for rho < 1, so rho E[1/l] is the MLE limit
    rho = 0.35
    law = MPLaw(rho)
    assert rho * law.expect(lambda l: 1.0 / l) == pytest.approx(
        mse_asymptotic("mle", rho, 123.0), rel=1e-6
    )


def test_map_asymptotics():
    snr = 2.0
    # c -> 0 with rho < 1 recovers the MLE limit
    assert mse_asymptotic("map", 0.5, snr, c=1e-9) == pytest.approx(
        mse_asymptotic("mle", 0.5, snr), rel=1e-6
    )
    # rho > 1 with the zero point mass: bias contributes snr * (1 - 1/rho)
    rho, c = 2.0, 1.0
    law = MPLaw(rho)
    cr = c * rho
    want = rho * law.expect(lambda l: l / (l + cr) ** 2) + snr * law.expect(
        lambda l: (l / (l + cr) - 1.0) ** 2
    )
    assert mse_asymptotic("map", rho, snr, c=c) == pytest.approx(want, rel=1e-12)
    # MC spot check at moderate size
    rng = np.random.default_rng(5)
    N, p = 300, 150
    theta = rng.standard_normal(p)
    theta *= np.sqrt(snr) / np.linalg.norm(theta)
    est, se = mc_mse("map", N, p, theta, trials=120, seed=11, c=c)
    assert abs(est - mse_asymptotic("map", 0.5, snr, c=c)) < 4 * se + 0.02


def test_mp_rejects_bad_rho():
    with pytest.raises(ValueError, match="positive"):
        MPLaw(0.0)


# --- crossover and optimal ridge -------------------------------------------

def test_crossover_rho():
    for snr in (0.2, 1.0, 5.0):
        rho_star = crossover_rho(snr)
        assert rho_star == pytest.approx(snr / (1 + snr))
        below = mse_asymptotic("mele", rho_star * 0.9, snr) - mse_asymptotic(
            "mle", rho_star * 0.9, snr
        )
        above = mse_asymptotic("mele", min(rho_star * 1.1, 0.999), snr) - mse_asymptotic(
            "mle", min(rho_star * 1.1, 0.999), snr
        )
        assert below > 0 > above  # MLE wins below the crossover, MELE above
    with pytest.raises(ValueError, match="nonnegative"):
        crossover_rho(-1.0)


def test_optimal_ridge_mpele_closed_form():
    # stationarity of (rho + snr(c^2 rho^2 + rho))/(1 + c rho)^2 gives
    # c* = (1 + snr)/snr independent of rho
    for rho, snr in [(0.5, 2.0), (2.0, 0.5)]:
        c_star, mse_star = optimal_ridge("mpele", rho, snr)
        assert c_star == pytest.approx((1 + snr) / snr, rel=1e-4)
        assert mse_star == pytest.approx(mse_asymptotic("mpele", rho, snr, c=c_star), rel=1e-12)
        assert mse_star <= mse_asymptotic("mpele", rho, snr, c=0.0)


def test_optimal_ridge_map_is_bayes_weight():
    # the classic ridge oracle: c* = 1/snr (prior variance matched)
    rho, snr = 0.5, 2.0
    c_star, mse_star = optimal_ridge("map", rho, snr)
    assert c_star == pytest.approx(1.0 / snr, rel=1e-3)
    assert mse_star < mse_asymptotic("mle", rho, snr)
    with pytest.raises(ValueError, match="mpele"):
        optimal_ridge("mele", 0.5, 1.0)
