import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elglm.families import (
    Bernoulli,
    Gaussian,
    Poisson,
    family_from_config,
    nonlinearity_eval,
)


def test_gaussian_cumulant_and_scale():
    fam = Gaussian(sigma2=2.0)
    u = np.array([-1.5, 0.0, 2.0])
    G, G1, G2 = nonlinearity_eval(fam, u)
    np.testing.assert_allclose(G, u**2 / 2)
    np.testing.assert_allclose(G1, u)
    np.testing.assert_allclose(G2, np.ones(3))
    assert fam.scale == pytest.approx(0.5)
    assert fam.weight == 1.0


def test_poisson_cumulant_is_exp():
    fam = Poisson(dt=0.1)
    u = np.array([-2.0, 0.0, 1.3])
    G, G1, G2 = nonlinearity_eval(fam, u)
    for arr in (G, G1, G2):
        np.testing.assert_allclose(arr, np.exp(u))
    assert fam.weight == pytest.approx(0.1)
    assert fam.scale == 1.0


def test_bernoulli_cumulant_values():
    fam = Bernoulli()
    u = np.array([0.0, 1.0, -1.0])
    G, G1, G2 = nonlinearity_eval(fam, u)
    np.testing.assert_allclose(G, np.log1p(np.exp(u)))
    np.testing.assert_allclose(G1, 1.0 / (1.0 + np.exp(-u)))
    np.testing.assert_allclose(G2, G1 * (1.0 - G1))


def test_bernoulli_extreme_arguments_stay_finite():
    fam = Bernoulli()
    u = np.array([-800.0, -36.0, 36.0, 800.0])
    G, G1, G2 = nonlinearity_eval(fam, u)
    assert np.all(np.isfinite(G)) and np.all(np.isfinite(G1)) and np.all(np.isfinite(G2))
    # saturated tails: G(u) ~ u for large u, ~0 for very negative u
    assert G[-1] == pytest.approx(800.0)
    assert G[0] == pytest.approx(0.0, abs=1e-300)
    assert 0.0 <= G1[0] and G1[-1] <= 1.0


def _piecewise_softplus(u):
    """The earlier G(u): u above 35, exp(u) below -35, log1p(exp(u)) between."""
    out = np.where(u > 35.0, u, 0.0)
    lo = u < -35.0
    out = np.where(lo, np.exp(np.where(lo, u, 0.0)), out)
    mid = np.abs(u) <= 35.0
    return np.where(mid, np.log1p(np.exp(np.where(mid, u, 0.0))), out)


def test_bernoulli_g_matches_the_piecewise_formula():
    u = np.concatenate(
        [
            [-800.0, -745.0, -700.0, -60.0, -35.5, -35.0, -1e-9, 0.0, 1e-9, 35.0, 35.5, 60.0, 700.0, 800.0],
            np.linspace(-40.0, 40.0, 801),
        ]
    )
    with np.errstate(under="ignore"):
        want = _piecewise_softplus(u)
    got = Bernoulli().g(u)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
    assert list(Bernoulli().g(np.array([-800.0, 800.0]))) == [0.0, 800.0]


def test_bernoulli_branches_continuous_at_cut():
    fam = Bernoulli()
    for u0 in (35.0, -35.0):
        below = nonlinearity_eval(fam, np.array([u0 - 1e-9]))
        above = nonlinearity_eval(fam, np.array([u0 + 1e-9]))
        for a, b in zip(below, above):
            assert a[0] == pytest.approx(b[0], rel=1e-6, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(u=st.floats(min_value=-50, max_value=50))
def test_second_derivative_nonnegative(u):
    for fam in (Gaussian(), Poisson(), Bernoulli()):
        _, _, G2 = nonlinearity_eval(fam, np.array([u]))
        assert G2[0] >= 0.0


def test_simulate_shapes_and_determinism():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(200)
    for fam in (Gaussian(sigma2=0.5), Poisson(dt=0.2), Bernoulli()):
        r1 = fam.simulate(u, np.random.default_rng(42))
        r2 = fam.simulate(u, np.random.default_rng(42))
        np.testing.assert_array_equal(r1, r2)
        assert r1.shape == u.shape
        fam.validate_responses(r1)


def test_poisson_overflow_guard():
    fam = Poisson()
    with pytest.raises(ValueError, match="overflow"):
        fam.simulate(np.array([40.0]), np.random.default_rng(0))


def test_validate_responses_rejects_bad_values():
    with pytest.raises(ValueError):
        Poisson().validate_responses(np.array([0.0, -1.0]))
    with pytest.raises(ValueError):
        Poisson().validate_responses(np.array([0.5]))
    with pytest.raises(ValueError):
        Bernoulli().validate_responses(np.array([2.0]))
    with pytest.raises(ValueError):
        Gaussian().validate_responses(np.array([np.nan]))


def test_config_round_trip():
    for fam in (Gaussian(sigma2=3.0), Poisson(dt=0.05), Bernoulli()):
        back = family_from_config(fam.to_config())
        assert type(back) is type(fam)
        assert back.to_config() == fam.to_config()
    with pytest.raises(ValueError):
        family_from_config({"family": "gamma"})
