"""Checks of the benchmark's ESS estimator against series of known ESS.

Run with ``python3 -m pytest perfbench/test_ess.py``.
"""

import numpy as np
import pytest

from ess import ess_1d, ess_median


def ar1(phi, n, seed):
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = eps[0] / np.sqrt(1.0 - phi * phi)
    for i in range(1, n):
        x[i] = phi * x[i - 1] + eps[i]
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9, -0.3])
def test_ar1_ess_matches_theory(phi):
    # an AR(1) chain has integrated autocorrelation time (1 + phi) / (1 - phi)
    n = 200_000
    expected = n * (1.0 - phi) / (1.0 + phi)
    estimates = [ess_1d(ar1(phi, n, seed)) for seed in range(3)]
    assert abs(np.mean(estimates) / expected - 1.0) < 0.08, (phi, estimates, expected)


def test_constant_chain_has_one_effective_sample():
    assert ess_1d(np.full(100, 2.5)) == 1.0


def test_ess_median_over_coordinates():
    n = 50_000
    samples = np.column_stack([ar1(0.5, n, 1), ar1(0.5, n, 2), ar1(0.9, n, 3)])
    # the median coordinate is one of the two phi = 0.5 chains
    assert abs(ess_median(samples) / (n / 3.0) - 1.0) < 0.1


def test_short_chain_rejected():
    with pytest.raises(ValueError):
        ess_1d([1.0, 2.0, 3.0])
