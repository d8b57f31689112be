"""Effective sample size by Geyer's initial monotone sequence estimator."""

from __future__ import annotations

import numpy as np


def ess_1d(x) -> float:
    """ESS of one scalar chain: n / tau with tau = -1 + 2 * sum_k Gamma_k.

    Gamma_k = rho_{2k} + rho_{2k+1} are sums of adjacent autocorrelations,
    kept while positive and made monotone non-increasing (Geyer 1992). A
    chain that never moves holds one distinct value and has ESS 1.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4:
        raise ValueError("need at least 4 draws")
    x = x - x.mean()
    f = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(f * np.conj(f), 2 * n)[:n] / n
    if acov[0] <= 0.0:
        return 1.0
    rho = acov / acov[0]
    pairs = rho[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    stop = np.flatnonzero(pairs <= 0.0)
    pairs = pairs[: stop[0]] if stop.size else pairs
    pairs = np.minimum.accumulate(pairs)
    tau = -1.0 + 2.0 * float(pairs.sum())
    return n / max(tau, 1.0 / np.log10(n))


def ess_median(samples) -> float:
    """Median over coordinates of the per-coordinate ESS of a (draws, dim) chain."""
    samples = np.asarray(samples, dtype=float)
    return float(np.median([ess_1d(samples[:, j]) for j in range(samples.shape[1])]))
