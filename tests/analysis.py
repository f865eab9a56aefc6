"""Analysis that only tests call: the exact pmf of the collector's order
sampling and its KS distance to a sample (criterion 4), and the Gaussian
fit of team sizes (criterion 9).  They load scipy, which the package
itself does not depend on."""
from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.optimize import curve_fit
from scipy.special import ndtr

from commtopo.collector import CollectorConfig
from commtopo.errors import CommTopoError
from commtopo.graphs import CommTopology


def accepted_mass(cfg: CollectorConfig, n_max: int) -> float:
    """Probability that one Gaussian draw of ``sample_orders`` lies in [2, n_max]."""
    mu = cfg.resolved_mu(n_max)
    return float(ndtr((n_max - mu) / cfg.sigma) - ndtr((2 - mu) / cfg.sigma))


def order_distribution(cfg: CollectorConfig, n_max: int) -> np.ndarray:
    """Exact pmf of sample_orders over the integers 2..n_max."""
    mu, sigma = cfg.resolved_mu(n_max), cfg.sigma
    ks = np.arange(2, n_max + 1)
    lo = np.maximum(ks - 0.5, 2.0)
    hi = np.minimum(ks + 0.5, float(n_max))
    return (ndtr((hi - mu) / sigma) - ndtr((lo - mu) / sigma)) / accepted_mass(cfg, n_max)


def order_ks_statistic(orders: Sequence[int], cfg: CollectorConfig, n_max: int) -> float:
    """KS distance between sampled orders and the truncated-Gaussian pmf."""
    pmf = order_distribution(cfg, n_max)
    cdf = np.cumsum(pmf)
    counts = np.bincount(np.asarray(orders, dtype=int), minlength=n_max + 1)[2 : n_max + 1]
    ecdf = np.cumsum(counts) / len(orders)
    return float(np.abs(ecdf - cdf).max())


class FitDegenerate(CommTopoError):
    """Histogram has too little spread for a Gaussian fit."""


def fit_node_count_gaussian(topologies: Sequence[CommTopology]) -> tuple[float, float, float]:
    """Least-squares fit of A*exp(-(x-mu)^2 / (2 sigma^2)) to the
    histogram of active-node counts; returns (A, mu, |sigma|)."""
    if len(topologies) < 5:
        raise FitDegenerate("need at least 5 topologies")
    counts = np.array([t.mask.active_count() for t in topologies])
    xs = np.arange(counts.min(), counts.max() + 1)
    if len(xs) < 2:
        raise FitDegenerate("all topologies have the same node count")
    ys = np.array([(counts == x).sum() for x in xs], dtype=float)

    def gauss(x, a, mu, sigma):
        return a * np.exp(-((x - mu) ** 2) / (2.0 * sigma**2))

    p0 = (float(ys.max()), float(np.mean(counts)), max(float(np.std(counts)), 0.5))
    try:
        popt, _ = curve_fit(gauss, xs, ys, p0=p0, maxfev=10000)
    except RuntimeError as exc:
        raise FitDegenerate(f"fit did not converge: {exc}") from exc
    a, mu, sigma = popt
    return float(a), float(mu), float(abs(sigma))
