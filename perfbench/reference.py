"""Independent numpy recomputation of the observed test statistic.

Nothing here calls the package under test. The L-estimator weights use the
identity I_x(j, m - j + 1) = P(Binomial(m, x) >= j): one log-binomial pmf
matrix over the grid i/n and a reversed cumulative sum give every rank's
Beta CDF at once. The exceedance bounds use closed forms: for the standard
exponential pi_j = 1 - exp(-(H_m - H_{m-j})), and for the standard logistic
E[G^{-1}(B_{j:m})] = psi(j) - psi(m - j + 1) = H_{j-1} - H_{m-j}, so
pi_j = G(H_{j-1} - H_{m-j}).
"""

from __future__ import annotations

import math

import numpy as np

# Statistics are compared at this relative tolerance. The absolute floor
# (REL_TOL * STAT_FLOOR) only matters for a statistic within about 1e-12 of
# zero, where the sign of a single rounding-level gap decides the value.
REL_TOL = 1e-9
STAT_FLOOR = 1e-3


def _harmonic(k: int) -> np.ndarray:
    """H_0 .. H_k, summed smallest term first."""
    h = np.zeros(k + 1)
    h[1:] = np.cumsum(1.0 / np.arange(1, k + 1))
    return h


def beta_cdf_grid(n: int, m: int) -> np.ndarray:
    """(n + 1, m) matrix of I_{i/n}(j, m - j + 1) for i = 0..n, j = 1..m."""
    x = np.arange(n + 1) / n
    k = np.arange(m + 1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, m + 1)))))
    log_choose = log_fact[m] - log_fact[k] - log_fact[m - k]
    pmf = np.zeros((n + 1, m + 1))
    inner = slice(1, n)
    xi = x[inner, np.newaxis]
    pmf[inner] = np.exp(log_choose + k * np.log(xi) + (m - k) * np.log1p(-xi))
    pmf[0, 0] = 1.0
    pmf[n, m] = 1.0
    # Upper tail sums, accumulated from the smallest terms at k = m down.
    upper = np.cumsum(pmf[:, ::-1], axis=1)[:, ::-1]
    return upper[:, 1:]


def weight_matrix(n: int, m: int) -> np.ndarray:
    """(m, n) matrix whose row j - 1 holds the weights for rank j."""
    cdf = beta_cdf_grid(n, m)
    return np.maximum(np.diff(cdf, axis=0), 0.0).T


def exponential_bounds(m: int) -> np.ndarray:
    h = _harmonic(m)
    j = np.arange(1, m + 1)
    return -np.expm1(-(h[m] - h[m - j]))


def logistic_bounds(m: int) -> np.ndarray:
    h = _harmonic(m)
    j = np.arange(1, m + 1)
    mean = h[j - 1] - h[m - j]
    return 1.0 / (1.0 + np.exp(-mean))



def observed(values: np.ndarray, weights: np.ndarray, pis: np.ndarray) -> dict:
    """Per-rank L-estimates, ECDF values and the p = 1 statistics.

    `values` must be sorted. Tied knots are collapsed to the largest i/n,
    as the interpolated ECDF defines them.
    """
    n = values.size
    mus = weights @ values
    knots_x, last = np.unique(values[::-1], return_index=True)
    knots_y = (n - last) / n
    fts = np.interp(mus, knots_x, knots_y)
    gaps = pis - fts
    return {
        "mu": mus,
        "ecdf": fts,
        "upper": float(np.maximum(gaps, 0.0).sum()),
        "lower": float(np.maximum(-gaps, 0.0).sum()),
    }


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), STAT_FLOOR)


def mc_consistent(statistic: float, critical: float, p_value: float,
                  reject: bool, trials: int) -> bool:
    """Decision and add-one p-value agree with the contract of the test."""
    if reject != (statistic >= critical):
        return False
    if not 1.0 / (trials + 1) <= p_value <= 1.0:
        return False
    count = p_value * (trials + 1)
    return abs(count - round(count)) <= 1e-6 * (trials + 1)


def se_consistent(rate: float, se: float, reps: int) -> bool:
    return 0.0 <= rate <= 1.0 and math.isclose(
        se, math.sqrt(rate * (1.0 - rate) / reps), rel_tol=1e-12, abs_tol=1e-15
    )
