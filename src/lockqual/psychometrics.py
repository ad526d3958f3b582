"""Reliability and sampling adequacy checks run before factoring.

Implements Cronbach's alpha, the Kaiser-Meyer-Olkin measure computed
from the anti-image correlation matrix, and Bartlett's test of
sphericity. Alpha and the correlation matrix are computed from the
complete rows' `Moments`; each function that reads rows takes either
those moments or the n x k matrix of the rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._dist import chi2_sf
from .moments import Moments, as_moments, dependent_sets

__all__ = ["AdequacyReport", "cronbach_alpha", "kmo", "bartlett", "adequacy", "correlation_matrix"]


def correlation_matrix(X: np.ndarray | Moments) -> np.ndarray:
    """Pearson correlations of the columns of X (n x k, no missing), or of its moments."""
    m = as_moments(X)
    if m.n < 2 or m.k < 2:
        raise ValueError("need an n x k matrix with n >= 2 and k >= 2")
    const = m.constant()
    if const.any():
        raise ValueError(f"constant columns at positions {[int(i) for i in np.flatnonzero(const)]}")
    return m.corr()


def cronbach_alpha(X: np.ndarray | Moments) -> float:
    """Internal consistency of a set of items.

        alpha = k/(k-1) * (1 - sum(item variances) / var(row sums))

    with unbiased (ddof=1) variances. X is n x k with no missing cells,
    or its moments. The variance of the row sums is the sum of every
    cell of the covariance matrix, so alpha is k/(k-1) * (1 - trace / sum)
    of the centred cross products.
    """
    m = as_moments(X)
    if m.k < 2:
        raise ValueError("alpha needs at least 2 items")
    if m.n < 2:
        raise ValueError("alpha needs at least 2 respondents")
    c = m.centred()
    total = c.sum()
    if total == 0:
        raise ValueError("total score has zero variance")
    return float(m.k / (m.k - 1) * (1.0 - np.trace(c) / total))


def _check_corr(R: np.ndarray) -> np.ndarray:
    R = np.asarray(R, dtype=float)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ValueError("R must be square")
    if R.shape[0] < 2:
        raise ValueError("R must be at least 2 x 2")
    if not np.allclose(R, R.T, atol=1e-10):
        raise ValueError("R must be symmetric")
    if not np.allclose(np.diag(R), 1.0, atol=1e-8):
        raise ValueError("R must have a unit diagonal")
    R = 0.5 * (R + R.T)
    # A singular R passes np.linalg.inv and slogdet with no error, and gives
    # garbage: exact moments make a duplicated item's R exactly singular.
    sets = dependent_sets(R)
    if sets:
        raise ValueError(
            f"R is singular: columns {', '.join(map(str, sets))} are linearly dependent "
            "(an eigenvalue at most p*eps times the largest)"
        )
    return R


def kmo(R: np.ndarray) -> float:
    """Kaiser-Meyer-Olkin sampling adequacy from the anti-image matrix.

    With Q the matrix of negated partial correlations (anti-image
    correlations), KMO = sum(r_ij^2) / (sum(r_ij^2) + sum(q_ij^2)) over
    off-diagonal cells.
    """
    R = _check_corr(R)
    R_inv = np.linalg.inv(R)
    d = 1.0 / np.sqrt(np.diag(R_inv))
    Q = -R_inv * np.outer(d, d)
    off = ~np.eye(R.shape[0], dtype=bool)
    r2 = float((R[off] ** 2).sum())
    q2 = float((Q[off] ** 2).sum())
    if r2 + q2 == 0:
        raise ValueError("insufficient correlation structure (all correlations zero)")
    return r2 / (r2 + q2)


def bartlett(R: np.ndarray, n: int) -> tuple[float, int, float]:
    """Bartlett's sphericity test against an identity correlation matrix.

        chi2 = -(n - 1 - (2p + 5)/6) * ln det R,  df = p(p-1)/2

    Returns (chi2, df, p_value). The p-value is the chi-square upper
    tail probability.
    """
    R = _check_corr(R)
    p = R.shape[0]
    if n <= p:
        raise ValueError("Bartlett's test needs n > p")
    _, logdet = np.linalg.slogdet(R)
    chi2 = -(n - 1 - (2 * p + 5) / 6.0) * logdet
    chi2 = max(chi2, 0.0)
    df = p * (p - 1) // 2
    p_value = float(chi2_sf(chi2, df))
    return float(chi2), df, p_value


@dataclass(frozen=True)
class AdequacyReport:
    cronbach_alpha: float
    kmo: float
    bartlett_chi2: float
    bartlett_df: int
    bartlett_p: float


def adequacy(X: np.ndarray | Moments) -> AdequacyReport:
    """Alpha, KMO and Bartlett for an n x k complete rating matrix, or its moments."""
    m = as_moments(X)
    alpha = cronbach_alpha(m)
    R = correlation_matrix(m)
    k = kmo(R)
    chi2, df, p_value = bartlett(R, m.n)
    return AdequacyReport(alpha, k, chi2, df, p_value)
