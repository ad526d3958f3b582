"""Reliability and sampling adequacy checks run before factoring.

Implements Cronbach's alpha, the Kaiser-Meyer-Olkin measure computed
from the anti-image correlation matrix, and Bartlett's test of
sphericity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._dist import chi2_sf

__all__ = ["AdequacyReport", "cronbach_alpha", "kmo", "bartlett", "adequacy", "correlation_matrix"]


def correlation_matrix(X: np.ndarray) -> np.ndarray:
    """Pearson correlations of the columns of X (n x k, no missing)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2 or X.shape[1] < 2:
        raise ValueError("need an n x k matrix with n >= 2 and k >= 2")
    if not np.all(np.isfinite(X)):
        raise ValueError("matrix contains non-finite values")
    sd = X.std(axis=0, ddof=1)
    if np.any(sd == 0):
        const = [int(i) for i in np.flatnonzero(sd == 0)]
        raise ValueError(f"constant columns at positions {const}")
    return np.corrcoef(X, rowvar=False)


def cronbach_alpha(X: np.ndarray) -> float:
    """Internal consistency of a set of items.

        alpha = k/(k-1) * (1 - sum(item variances) / var(row sums))

    with unbiased (ddof=1) variances. X is n x k with no missing cells.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-dimensional")
    n, k = X.shape
    if k < 2:
        raise ValueError("alpha needs at least 2 items")
    if n < 2:
        raise ValueError("alpha needs at least 2 respondents")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains non-finite values")
    item_var = X.var(axis=0, ddof=1)
    total_var = X.sum(axis=1).var(ddof=1)
    if total_var == 0:
        raise ValueError("total score has zero variance")
    return float(k / (k - 1) * (1.0 - item_var.sum() / total_var))


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
    return 0.5 * (R + R.T)


def kmo(R: np.ndarray) -> float:
    """Kaiser-Meyer-Olkin sampling adequacy from the anti-image matrix.

    With Q the matrix of negated partial correlations (anti-image
    correlations), KMO = sum(r_ij^2) / (sum(r_ij^2) + sum(q_ij^2)) over
    off-diagonal cells.
    """
    R = _check_corr(R)
    try:
        R_inv = np.linalg.inv(R)
    except np.linalg.LinAlgError:
        raise ValueError("insufficient correlation structure (singular matrix)") from None
    diag = np.diag(R_inv)
    if not np.all(diag > 0):
        raise ValueError("R is not positive definite (anti-image diagonal not positive)")
    d = 1.0 / np.sqrt(diag)
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
    sign, logdet = np.linalg.slogdet(R)
    if sign <= 0:
        raise ValueError("R must be positive definite")
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


def adequacy(X: np.ndarray) -> AdequacyReport:
    """Alpha, KMO and Bartlett for an n x k complete rating matrix."""
    X = np.asarray(X, dtype=float)
    alpha = cronbach_alpha(X)
    R = correlation_matrix(X)
    k = kmo(R)
    chi2, df, p_value = bartlett(R, X.shape[0])
    return AdequacyReport(alpha, k, chi2, df, p_value)
