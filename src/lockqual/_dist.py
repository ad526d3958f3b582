"""Normal and chi-square kernels straight from the scipy.special ufuncs.

scipy.stats.norm and scipy.stats.chi2 compute these same expressions
underneath, after argument checks that cost more than the kernels at
the sizes used here; importing scipy.stats also costs most of a
process's start-up. Each function returns exactly what its scipy.stats
counterpart returns, NaN included.
"""
from __future__ import annotations

import numpy as np
from scipy.special import chdtrc, ndtr, ndtri

__all__ = ["norm_cdf", "norm_sf", "norm_pdf", "norm_ppf", "chi2_sf"]

_SQRT_2PI = np.sqrt(2 * np.pi)

norm_cdf = ndtr
norm_ppf = ndtri


def norm_sf(x):
    return ndtr(-np.asarray(x))


def norm_pdf(x):
    x = np.asarray(x)
    return np.exp(-x**2 / 2.0) / _SQRT_2PI


def chi2_sf(x, df):
    """Upper tail P(X > x); 1.0 for x <= 0, where chdtrc itself gives NaN."""
    x = np.asarray(x, dtype=float)
    return np.where(x <= 0, 1.0, chdtrc(df, x))
