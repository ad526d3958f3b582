"""Normal, logistic and chi-square kernels straight from the scipy.special ufuncs.

scipy.stats.norm and scipy.stats.chi2 compute these same expressions
underneath, after argument checks that cost more than the kernels at
the sizes used here; importing scipy.stats also costs most of a
process's start-up. Each function returns exactly what its scipy.stats
counterpart (or, for `expit`, its ufunc) returns, NaN included.

This module is the one door to scipy.special, and each kernel imports
it on its first call rather than at `import lockqual`. Importing
scipy.special loads scipy's array-API shim, which in turn loads
numpy.testing and numpy.f2py: about 0.3 s of a fresh process. The
subcommands that never reach a kernel (`validate`, `describe`, `efa`,
`score`, `entropy`, `ahp`, `bias`, `synth`) never pay it. After the
first call, the import is one `sys.modules` lookup.
"""
from __future__ import annotations

import numpy as np

__all__ = ["norm_cdf", "norm_sf", "norm_pdf", "norm_ppf", "chi2_sf", "expit"]

_SQRT_2PI = np.sqrt(2 * np.pi)


def norm_cdf(x):
    from scipy.special import ndtr

    return ndtr(x)


def norm_sf(x):
    from scipy.special import ndtr

    return ndtr(-np.asarray(x))


def norm_pdf(x):
    x = np.asarray(x)
    return np.exp(-x**2 / 2.0) / _SQRT_2PI


def norm_ppf(q):
    from scipy.special import ndtri

    return ndtri(q)


def expit(x):
    from scipy.special import expit as _expit

    return _expit(x)


def chi2_sf(x, df):
    """Upper tail P(X > x); 1.0 for x <= 0, where chdtrc itself gives NaN."""
    from scipy.special import chdtrc

    x = np.asarray(x, dtype=float)
    return np.where(x <= 0, 1.0, chdtrc(df, x))
