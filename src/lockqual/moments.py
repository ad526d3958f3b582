"""Sufficient statistics of complete rating rows: n, column sums and X'X.

Cronbach's alpha, the correlation matrix that KMO, Bartlett's test and
the principal components read, and the sample covariance that the
CFA and SEM fits read (Bollen 1989, Structural Equations with Latent
Variables, ch. 4) depend on the rows only through n, the column sums s
and the cross products X'X. `Moments.of_codes` takes them from the int8
rating codes of the complete rows, one block of rows at a time, as one
BLAS product of the block converted to float64.

Every sum and product of ratings 1..5 is an integer, and below 2**53 it
is exact in float64 whatever order BLAS adds it in. So are the centred
numerator n X'X - s s' = n (n - 1) S while 25 n**2 < 2**53, that is
for n up to 1.8e7, and the tests on it: a column is constant when its
diagonal is 0, and two columns are equal when
X'X_ii + X'X_jj - 2 X'X_ij = 0. The covariance is then one division
away from its exact value.

`dependent_sets` is the package's one test of whether a symmetric
matrix is singular, and which columns make it so.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Moments", "as_moments", "dependent_sets"]

# Rows per block of `of_codes`, `of_matrix` and the ordered probit's design:
# a float64 block of 32 items is 2 MB, where the whole complete-row matrix of
# a 100k survey is 21 MB.
_BLOCK_ROWS = 8192

_EPS = float(np.finfo(float).eps)
_SUPPORT = float(np.sqrt(_EPS))  # share of a null direction's largest entry


@dataclass(frozen=True, eq=False)
class Moments:
    """n rows' column sums (k,) and cross products (k, k), about a shift.

    The sums and cross products are taken of X minus a fixed row, which
    changes no centred statistic: the codes are taken about 0, a float
    matrix about its first row, so that its uncentred sums do not cancel
    (Chan, Golub and LeVeque 1983, The American Statistician 37).
    """

    n: int
    sums: np.ndarray
    cross: np.ndarray

    @classmethod
    def of_codes(cls, codes: np.ndarray, cols: Sequence[int], rows: np.ndarray | None = None) -> "Moments":
        """Moments of the columns `cols` of int8 codes over the rows with no 0 among them.

        With a boolean row mask `rows`, only the rows it sets are taken: the
        same integer sums as of `codes[rows]`, without copying those rows.
        """
        cols = list(cols)
        n = 0
        sums = np.zeros(len(cols))
        cross = np.zeros((len(cols), len(cols)))
        for start in range(0, codes.shape[0], _BLOCK_ROWS):
            block = codes[start : start + _BLOCK_ROWS, cols]
            keep = (block != 0).all(axis=1)
            if rows is not None:
                keep &= rows[start : start + _BLOCK_ROWS]
            b = block[keep].astype(float)
            n += b.shape[0]
            sums += b.sum(axis=0)
            cross += b.T @ b
        return cls(n, sums, cross)

    @classmethod
    def of_matrix(cls, X: np.ndarray) -> "Moments":
        """Moments of the columns of a finite n x k matrix, taken about its first row.

        The rows are read one block at a time, each block less the first
        row as float64, so an integer X is never copied to float whole.
        """
        X = np.asarray(X)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if not np.all(np.isfinite(X)):
            raise ValueError("X contains non-finite values")
        first = X[:1].astype(float)
        sums = np.zeros(X.shape[1])
        cross = np.zeros((X.shape[1], X.shape[1]))
        for start in range(0, X.shape[0], _BLOCK_ROWS):
            d = X[start : start + _BLOCK_ROWS] - first
            sums += d.sum(axis=0)
            cross += d.T @ d
        return cls(X.shape[0], sums, cross)

    @property
    def k(self) -> int:
        return self.sums.shape[0]

    def take(self, cols: Sequence[int]) -> "Moments":
        """The moments of a subset of the columns, over the same rows."""
        cols = list(cols)
        return Moments(self.n, self.sums[cols], self.cross[np.ix_(cols, cols)])

    def centred(self) -> np.ndarray:
        """n X'X - s s', the cross products about the column means times n."""
        return self.n * self.cross - np.outer(self.sums, self.sums)

    def cov(self) -> np.ndarray:
        """Unbiased (ddof=1) sample covariance."""
        if self.n < 2:
            raise ValueError(f"need at least 2 complete rows for a covariance, got {self.n}")
        return self.centred() / (self.n * (self.n - 1.0))

    def corr(self) -> np.ndarray:
        """Pearson correlations; a constant column gives NaN."""
        c = self.centred()
        sd = np.sqrt(np.diag(c))
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.clip(c / sd[:, None] / sd[None, :], -1.0, 1.0)
        np.fill_diagonal(r, np.where(sd > 0, 1.0, np.nan))
        return r

    def constant(self) -> np.ndarray:
        """Mask of the columns that hold one value in every row."""
        return np.diag(self.centred()) == 0

    def equal(self, i: int, j: int) -> bool:
        """Whether columns i and j are equal in every row.

        The test is exact for codes; for a float matrix it compares the
        columns about their shifts, and up to rounding.
        """
        return self.cross[i, i] + self.cross[j, j] - 2.0 * self.cross[i, j] == 0


def as_moments(X: np.ndarray | Moments) -> Moments:
    """X itself when it is Moments, else the moments of the n x k matrix X."""
    return X if isinstance(X, Moments) else Moments.of_matrix(X)


def dependent_sets(a: np.ndarray) -> list[list[int]]:
    """The column sets of the numerically null directions of a symmetric PSD matrix.

    Scaled to unit diagonal, an eigenvalue at or below p * eps times the
    largest is null; a column whose diagonal is 0 is a set of its own.
    The null directions are reduced from the right, one per set: each has
    its last column as pivot and 0 at the other pivots, and its entries
    above sqrt(eps) of its largest form the set. Dropping the last column
    of each set leaves full rank. Raises ValueError on a non-finite or an
    indefinite matrix.
    """
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    d = np.diag(a)
    live = np.flatnonzero(d > 0)
    s = 1.0 / np.sqrt(d[live])
    vals, vecs = np.linalg.eigh(a[np.ix_(live, live)] * s[:, None] * s[None, :])
    tol = live.size * _EPS * vals.max(initial=0.0)
    if d.min(initial=0.0) < 0 or vals.min(initial=0.0) < -tol:
        raise ValueError("matrix is not positive definite (a negative diagonal or eigenvalue)")
    rows, pivots = vecs[:, vals <= tol].T, []
    for c in range(live.size - 1, -1, -1):
        if not len(rows):
            break
        rows = rows / np.abs(rows).max(axis=1, keepdims=True)
        i = np.argmax(np.abs(rows[:, c]))
        if abs(rows[i, c]) > _SUPPORT:
            pivot = rows[i] / rows[i, c]
            rows = np.delete(rows, i, axis=0)
            rows -= np.outer(rows[:, c], pivot)
            pivots = [r - r[c] * pivot for r in pivots] + [pivot]
    sets = [[j] for j in np.flatnonzero(d == 0).tolist()]
    sets += [live[np.abs(r) > _SUPPORT * np.abs(r).max()].tolist() for r in pivots]
    return sorted(sets, key=lambda cols: cols[-1])
