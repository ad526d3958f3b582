"""Exploratory factor analysis: extraction, rotation, pruning.

Extraction is principal components of the correlation matrix with the
Kaiser criterion (eigenvalue strictly greater than 1). Rotation is
varimax with Kaiser row normalization. Pruning assigns each retained
item to its dominant rotated factor and drops weak or ambiguous items.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .psychometrics import cronbach_alpha

__all__ = ["LoadingMatrix", "DroppedItem", "FactorAssignment", "extract_pca", "rotate_varimax", "prune"]


@dataclass(frozen=True)
class LoadingMatrix:
    """Item-by-factor loadings with extraction bookkeeping.

    items                : catalog indices in row order.
    loadings             : p x m array.
    eigenvalues          : extraction eigenvalues of the retained factors.
    variance_explained   : percent of total variance per column.
    cumulative_explained : running total of variance_explained.
    """

    items: tuple[int, ...]
    loadings: np.ndarray = field(repr=False)
    eigenvalues: tuple[float, ...]
    variance_explained: tuple[float, ...]
    cumulative_explained: tuple[float, ...]
    rotated: bool = False

    @property
    def n_factors(self) -> int:
        return self.loadings.shape[1]

    def communalities(self) -> np.ndarray:
        return (self.loadings**2).sum(axis=1)


def _fix_signs(L: np.ndarray) -> np.ndarray:
    """Flip column signs so the largest-magnitude loading is positive."""
    L = L.copy()
    for j in range(L.shape[1]):
        i = int(np.argmax(np.abs(L[:, j])))
        if L[i, j] < 0:
            L[:, j] = -L[:, j]
    return L


def extract_pca(R: np.ndarray, items: Sequence[int] | None = None) -> LoadingMatrix:
    """Principal-component extraction with the Kaiser retention rule.

    Loadings are eigenvectors scaled by the square root of their
    eigenvalues; only components with eigenvalue > 1 are kept.
    """
    R = np.asarray(R, dtype=float)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ValueError("R must be square")
    if not np.allclose(R, R.T, atol=1e-10):
        raise ValueError("R must be symmetric")
    p = R.shape[0]
    if items is None:
        items = tuple(range(1, p + 1))
    items = tuple(int(i) for i in items)
    if len(items) != p:
        raise ValueError("items must match the matrix dimension")
    eigvals, eigvecs = np.linalg.eigh(0.5 * (R + R.T))
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    keep = eigvals > 1.0
    m = int(keep.sum())
    if m == 0:
        raise ValueError("no factors extracted (no eigenvalue exceeds 1)")
    vals = eigvals[:m]
    L = eigvecs[:, :m] * np.sqrt(vals)
    L = _fix_signs(L)
    var = vals / p * 100.0
    cum = np.cumsum(var)
    return LoadingMatrix(
        items=items,
        loadings=L,
        eigenvalues=tuple(float(v) for v in vals),
        variance_explained=tuple(float(v) for v in var),
        cumulative_explained=tuple(float(v) for v in cum),
        rotated=False,
    )


def _varimax_criterion(B: np.ndarray) -> float:
    p = B.shape[0]
    sq = B**2
    return float((sq**2).sum(axis=0).sum() - ((sq.sum(axis=0)) ** 2).sum() / p)


def rotate_varimax(L: LoadingMatrix, tol: float = 1e-8, max_sweeps: int = 100) -> LoadingMatrix:
    """Varimax rotation with Kaiser row normalization.

    Planar rotations are applied to every factor pair in repeated
    sweeps until the varimax criterion stops improving. Communalities
    are invariant under the orthogonal rotation. A single-factor
    solution is returned unchanged.
    """
    A = np.asarray(L.loadings, dtype=float)
    p, m = A.shape
    if m < 2:
        return L
    h = np.sqrt((A**2).sum(axis=1))
    h_safe = np.where(h > 0, h, 1.0)
    B = A / h_safe[:, None]
    crit = _varimax_criterion(B)
    for _ in range(max_sweeps):
        for a in range(m - 1):
            for b in range(a + 1, m):
                x = B[:, a].copy()
                y = B[:, b].copy()
                u = x**2 - y**2
                v = 2.0 * x * y
                su = u.sum()
                sv = v.sum()
                num = 2.0 * (u * v).sum() - 2.0 * su * sv / p
                den = (u**2 - v**2).sum() - (su**2 - sv**2) / p
                angle = 0.25 * np.arctan2(num, den)
                if abs(angle) < 1e-14:
                    continue
                c, s = np.cos(angle), np.sin(angle)
                B[:, a] = c * x + s * y
                B[:, b] = -s * x + c * y
        new_crit = _varimax_criterion(B)
        if new_crit - crit < tol:
            break
        crit = new_crit
    out = B * h_safe[:, None]
    ss = (out**2).sum(axis=0)
    order = np.argsort(ss)[::-1]
    out = _fix_signs(out[:, order])
    ss = ss[order]
    var = ss / p * 100.0
    cum = np.cumsum(var)
    return LoadingMatrix(
        items=L.items,
        loadings=out,
        eigenvalues=L.eigenvalues,
        variance_explained=tuple(float(v) for v in var),
        cumulative_explained=tuple(float(v) for v in cum),
        rotated=True,
    )


@dataclass(frozen=True)
class DroppedItem:
    item: int
    reason: str


@dataclass(frozen=True)
class FactorAssignment:
    """Outcome of pruning a rotated solution.

    factor_of maps retained catalog item -> 0-based factor column.
    factor_items lists each factor's items ordered by loading strength;
    a factor that keeps no item is left out of it, with a warning.
    per_factor_alpha holds Cronbach's alpha per factor when rating data
    was supplied and the factor kept at least two items.
    """

    retained_items: tuple[int, ...]
    dropped_items: tuple[DroppedItem, ...]
    factor_of: Mapping[int, int]
    factor_items: Mapping[int, tuple[int, ...]]
    per_factor_alpha: Mapping[int, float]
    warnings: tuple[str, ...]


def prune(
    L: LoadingMatrix,
    data: np.ndarray | None = None,
    threshold: float = 0.5,
    cross_margin: float = 0.2,
) -> FactorAssignment:
    """Assign items to dominant factors and drop weak or ambiguous ones.

    An item is dropped with reason "low loading" when its largest
    absolute loading falls below `threshold`, and with reason
    "cross-loading" when the gap between its two largest absolute
    loadings is below `cross_margin`. Ties go to the lower factor
    index. `data` (n x p, columns matching L.items) enables per-factor
    Cronbach alphas.
    """
    A = np.abs(np.asarray(L.loadings, dtype=float))
    p, m = A.shape
    if data is not None:
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[1] != p:
            raise ValueError("data columns must match L.items")
    retained: list[int] = []
    dropped: list[DroppedItem] = []
    factor_of: dict[int, int] = {}
    for row, item in enumerate(L.items):
        top = float(A[row].max())
        if top < threshold:
            dropped.append(DroppedItem(item, "low loading"))
            continue
        if m >= 2:
            two = np.sort(A[row])[::-1][:2]
            if two[0] - two[1] < cross_margin:
                dropped.append(DroppedItem(item, "cross-loading"))
                continue
        factor_of[item] = int(np.argmax(A[row]))
        retained.append(item)
    factor_items: dict[int, tuple[int, ...]] = {}
    warnings: list[str] = []
    for j in range(m):
        members = [it for it in retained if factor_of[it] == j]
        if not members:
            warnings.append(f"factor {j} retains no items and is left out")
            continue
        members.sort(key=lambda it: -A[L.items.index(it), j])
        factor_items[j] = tuple(members)
        if len(members) < 2:
            warnings.append(f"factor {j} retains fewer than 2 items")
    per_factor_alpha: dict[int, float] = {}
    if data is not None:
        col_of = {item: k for k, item in enumerate(L.items)}
        for j, members in factor_items.items():
            if len(members) >= 2:
                cols = [col_of[it] for it in members]
                per_factor_alpha[j] = cronbach_alpha(data[:, cols])
    return FactorAssignment(
        retained_items=tuple(retained),
        dropped_items=tuple(dropped),
        factor_of=factor_of,
        factor_items=factor_items,
        per_factor_alpha=per_factor_alpha,
        warnings=tuple(warnings),
    )
