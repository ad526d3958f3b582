"""Extraction, rotation and pruning against planted structures."""
from __future__ import annotations

import math

import numpy as np
import pytest

from lockqual.efa import LoadingMatrix, extract_pca, prune, rotate_varimax
from lockqual.efa import _varimax_criterion
from lockqual.psychometrics import correlation_matrix, cronbach_alpha


def _lm(loadings: np.ndarray, items=None) -> LoadingMatrix:
    p, m = loadings.shape
    ss = (loadings**2).sum(axis=0)
    var = ss / p * 100
    return LoadingMatrix(
        items=tuple(items or range(1, p + 1)),
        loadings=loadings,
        eigenvalues=tuple(float(v) for v in ss),
        variance_explained=tuple(float(v) for v in var),
        cumulative_explained=tuple(float(v) for v in np.cumsum(var)),
    )


def test_extract_two_variable_oracle():
    # R = [[1,.6],[.6,1]]: eigenvalues 1.6 and 0.4, one factor kept,
    # loadings sqrt(1.6)/sqrt(2) = sqrt(0.8) on both items
    R = np.array([[1.0, 0.6], [0.6, 1.0]])
    L = extract_pca(R)
    assert L.n_factors == 1
    assert L.eigenvalues[0] == pytest.approx(1.6, abs=1e-12)
    assert np.allclose(L.loadings[:, 0], math.sqrt(0.8), atol=1e-12)
    assert L.variance_explained[0] == pytest.approx(80.0, abs=1e-10)
    assert L.cumulative_explained[-1] <= 100.0 + 1e-9


def test_extract_exchangeable_three_oracle():
    # exchangeable r=0.5 over 3 items: top eigenvalue 1 + 2r = 2,
    # eigenvector (1,1,1)/sqrt(3), loadings sqrt(2/3)
    R = np.full((3, 3), 0.5)
    np.fill_diagonal(R, 1.0)
    L = extract_pca(R)
    assert L.n_factors == 1
    assert L.eigenvalues[0] == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(L.loadings[:, 0], math.sqrt(2.0 / 3.0), atol=1e-12)


def test_extract_identity_has_no_factor():
    with pytest.raises(ValueError):
        extract_pca(np.eye(6))


def test_extract_kaiser_is_strict():
    # eigenvalues exactly (1.4, 1.0, 0.6): only the first passes
    q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))
    R = q @ np.diag([1.4, 1.0, 0.6]) @ q.T
    d = np.sqrt(np.diag(R))
    R = R / np.outer(d, d)  # renormalize to unit diagonal
    vals = np.linalg.eigvalsh(R)
    L = extract_pca(R)
    assert L.n_factors == int((vals > 1.0).sum())


def test_extract_sign_convention():
    R = np.array([[1.0, 0.6], [0.6, 1.0]])
    L = extract_pca(R)
    col = L.loadings[:, 0]
    assert col[np.argmax(np.abs(col))] > 0


def test_varimax_recovers_rotated_simple_structure():
    target = np.zeros((6, 2))
    target[:3, 0] = 0.8
    target[3:, 1] = 0.7
    angle = math.radians(30)
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    mixed = target @ rot.T
    out = rotate_varimax(_lm(mixed))
    # align columns by magnitude pattern before comparing
    got = out.loadings
    if abs(got[0, 0]) < abs(got[0, 1]):
        got = got[:, ::-1]
    got = got * np.sign(got[np.abs(got).argmax(axis=0), range(2)])
    assert np.allclose(got, target, atol=1e-6)
    assert out.rotated


def test_varimax_preserves_communalities():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(10, 3))
    out = rotate_varimax(_lm(A))
    assert np.allclose((out.loadings**2).sum(axis=1), (A**2).sum(axis=1), atol=1e-8)


def test_varimax_never_lowers_criterion():
    rng = np.random.default_rng(12)
    for _ in range(10):
        A = rng.normal(size=(8, 3))
        h = np.sqrt((A**2).sum(axis=1))
        before = _varimax_criterion(A / h[:, None])
        out = rotate_varimax(_lm(A))
        h2 = np.sqrt((out.loadings**2).sum(axis=1))
        after = _varimax_criterion(out.loadings / h2[:, None])
        assert after >= before - 1e-10


def test_varimax_single_factor_identity():
    A = np.full((4, 1), 0.7)
    out = rotate_varimax(_lm(A))
    assert np.allclose(out.loadings, A)


def test_prune_reasons_and_assignment():
    A = np.array(
        [
            [0.80, 0.10],  # clean factor 0
            [0.45, 0.30],  # low loading
            [0.60, 0.55],  # cross-loading (gap 0.05)
            [0.15, 0.75],  # clean factor 1
        ]
    )
    fa = prune(_lm(A, items=(1, 2, 3, 4)))
    assert fa.retained_items == (1, 4)
    reasons = {d.item: d.reason for d in fa.dropped_items}
    assert reasons == {2: "low loading", 3: "cross-loading"}
    assert fa.factor_of[1] == 0 and fa.factor_of[4] == 1


def test_prune_tie_goes_to_lower_factor():
    A = np.array([[0.60, 0.60], [0.70, 0.10], [0.10, 0.70]])
    fa = prune(_lm(A, items=(1, 2, 3)), cross_margin=0.0)
    assert fa.factor_of[1] == 0


def test_prune_orders_factor_items_by_strength():
    A = np.array([[0.62, 0.0], [0.91, 0.0], [0.75, 0.0], [0.0, 0.8], [0.0, 0.9]])
    fa = prune(_lm(A, items=(1, 2, 3, 4, 5)))
    assert fa.factor_items[0] == (2, 3, 1)
    assert fa.factor_items[1] == (5, 4)


def test_prune_warns_on_thin_factor():
    A = np.array([[0.8, 0.0], [0.85, 0.0], [0.0, 0.9]])
    fa = prune(_lm(A, items=(1, 2, 3)))
    assert any("fewer than 2" in w for w in fa.warnings)


def test_prune_leaves_out_a_factor_that_keeps_no_item():
    A = np.array([[0.8, 0.1, 0.0], [0.85, 0.0, 0.1], [0.0, 0.9, 0.1], [0.1, 0.8, 0.0]])
    fa = prune(_lm(A, items=(1, 2, 3, 4)))
    assert dict(fa.factor_items) == {0: (2, 1), 1: (3, 4)}
    assert fa.warnings == ("factor 2 retains no items and is left out",)


def test_prune_computes_per_factor_alpha():
    rng = np.random.default_rng(13)
    f1 = rng.normal(size=500)
    f2 = rng.normal(size=500)
    X = np.column_stack(
        [
            0.8 * f1 + 0.6 * rng.normal(size=500),
            0.8 * f1 + 0.6 * rng.normal(size=500),
            0.8 * f1 + 0.6 * rng.normal(size=500),
            0.8 * f2 + 0.6 * rng.normal(size=500),
            0.8 * f2 + 0.6 * rng.normal(size=500),
            0.8 * f2 + 0.6 * rng.normal(size=500),
        ]
    )
    L = rotate_varimax(extract_pca(correlation_matrix(X)))
    fa = prune(L, data=X)
    assert set(fa.per_factor_alpha) == {0, 1}
    for j, members in fa.factor_items.items():
        cols = [L.items.index(it) for it in members]
        assert fa.per_factor_alpha[j] == pytest.approx(cronbach_alpha(X[:, cols]), rel=1e-12)
        assert fa.per_factor_alpha[j] > 0.6


def test_end_to_end_two_block_recovery_on_likert():
    from lockqual.synth import LIKERT_THRESHOLDS, _discretize

    rng = np.random.default_rng(17)
    n = 2000
    f = rng.multivariate_normal(np.zeros(2), np.eye(2), size=n)
    X = np.empty((n, 6))
    for j in range(3):
        X[:, j] = 0.8 * f[:, 0] + 0.6 * rng.normal(size=n)
    for j in range(3, 6):
        X[:, j] = 0.8 * f[:, 1] + 0.6 * rng.normal(size=n)
    ratings = _discretize(X / X.std(axis=0, ddof=0), LIKERT_THRESHOLDS)
    L = rotate_varimax(extract_pca(correlation_matrix(ratings.astype(float))))
    assert L.n_factors == 2
    fa = prune(L)
    assert fa.retained_items == (1, 2, 3, 4, 5, 6)
    groups = {fa.factor_of[1], fa.factor_of[4]}
    assert groups == {0, 1}
    assert fa.factor_of[1] == fa.factor_of[2] == fa.factor_of[3]
    assert fa.factor_of[4] == fa.factor_of[5] == fa.factor_of[6]


def test_cumulative_variance_nondecreasing_and_bounded():
    d_rng = np.random.default_rng(19)
    f = d_rng.normal(size=(800, 3))
    X = np.hstack([0.75 * f[:, [j]] + 0.66 * d_rng.normal(size=(800, 3)) for j in range(3)])
    L = extract_pca(correlation_matrix(X))
    cum = np.array(L.cumulative_explained)
    assert np.all(np.diff(cum) >= -1e-12)
    assert cum[-1] <= 100.0 + 1e-9
    R = rotate_varimax(L)
    assert R.cumulative_explained[-1] == pytest.approx(cum[-1], abs=1e-8)
