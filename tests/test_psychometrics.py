"""Reliability and adequacy statistics against hand-computed oracles."""
from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from lockqual.psychometrics import adequacy, bartlett, correlation_matrix, cronbach_alpha, kmo
from lockqual.synth import default_sem_truth, gen_sem_survey


def test_alpha_duplicated_item_is_one():
    rng = np.random.default_rng(1)
    x = rng.integers(1, 6, size=200).astype(float)
    X = np.column_stack([x, x, x])
    assert cronbach_alpha(X) == pytest.approx(1.0, abs=1e-12)


def test_alpha_independent_items_near_zero():
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(5000, 2))
    assert abs(cronbach_alpha(X)) < 0.05


def test_alpha_matches_direct_formula():
    rng = np.random.default_rng(3)
    base = rng.normal(size=300)
    X = np.column_stack([base + rng.normal(scale=s, size=300) for s in (0.5, 0.8, 1.1, 0.6)])
    k = X.shape[1]
    direct = k / (k - 1) * (1 - X.var(axis=0, ddof=1).sum() / X.sum(axis=1).var(ddof=1))
    assert cronbach_alpha(X) == pytest.approx(direct, rel=1e-12)


def test_alpha_rejects_degenerate_input():
    with pytest.raises(ValueError):
        cronbach_alpha(np.ones((10, 1)))
    with pytest.raises(ValueError):
        cronbach_alpha(np.ones((1, 3)))
    with pytest.raises(ValueError):
        cronbach_alpha(np.ones((10, 3)))  # zero total variance


def test_kmo_exchangeable_oracle():
    # one-factor population R with loading 0.8 over 6 items:
    # off-diagonal r = 0.64. For R = (1-r)I + rJ the inverse is
    # (1/(1-r)) (I - r/(1-r+p r) J), so every partial correlation is
    #   q = -Rinv_ij / Rinv_ii
    # computed here with scalar arithmetic only.
    r, p = 0.64, 6
    denom = 1 - r + p * r
    inv_off = (1 / (1 - r)) * (-r / denom)
    inv_diag = (1 / (1 - r)) * (1 - r / denom)
    q = -inv_off / inv_diag
    expected = (p * (p - 1) * r**2) / (p * (p - 1) * r**2 + p * (p - 1) * q**2)
    R = np.full((p, p), r)
    np.fill_diagonal(R, 1.0)
    assert kmo(R) == pytest.approx(expected, abs=1e-12)
    assert kmo(R) == pytest.approx(0.926867, abs=1e-6)


def test_kmo_identity_is_degenerate():
    with pytest.raises(ValueError):
        kmo(np.eye(5))


def test_kmo_requires_invertible_matrix():
    R = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        kmo(R)


def test_kmo_rejects_an_indefinite_matrix_without_a_sqrt_warning():
    # symmetric with a unit diagonal, but one eigenvalue is -0.8 and every
    # diagonal cell of the inverse is negative
    R = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not positive definite"):
            kmo(R)


def test_bartlett_frozen_example():
    # p=2, r=0.5, N=100: chi2 = -(99 - 9/6) ln(0.75) = 28.0490...
    R = np.array([[1.0, 0.5], [0.5, 1.0]])
    chi2, df, p_value = bartlett(R, 100)
    assert chi2 == pytest.approx(-97.5 * math.log(0.75), rel=1e-12)
    assert chi2 == pytest.approx(28.049, abs=0.01)
    assert df == 1
    assert 0 < p_value < 1e-6


def test_bartlett_identity_not_significant():
    chi2, df, p_value = bartlett(np.eye(4), 200)
    assert chi2 == pytest.approx(0.0, abs=1e-10)
    assert df == 6
    assert p_value == pytest.approx(1.0)


def test_bartlett_p_value_is_chi2_upper_tail():
    # df=1: P(chi2 > z^2) = 2 (1 - Phi(z)); check at chi2 = 4 (z = 2)
    R = np.array([[1.0, 0.5], [0.5, 1.0]])
    n = 2 + 4 / -math.log(0.75) + 9 / 6  # calibrated so chi2 == 4
    chi2, _, p_value = bartlett(R, int(round(n)))
    from scipy.stats import norm

    assert p_value == pytest.approx(2 * norm.sf(math.sqrt(chi2)), rel=1e-10)


def test_bartlett_requires_n_above_p():
    with pytest.raises(ValueError):
        bartlett(np.eye(5), 5)


def test_adequacy_wires_the_three_statistics():
    rng = np.random.default_rng(4)
    f = rng.normal(size=400)
    X = np.column_stack([0.8 * f + 0.6 * rng.normal(size=400) for _ in range(6)])
    rep = adequacy(X)
    assert rep.cronbach_alpha == pytest.approx(cronbach_alpha(X), rel=1e-12)
    R = correlation_matrix(X)
    assert rep.kmo == pytest.approx(kmo(R), rel=1e-12)
    chi2, df, p_value = bartlett(R, 400)
    assert rep.bartlett_chi2 == pytest.approx(chi2, rel=1e-12)
    assert rep.bartlett_df == df
    assert rep.bartlett_p == pytest.approx(p_value, rel=1e-12)
    assert rep.kmo > 0.8
    assert rep.bartlett_p < 0.01


def test_correlation_matrix_rejects_constant_column():
    X = np.column_stack([np.arange(10.0), np.ones(10)])
    with pytest.raises(ValueError):
        correlation_matrix(X)


def _survey_with_q6_a_copy_of_q5():
    d = gen_sem_survey(default_sem_truth(n=300, seed=0))
    codes = d.codes.copy()
    codes[:, 6] = codes[:, 5]
    return replace(d, codes=codes)


def test_kmo_and_bartlett_refuse_a_singular_r_and_name_the_dependence():
    # the moments are exact, so q6 := q5 makes R exactly singular; inv and
    # slogdet would return garbage for it without an error
    d = _survey_with_q6_a_copy_of_q5()
    _, X = d.matrix(d.catalog.indices)
    R = correlation_matrix(X)
    dependence = r"R is singular: columns \[4, 5\] are linearly dependent"
    with pytest.raises(ValueError, match=dependence):
        kmo(R)
    with pytest.raises(ValueError, match=dependence):
        bartlett(R, X.shape[0])
    with pytest.raises(ValueError, match=dependence):
        adequacy(d.moments(d.catalog.indices))
