"""Covariance-structure machinery: algebra, gradient, fit, inference."""
from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from lockqual.sem import (
    MeasurementModel,
    SemEstimate,
    _chi2_indices,
    _gfi,
    _make_objective,
    _ParamMap,
    construct_validity,
    fit_indices,
    fit_ml,
    implied_sigma,
    sample_cov,
    standardize,
)


def _two_factor_cov_model() -> MeasurementModel:
    return MeasurementModel(
        latents=("f1", "f2"),
        indicators={"f1": (1, 2, 3), "f2": (4, 5, 6)},
        latent_covariances=(("f1", "f2"),),
    )


def _two_factor_path_model() -> MeasurementModel:
    return MeasurementModel(
        latents=("f1", "f2"),
        indicators={"f1": (1, 2, 3), "f2": (4, 5, 6)},
        structural_paths=(("f1", "f2"),),
    )


def _truth_cov():
    lam = np.zeros((6, 2))
    lam[0:3, 0] = (1.0, 0.8, 0.9)
    lam[3:6, 1] = (1.0, 0.7, 1.1)
    beta = np.zeros((2, 2))
    psi = np.array([[0.8, 0.3], [0.3, 0.9]])
    theta = np.array([0.5, 0.6, 0.4, 0.55, 0.45, 0.5])
    return lam, beta, psi, theta


def test_implied_sigma_worked_example():
    lam = np.array([[1.0], [1.0]])
    beta = np.zeros((1, 1))
    psi = np.array([[1.0]])
    theta = np.array([0.5, 0.5])
    sig = implied_sigma(lam, beta, psi, theta)
    assert np.allclose(sig, [[1.5, 1.0], [1.0, 1.5]], atol=1e-15)


def test_implied_sigma_matches_elementwise_assembly():
    lam, beta, psi, theta = _truth_cov()
    beta = beta.copy()
    beta[1, 0] = 0.4  # add a path on top of the covariance structure
    sig = implied_sigma(lam, beta, psi, theta)
    # brute force: element-by-element sums, no matrix products
    m = 2
    imb_inv = np.linalg.inv(np.eye(m) - beta)
    c = np.zeros((m, m))
    for a in range(m):
        for b in range(m):
            for u in range(m):
                for v in range(m):
                    c[a, b] += imb_inv[a, u] * psi[u, v] * imb_inv[b, v]
    expect = np.zeros((6, 6))
    for i in range(6):
        for j in range(6):
            for a in range(m):
                for b in range(m):
                    expect[i, j] += lam[i, a] * c[a, b] * lam[j, b]
            if i == j:
                expect[i, j] += theta[i]
    assert np.allclose(sig, expect, atol=1e-10)


def test_implied_sigma_singular_ib_raises():
    lam = np.ones((2, 1))
    beta = np.array([[1.0]])
    with pytest.raises(ValueError):
        implied_sigma(lam, beta, np.array([[1.0]]), np.array([0.5, 0.5]))


def test_model_validation_rules():
    with pytest.raises(ValueError):  # item on two latents
        MeasurementModel(("a", "b"), {"a": (1, 2), "b": (2, 3)})
    with pytest.raises(ValueError):  # cycle
        MeasurementModel(
            ("a", "b"),
            {"a": (1, 2), "b": (3, 4)},
            structural_paths=(("a", "b"), ("b", "a")),
        )
    with pytest.raises(ValueError):  # covariance with endogenous latent
        MeasurementModel(
            ("a", "b"),
            {"a": (1, 2), "b": (3, 4)},
            structural_paths=(("a", "b"),),
            latent_covariances=(("a", "b"),),
        )
    with pytest.raises(ValueError):  # lone indicator without a path
        MeasurementModel(("a", "b"), {"a": (1, 2), "b": (3,)})


def test_model_json_round_trip():
    m = _two_factor_path_model()
    again = MeasurementModel.from_json(m.to_json())
    assert again == m
    assert again.observed == (1, 2, 3, 4, 5, 6)
    assert again.marker_of("f2") == 4


A_B = [{"name": "a", "indicators": [1, 2]}, {"name": "b", "indicators": [3, 4]}]


@pytest.mark.parametrize(
    "doc, field",
    [
        ([], "'latents'"),
        ({}, "'latents'"),
        ({"latents": {"a": [1, 2]}}, "'latents'"),
        ({"latents": [{"indicators": [1, 2]}]}, "latents[0] has no 'name'"),
        ({"latents": [{"name": "a"}]}, "latents[0] 'indicators'"),
        ({"latents": [A_B[0], {"name": "b", "indicators": [3, 4.5]}]}, "latents[1] 'indicators'"),
        ({"latents": [{"name": "a", "indicators": [True, 2]}]}, "latents[0] 'indicators'"),
        ({"latents": A_B, "paths": [{"from": "a"}]}, "'paths'"),
        ({"latents": A_B, "covariances": [["a"]]}, "'covariances'"),
    ],
)
def test_model_json_names_the_malformed_field(doc, field):
    with pytest.raises(ValueError, match=re.escape(field)):
        MeasurementModel.from_json(json.dumps(doc))


def test_gradient_matches_central_differences():
    model = _two_factor_path_model()
    lam, beta, psi, theta = _truth_cov()
    beta = beta.copy()
    beta[1, 0] = 0.4
    psi = np.array([[0.8, 0.0], [0.0, 0.9]])
    S = implied_sigma(lam, beta, psi, theta)
    S = S + 0.05 * np.eye(6)  # move S off the optimum so the gradient is nonzero
    pmap = _ParamMap(model)
    fun, grad = _make_objective(pmap, S)
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 10:
        vec = pmap.pack_start(S) + rng.uniform(-0.3, 0.3, size=pmap.q)
        if not math.isfinite(fun(vec)):
            continue
        g = grad(vec)
        h = 1e-6
        fd = np.empty_like(g)
        for t in range(pmap.q):
            e = np.zeros(pmap.q)
            e[t] = h
            fd[t] = (fun(vec + e) - fun(vec - e)) / (2 * h)
        rel = np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g))
        assert rel < 1e-5
        checked += 1


def test_perfect_fit_recovers_truth():
    model = _two_factor_cov_model()
    lam, beta, psi, theta = _truth_cov()
    sigma_true = implied_sigma(lam, beta, psi, theta)
    est = fit_ml(model, sigma_true, n=500)
    assert est.converged
    assert 0.0 <= est.grad_max < 1e-6  # the default gtol
    assert est.f_min < 1e-8
    assert np.allclose(est.lam, lam, atol=1e-4)
    assert np.allclose(est.psi, psi, atol=1e-4)
    assert np.allclose(est.theta, theta, atol=1e-4)
    assert est.chi2 == pytest.approx(499 * est.f_min)
    assert est.df == 6 * 7 // 2 - 13
    assert est.heywood == ()


def test_objective_never_increases_along_accepted_iterates():
    # monotonicity is enforced by the line search; verify via history of
    # the objective at a coarse grid of restarts
    model = _two_factor_cov_model()
    lam, beta, psi, theta = _truth_cov()
    sigma_true = implied_sigma(lam, beta, psi, theta)
    rng = np.random.default_rng(3)
    noise = rng.normal(size=(400, 6)) @ np.linalg.cholesky(sigma_true).T
    S = sample_cov(noise)
    pmap = _ParamMap(model)
    fun, _ = _make_objective(pmap, S)
    est = fit_ml(model, S, n=400)
    # the optimum must not be worse than the untouched start
    assert est.f_min <= fun(pmap.pack_start(S)) + 1e-12


def test_chi2_scale_invariance():
    model = _two_factor_cov_model()
    lam, beta, psi, theta = _truth_cov()
    rng = np.random.default_rng(29)
    sigma_true = implied_sigma(lam, beta, psi, theta)
    noise = rng.normal(size=(300, 6)) @ np.linalg.cholesky(sigma_true).T
    S = sample_cov(noise)
    est1 = fit_ml(model, S, n=300)
    est2 = fit_ml(model, 4.0 * S, n=300)
    assert est1.chi2 == pytest.approx(est2.chi2, abs=1e-6)


def test_standardize_closed_form():
    model = MeasurementModel(("g",), {"g": (1, 2, 3)})
    lam = np.array([[1.0], [0.9], [1.1]])
    psi = np.array([[0.64]])
    theta = np.array([0.36, 0.40, 0.30])
    sig = implied_sigma(lam, np.zeros((1, 1)), psi, theta)
    nanv = np.full_like(lam, np.nan)
    est = SemEstimate(
        model=model,
        lam=lam,
        beta=np.zeros((1, 1)),
        psi=psi,
        theta=theta,
        se_lam=nanv,
        se_beta=np.full((1, 1), np.nan),
        se_psi=np.full((1, 1), np.nan),
        se_theta=np.full(3, np.nan),
        sample=sig,
        n=100,
        f_min=0.0,
        chi2=0.0,
        df=0,
        n_iter=0,
        converged=True,
        grad_max=0.0,
        heywood=(),
        warnings=(),
    )
    std = standardize(est)
    for i in range(3):
        expected = lam[i, 0] * 0.8 / math.sqrt(lam[i, 0] ** 2 * 0.64 + theta[i])
        assert std.std_lam[i, 0] == pytest.approx(expected, rel=1e-12)
        assert std.smc[i] == pytest.approx(expected**2, rel=1e-12)


def test_standardize_refuses_a_latent_without_variance():
    # a fit whose latent variance reached zero has no unit-sd latent scale;
    # dividing by it would put NaN into the correlations and validity tables
    model = MeasurementModel(("g",), {"g": (1, 2, 3)})
    lam = np.array([[1.0], [0.9], [1.1]])
    theta = np.array([0.36, 0.40, 0.30])
    nanv = np.full_like(lam, np.nan)
    est = SemEstimate(
        model=model,
        lam=lam,
        beta=np.zeros((1, 1)),
        psi=np.zeros((1, 1)),
        theta=theta,
        se_lam=nanv,
        se_beta=np.full((1, 1), np.nan),
        se_psi=np.full((1, 1), np.nan),
        se_theta=np.full(3, np.nan),
        sample=np.diag(theta),
        n=100,
        f_min=0.0,
        chi2=0.0,
        df=0,
        n_iter=0,
        converged=False,
        grad_max=0.0,
        heywood=(),
        warnings=(),
    )
    with pytest.raises(ValueError, match="^latent variance collapsed to zero for: g$"):
        standardize(est)


def test_standardized_paths_and_correlations_bounded():
    model = _two_factor_path_model()
    lam, _, _, theta = _truth_cov()
    beta = np.zeros((2, 2))
    beta[1, 0] = 0.5
    psi = np.diag([0.8, 0.6])
    sig = implied_sigma(lam, beta, psi, theta)
    est = standardize(fit_ml(model, sig, n=400))
    # std path = b * sd(f1)/sd(f2) with Var(f2) = b^2 Var(f1) + psi2
    sd1 = math.sqrt(0.8)
    sd2 = math.sqrt(0.25 * 0.8 + 0.6)
    assert est.std_beta[1, 0] == pytest.approx(0.5 * sd1 / sd2, abs=1e-5)
    assert np.all(np.abs(est.latent_corr) <= 1.0 + 1e-9)


def test_standard_errors_match_numeric_information():
    # at an exact fit the expected information equals the Hessian of
    # F_ML in raw parameter space; finite-difference it independently
    model = _two_factor_cov_model()
    lam, beta, psi, theta = _truth_cov()
    sigma_true = implied_sigma(lam, beta, psi, theta)
    n = 500
    est = fit_ml(model, sigma_true, n=n)

    def pack_raw(lam, psi, theta):
        return np.concatenate(
            [
                [lam[1, 0], lam[2, 0], lam[4, 1], lam[5, 1]],
                [psi[0, 1]],
                [psi[0, 0], psi[1, 1]],
                theta,
            ]
        )

    def f_raw(vec):
        lam2 = np.zeros((6, 2))
        lam2[0, 0] = 1.0
        lam2[3, 1] = 1.0
        lam2[1, 0], lam2[2, 0], lam2[4, 1], lam2[5, 1] = vec[0:4]
        psi2 = np.array([[vec[5], vec[4]], [vec[4], vec[6]]])
        theta2 = vec[7:13]
        sig = implied_sigma(lam2, np.zeros((2, 2)), psi2, theta2)
        sign, logdet = np.linalg.slogdet(sig)
        if sign <= 0:
            return math.inf
        return float(
            logdet
            + np.trace(np.linalg.solve(sig, sigma_true))
            - np.linalg.slogdet(sigma_true)[1]
            - 6
        )

    x0 = pack_raw(est.lam, est.psi, est.theta)
    q = x0.size
    h = 1e-4
    hess = np.empty((q, q))
    for i in range(q):
        for j in range(q):
            ei = np.zeros(q)
            ej = np.zeros(q)
            ei[i] = h
            ej[j] = h
            hess[i, j] = (f_raw(x0 + ei + ej) - f_raw(x0 + ei - ej) - f_raw(x0 - ei + ej) + f_raw(x0 - ei - ej)) / (4 * h * h)
    acov = (2.0 / (n - 1)) * np.linalg.inv(0.5 * (hess + hess.T))
    se_fd = np.sqrt(np.diag(acov))
    got = np.concatenate(
        [
            [est.se_lam[1, 0], est.se_lam[2, 0], est.se_lam[4, 1], est.se_lam[5, 1]],
            [est.se_psi[0, 1]],
            [est.se_psi[0, 0], est.se_psi[1, 1]],
            est.se_theta,
        ]
    )
    assert np.allclose(got, se_fd, rtol=1e-3)


def test_heywood_case_is_flagged_not_clamped():
    # exact-fit communality for item 1 would be .8*.8/.5 = 1.28 > 1,
    # so its residual variance is driven into the zero boundary
    S = np.array([[1.0, 0.8, 0.8], [0.8, 1.0, 0.5], [0.8, 0.5, 1.0]])
    model = MeasurementModel(("g",), {"g": (1, 2, 3)})
    est = fit_ml(model, S, n=200)
    assert 1 in est.heywood
    assert any("boundary" in w for w in est.warnings)
    assert est.theta[0] > 0  # log parameterization keeps it positive


def test_identification_guard():
    model = MeasurementModel(("g",), {"g": (1, 2)})
    S = np.array([[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(ValueError):
        fit_ml(model, S, n=100)  # 4 params, 3 moments


def test_sample_cov_validation():
    model = _two_factor_cov_model()
    bad = np.eye(6)
    bad[0, 0] = -1.0
    with pytest.raises(ValueError):
        fit_ml(model, bad, n=100)
    with pytest.raises(ValueError):
        fit_ml(model, np.eye(5), n=100)


def test_chi2_indices_frozen_example():
    out = _chi2_indices(100.0, 50, 1000.0, 60, 451)
    assert out["cmin_df"] == pytest.approx(2.0)
    assert out["rmsea"] == pytest.approx(0.0471, abs=1e-4)
    assert out["nfi"] == pytest.approx(0.9)
    assert out["cfi"] == pytest.approx(0.9468, abs=1e-4)
    assert out["tli"] == pytest.approx((1000 / 60 - 2) / (1000 / 60 - 1), rel=1e-12)
    assert out["ifi"] == pytest.approx(900 / 950, rel=1e-12)


def test_chi2_indices_better_than_df_caps():
    out = _chi2_indices(40.0, 50, 1000.0, 60, 451)
    assert out["rmsea"] == 0.0
    assert out["cfi"] == 1.0


def test_gfi_hand_example():
    S = np.array([[1.0, 0.2], [0.2, 1.0]])
    assert _gfi(np.eye(2), S) == pytest.approx(1 - 0.08 / 2.08, rel=1e-12)


def test_fit_indices_on_perfect_fit():
    model = _two_factor_cov_model()
    lam, beta, psi, theta = _truth_cov()
    sigma_true = implied_sigma(lam, beta, psi, theta)
    est = fit_ml(model, sigma_true, n=500)
    fi = fit_indices(est)
    assert fi.cmin_df == pytest.approx(0.0, abs=1e-6)
    assert fi.rmsea == pytest.approx(0.0, abs=1e-6)
    assert fi.gfi == pytest.approx(1.0, abs=1e-6)
    assert fi.agfi == pytest.approx(1.0, abs=1e-4)
    assert fi.cfi == 1.0
    assert fi.nfi == pytest.approx(1.0, abs=1e-6)
    assert fi.baseline_df == 15
    assert fi.baseline_chi2 > fi.chi2


def test_construct_validity_frozen_cr_ave():
    # three standardized loadings of 0.8: AVE = 0.64,
    # CR = 2.4^2 / (2.4^2 + 3 * 0.36) = 0.842105...
    model = MeasurementModel(("g",), {"g": (1, 2, 3)})
    lam = np.array([[1.0], [1.0], [1.0]])
    psi = np.array([[0.64]])
    theta = np.array([0.36, 0.36, 0.36])
    sig = implied_sigma(lam, np.zeros((1, 1)), psi, theta)
    est = fit_ml(model, sig, n=300)
    rep = construct_validity(est)
    assert rep.ave["g"] == pytest.approx(0.64, abs=1e-6)
    assert rep.composite_reliability["g"] == pytest.approx(5.76 / 6.84, abs=1e-6)
    assert rep.convergent_pass["g"]
    assert rep.fornell_larcker[0, 0] == pytest.approx(0.8, abs=1e-6)


def test_construct_validity_discriminant_comparison():
    model = _two_factor_cov_model()
    lam, beta, psi, theta = _truth_cov()
    sigma_true = implied_sigma(lam, beta, psi, theta)
    est = standardize(fit_ml(model, sigma_true, n=500))
    rep = construct_validity(est)
    corr_true = 0.3 / math.sqrt(0.8 * 0.9)
    assert rep.fornell_larcker[0, 1] == pytest.approx(corr_true, abs=1e-5)
    for name in rep.factors:
        assert rep.discriminant_pass[name]


def test_param_table_shape_and_flags():
    model = _two_factor_cov_model()
    lam, beta, psi, theta = _truth_cov()
    sigma_true = implied_sigma(lam, beta, psi, theta)
    est = standardize(fit_ml(model, sigma_true, n=500))
    rows = est.param_table()
    kinds = [r["kind"] for r in rows]
    assert kinds.count("loading") == 6
    assert kinds.count("covariance") == 1
    assert kinds.count("variance") == 2
    assert kinds.count("residual") == 6
    markers = [r for r in rows if r["kind"] == "loading" and r["fixed"]]
    assert len(markers) == 2
    assert all(r["se"] is None for r in markers)
    for r in rows:
        if r["p"] is not None:
            assert 0.0 <= r["p"] <= 1.0


def test_sampling_recovery_standardized_loadings():
    model = _two_factor_cov_model()
    lam, beta, psi, theta = _truth_cov()
    sigma_true = implied_sigma(lam, beta, psi, theta)
    c = psi
    sd_lat = np.sqrt(np.diag(c))
    sd_obs = np.sqrt(np.diag(sigma_true))
    std_true = lam * sd_lat[None, :] / sd_obs[:, None]
    rng = np.random.default_rng(31)
    draws = rng.normal(size=(2000, 6)) @ np.linalg.cholesky(sigma_true).T
    est = standardize(fit_ml(model, sample_cov(draws), n=2000))
    mask = lam != 0
    assert np.all(np.abs(est.std_lam[mask] - std_true[mask]) < 0.05)
