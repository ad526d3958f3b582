"""Planted-truth generators: determinism, structure, recoverability."""
from __future__ import annotations

import numpy as np
import pytest

from lockqual.ahp import (
    aggregate_geomean,
    consistency,
    parse_judgments,
    weights_eigen,
)
from lockqual.dataset import describe
from lockqual.oprobit import fit as probit_fit
from lockqual.psychometrics import adequacy
from lockqual.sem import implied_sigma, sample_cov
from lockqual.synth import (
    LIKERT_THRESHOLDS,
    AhpSpec,
    ProbitSpec,
    SemSurveySpec,
    _discretize,
    default_sem_truth,
    gen_ahp_judgments,
    gen_probit,
    gen_sem_survey,
    true_cfa_model,
    true_structural_model,
)


def test_default_truth_is_unit_variance_and_consistent():
    spec = default_sem_truth()
    sig = implied_sigma(spec.lam, spec.beta, spec.psi, spec.theta)
    # every observed variable has unit implied variance by construction
    assert np.allclose(np.diag(sig), 1.0, atol=1e-12)
    assert spec.observed == tuple(range(34))
    assert spec.latents[-1] == "service_quality"
    # disturbance variance of the endogenous latent keeps total at 1
    m = len(spec.latents)
    a = np.linalg.inv(np.eye(m) - spec.beta)
    c = a @ spec.psi @ a.T
    assert c[m - 1, m - 1] == pytest.approx(1.0, abs=1e-12)


def test_truth_models_align_with_planted_structure():
    spec = default_sem_truth()
    cfa = true_cfa_model()
    full = true_structural_model()
    assert len(cfa.observed) == 29
    assert set(full.observed) == set(cfa.observed) | {0, 33}
    assert full.structural_paths == tuple((f, "service_quality") for f in spec.latents[:-1])
    # the marker of each block is its first item and loads strongly
    obs_index = {v: i for i, v in enumerate(spec.observed)}
    for name in cfa.latents:
        marker = cfa.marker_of(name)
        lat_col = spec.latents.index(name)
        assert marker == cfa.indicators[name][0]
        assert spec.lam[obs_index[marker], lat_col] > 0.6


def test_discretize_thresholds():
    z = np.array([-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0])
    out = _discretize(z, LIKERT_THRESHOLDS)
    # boundary values land in the lower category (side="left")
    assert list(out) == [1, 1, 2, 2, 3, 3, 4, 4, 5]
    with pytest.raises(ValueError):
        _discretize(z, (0.5, 0.5))


def test_survey_generation_deterministic_and_screened():
    spec = default_sem_truth(n=120, seed=42)
    d1 = gen_sem_survey(spec)
    d2 = gen_sem_survey(spec)
    assert d1 == d2
    assert d1.n == 120
    assert d1.respondent_ids[0] == "r0001"
    assert d1.respondent_ids[-1] == "r0120"
    for r in d1.respondents:
        assert 1 <= r.sati_before <= 5
        assert 1 <= r.sati_after <= 5
        assert r.delay_hours is not None and r.delay_hours > 0
        assert set(r.ratings) == set(range(1, 33))
        for v in r.ratings.values():
            assert 1 <= v <= 5
    d3 = gen_sem_survey(default_sem_truth(n=120, seed=43))
    assert d3 != d1


def test_survey_missing_rate():
    base = default_sem_truth(n=300, seed=8)
    spec = SemSurveySpec(
        n=base.n,
        seed=base.seed,
        observed=base.observed,
        latents=base.latents,
        lam=base.lam,
        beta=base.beta,
        psi=base.psi,
        theta=base.theta,
        missing_rate=0.05,
    )
    d = gen_sem_survey(spec)
    n_cells = sum(len(r.ratings) for r in d.respondents)
    assert n_cells < 300 * 32
    share = 1.0 - n_cells / (300 * 32)
    assert 0.02 < share < 0.09


def test_survey_covariance_tracks_planted_sigma():
    spec = default_sem_truth(n=4000, seed=3)
    d = gen_sem_survey(spec)
    items = (1, 2, 3, 5, 6, 7)
    _, X = d.matrix(items)
    R = np.corrcoef(X, rowvar=False)
    sig = implied_sigma(spec.lam, spec.beta, spec.psi, spec.theta)
    obs_index = {v: i for i, v in enumerate(spec.observed)}
    # Likert cutting attenuates correlations; expect the right ordering
    # and rough magnitude, not equality
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            rho_true = sig[obs_index[items[a]], obs_index[items[b]]]
            assert R[a, b] > 0.45 * rho_true
            assert R[a, b] < rho_true + 0.05


def test_survey_delay_negatively_tracks_time_factor():
    spec = default_sem_truth(n=3000, seed=19)
    d = gen_sem_survey(spec)
    time_items = (5, 6, 7, 8, 9, 10)
    _, X = d.matrix(time_items)
    delays = np.array([r.delay_hours for r in d.respondents])
    mean_rating = X.mean(axis=1)
    rho = np.corrcoef(np.log(delays), mean_rating)[0, 1]
    assert rho < -0.3


def test_survey_feeds_descriptives_and_adequacy():
    spec = default_sem_truth(n=800, seed=4)
    d = gen_sem_survey(spec)
    rep = describe(d)
    assert set(rep.items) == set(range(1, 33))
    _, X = d.matrix(tuple(range(1, 33)))
    adq = adequacy(X)
    assert adq.cronbach_alpha > 0.8
    assert adq.kmo > 0.7
    assert adq.bartlett_p < 1e-6


def test_ahp_rows_deterministic_and_parseable():
    spec = AhpSpec(n_respondents=10, seed=11)
    rows1 = gen_ahp_judgments(spec)
    rows2 = gen_ahp_judgments(spec)
    assert rows1 == rows2
    # 3 criteria pairs + 3 leaf pairs per respondent
    assert len(rows1) == 10 * 6
    experts = parse_judgments(rows1)
    assert len(experts) == 10
    assert experts[0].respondent_id == "e001"


# weights whose pairwise ratios sit exactly on scale rungs (3, 3, 1 at
# both levels), so rounding to the ladder loses nothing
_ALIGNED_WEIGHTS = {
    "safe_security": 0.45,
    "time_convenience": 0.15,
    "lockage_regulation": 0.15,
    "supporting_facilities": 0.05,
    "comfortable_conditions": 0.10,
    "staff_skills": 0.10,
}


def test_ahp_zero_noise_exact_for_ladder_aligned_weights():
    spec = AhpSpec(n_respondents=5, seed=1, noise_level=0.0, true_weights=_ALIGNED_WEIGHTS)
    experts = parse_judgments(gen_ahp_judgments(spec))
    # every respondent's matrix is the rounded-truth matrix
    for e in experts[1:]:
        assert np.allclose(e.criteria.values, experts[0].criteria.values)
    agg = aggregate_geomean([e.criteria for e in experts])
    wv, lam = weights_eigen(agg)
    assert consistency(agg, lam).passed
    assert wv.weights["WLOE"] == pytest.approx(0.6, abs=1e-9)
    assert wv.weights["WLFP"] == pytest.approx(0.2, abs=1e-9)
    assert wv.weights["WLMS"] == pytest.approx(0.2, abs=1e-9)


def test_ahp_uniform_weights_give_all_center_selections():
    uniform = {f: 1.0 / 6.0 for f in _ALIGNED_WEIGHTS}
    spec = AhpSpec(n_respondents=4, seed=2, noise_level=0.0, true_weights=uniform)
    rows = gen_ahp_judgments(spec)
    assert all(row["selection"] == "E" for row in rows)


def test_ahp_moderate_noise_recovers_aligned_weights():
    # aggregated eigen weights stay within 0.03 of the planted criteria
    # weights across seeds at survey-scale panels
    for seed in (11, 12, 13, 14, 15):
        spec = AhpSpec(n_respondents=50, seed=seed, noise_level=0.2, true_weights=_ALIGNED_WEIGHTS)
        experts = parse_judgments(gen_ahp_judgments(spec))
        agg = aggregate_geomean([e.criteria for e in experts])
        wv, _ = weights_eigen(agg)
        assert wv.weights["WLOE"] == pytest.approx(0.6, abs=0.03)
        assert wv.weights["WLFP"] == pytest.approx(0.2, abs=0.03)
        assert wv.weights["WLMS"] == pytest.approx(0.2, abs=0.03)


def test_ahp_noise_creates_some_inconsistency():
    spec = AhpSpec(n_respondents=49, seed=11, noise_level=0.35)
    experts = parse_judgments(gen_ahp_judgments(spec))
    flags = []
    for e in experts:
        _, lam = weights_eigen(e.criteria)
        flags.append(consistency(e.criteria, lam).passed)
    assert any(flags)
    assert not all(flags)


def test_probit_draws_recover_truth():
    spec = ProbitSpec(beta=(0.8, -0.5), kappa=(-1.0, 0.0, 1.0), n=2500, seed=23)
    X, y = gen_probit(spec)
    assert X.shape == (2500, 2)
    assert set(np.unique(y)) == {1, 2, 3, 4}
    X2, y2 = gen_probit(spec)
    assert np.array_equal(X, X2) and np.array_equal(y, y2)
    m = probit_fit(X, y)
    assert m.converged
    assert np.all(np.abs(m.beta - np.array(spec.beta)) < 0.08)
    assert np.all(np.abs(m.kappa - np.array(spec.kappa)) < 0.08)
    with pytest.raises(ValueError):
        gen_probit(ProbitSpec(beta=(0.5,), kappa=(1.0, 0.0), n=10, seed=1))


def test_probit_large_sample_tight_recovery():
    spec = ProbitSpec(beta=(0.6,), kappa=(-1.0, 0.0, 1.0), n=50000, seed=6)
    X, y = gen_probit(spec)
    m = probit_fit(X, y)
    assert m.converged
    assert abs(m.beta[0] - 0.6) < 0.03


def test_probit_null_shares_match_cdf_gaps():
    import scipy.stats

    kappa = (-0.9, 0.2, 1.1)
    spec = ProbitSpec(beta=(0.0,), kappa=kappa, n=50000, seed=14)
    _, y = gen_probit(spec)
    shares = np.bincount(y, minlength=5)[1:] / len(y)
    kext = np.concatenate(([-np.inf], kappa, [np.inf]))
    expect = np.diff(scipy.stats.norm.cdf(kext))
    assert np.max(np.abs(shares - expect)) < 0.01


def test_likert_marginals_match_threshold_gaps():
    import scipy.stats

    spec = default_sem_truth(n=4000, seed=9)
    d = gen_sem_survey(spec)
    cuts = np.concatenate(([-np.inf], LIKERT_THRESHOLDS, [np.inf]))
    expect = np.diff(scipy.stats.norm.cdf(cuts))
    for item in (1, 17, 33):
        vals = np.array([r.rating(item) for r in d.respondents])
        shares = np.bincount(vals, minlength=6)[1:] / len(vals)
        assert np.max(np.abs(shares - expect)) < 0.03


def test_empty_survey_draw():
    spec = default_sem_truth(n=0, seed=1)
    d = gen_sem_survey(spec)
    assert d.n == 0
    assert d.respondents == ()


def test_sample_cov_of_continuous_draws_matches_truth():
    # law-of-large-numbers check on the planted covariance
    spec = default_sem_truth(n=200000, seed=31)
    sig = implied_sigma(spec.lam, spec.beta, spec.psi, spec.theta)
    rng = np.random.default_rng(31)
    draws = rng.standard_normal((200000, sig.shape[0])) @ np.linalg.cholesky(sig).T
    S = sample_cov(draws)
    assert np.max(np.abs(S - sig)) < 0.01
