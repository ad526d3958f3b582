"""Two-stage scores, holdout error, response entropy, delay bands."""
from __future__ import annotations

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lockqual.catalog import DEFAULT_CATALOG
from lockqual.dataset import RespondentRecord, SurveyDataset
from lockqual.scoring import (
    DelayStrata,
    ScoreWeights,
    count_entropy,
    delay_strata,
    entropy,
    entropy_report,
    lvr,
    score_respondent,
    sqr,
    validation_summary,
    weights_from_estimate,
    write_scores_csv,
)
from lockqual.sem import MeasurementModel, fit_ml, implied_sigma, standardize


def _resp(rid: str, ratings: dict[int, int], sati_after: int = 4, delay: float | None = None) -> RespondentRecord:
    return RespondentRecord(
        id=rid,
        age_band="31-40",
        gender="male",
        experience_band="6-10",
        vessel_type="dry bulk",
        dwt_band="1000-2999",
        delay_hours=delay,
        sati_before=3,
        sati_after=sati_after,
        ratings=ratings,
    )


def _weights() -> ScoreWeights:
    return ScoreWeights(
        latents=("a", "b"),
        item_weights={"a": {1: 0.8, 2: 0.6}, "b": {3: 0.7}},
        latent_weights={"a": 0.417, "b": 0.300},
    )


def test_lvr_hand_value():
    w = _weights()
    r = _resp("r1", {1: 5, 2: 3, 3: 4})
    assert lvr(r, w, "a") == pytest.approx((5 * 0.8 + 3 * 0.6) / 1.4, rel=1e-12)
    assert lvr(r, w, "a") == pytest.approx(4.142857142857143)


def test_lvr_missing_item_gives_none():
    w = _weights()
    r = _resp("r1", {1: 5, 3: 4})  # item 2 missing
    assert lvr(r, w, "a") is None
    assert lvr(r, w, "b") == pytest.approx(4.0)


def test_sqr_hand_value():
    w = _weights()
    out = sqr({"a": 4.0, "b": 2.0}, w)
    assert out == pytest.approx((4 * 0.417 + 2 * 0.300) / 0.717, rel=1e-12)
    assert out == pytest.approx(3.16318, abs=1e-5)


def test_scores_stay_inside_scale():
    w = _weights()
    rng = np.random.default_rng(5)
    for _ in range(50):
        ratings = {i: int(rng.integers(1, 6)) for i in (1, 2, 3)}
        s = score_respondent(_resp("x", ratings), w)
        assert s is not None
        assert 1.0 <= s.sqr <= 5.0
        for v in s.lvr.values():
            assert 1.0 <= v <= 5.0


def test_relative_error_definition():
    w = _weights()
    r = _resp("r1", {1: 4, 2: 4, 3: 4}, sati_after=5)
    s = score_respondent(r, w)
    assert s is not None
    assert s.sqr == pytest.approx(4.0)
    assert s.error == pytest.approx(0.2)
    assert s.signed_error == pytest.approx(-0.2)


def test_nonpositive_weights_flagged_and_refused():
    w = ScoreWeights(
        latents=("a",),
        item_weights={"a": {1: 0.8, 2: -0.1}},
        latent_weights={"a": 0.5},
    )
    assert "item:a:2" in w.nonpositive
    with pytest.raises(ValueError):
        lvr(_resp("r", {1: 3, 2: 3}), w, "a")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_weights_flagged_and_refused_by_name(bad):
    on_item = ScoreWeights(("a",), {"a": {1: 0.8, 2: bad}}, {"a": 0.5})
    assert on_item.nonpositive == ("item:a:2",)
    with pytest.raises(ValueError, match="non-finite weight for item 2 of 'a'"):
        lvr(_resp("r", {1: 3, 2: 3}), on_item, "a")
    on_latent = ScoreWeights(("a", "b"), {"a": {1: 0.8}, "b": {2: 0.6}}, {"a": 0.5, "b": bad})
    assert on_latent.nonpositive == ("latent:b",)
    with pytest.raises(ValueError, match="non-finite weight for latent 'b'"):
        sqr({"a": 3.0, "b": 3.0}, on_latent)
    with pytest.raises(ValueError, match="non-finite weight for latent 'b'"):
        score_respondent(_resp("r", {1: 3, 2: 3}), on_latent)


def test_weights_round_trip_json():
    w = _weights()
    again = ScoreWeights.from_jsonable(w.to_jsonable())
    assert again.latents == w.latents
    assert again.item_weights == {"a": {1: 0.8, 2: 0.6}, "b": {3: 0.7}}
    assert again.latent_weights == {"a": 0.417, "b": 0.300}


def test_weights_from_estimate_pulls_standardized_values():
    model = MeasurementModel(
        latents=("f1", "f2", "q"),
        indicators={"f1": (1, 2), "f2": (3, 4), "q": (5, 6)},
        structural_paths=(("f1", "q"), ("f2", "q")),
        latent_covariances=(("f1", "f2"),),
    )
    lam = np.zeros((6, 3))
    lam[0:2, 0] = (1.0, 0.8)
    lam[2:4, 1] = (1.0, 0.9)
    lam[4:6, 2] = (1.0, 0.85)
    beta = np.zeros((3, 3))
    beta[2, 0] = 0.5
    beta[2, 1] = 0.4
    psi = np.diag([0.7, 0.8, 0.4])
    psi[0, 1] = psi[1, 0] = 0.2
    theta = np.full(6, 0.5)
    sig = implied_sigma(lam, beta, psi, theta)
    est = standardize(fit_ml(model, sig, n=600))
    w = weights_from_estimate(est)
    assert w.latents == ("f1", "f2")
    assert set(w.item_weights["f1"]) == {1, 2}
    assert set(w.item_weights["f2"]) == {3, 4}
    li = {name: j for j, name in enumerate(model.latents)}
    oi = {item: i for i, item in enumerate(model.observed)}
    assert w.latent_weights["f1"] == pytest.approx(est.std_beta[li["q"], li["f1"]], rel=1e-12)
    assert w.item_weights["f2"][4] == pytest.approx(est.std_lam[oi[4], li["f2"]], rel=1e-12)
    assert w.nonpositive == ()


def test_weights_from_estimate_requires_standardization_and_one_target():
    model = MeasurementModel(
        latents=("f1", "f2"),
        indicators={"f1": (1, 2, 3), "f2": (4, 5, 6)},
        latent_covariances=(("f1", "f2"),),
    )
    lam = np.zeros((6, 2))
    lam[0:3, 0] = (1, 0.8, 0.9)
    lam[3:6, 1] = (1, 0.7, 1.1)
    psi = np.array([[0.8, 0.3], [0.3, 0.9]])
    sig = implied_sigma(lam, np.zeros((2, 2)), psi, np.full(6, 0.5))
    est = fit_ml(model, sig, n=300)
    with pytest.raises(ValueError):
        weights_from_estimate(est)  # not standardized
    with pytest.raises(ValueError):
        weights_from_estimate(standardize(est))  # no endogenous target


def test_validation_summary_counts_and_error():
    w = _weights()
    ds = SurveyDataset.from_records(
        (
            _resp("r1", {1: 4, 2: 4, 3: 4}, sati_after=4),
            _resp("r2", {1: 5, 2: 5, 3: 5}, sati_after=4),
            _resp("r3", {1: 2, 3: 2}, sati_after=2),  # unscoreable
        ),
        DEFAULT_CATALOG,
    )
    out = validation_summary(ds, w)
    assert out.n_scored == 2
    assert out.n_skipped == 1
    assert np.abs(out.signed_error).tolist() == pytest.approx([0.0, 0.25])
    assert out.mean_error == pytest.approx(0.125)
    assert out.share_within_10pct == pytest.approx(0.5)


# A weighted mean of m positive terms, each sum taken left to right, is within
# (m + 1) * eps of the exact mean relative to it, to first order; the SQR of
# L latents adds (L + 1) * eps. With m <= 6 items and L <= 4 latents that is
# 5 * 12 * eps = 15 ulp of 5.0 at most; the test allows 16.
_SCORE_SLACK = 16 * float(np.spacing(5.0))


@st.composite
def _holdouts(draw):
    items = draw(st.permutations(DEFAULT_CATALOG.indices))
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    weight = st.floats(min_value=1e-3, max_value=1e3)
    item_weights, start = {}, 0
    for j, size in enumerate(sizes):
        item_weights[f"l{j}"] = {item: draw(weight) for item in items[start : start + size]}
        start += size
    latents = tuple(item_weights)
    w = ScoreWeights(latents, item_weights, {name: draw(weight) for name in latents})
    rating = st.integers(1, 5)
    n = draw(st.integers(1, 20))
    records = [
        _resp(f"r{r}", {item: draw(rating) for item in items[:start]}, sati_after=draw(rating)) for r in range(n)
    ]
    return w, SurveyDataset.from_records(records, DEFAULT_CATALOG)


@settings(max_examples=150, deadline=None)
@given(case=_holdouts())
def test_holdout_scores_stay_on_the_rating_scale(case):
    w, ds = case
    out = validation_summary(ds, w)
    assert out.n_scored == ds.n
    for values in (out.lvr, out.sqr):
        assert np.all(values >= 1.0 - _SCORE_SLACK) and np.all(values <= 5.0 + _SCORE_SLACK)


def test_scores_csv_round_trip(tmp_path):
    w = _weights()
    ds = SurveyDataset.from_records(
        (_resp("r1", {1: 4, 2: 4, 3: 4}, sati_after=4),),
        DEFAULT_CATALOG,
    )
    out = validation_summary(ds, w)
    path = tmp_path / "scores.csv"
    write_scores_csv(out, w, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "lvr_1", "lvr_2", "sqr", "error"]
    assert rows[1][0] == "r1"
    assert float(rows[1][3]) == pytest.approx(4.0)
    assert float(rows[1][4]) == pytest.approx(0.0)


def test_entropy_two_respondents():
    # P = (0.2, 0.8); E = -(0.2 ln 0.2 + 0.8 ln 0.8) / ln 2
    assert entropy([1, 4]) == pytest.approx(0.7219280948873623, rel=1e-12)


def test_entropy_uniform_is_one():
    assert entropy([3, 3, 3, 3]) == pytest.approx(1.0, rel=1e-12)
    assert entropy([5] * 17) == pytest.approx(1.0, rel=1e-12)


def test_entropy_guards():
    with pytest.raises(ValueError):
        entropy([4])
    with pytest.raises(ValueError):
        entropy([2, -1])
    with pytest.raises(ValueError):
        entropy([0, 0])


def test_entropy_zero_term_handled():
    # a zero rating contributes nothing (0 ln 0 -> 0)
    e = entropy([0, 2, 2])
    expect = -(2 * 0.5 * math.log(0.5)) / math.log(3)
    assert e == pytest.approx(expect, rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(counts=st.lists(st.integers(0, 40), min_size=6, max_size=6))
def test_count_entropy_is_entropy_of_the_ratings_counted(counts):
    # counts[0] counts missing ratings, which entropy never sees
    values = [level for level in range(1, 6) for _ in range(counts[level])]
    if len(values) < 2:
        with pytest.raises(ValueError, match="entropy needs at least 2 respondents"):
            count_entropy(counts)
        return
    expect = entropy(values)
    # the largest relative distance is 3.1 eps over every count vector of n <= 25
    assert abs(count_entropy(counts) - expect) <= 8 * np.finfo(float).eps * expect


def test_entropy_report_ranking():
    # latent "flat" has uniform answers (E = 1, variability 0);
    # latent "split" concentrates answers (E < 1, variability > 0)
    ds = SurveyDataset.from_records(
        (
            _resp("r1", {1: 3, 2: 1}),
            _resp("r2", {1: 3, 2: 5}),
            _resp("r3", {1: 3, 2: 1}),
        ),
        DEFAULT_CATALOG,
    )
    rep = entropy_report(ds, {"flat": (1,), "split": (2,)})
    assert rep.per_latent["flat"] == pytest.approx(1.0)
    assert rep.per_latent["split"] < 1.0
    assert rep.variability["split"] == pytest.approx(1.0 - rep.per_latent["split"], rel=1e-12)
    assert rep.ranking == ("split", "flat")


def test_entropy_report_mean_over_items():
    ds = SurveyDataset.from_records(
        (
            _resp("r1", {1: 1, 2: 2}),
            _resp("r2", {1: 4, 2: 2}),
        ),
        DEFAULT_CATALOG,
    )
    rep = entropy_report(ds, {"g": (1, 2)})
    assert rep.per_latent["g"] == pytest.approx((entropy([1, 4]) + entropy([2, 2])) / 2, rel=1e-12)


def test_delay_band_boundaries_go_low():
    ds = SurveyDataset.from_records(
        (
            _resp("r1", {1: 3}, sati_after=4, delay=2.0),  # boundary -> [0,2]
            _resp("r2", {1: 3}, sati_after=4, delay=3.0),
            _resp("r3", {1: 3}, sati_after=2, delay=20.0),
            _resp("r4", {1: 3}, sati_after=5, delay=16.0),  # boundary -> (8,16]
            _resp("r5", {1: 3}, sati_after=3, delay=None),
        ),
        DEFAULT_CATALOG,
    )
    out = delay_strata(ds)
    assert isinstance(out, DelayStrata)
    assert out.n_with_delay == 4
    assert out.n_missing_delay == 1
    by_label = {b.label: b for b in out.bands}
    assert by_label["[0,2]"].n == 1
    assert by_label["(2,4]"].n == 1
    assert by_label["(2,4]"].s_mean == pytest.approx(4.0)
    assert by_label["(8,16]"].n == 1
    assert by_label[">16"].n == 1
    assert by_label[">16"].s_mean == pytest.approx(2.0)
    assert by_label["(4,8]"].n == 0
    assert by_label["(4,8]"].s_mean is None
    assert sum(b.share_pct for b in out.bands) == pytest.approx(100.0)


def test_delay_alt_items_average():
    ds = SurveyDataset.from_records(
        (
            _resp("r1", {1: 2, 2: 4}, sati_after=4, delay=1.0),
            _resp("r2", {1: 4, 2: 4}, sati_after=4, delay=1.5),
        ),
        DEFAULT_CATALOG,
    )
    out = delay_strata(ds, alt_items=(1, 2))
    band = out.bands[0]
    assert band.s_mean_alt == pytest.approx((3.0 + 4.0) / 2)


def test_delay_requires_some_delays():
    ds = SurveyDataset.from_records(
        (_resp("r1", {1: 3}, delay=None),),
        DEFAULT_CATALOG,
    )
    with pytest.raises(ValueError):
        delay_strata(ds)
