"""The columnar SurveyDataset against record-by-record references.

Each reference below walks RespondentRecord objects one at a time, the
way the summaries are defined, and each dataset is built from columns
drawn alongside those records; the columnar code must match it exactly,
float for float. The exceptions are the item descriptives and entropies,
which the columnar code sums over the counts of each rating rather than
over the rows: there n, the mean, the normality screen and the entropy
ranking are exact, and the other floats agree within the bounds below.
"""
from __future__ import annotations

import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lockqual.catalog import DEFAULT_CATALOG, SATI_AFTER, SATI_BEFORE
from lockqual.dataset import DEMOGRAPHICS, RespondentRecord, SurveyDataset, describe, load_survey, split, write_survey
from lockqual.scoring import ScoreWeights, delay_strata, entropy, entropy_report, validation_summary

ITEMS = DEFAULT_CATALOG.indices
FIXTURE = str(Path(__file__).resolve().parent.parent / "data" / "fixture_survey.csv")
BAND_TOPS = (2.0, 4.0, 8.0, 16.0, math.inf)

# How far a statistic summed over rating counts may lie from the row-by-row
# reference, in units of eps. Over every count vector of n <= 25 ratings (the
# columns these strategies draw), the largest distances are 2.15 (std,
# relative), 5.4 (skewness, times 1 + |skewness|), 11.0 (kurtosis, times
# kurtosis + 3, the ratio m4 / m2**2) and 3.1 (entropy, relative); each
# bound below is about twice that.
EPS = float(np.finfo(float).eps)
STD_REL, SKEW, KURT, ENTROPY_REL = 4 * EPS, 12 * EPS, 24 * EPS, 8 * EPS


# ---------------------------------------------------------------------------
# record-by-record references


def ref_matrix(recs, indices):
    ids, rows = [], []
    for r in recs:
        vals = [r.rating(i) for i in indices]
        if None not in vals:
            ids.append(r.id)
            rows.append([float(v) for v in vals])
    return ids, np.asarray(rows, dtype=float).reshape(len(rows), len(indices))


def ref_stats(values):
    x = np.asarray(values, dtype=float)
    n = x.size
    if n == 0:
        return (0, math.nan, math.nan, None, None, None)
    mean = float(np.mean(x))
    std = float(np.std(x, ddof=1)) if n >= 2 else 0.0
    if n < 2 or len(set(x.tolist())) < 2:
        return (n, mean, std, None, None, None)
    dev = x - mean
    m2, m3, m4 = (float(np.mean(dev**p)) for p in (2, 3, 4))
    skew = m3 / m2**1.5
    kurt = m4 / m2**2 - 3.0
    return (n, mean, std, skew, kurt, abs(skew) <= 1.5 and abs(kurt) <= 1.5)


def assert_stats_close(got, expect):
    """got (an ItemStats) against a ref_stats tuple, within the bounds above."""
    n, mean, std, skew, kurt, normal = expect
    assert (got.n, repr(got.mean)) == (n, repr(mean))
    if math.isnan(std) or std == 0:
        assert repr(got.std) == repr(std)
    else:
        assert abs(got.std - std) <= STD_REL * std
    if skew is None:
        assert (got.skewness, got.kurtosis, got.normal) == (None, None, None)
        return
    skew_tol, kurt_tol = SKEW * (1 + abs(skew)), KURT * (kurt + 3)
    assert abs(got.skewness - skew) <= skew_tol and abs(got.kurtosis - kurt) <= kurt_tol
    # the screen is exact unless a statistic lies within its bound of the edge
    # 1.5, which both can reach exactly (e.g. skewness of 1, 4, 4, 4, 4)
    if abs(abs(skew) - 1.5) > skew_tol and abs(abs(kurt) - 1.5) > kurt_tol:
        assert got.normal == normal


def ref_entropy(recs, latent_items):
    per_item = {}
    for items in latent_items.values():
        for item in items:
            per_item.setdefault(item, entropy([r.rating(item) for r in recs if r.rating(item) is not None]))
    return per_item


def ref_delay(recs, alt_items):
    groups = {k: [] for k in range(len(BAND_TOPS))}
    missing = 0
    for r in recs:
        if r.delay_hours is None:
            missing += 1
        else:
            groups[next(k for k, hi in enumerate(BAND_TOPS) if r.delay_hours <= hi)].append(r)
    total = sum(len(g) for g in groups.values())
    bands = []
    for k in range(len(BAND_TOPS)):
        members = groups[k]
        n = len(members)
        s_mean = float(np.mean([r.sati_after for r in members])) if n else None
        s_alt = None
        if alt_items and n:
            per_resp = []
            for r in members:
                vals = [r.rating(i) for i in alt_items if r.rating(i) is not None]
                if vals:
                    per_resp.append(float(np.mean(vals)))
            s_alt = float(np.mean(per_resp)) if per_resp else None
        bands.append((n, 100.0 * n / total, s_mean, s_alt))
    return bands, total, missing


def ref_lvr(r, w, name):
    num = den = 0.0
    for item, weight in w.item_weights[name].items():
        v = r.rating(item)
        if v is None:
            return None
        num += v * weight
        den += weight
    return num / den


def ref_scores(recs, w):
    out = []
    for r in recs:
        lvrs = [ref_lvr(r, w, name) for name in w.latents]
        if None in lvrs:
            continue
        num = den = 0.0
        for v, name in zip(lvrs, w.latents):
            num += v * w.latent_weights[name]
            den += w.latent_weights[name]
        s = num / den
        out.append((r.id, lvrs, s, abs((s - r.sati_after) / r.sati_after)))
    return out


# ---------------------------------------------------------------------------
# strategies

DELAY_EDGES = (0.0, -0.0, 2.0, 4.0, 8.0, 16.0)


@st.composite
def surveys(draw, min_size=2, max_size=25):
    """(records, dataset): the same rows, with blank item cells, missing delays and band-edge delays.

    The dataset holds the drawn codes as they are, and the records' ids,
    delays and demographic cells as columns."""
    n = draw(st.integers(min_size, max_size))
    blank = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = rng.integers(1, 6, size=(n, 34))
    codes[:, 1:33][rng.random((n, 32)) < blank] = 0
    kind = rng.integers(0, 3, size=n)
    recs = []
    for k in range(n):
        row = codes[k].tolist()
        delay = [None, DELAY_EDGES[rng.integers(len(DELAY_EDGES))], float(rng.uniform(0, 40))][kind[k]]
        recs.append(
            RespondentRecord(
                id=f"x{rng.integers(10**6)}_{k}",
                age_band=["18-30", "31-45"][k % 2],
                gender="male",
                experience_band="6-10",
                vessel_type=["cargo", "tanker", "ferry"][k % 3],
                dwt_band="1k-3k",
                delay_hours=delay,
                sati_before=row[0],
                sati_after=row[33],
                ratings={i: row[i] for i in ITEMS if row[i]},
            )
        )
    d = SurveyDataset(
        DEFAULT_CATALOG,
        [r.id for r in recs],
        codes.astype(np.int8),
        np.array([math.nan if r.delay_hours is None else r.delay_hours for r in recs]),
        {name: [getattr(r, name) for r in recs] for name in DEMOGRAPHICS},
    )
    return tuple(recs), d


index_lists = st.lists(st.sampled_from((SATI_BEFORE, *ITEMS, SATI_AFTER)), min_size=0, max_size=6, unique=True)
item_groups = st.lists(st.lists(st.sampled_from(ITEMS), min_size=1, max_size=4, unique=True), min_size=1, max_size=3)
positive = st.floats(0.05, 2.0, allow_nan=False)


def _weights(draw, groups):
    latents = tuple(f"l{k}" for k in range(len(groups)))
    item_weights = {name: {i: draw(positive) for i in g} for name, g in zip(latents, groups)}
    return ScoreWeights(latents, item_weights, {name: draw(positive) for name in latents})


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=150, deadline=None)
@given(survey=surveys(min_size=0), indices=index_lists)
def test_matrix_matches_record_loop(survey, indices):
    recs, d = survey
    ids, X = d.matrix(indices)
    ref_ids, ref_X = ref_matrix(recs, indices)
    assert ids == ref_ids
    assert X.shape == ref_X.shape and np.array_equal(X, ref_X)


@settings(max_examples=150, deadline=None)
@given(survey=surveys(min_size=0))
def test_describe_matches_record_loop(survey):
    recs, d = survey
    rep = describe(d)
    for idx in ITEMS:
        assert_stats_close(rep.items[idx], ref_stats([r.ratings[idx] for r in recs if idx in r.ratings]))
    assert_stats_close(rep.sati_before, ref_stats([r.sati_before for r in recs]))
    assert_stats_close(rep.sati_after, ref_stats([r.sati_after for r in recs]))


@settings(max_examples=150, deadline=None)
@given(survey=surveys(min_size=0))
def test_rating_counts_count_each_code_of_each_variable(survey):
    recs, d = survey
    counts = d.rating_counts()
    assert counts.dtype == np.int64 and counts.shape == (len(DEFAULT_CATALOG) + 2, 6)
    for idx in (SATI_BEFORE, *ITEMS, SATI_AFTER):
        ratings = [r.rating(idx) or 0 for r in recs]
        assert counts[d._col(idx)].tolist() == [ratings.count(code) for code in range(6)]


def test_fixture_descriptives_and_entropy_lie_within_the_bounds_measured_on_it():
    # On the fixture the distances are smaller than the bounds above allow:
    # at most 2.3e-16 relative on std, 1.8e-15 on skewness and kurtosis and
    # 3.4e-16 relative on entropy; n, the means and the screens are exact.
    d = load_survey(FIXTURE)
    # each variable's given ratings, from its column of codes
    ratings = {idx: d.column(idx)[d.column(idx) != 0].tolist() for idx in (SATI_BEFORE, *ITEMS, SATI_AFTER)}
    rep = describe(d)
    for idx, got in [*rep.items.items(), (SATI_BEFORE, rep.sati_before), (SATI_AFTER, rep.sati_after)]:
        n, mean, std, skew, kurt, normal = ref_stats(ratings[idx])
        assert (got.n, got.mean, got.normal) == (n, mean, normal)
        assert abs(got.std - std) <= 2.3e-16 * std
        assert abs(got.skewness - skew) <= 1.8e-15 and abs(got.kurtosis - kurt) <= 1.8e-15
    groups = {"a": ITEMS[:16], "b": ITEMS[16:]}
    got = entropy_report(d, groups)
    expect = {i: entropy(ratings[i]) for items in groups.values() for i in items}
    assert all(abs(got.per_item[i] - e) <= 3.4e-16 * e for i, e in expect.items())
    variability = {name: 1.0 - float(np.mean([expect[i] for i in items])) for name, items in groups.items()}
    assert got.ranking == tuple(sorted(variability, key=lambda name: (-variability[name], name)))


@settings(max_examples=150, deadline=None)
@given(survey=surveys(), groups=item_groups)
def test_entropy_report_matches_record_loop(survey, groups):
    recs, d = survey
    latent_items = {f"g{k}": g for k, g in enumerate(groups)}
    try:
        expect = ref_entropy(recs, latent_items)
    except ValueError:
        with pytest.raises(ValueError):
            entropy_report(d, latent_items)
        return
    got = entropy_report(d, latent_items)
    assert got.per_item.keys() == expect.keys()
    assert all(abs(got.per_item[i] - e) <= ENTROPY_REL * e for i, e in expect.items())


@settings(max_examples=150, deadline=None)
@given(survey=surveys(min_size=1), alt=st.one_of(st.none(), st.lists(st.sampled_from(ITEMS), min_size=1, max_size=5)))
def test_delay_strata_matches_record_loop(survey, alt):
    recs, d = survey
    if all(r.delay_hours is None for r in recs):
        with pytest.raises(ValueError):
            delay_strata(d, alt_items=alt)
        return
    out = delay_strata(d, alt_items=alt)
    bands, total, missing = ref_delay(recs, alt)
    assert [(b.n, b.share_pct, b.s_mean, b.s_mean_alt) for b in out.bands] == bands
    assert (out.n_with_delay, out.n_missing_delay) == (total, missing)


@settings(max_examples=150, deadline=None)
@given(survey=surveys(), data=st.data())
def test_validation_summary_matches_record_loop(survey, data):
    w = _weights(data.draw, data.draw(item_groups))
    recs, d = survey
    rows = data.draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=len(recs), max_size=len(recs))))
    if rows is not None:  # score only the rows of a mask, as the holdout is scored
        recs = tuple(r for r, offered in zip(recs, rows) if offered)
        rows = np.array(rows, dtype=bool)
    expect = ref_scores(recs, w)
    if not expect:
        with pytest.raises(ValueError):
            validation_summary(d, w, rows)
        return
    out = validation_summary(d, w, rows)
    assert (out.n_scored, out.n_skipped) == (len(expect), len(recs) - len(expect))
    assert out.latents == w.latents
    got = list(zip(out.ids, out.lvr.tolist(), out.sqr.tolist(), np.abs(out.signed_error).tolist()))
    assert got == expect
    errors = np.array([e for *_, e in expect])
    assert out.mean_error == float(errors.mean())
    assert out.share_within_10pct == float(np.mean(errors <= 0.10))


@settings(max_examples=150, deadline=None)
@given(survey=surveys(min_size=2), data=st.data())
def test_split_is_an_order_preserving_partition(survey, data):
    recs, d = survey
    n_train = data.draw(st.integers(1, d.n - 1))
    seed = data.draw(st.integers(0, 1000))
    train = split(d, n_train, seed)
    shuffled = sorted(d.respondent_ids)
    random.Random(seed).shuffle(shuffled)
    assert train.dtype == bool and train.shape == (d.n,)
    # the training part is the records whose id drew a training slot; the holdout is the rest
    assert train.tolist() == [r.id in set(shuffled[:n_train]) for r in recs]
    assert int(train.sum()) == n_train


@settings(max_examples=40, deadline=None)
@given(survey=surveys(min_size=0))
def test_write_then_load_round_trips(survey, tmp_path_factory):
    recs, d = survey
    path = str(tmp_path_factory.mktemp("rt") / "survey.csv")
    write_survey(d, path)
    back = load_survey(path)
    assert back == d and back.rejected == ()
    assert np.array_equal(np.signbit(back.delay_hours), np.signbit(d.delay_hours))


# ---------------------------------------------------------------------------
# screening on a hand-written file


def _row(rid, ratings=None, delay="1.5", extra=""):
    cells = ratings if ratings is not None else ["3"] * 34
    return f"{rid},31-45,male,5-10y,dry_bulk,500-1000t,{delay}," + ",".join(cells) + extra


def _with(cells: dict[int, str]) -> list[str]:
    row = ["3"] * 34
    for k, v in cells.items():
        row[k] = v
    return row


def test_screening_rules_row_by_row(tmp_path):
    header = ",".join(
        ["id", "age_band", "gender", "experience_band", "vessel_type", "dwt_band", "delay_hours"]
        + [f"q{i}" for i in range(34)]
    )
    lines = [
        header,
        _row("a1", _with({2: " 3", 33: "4 "}), delay="-0.0"),  # 1 padded ratings, -0.0 delay
        "",  # 2 blank line
        "," * 40,  # 3 blank cells only
        _row("a2", extra=",3"),  # 4
        _row("  "),  # 5
        _row("b1", _with({5: "6"})),  # 6
        _row("b1", _with({7: "2"})),  # 7 repeats only a rejected id: accepted
        _row("a1", _with({9: "x"})),  # 8 repeats an accepted id and has a bad rating
        _row("c1", delay="soon"),  # 9
        _row("c2", delay="inf"),  # 10
        _row("c3", delay="-1"),  # 11
        _row("c4", _with({4: "x"})),  # 12
        _row("c5", _with({3: "0", 10: "2.5"})),  # 13 first bad cell wins
        _row("c6", _with({33: ""})),  # 14
        _row("c7", _with({1: "9"}), delay="late"),  # 15 delay checked before ratings
        _row("c8", _with({12: "", 20: "   "}), delay=""),  # 16 blank cells and no delay
        _row("c9", _with({0: "5", 33: "1"}), delay=" 16 "),  # 17
    ]
    path = tmp_path / "survey.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    d = load_survey(str(path))
    assert [(r.row_number, r.respondent_id, r.reason) for r in d.rejected] == [
        (4, "a2", "wrong number of fields"),
        (5, "", "missing respondent id"),
        (6, "b1", "rating out of range"),
        (8, "a1", "duplicate respondent id"),
        (9, "c1", "invalid delay"),
        (10, "c2", "invalid delay"),
        (11, "c3", "negative delay"),
        (12, "c4", "invalid rating"),
        (13, "c5", "rating out of range"),
        (14, "c6", "missing overall satisfaction"),
        (15, "c7", "invalid delay"),
    ]
    assert d.respondent_ids.tolist() == ["a1", "b1", "c8", "c9"]
    expect = np.full((4, 34), 3, dtype=np.int8)
    expect[0, 33] = 4
    expect[1, 7] = 2
    expect[2, [12, 20]] = 0
    expect[3, [0, 33]] = (5, 1)
    assert d.codes.dtype == np.int8
    assert np.array_equal(d.codes, expect)
    assert d.delay_hours[0] == 0.0 and np.signbit(d.delay_hours[0])
    assert d.delay_hours[1] == 1.5 and math.isnan(d.delay_hours[2]) and d.delay_hours[3] == 16.0
    vessel_type = DEMOGRAPHICS.index("vessel_type")
    assert [r[vessel_type] for r in d.demographics.rows()] == ["dry_bulk"] * 4
