"""Survey ingestion, screening, descriptives and splitting."""
from __future__ import annotations

import dataclasses
import json
import math
import random
import tracemalloc
from dataclasses import replace
from itertools import compress
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.dtypes import StringDType

from lockqual.catalog import DEFAULT_CATALOG, VariableCatalog
from lockqual.dataset import (
    DEMOGRAPHICS,
    SurveyDataset,
    SurveyFormatError,
    describe,
    load_survey,
    split,
    write_survey,
)
from lockqual.scoring import entropy_report
from lockqual.synth import default_sem_truth, gen_sem_survey


def _header() -> str:
    return ",".join(
        ["id", "age_band", "gender", "experience_band", "vessel_type", "dwt_band", "delay_hours"]
        + [f"q{i}" for i in range(34)]
    )


def _row(rid: str, ratings: str = ",".join(["3"] * 34), delay: str = "1.5") -> str:
    return f"{rid},31-45,male,5-10y,dry_bulk,500-1000t,{delay},{ratings}"


def _write(tmp_path, lines: list[str]) -> str:
    path = tmp_path / "survey.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_load_accepts_clean_rows(tmp_path):
    path = _write(tmp_path, [_header(), _row("a1"), _row("a2")])
    d = load_survey(path)
    assert d.n == 2
    assert d.rejected == ()
    assert d.column(0)[0] == 3
    assert d.column(33)[0] == 3
    assert d.column(17)[0] == 3
    assert d.delay_hours[0] == 1.5


def test_rating_out_of_range_rejected_with_reason(tmp_path):
    bad = ",".join(["3"] * 16 + ["6"] + ["3"] * 17)
    path = _write(tmp_path, [_header(), _row("a1"), _row("a2", ratings=bad)])
    d = load_survey(path)
    assert d.n == 1
    assert len(d.rejected) == 1
    assert d.rejected[0].reason == "rating out of range"
    assert d.rejected[0].respondent_id == "a2"
    assert d.rejected[0].row_number == 2


@pytest.mark.parametrize(
    "mutate, reason",
    [
        (lambda r: r.replace("a2,", "a1,"), "duplicate respondent id"),
        (lambda r: r.replace(",1.5,", ",-2,"), "negative delay"),
        (lambda r: r.replace(",1.5,", ",soon,"), "invalid delay"),
    ],
)
def test_screening_reasons(tmp_path, mutate, reason):
    path = _write(tmp_path, [_header(), _row("a1"), mutate(_row("a2"))])
    d = load_survey(path)
    assert d.n == 1
    assert d.rejected[0].reason == reason


def test_missing_bookend_rejected(tmp_path):
    no_before = "," + ",".join(["3"] * 33)
    path = _write(tmp_path, [_header(), _row("a1", ratings=no_before)])
    d = load_survey(path)
    assert d.n == 0
    assert d.rejected[0].reason == "missing overall satisfaction"


def test_wrong_field_count_rejected(tmp_path):
    path = _write(tmp_path, [_header(), _row("a1") + ",9"])
    d = load_survey(path)
    assert d.n == 0
    assert d.rejected[0].reason == "wrong number of fields"


def test_missing_item_rating_is_allowed(tmp_path):
    with_gap = ",".join(["3"] * 10 + [""] + ["3"] * 23)
    path = _write(tmp_path, [_header(), _row("a1", ratings=with_gap)])
    d = load_survey(path)
    assert d.n == 1
    assert d.column(10)[0] == 0  # missing


def test_bad_header_raises(tmp_path):
    lines = [_header().replace("q33", "q34"), _row("a1")]
    path = _write(tmp_path, lines)
    with pytest.raises(SurveyFormatError):
        load_survey(path)


def test_matrix_listwise_deletion(tmp_path):
    with_gap = ",".join(["3"] * 10 + [""] + ["4"] * 23)
    path = _write(tmp_path, [_header(), _row("a1"), _row("a2", ratings=with_gap)])
    d = load_survey(path)
    ids, X = d.matrix([10, 11])
    assert ids == ["a1"]
    assert X.shape == (1, 2)
    ids, X = d.matrix([0, 33])
    assert ids == ["a1", "a2"]


def test_round_trip_is_exact(tmp_path):
    d = gen_sem_survey(default_sem_truth(n=40, seed=3))
    out = str(tmp_path / "out.csv")
    write_survey(d, out)
    d2 = load_survey(out)
    assert d2.rejected == ()
    assert d2 == d
    # and writing again yields the identical file
    out2 = str(tmp_path / "out2.csv")
    write_survey(d2, out2)
    assert (tmp_path / "out.csv").read_text() == (tmp_path / "out2.csv").read_text()


def test_describe_matches_hand_stats():
    # sample std of (1,2,3,4,5) is sqrt(2.5) = 1.5811...
    from lockqual.dataset import _column_stats

    st = _column_stats([0, 1, 1, 1, 1, 1])  # one each of the ratings 1..5
    assert st.mean == pytest.approx(3.0)
    assert st.std == pytest.approx(1.5811, abs=1e-4)
    assert st.skewness == pytest.approx(0.0, abs=1e-12)
    # excess kurtosis of the uniform 5-point pattern: m4/m2^2 - 3 = 1.7 - 3
    assert st.kurtosis == pytest.approx(1.7 - 3.0, abs=1e-12)
    assert st.normal is True


def test_describe_flags_degenerate_column():
    from lockqual.dataset import _column_stats

    st = _column_stats([0, 0, 0, 0, 4, 0])  # four 4s
    assert st.skewness is None and st.kurtosis is None and st.normal is None
    assert st.std == 0.0


def test_describe_skew_outside_gate():
    from lockqual.dataset import _column_stats

    # heavy pile-up at 1 with one 5: skewness far above 1.5
    st = _column_stats([0, 19, 0, 0, 0, 1])
    assert st.skewness is not None and st.skewness > 1.5
    assert st.normal is False


def test_describe_report_covers_catalog():
    d = gen_sem_survey(default_sem_truth(n=120, seed=5))
    rep = describe(d)
    assert set(rep.items) == set(DEFAULT_CATALOG.indices)
    assert rep.overall_sati_after == pytest.approx(rep.sati_after.mean)
    for st in rep.items.values():
        assert st.n == 120


def test_split_is_seeded_shuffle_of_sorted_ids():
    d = gen_sem_survey(default_sem_truth(n=25, seed=9))
    train = split(d, 10, seed=42)
    ids = sorted(d.respondent_ids.tolist())
    rng = random.Random(42)
    rng.shuffle(ids)
    assert set(compress(d.respondent_ids, train)) == set(ids[:10])
    assert set(compress(d.respondent_ids, ~train)) == set(ids[10:])


def test_split_partitions_and_is_deterministic():
    d = gen_sem_survey(default_sem_truth(n=60, seed=2))
    t1 = split(d, 36, seed=7)
    t2 = split(d, 36, seed=7)
    assert t1.dtype == bool and t1.shape == (d.n,)
    assert np.array_equal(t1, t2)
    assert np.count_nonzero(t1) == 36 and np.count_nonzero(~t1) == 24
    t3 = split(d, 36, seed=8)
    assert not np.array_equal(t3, t1)


def _dataset_with_ids(ids: list[str]) -> SurveyDataset:
    n = len(ids)
    codes = np.arange(n * (len(DEFAULT_CATALOG) + 2), dtype=np.int64).reshape(n, -1) % 5 + 1
    demo = {name: [f"{name}-{r}" for r in range(n)] for name in DEMOGRAPHICS}
    return SurveyDataset(DEFAULT_CATALOG, ids, codes.astype(np.int8), np.arange(n, dtype=float), demo)


def _shuffled_training_ids(ids: list[str], n_train: int, seed: int) -> set[str]:
    """The definition split keeps: the first n_train of the seeded shuffle of the sorted ids."""
    shuffled = sorted(ids)
    random.Random(seed).shuffle(shuffled)
    return set(shuffled[:n_train])


def _assert_split_matches_shuffle(d: SurveyDataset, n_train: int, seed: int) -> None:
    train = split(d, n_train, seed)
    in_train = _shuffled_training_ids(d.respondent_ids, n_train, seed)
    assert train.dtype == bool
    assert train.tolist() == [rid in in_train for rid in d.respondent_ids]


@pytest.mark.parametrize("n, n_train, seed", [(5000, 1200, 3), (5000, 3800, 11), (8193, 4096, 0), (8193, 4097, 7)])
def test_split_equals_the_full_shuffle_on_large_surveys(n, n_train, seed):
    rng = random.Random(n + seed)
    ids = [f"r{v:07d}" for v in rng.sample(range(10**7), n)]
    _assert_split_matches_shuffle(_dataset_with_ids(ids), n_train, seed)


def test_split_sends_a_repeated_id_to_training_when_any_copy_draws_a_training_slot():
    rng = random.Random(5)
    ids = [f"r{rng.randrange(40):02d}" for _ in range(60)]
    d = _dataset_with_ids(ids)
    straddling = 0
    for n_train in range(1, 60):
        for seed in range(5):
            _assert_split_matches_shuffle(d, n_train, seed)
            shuffled = sorted(ids)
            random.Random(seed).shuffle(shuffled)
            straddling += bool(set(shuffled[:n_train]) & set(shuffled[n_train:]))
    assert straddling  # some repeated id had copies on both sides of the cut


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_split_matches_the_shuffle_on_any_text_ids_with_repeats(data):
    # any text: NUL, accents, astral and private-use characters; sorted()
    # orders str by code point, as the stable sort of the id array does
    pool = data.draw(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=8, unique=True))
    ids = data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=30))
    n_train = data.draw(st.integers(1, len(ids) - 1))
    _assert_split_matches_shuffle(_dataset_with_ids(ids), n_train, data.draw(st.integers(0, 2**32 - 1)))


def test_split_retains_only_its_row_mask():
    # the parts are read through the mask, so no copy of their rows outlives split
    n = 60_000
    d = _dataset_with_ids([f"r{k:06d}" for k in range(n)])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        train = split(d, round(0.6 * n), seed=7)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 4 * n
    assert np.count_nonzero(train) == round(0.6 * n)


@pytest.mark.parametrize("code", [-1, 6])
def test_dataset_refuses_a_code_outside_0_to_5(code):
    # the rating counts would file such a code under another variable or band
    d = _dataset_with_ids(["a", "b"])
    codes = d.codes.copy()
    codes[1, -1] = code
    with pytest.raises(ValueError, match="rating 1..5"):
        SurveyDataset(d.catalog, d.respondent_ids, codes, d.delay_hours, d.demographics)


def test_describe_and_entropy_count_the_codes_without_a_wide_copy():
    # one bincount over every column at once would convert all the codes to
    # intp, n * 34 * 8 bytes; counting column by column holds one column's
    n = 50_000
    d = _dataset_with_ids([f"r{k:06d}" for k in range(n)])
    tracemalloc.start()
    try:
        describe(d)
        entropy_report(d, {"a": DEFAULT_CATALOG.indices[:16], "b": DEFAULT_CATALOG.indices[16:]})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * 34 * 8 // 4


def test_split_bounds():
    d = gen_sem_survey(default_sem_truth(n=10, seed=1))
    with pytest.raises(ValueError):
        split(d, 0, seed=1)
    with pytest.raises(ValueError):
        split(d, 10, seed=1)


def test_a_loaded_survey_holds_no_python_object_per_row(tmp_path):
    # a row is 34 codes (1 B each), a delay (8 B), an id inline in the
    # StringDType array (16 B) and the number of its demographic cells
    # (8 B): 66 B, plus what the growing buffers left over. A list of id
    # strings alone would add about 63 B a row, five demographic lists 40 B.
    n = 20_000
    path = str(tmp_path / "survey.csv")
    write_survey(gen_sem_survey(default_sem_truth(n=n, seed=1)), path)
    load_survey(path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        d = load_survey(path)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert d.n == n
    assert retained < 85 * n


def test_ids_and_demographics_given_as_lists_are_stored_as_arrays():
    d = load_survey(str(Path(__file__).resolve().parent.parent / "data" / "fixture_survey.csv"))
    columns = dict(zip(DEMOGRAPHICS, map(list, zip(*d.demographics.rows()))))
    e = SurveyDataset(d.catalog, d.respondent_ids.tolist(), d.codes, d.delay_hours, columns)
    assert e == d
    assert isinstance(e.respondent_ids.dtype, StringDType)
    assert len(e.demographics.combos) == len(d.demographics.combos) < d.n
    gender = DEMOGRAPHICS.index("gender")
    assert [r[gender] for r in e.demographics.rows()] == columns["gender"]
    with pytest.raises(ValueError, match="demographics"):
        SurveyDataset(d.catalog, d.respondent_ids, d.codes, d.delay_hours, {**columns, "gender": []})


def test_the_rating_counts_are_counted_once_over_read_only_arrays():
    d = gen_sem_survey(default_sem_truth(n=50, seed=4))
    counts = d.rating_counts()
    assert d.rating_counts() is counts
    for a in (counts, d.codes, d.delay_hours, d.respondent_ids, d.demographics.number):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        d.codes[0, 1] = 5
    codes = d.codes.copy()
    codes[:, 1] = 5
    e = replace(d, codes=codes)
    assert e.rating_counts()[1].tolist() == [0, 0, 0, 0, 0, 50]
    assert d.rating_counts() is counts and counts[1, 5] < 50


def test_catalog_round_trip_and_validation():
    rows = [dataclasses.asdict(it) for it in DEFAULT_CATALOG.items]
    c2 = VariableCatalog.from_json(json.dumps(rows, indent=2, sort_keys=True))
    assert c2 == DEFAULT_CATALOG
    assert len(DEFAULT_CATALOG) == 32
    assert tuple(it.index for it in DEFAULT_CATALOG.items if it.kind == "frequency") == (1, 2, 3)
    subjective = {it.index for it in DEFAULT_CATALOG.items if it.kind == "subjective"}
    assert subjective == {7, 11, 15, 16, 17, 20, 22, 24, 26, 27, 29, 30}
    with pytest.raises(ValueError):
        VariableCatalog.from_json(
            json.dumps(
                [
                    {"index": 1, "abbreviation": "a", "kind": "satisfaction", "latent_hint": "x"},
                    {"index": 3, "abbreviation": "b", "kind": "satisfaction", "latent_hint": "x"},
                ]
            )
        )


def test_generator_is_deterministic():
    a = gen_sem_survey(default_sem_truth(n=30, seed=13))
    b = gen_sem_survey(default_sem_truth(n=30, seed=13))
    assert a == b
    c = gen_sem_survey(default_sem_truth(n=30, seed=14))
    assert c != a


def test_generator_delay_negatively_tracks_time_items():
    d = gen_sem_survey(default_sem_truth(n=2000, seed=21))
    delays = d.delay_hours
    time_mean = d.codes[:, [5, 6, 7, 8, 9, 10]].mean(axis=1)
    rho = np.corrcoef(np.log(delays), time_mean)[0, 1]
    assert rho < -0.4


def test_utf8_bom_is_ignored(tmp_path):
    fixture = Path(__file__).resolve().parent.parent / "data" / "fixture_survey.csv"
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + fixture.read_bytes())
    plain, with_bom = load_survey(str(fixture)), load_survey(str(bom))
    assert with_bom.n == plain.n
    assert with_bom.rejected == plain.rejected
    assert with_bom == plain
