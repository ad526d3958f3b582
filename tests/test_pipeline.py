"""End-to-end pipeline behaviour on the bundled fixture data."""
from __future__ import annotations

import csv
import importlib
import json
import math
import shutil
import warnings
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lockqual.ahp import DEFAULT_HIERARCHY
from lockqual.catalog import CatalogItem, DEFAULT_CATALOG, VariableCatalog
from lockqual.dataset import write_survey
from lockqual.efa import FactorAssignment
from lockqual.pipeline import (
    GateThresholds,
    PipelineConfig,
    render_summary,
    run_pipeline,
    synthesize_models,
    _cfa_from_structural,
    _jsonable,
    _label_factors,
    _write_outputs,
)
from lockqual.sem import MeasurementModel
from lockqual.synth import default_sem_truth, gen_sem_survey

DATA = Path(__file__).resolve().parent.parent / "data"
SURVEY = str(DATA / "fixture_survey.csv")
JUDGMENTS = str(DATA / "fixture_judgments.csv")


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    cfg = PipelineConfig(survey_path=SURVEY, out_dir=str(out), judgments_path=JUDGMENTS)
    return run_pipeline(cfg)


def test_gate_thresholds_reject_out_of_domain_values():
    with pytest.raises(ValueError):
        GateThresholds(alpha=1.5)
    with pytest.raises(ValueError):
        GateThresholds(rmsea=-0.01)
    with pytest.raises(ValueError):
        GateThresholds(cmin_df=0.0)
    # the defaults themselves must be legal
    GateThresholds()


def test_every_section_populated_on_fixture(full_run):
    b = full_run.bundle
    for key in (
        "screening",
        "descriptives",
        "adequacy",
        "split",
        "efa",
        "cfa",
        "sem",
        "scoring",
        "entropy",
        "delay",
        "ahp",
        "bias",
        "probit",
        "gates",
        "meta",
    ):
        assert b[key] is not None, key
    assert full_run.gate_failures == ()
    assert b["warnings"] == []


def test_split_defaults_to_sixty_percent(full_run):
    sp = full_run.bundle["split"]
    assert sp["n_train"] == round(0.6 * full_run.bundle["screening"]["n_valid"])
    assert sp["n_train"] + sp["n_holdout"] == full_run.bundle["screening"]["n_valid"]


def test_factor_structure_matches_hierarchy_leaves(full_run):
    efa = full_run.bundle["efa"]
    labels = set(efa["assignment"]["factor_labels"].values())
    assert labels == set(DEFAULT_HIERARCHY.leaves)
    dropped = {row["item"] for row in efa["assignment"]["dropped"]}
    assert dropped == {4, 27, 28}
    retained = sorted(i for items in efa["assignment"]["factor_items"].values() for i in items)
    assert len(retained) == 29
    assert set(retained).isdisjoint(dropped)


def test_fit_sections_converged_and_gated(full_run):
    b = full_run.bundle
    assert b["cfa"]["converged"] and b["sem"]["converged"]
    assert b["cfa"]["fit_indices"]["cmin_df"] < 3.0
    assert b["sem"]["fit_indices"]["rmsea"] < 0.08
    validity = b["cfa"]["validity"]
    for name in validity["factors"]:
        assert validity["composite_reliability"][name] >= 0.7
        assert validity["ave"][name] >= 0.5
    names = [g["name"] for g in b["gates"]]
    assert "cronbach_alpha" in names and "kmo" in names and "bartlett_p" in names
    assert any(n.startswith("cfa_") for n in names)
    assert any(n.startswith("sem_") for n in names)
    assert "ahp_criteria_cr" in names
    assert all(g["passed"] for g in b["gates"])


def test_scoring_runs_on_the_holdout(full_run):
    b = full_run.bundle
    assert b["scoring"]["n_scored"] == b["split"]["n_holdout"]
    assert 0.0 < b["scoring"]["mean_error"] < 1.0
    assert 0.0 <= b["scoring"]["share_within_10pct"] <= 1.0
    weights = b["sem"]["score_weights"]["latent_weights"]
    assert set(weights) == set(DEFAULT_HIERARCHY.leaves)
    assert all(w > 0 for w in weights.values())


def test_entropy_and_delay_sections(full_run):
    ent = full_run.bundle["entropy"]
    assert set(ent["per_latent"]) == set(DEFAULT_HIERARCHY.leaves)
    for val in ent["per_item"].values():
        assert 0.0 <= val <= 1.0
    assert list(ent["ranking"])
    assert set(ent["bookends"]) == {"0", "33"}
    delay = full_run.bundle["delay"]
    assert [b_["label"] for b_ in delay["bands"]] == [
        "[0,2]",
        "(2,4]",
        "(4,8]",
        "(8,16]",
        ">16",
    ]
    assert sum(b_["n"] for b_ in delay["bands"]) == delay["n_with_delay"]
    # the time factor's items never enter the alternative reading
    time_items = full_run.bundle["efa"]["assignment"]["factor_items"]["time_convenience"]
    assert set(delay["alt_items"]).isdisjoint(time_items)


def test_supplier_side_and_bias(full_run):
    ahp = full_run.bundle["ahp"]
    assert ahp["n_respondents"] == 49
    assert ahp["n_included"] == 49
    assert ahp["n_inconsistent"] == 8
    gw = ahp["global_weights"]
    assert set(gw) == set(DEFAULT_HIERARCHY.leaves)
    assert abs(sum(gw.values()) - 1.0) < 1e-9
    bias = full_run.bundle["bias"]
    assert -1.0 <= bias["spearman"] <= 1.0
    assert {r["factor"] for r in bias["rows"]} == set(DEFAULT_HIERARCHY.leaves)
    for r in bias["rows"]:
        assert 1 <= r["ow_rank"] <= 6 and 1 <= r["sw_rank"] <= 6


def test_output_files_match_bundle_and_schema(full_run):
    paths = full_run.out_paths
    assert set(paths) == {"report", "summary", "scores", "questionnaire"}
    with open(paths["report"], "r", encoding="utf-8") as fh:
        on_disk = json.load(fh)
    assert on_disk == json.loads(json.dumps(full_run.bundle))
    schema = json.loads(
        resources.files("lockqual").joinpath("schemas/report.schema.json").read_text("utf-8")
    )
    jsonschema.validate(on_disk, schema)
    summary = Path(paths["summary"]).read_text("utf-8")
    assert summary == render_summary(full_run.bundle)
    assert "## Gates" in summary
    with open(paths["scores"], newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == full_run.bundle["scoring"]["n_scored"]
    with open(paths["questionnaire"], newline="", encoding="utf-8") as fh:
        qrows = list(csv.reader(fh))
    assert len(qrows) - 1 == len(full_run.bundle["probit"]["survivors"])


def test_two_runs_agree_byte_for_byte(tmp_path):
    outs = []
    for sub in ("a", "b"):
        cfg = PipelineConfig(
            survey_path=SURVEY, out_dir=str(tmp_path / sub), judgments_path=JUDGMENTS
        )
        outs.append(run_pipeline(cfg).out_paths)
    docs = []
    for paths in outs:
        doc = json.loads(Path(paths["report"]).read_text("utf-8"))
        doc["meta"].pop("generated_at")
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]
    for key in ("summary", "scores", "questionnaire"):
        assert Path(outs[0][key]).read_bytes() == Path(outs[1][key]).read_bytes()


def test_run_without_judgments_skips_supplier_sections(tmp_path):
    cfg = PipelineConfig(survey_path=SURVEY, out_dir=str(tmp_path / "o"))
    res = run_pipeline(cfg)
    assert res.bundle["ahp"] is None
    assert res.bundle["bias"] is None
    assert any("supplier-side" in w for w in res.bundle["warnings"])
    assert not any(g["name"] == "ahp_criteria_cr" for g in res.bundle["gates"])
    # the customer side is unaffected
    assert res.bundle["scoring"] is not None
    assert res.gate_failures == ()


def test_constant_post_trip_rating_degrades_gracefully(tmp_path):
    rows = list(csv.reader(open(SURVEY, newline="", encoding="utf-8")))
    i33 = rows[0].index("q33")
    for r in rows[1:]:
        r[i33] = "4"
    path = tmp_path / "const.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    res = run_pipeline(PipelineConfig(survey_path=str(path), out_dir=str(tmp_path / "o")))
    # the singular structural fit is reported, not raised
    assert res.bundle["sem"] is None
    assert res.bundle["scoring"] is None
    assert any("structural fit failed" in w for w in res.bundle["warnings"])
    # a constant item spreads its mass evenly over respondents
    assert res.bundle["entropy"]["bookends"]["33"] == pytest.approx(1.0, abs=1e-12)
    assert res.bundle["cfa"] is not None


def _run_with_constant_q5(tmp_path):
    rows = list(csv.reader(open(SURVEY, newline="", encoding="utf-8")))
    i5 = rows[0].index("q5")
    for r in rows[1:]:
        r[i5] = "3"
    path = tmp_path / "const5.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return run_pipeline(
        PipelineConfig(survey_path=str(path), out_dir=str(tmp_path / "o"), judgments_path=JUDGMENTS)
    )


def test_constant_item_is_dropped_not_fatal(tmp_path):
    res = _run_with_constant_q5(tmp_path)
    b = res.bundle
    schema = json.loads(
        resources.files("lockqual").joinpath("schemas/report.schema.json").read_text("utf-8")
    )
    jsonschema.validate(json.loads(Path(res.out_paths["report"]).read_text("utf-8")), schema)
    assert res.gate_failures == ()
    assert b["efa"]["assignment"]["dropped"][0] == {"item": 5, "reason": "constant response"}
    assert "5" not in b["efa"]["loadings"]
    assert all(5 not in items for items in b["efa"]["assignment"]["factor_items"].values())
    assert b["adequacy"]["bartlett_df"] == 31 * 30 // 2
    for stage in ("reliability and sampling adequacy", "factor extraction"):
        warning = f"items [5] give the same response in every complete row; left out of {stage}"
        assert warning in b["warnings"]
    assert b["sem"] is not None and b["probit"] is not None


def test_duplicated_item_is_dropped_not_fatal(tmp_path):
    # q6 a copy of q5 makes R exactly singular; the item screen leaves q6 out
    # of the adequacy and EFA stages, so no KMO or Bartlett value comes from it
    d = gen_sem_survey(default_sem_truth(n=300, seed=0))
    codes = d.codes.copy()
    codes[:, 6] = codes[:, 5]
    path = tmp_path / "dup56.csv"
    write_survey(replace(d, codes=codes), str(path))
    res = run_pipeline(
        PipelineConfig(survey_path=str(path), out_dir=str(tmp_path / "o"), judgments_path=JUDGMENTS)
    )
    b = res.bundle
    schema = json.loads(
        resources.files("lockqual").joinpath("schemas/report.schema.json").read_text("utf-8")
    )
    jsonschema.validate(json.loads(Path(res.out_paths["report"]).read_text("utf-8")), schema)
    assert {"item": 6, "reason": "duplicate of q5"} in b["efa"]["assignment"]["dropped"]
    assert "6" not in b["efa"]["loadings"]
    assert b["adequacy"]["bartlett_df"] == 31 * 30 // 2
    for stage in ("reliability and sampling adequacy", "factor extraction"):
        warning = f"item 6 is a duplicate of q5 in every complete row; left out of {stage}"
        assert warning in b["warnings"]


def _run_sem_survey_with(tmp_path, edit):
    """run_pipeline on the n=300, seed 0 synthetic survey with its int8 codes edited."""
    d = gen_sem_survey(default_sem_truth(n=300, seed=0))
    codes = d.codes.copy()
    edit(codes)
    path = tmp_path / "edited.csv"
    write_survey(replace(d, codes=codes), str(path))
    res = run_pipeline(
        PipelineConfig(survey_path=str(path), out_dir=str(tmp_path / "o"), judgments_path=JUDGMENTS)
    )
    schema = json.loads(
        resources.files("lockqual").joinpath("schemas/report.schema.json").read_text("utf-8")
    )
    jsonschema.validate(json.loads(Path(res.out_paths["report"]).read_text("utf-8")), schema)
    return res.bundle


def test_reverse_keyed_item_is_dropped_not_fatal(tmp_path):
    # q6 := 6 - q5 is no copy of q5, but makes R exactly as singular
    def reverse_q5(codes):
        codes[:, 6] = 6 - codes[:, 5]

    b = _run_sem_survey_with(tmp_path, reverse_q5)
    assert {"item": 6, "reason": "linearly dependent on [q5]"} in b["efa"]["assignment"]["dropped"]
    assert b["adequacy"]["bartlett_df"] == 31 * 30 // 2
    for stage in ("reliability and sampling adequacy", "factor extraction"):
        warning = f"item 6 is linearly dependent on [q5] in the complete rows; left out of {stage}"
        assert warning in b["warnings"]


def test_never_rated_item_is_dropped_not_fatal(tmp_path):
    # with q5 blank in every row no row is complete over all 32 items
    def blank_q5(codes):
        codes[:, 5] = 0

    b = _run_sem_survey_with(tmp_path, blank_q5)
    assert b["efa"]["assignment"]["dropped"][0] == {"item": 5, "reason": "no responses"}
    assert b["adequacy"]["n_complete"] == 300
    assert b["adequacy"]["bartlett_df"] == 31 * 30 // 2
    for stage in ("reliability and sampling adequacy", "factor extraction"):
        assert f"items [5] have no rating in the sample; left out of {stage}" in b["warnings"]


def test_every_item_constant_is_a_clear_error(tmp_path):
    # adequacy and EFA have no usable item: both sections are null with a
    # failing gate, the stages that need EFA's assignment skip, the run goes on
    def flatten(codes):
        codes[:, 1:33] = 3

    b = _run_sem_survey_with(tmp_path, flatten)
    assert b["adequacy"] is None and b["efa"] is None
    failing = [g["name"] for g in b["gates"] if not g["passed"]]
    assert failing == ["adequacy_completed", "efa_completed"]
    for stage in ("reliability and sampling adequacy", "factor extraction"):
        warning = f"{stage} failed: no usable item left for {stage}: every item is constant or never rated"
        assert warning in b["warnings"]
    assert "no factor assignment; model fitting skipped" in b["warnings"]
    assert "no factor assignment; questionnaire reduction skipped" in b["warnings"]
    assert b["cfa"] is None and b["sem"] is None and b["probit"] is None
    assert b["entropy"]["ranking"] == [] and b["ahp"] is not None


def test_probit_refits_converge_at_the_noise_floor(tmp_path):
    # with q5 constant, the 9-item refit meets the noise floor: started cold,
    # its Newton step at max|grad| 3.3e-6 rounds the log-likelihood down by
    # 1e-13, inside the rounding error of the 450-term sum. The line search
    # takes that step and the fit lands at max|grad| 5e-13, so the
    # elimination goes on past the 19 drops where it once stopped.
    b = _run_with_constant_q5(tmp_path).bundle
    assert not any("converge" in w for w in b["warnings"])
    assert len(b["probit"]["steps"]) > 19


def test_factor_left_without_items_is_dropped_not_fatal(tmp_path):
    # at n=40, seed 1, pruning leaves factors 6 and 7 with no item
    path = tmp_path / "sem40.csv"
    write_survey(gen_sem_survey(default_sem_truth(n=40, seed=1)), str(path))
    res = run_pipeline(
        PipelineConfig(survey_path=str(path), out_dir=str(tmp_path / "o"), judgments_path=JUDGMENTS)
    )
    schema = json.loads(
        resources.files("lockqual").joinpath("schemas/report.schema.json").read_text("utf-8")
    )
    jsonschema.validate(json.loads(Path(res.out_paths["report"]).read_text("utf-8")), schema)
    assignment = res.bundle["efa"]["assignment"]
    assert sorted(assignment["factor_labels"]) == ["0", "1", "2", "3", "4", "5"]
    assert len(assignment["factor_items"]) == 6
    assert all(assignment["factor_items"].values())
    for j in (6, 7):
        assert f"factor {j} retains no items and is left out" in res.bundle["warnings"]


def test_too_few_complete_rows_for_the_items_is_a_clear_error(tmp_path):
    rows = list(csv.reader(open(SURVEY, newline="", encoding="utf-8")))[:16]
    path = tmp_path / "rows15.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="only 15 complete respondents for 32 items; too few"):
            run_pipeline(PipelineConfig(survey_path=str(path), out_dir=str(tmp_path / "o")))


def test_too_few_respondents_is_an_error(tmp_path):
    rows = list(csv.reader(open(SURVEY, newline="", encoding="utf-8")))[:6]
    path = tmp_path / "tiny.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(ValueError, match="too few"):
        run_pipeline(PipelineConfig(survey_path=str(path), out_dir=str(tmp_path / "o")))


def test_user_model_without_paths_is_fit_as_measurement_only(tmp_path):
    model = MeasurementModel(
        ("safe_security", "comfortable_conditions"),
        {"safe_security": (1, 2, 3), "comfortable_conditions": (22, 23, 24)},
        (),
        (("safe_security", "comfortable_conditions"),),
    )
    mpath = tmp_path / "model.json"
    mpath.write_text(model.to_json() + "\n", encoding="utf-8")
    res = run_pipeline(
        PipelineConfig(survey_path=SURVEY, out_dir=str(tmp_path / "o"), model_path=str(mpath))
    )
    assert res.bundle["cfa"] is not None
    assert res.bundle["cfa"]["fit_indices"]["df"] == 8
    assert res.bundle["sem"] is None
    assert res.bundle["scoring"] is None


def _toy_catalog(hints):
    items = tuple(
        CatalogItem(index=i + 1, abbreviation=f"it{i + 1}", kind="satisfaction", latent_hint=h)
        for i, h in enumerate(hints)
    )
    return VariableCatalog(items)


def _assignment(factor_items):
    retained = tuple(sorted(i for items in factor_items.values() for i in items))
    factor_of = {i: j for j, items in factor_items.items() for i in items}
    return FactorAssignment(
        retained_items=retained,
        dropped_items=(),
        factor_of=factor_of,
        factor_items={j: tuple(items) for j, items in factor_items.items()},
        per_factor_alpha={},
        warnings=(),
    )


def test_factor_labels_use_majority_hint():
    cat = _toy_catalog(["a", "a", "b", "b", "b", "c"])
    labels = _label_factors(_assignment({0: (3, 4, 5, 1), 1: (2, 6)}), cat)
    assert labels[0] == "b"
    # ties go to the hint seen first among the factor's items
    assert labels[1] == "a"


def test_factor_labels_deduplicate_repeats():
    cat = _toy_catalog(["a", "a", "a", "a"])
    labels = _label_factors(_assignment({0: (1, 2), 1: (3, 4)}), cat)
    assert labels[0] == "a"
    assert labels[1] == "a_2"


def test_model_synthesis_drops_thin_factors():
    warnings: list[str] = []
    cfa, structural = synthesize_models(
        _assignment({0: (1, 2, 3), 1: (4,), 2: (5, 6)}),
        {0: "x", 1: "y", 2: "z"},
        warnings,
    )
    assert any("'y'" in w for w in warnings)
    assert cfa.latents == ("x", "z")
    assert cfa.structural_paths == ()
    assert structural.latents == ("x", "z", "service_quality")
    assert structural.indicators["service_quality"] == (0, 33)
    assert set(structural.structural_paths) == {("x", "service_quality"), ("z", "service_quality")}


def test_model_synthesis_needs_two_usable_factors():
    warnings: list[str] = []
    cfa, structural = synthesize_models(
        _assignment({0: (1, 2), 1: (3,)}), {0: "x", 1: "y"}, warnings
    )
    assert cfa is None and structural is None
    assert any("fewer than 2 usable factors" in w for w in warnings)


def test_measurement_part_of_a_structural_model():
    full = MeasurementModel(
        ("a", "b", "q"),
        {"a": (1, 2), "b": (3, 4), "q": (0, 33)},
        (("a", "q"), ("b", "q")),
        (("a", "b"),),
    )
    cfa = _cfa_from_structural(full)
    assert cfa.latents == ("a", "b")
    assert cfa.structural_paths == ()
    assert cfa.latent_covariances == (("a", "b"),)
    lone = MeasurementModel(("a", "q"), {"a": (1, 2, 3), "q": (0, 33)}, (("a", "q"),), ())
    assert _cfa_from_structural(lone) is None


def test_summary_is_rendered_from_the_bundle_alone(full_run):
    text = render_summary(full_run.bundle)
    for heading in (
        "## Reliability and sampling adequacy",
        "## Factor structure",
        "## Measurement model",
        "## Structural model",
        "## Holdout score validation",
        "## Response variability",
        "## Delay bands",
        "## Supplier-side weights",
        "## Weight comparison",
        "## Questionnaire reduction",
        "## Gates",
    ):
        assert heading in text
    assert render_summary(full_run.bundle) == text


def test_default_catalog_shape():
    assert len(DEFAULT_CATALOG) == 32
    assert DEFAULT_CATALOG.indices == tuple(range(1, 33))


def test_jsonable_maps_every_nonfinite_float_to_null():
    doc = _jsonable({"a": float("inf"), "b": [float("-inf"), float("nan")], "c": 1.5})
    assert doc == {"a": None, "b": [None, None], "c": 1.5}
    assert json.dumps(doc, allow_nan=False) == '{"a": null, "b": [null, null], "c": 1.5}'


def test_report_json_refuses_nonfinite_floats(tmp_path):
    cfg = PipelineConfig(survey_path=SURVEY, out_dir=str(tmp_path))
    bad = {"a": 1.0, "b": [1, 2, 3], "x": float("inf")}
    with pytest.raises(ValueError):
        _write_outputs(cfg, bad, None, None)
    # the report is streamed into a temporary file, removed on the failure
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "report.json").write_text("{}\n", encoding="utf-8")
    with pytest.raises(ValueError):
        _write_outputs(cfg, bad, None, None)
    assert (tmp_path / "report.json").read_text("utf-8") == "{}\n"


def _fail_part_way(*args):
    """An output writer that writes a little into its file, when it is given one, then fails."""
    out = args[-1]
    if hasattr(out, "write"):
        out.write("partial")
    elif isinstance(out, str):
        Path(out).write_text("partial", encoding="utf-8")
    raise OSError("injected failure")


@pytest.mark.parametrize(
    "module, name",
    [
        ("lockqual.pipeline", "_dump_json"),
        ("lockqual.pipeline", "render_summary"),
        ("lockqual.scoring", "write_scores_csv"),
        ("lockqual.pipeline", "write_questionnaire"),
    ],
)
def test_a_failing_writer_leaves_the_earlier_bundle_whole(full_run, tmp_path, monkeypatch, module, name):
    for path in full_run.out_paths.values():
        shutil.copy(path, tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == ["questionnaire.csv", "report.json", "scores.csv", "summary.md"]
    monkeypatch.setattr(importlib.import_module(module), name, _fail_part_way)
    cfg = PipelineConfig(survey_path=SURVEY, out_dir=str(tmp_path), judgments_path=JUDGMENTS)
    with pytest.raises(OSError, match="injected failure"):
        run_pipeline(cfg)
    # every file as it was, and no temporary left beside them
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@dataclass(frozen=True)
class _Row:
    name: str
    value: float
    flag: bool


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.floats(allow_nan=True, allow_infinity=True, width=32).map(np.float32),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.integers(-(2**31), 2**31 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
_ARRAYS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(np.array),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=4).map(np.array),
    st.lists(st.integers(-5, 5), max_size=4).map(lambda v: np.array(v, dtype=np.int64)),
)
_ROWS = st.builds(_Row, st.text(max_size=3), st.floats(allow_nan=True, allow_infinity=True), st.booleans())
_KEYS = st.one_of(st.text(max_size=3), st.integers(-9, 99))
_DOCS = st.recursive(
    st.one_of(_SCALARS, _ARRAYS, _ROWS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=4),
    ),
    max_leaves=12,
)


def _only_json_types(doc) -> bool:
    if isinstance(doc, dict):
        return all(type(k) is str and _only_json_types(v) for k, v in doc.items())
    if isinstance(doc, list):
        return all(_only_json_types(v) for v in doc)
    if type(doc) is float:
        return math.isfinite(doc)
    return doc is None or type(doc) in (bool, int, str)


@settings(max_examples=300, deadline=None)
@given(doc=_DOCS)
def test_jsonable_yields_only_strict_json_types(doc):
    out = _jsonable(doc)
    assert _only_json_types(out)
    json.dumps(out, allow_nan=False)


@given(row=_ROWS)
def test_jsonable_maps_a_dataclass_to_its_fields_in_order(row):
    out = _jsonable(row)
    assert list(out) == ["name", "value", "flag"]
    value = row.value if math.isfinite(row.value) else None
    assert out == {"name": row.name, "value": value, "flag": row.flag}
    assert _jsonable([row, (row,)]) == [out, [out]]
