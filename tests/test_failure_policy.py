"""What a run does with bad data: reject the input, or null the failing stage.

Input the run cannot use at all (an unreadable file, no more complete rows
than items) is rejected with ValueError. A stage that fails inside the run
leaves its section null, with a "<stage> failed: <reason>" warning and a
failing `<section>_completed` gate, and the bundle still validates.
"""
from __future__ import annotations

import copy
import csv
import json
import tempfile
from dataclasses import replace
from functools import lru_cache
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lockqual.dataset import write_survey
from lockqual.pipeline import (
    PipelineConfig,
    TooFewRowsError,
    _check,
    _stage,
    render_summary,
    run_pipeline,
)
from lockqual.synth import default_sem_truth, gen_sem_survey

DATA = Path(__file__).resolve().parent.parent / "data"
SURVEY = str(DATA / "fixture_survey.csv")
JUDGMENTS = str(DATA / "fixture_judgments.csv")
SCHEMA = json.loads(
    resources.files("lockqual").joinpath("schemas/report.schema.json").read_text("utf-8")
)

# each guarded section and the stage name its failure warning starts with
STAGES = {
    "adequacy": "reliability and sampling adequacy",
    "efa": "factor extraction",
    "cfa": "measurement fit",
    "sem": "structural fit",
    "scoring": "scoring",
    "entropy": "response entropy",
    "delay": "delay bands",
    "ahp": "supplier weights",
    "bias": "weight comparison",
    "probit": "questionnaire reduction",
}


def _failed_stages(bundle: dict) -> set[str]:
    """The sections whose stage failed, after checking each failure is recorded in full."""
    failed = set()
    for section, stage in STAGES.items():
        warned = [w for w in bundle["warnings"] if w.startswith(f"{stage} failed: ")]
        gates = [g for g in bundle["gates"] if g["name"] == f"{section}_completed"]
        assert len(warned) == len(gates) <= 1, section
        if gates:
            assert gates[0]["value"] is None and not gates[0]["passed"]
            assert bundle[section] is None
            failed.add(section)
    return failed


def test_stage_guard_replaces_a_failed_stage_by_one_failing_gate():
    doc, gates, warnings = {"cfa": {"stale": True}}, [_check("kmo", 0.9, 0.6, "at_least")], []
    with _stage(doc, gates, warnings, "cfa", "measurement fit"):
        gates.append(_check("cfa_rmsea", 0.01, 0.08, "below"))
        raise ValueError("boom")
    assert doc == {"cfa": None}
    assert [(c.name, c.passed) for c in gates] == [("kmo", True), ("cfa_completed", False)]
    assert warnings == ["measurement fit failed: boom"]


@pytest.mark.parametrize("exc", [TooFewRowsError("too few"), KeyError("bug")])
def test_stage_guard_lets_rejections_and_bugs_through(exc):
    gates: list = []
    with pytest.raises(type(exc)):
        with _stage({}, gates, [], "adequacy", "reliability and sampling adequacy"):
            raise exc
    assert gates == []


@lru_cache(maxsize=None)
def _sample(n: int, seed: int):
    return gen_sem_survey(default_sem_truth(n=n, seed=seed))


DEFECTS = st.one_of(
    st.tuples(st.just("blank"), st.integers(1, 32)),
    st.tuples(st.just("constant"), st.integers(1, 32), st.integers(1, 5)),
    st.tuples(st.just("all constant"), st.integers(1, 5)),
    st.tuples(st.just("copy"), st.integers(1, 32), st.integers(1, 32)),
    st.tuples(st.just("reverse-keyed copy"), st.integers(1, 32), st.integers(1, 32)),
    st.tuples(st.just("constant q33"), st.integers(1, 5)),
)


def _apply(codes, defect) -> None:
    kind, *args = defect
    if kind == "blank":
        codes[:, args[0]] = 0
    elif kind == "constant":
        codes[:, args[0]] = args[1]
    elif kind == "all constant":
        codes[:, 1:33] = args[0]
    elif kind == "copy":
        codes[:, args[1]] = codes[:, args[0]]
    elif kind == "reverse-keyed copy":
        src = codes[:, args[0]]
        codes[:, args[1]] = np.where(src > 0, 6 - src, 0)  # a blank cell stays blank
    else:
        codes[:, 33] = args[0]


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from((30, 60, 120, 200)),
    seed=st.integers(0, 3),
    defects=st.lists(DEFECTS, min_size=1, max_size=3),
)
# q1 reverse-keyed in place: a latent variance of the measurement fit reaches zero
@example(n=200, seed=0, defects=[("reverse-keyed copy", 1, 1)])
def test_a_defective_survey_is_rejected_or_gives_a_valid_bundle(n, seed, defects):
    d = _sample(n, seed)
    codes = d.codes.copy()
    for defect in defects:
        _apply(codes, defect)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "survey.csv")
        write_survey(replace(d, codes=codes), path)
        cfg = PipelineConfig(survey_path=path, out_dir=str(Path(tmp) / "o"), judgments_path=JUDGMENTS)
        try:
            res = run_pipeline(cfg)
        except TooFewRowsError as exc:
            assert "too few" in str(exc)
            return
        bundle = json.loads(Path(res.out_paths["report"]).read_text("utf-8"))
    jsonschema.validate(bundle, SCHEMA)
    failed = _failed_stages(bundle)
    # these three never skip: null means failed
    assert {s for s in ("adequacy", "efa", "entropy") if bundle[s] is None} <= failed
    assert {f"{s}_completed" for s in failed} <= set(res.gate_failures)


def test_rejected_judgment_file_nulls_the_supplier_weights(tmp_path):
    path = tmp_path / "judgments.csv"
    path.write_text("respondent,left\nr1,a\n", encoding="utf-8")
    res = run_pipeline(
        PipelineConfig(survey_path=SURVEY, out_dir=str(tmp_path / "o"), judgments_path=str(path))
    )
    bundle = res.bundle
    assert bundle["ahp"] is None and bundle["bias"] is None
    assert any(w.startswith("supplier weights failed: judgment CSV must have columns") for w in bundle["warnings"])
    assert res.gate_failures == ("ahp_completed",)
    assert _failed_stages(json.loads(Path(res.out_paths["report"]).read_text("utf-8"))) == {"ahp"}
    # the customer side is unaffected
    assert bundle["sem"] is not None and bundle["probit"] is not None


def test_a_survey_without_valid_rows_names_the_screening(tmp_path):
    rows = list(csv.reader(open(SURVEY, newline="", encoding="utf-8")))
    col = rows[0].index("q5")
    for r in rows[1:]:
        r[col] = "9"
    path = tmp_path / "bad.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(TooFewRowsError, match=r"^no valid respondent rows \(750 rejected by screening\)$"):
        run_pipeline(PipelineConfig(survey_path=str(path), out_dir=str(tmp_path / "o")))


@pytest.fixture(scope="module")
def fixture_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    res = run_pipeline(PipelineConfig(survey_path=SURVEY, out_dir=str(out), judgments_path=JUDGMENTS))
    return json.loads(Path(res.out_paths["report"]).read_text("utf-8"))


def _nullable_sections() -> list[str]:
    return sorted(
        k for k, v in SCHEMA["properties"].items() if {"type": "null"} in v.get("anyOf", ())
    )


def test_schema_lets_every_guarded_stage_be_null():
    assert set(STAGES) <= set(_nullable_sections())


@pytest.mark.parametrize("section", _nullable_sections())
def test_summary_renders_with_any_nullable_section_null(fixture_bundle, section):
    bundle = copy.deepcopy(fixture_bundle)
    bundle[section] = None
    if section == "efa":
        # entropy ranks the EFA factors, so without them its ranking is empty
        bundle["entropy"]["ranking"] = []
    jsonschema.validate(bundle, SCHEMA)
    text = render_summary(bundle)
    assert "## Gates" in text
    assert "Factors by diverging perceptions (most first): ." not in text
