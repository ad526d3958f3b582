"""The fixture outputs still match the digests the benchmark pins.

perfbench/run.py checks every document it writes against the digests in
perfbench/reference.json (discrete results exact, floats within its REL_TOL)
and refuses the run on a difference. A change that moves a pinned value fails
here first.
"""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from lockqual import cli
from lockqual.pipeline import PipelineConfig, run_pipeline

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SCHEMAS = str(ROOT / "src" / "lockqual" / "schemas")
SURVEY = str(ROOT / "data" / "fixture_survey.csv")
JUDGMENTS = str(ROOT / "data" / "fixture_judgments.csv")


_spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text("utf-8"))


def test_fixture_bundle_matches_the_reference_digest(tmp_path):
    run_pipeline(PipelineConfig(survey_path=SURVEY, judgments_path=JUDGMENTS, out_dir=str(tmp_path)))
    doc = json.loads((tmp_path / "report.json").read_text("utf-8"))
    assert checks.check_doc(SCHEMAS, "report", doc, REFERENCE["fixture"]) == []


def test_probit_document_matches_the_reference_digest(tmp_path):
    out = tmp_path / "probit.json"
    assert cli.main(["probit", "--input", SURVEY, "--out", str(out)]) == 0
    doc = json.loads(out.read_text("utf-8"))
    assert checks.check_doc(SCHEMAS, "probit", doc, REFERENCE["cli"]["probit"]) == []
