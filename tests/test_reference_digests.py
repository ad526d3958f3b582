"""The fixture outputs still match the digests the benchmark pins.

perfbench/run.py checks every document it writes against the digests in
perfbench/reference.json (discrete results exact, floats within its REL_TOL)
and refuses the run on a difference. A change that moves a pinned value fails
here first.
"""
from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from lockqual import cli
from lockqual.pipeline import PipelineConfig, run_pipeline

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SCHEMAS = str(ROOT / "src" / "lockqual" / "schemas")
SURVEY = str(ROOT / "data" / "fixture_survey.csv")
JUDGMENTS = str(ROOT / "data" / "fixture_judgments.csv")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load("checks")
inputs = _load("inputs")
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text("utf-8"))


def test_fixture_bundle_matches_the_reference_digest(tmp_path):
    run_pipeline(PipelineConfig(survey_path=SURVEY, judgments_path=JUDGMENTS, out_dir=str(tmp_path)))
    doc = json.loads((tmp_path / "report.json").read_text("utf-8"))
    assert checks.check_doc(SCHEMAS, "report", doc, REFERENCE["fixture"]) == []


def test_the_survey_workload_inputs_match_their_pinned_digests(tmp_path):
    # the benchmark refuses inputs whose SHA-256 moved: a change to the bytes
    # write_survey writes or to what synth draws fails here first
    paths = inputs.generate(2000, 0, str(tmp_path))
    got = {os.path.basename(p): checks.file_sha256(p) for p in paths.values()}
    assert got == REFERENCE["inputs"]["2000:0"]


def test_probit_document_matches_the_reference_digest(tmp_path):
    out = tmp_path / "probit.json"
    assert cli.main(["probit", "--input", SURVEY, "--out", str(out)]) == 0
    doc = json.loads(out.read_text("utf-8"))
    assert checks.check_doc(SCHEMAS, "probit", doc, REFERENCE["cli"]["probit"]) == []


def test_pipeline_and_the_readme_chain_run_without_scipy(tmp_path):
    # SciPy serves the tests alone. With every import of it failing, run_pipeline
    # and the eleven subcommands of the README's chain (perfbench's cli_oneshot)
    # exit 0 and write the documents the benchmark pins.
    d = str(tmp_path)
    chain = [
        ["validate", "--input", SURVEY, "--out", f"{d}/validate.json"],
        ["describe", "--input", SURVEY, "--out", f"{d}/describe.json"],
        ["reliability", "--input", SURVEY, "--out", f"{d}/reliability.json"],
        ["efa", "--input", SURVEY, "--out", f"{d}/efa.json"],
        ["sem", "--input", SURVEY, "--out", f"{d}/sem.json"],
        ["score", "--input", SURVEY, "--weights", f"{d}/sem.json", "--out", f"{d}/score.json"],
        ["entropy", "--input", SURVEY, "--out", f"{d}/entropy.json"],
        ["ahp", "--judgments", JUDGMENTS, "--out", f"{d}/ahp.json"],
        ["probit", "--input", SURVEY, "--out", f"{d}/probit.json"],
        ["bias", "--ow", f"{d}/sem.json", "--sw", f"{d}/ahp.json", "--out", f"{d}/bias.json"],
        ["report", "--input", SURVEY, "--judgments", JUDGMENTS, "--out-dir", f"{d}/report"],
    ]
    code = (
        "import contextlib, io, sys\n"
        "sys.modules['scipy'] = None\n"
        "from lockqual.cli import main\n"
        "from lockqual.pipeline import PipelineConfig, run_pipeline\n"
        f"run_pipeline(PipelineConfig(survey_path={SURVEY!r}, judgments_path={JUDGMENTS!r}, out_dir={d + '/pipeline'!r}))\n"
        f"for argv in {chain!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        rc = main(argv)\n"
        "    print(argv[0], rc)\n"
    )
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [f"{argv[0]} 0" for argv in chain]
    docs = {"pipeline": ("report", tmp_path / "pipeline" / "report.json", REFERENCE["fixture"])}
    for argv in chain:
        sub = argv[0]
        path = tmp_path / "report" / "report.json" if sub == "report" else tmp_path / f"{sub}.json"
        docs[sub] = (sub, path, REFERENCE["cli"][sub])
    for name, (kind, path, ref) in docs.items():
        doc = json.loads(path.read_text("utf-8"))
        assert checks.check_doc(SCHEMAS, kind, doc, ref) == [], name
