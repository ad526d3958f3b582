"""Command line surface: exit codes, output documents, schema conformance."""
from __future__ import annotations

import csv
import json
import math
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from lockqual import cli
from lockqual.pipeline import _jsonable
from lockqual.catalog import DEFAULT_CATALOG

DATA = Path(__file__).resolve().parent.parent / "data"
SURVEY = str(DATA / "fixture_survey.csv")
JUDGMENTS = str(DATA / "fixture_judgments.csv")


def _schema(name: str) -> dict:
    text = resources.files("lockqual").joinpath(f"schemas/{name}.schema.json").read_text("utf-8")
    return json.loads(text)


def _run_json(argv: list[str], path: Path) -> tuple[int, dict]:
    rc = cli.main(argv + ["--out", str(path)])
    return rc, json.loads(path.read_text("utf-8"))


@pytest.fixture(scope="module")
def sem_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "sem.json"
    rc, doc = _run_json(["sem", "--input", SURVEY], path)
    assert rc == 0
    return path, doc


@pytest.fixture(scope="module")
def ahp_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "ahp.json"
    rc, doc = _run_json(["ahp", "--judgments", JUDGMENTS], path)
    assert rc == 0
    return path, doc


@pytest.fixture(scope="module")
def report_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "report"
    argv = ["report", "--input", SURVEY, "--judgments", JUDGMENTS, "--out-dir", str(out)]
    assert cli.main(argv) == 0
    return json.loads((out / "report.json").read_text("utf-8"))


def test_stage_documents_equal_the_report_sections(report_bundle, sem_doc, tmp_path):
    b = report_bundle
    for sub, section in (("validate", "screening"), ("describe", "descriptives")):
        rc, doc = _run_json([sub, "--input", SURVEY], tmp_path / f"{sub}.json")
        assert rc == 0 and doc == b[section], sub
    rc, doc = _run_json(["reliability", "--input", SURVEY], tmp_path / "r.json")
    assert rc == 0
    assert doc.pop("items") == list(DEFAULT_CATALOG.indices)
    assert doc.pop("gates") == b["gates"][:3]
    assert doc == b["adequacy"]
    rc, doc = _run_json(["ahp", "--judgments", JUDGMENTS], tmp_path / "a.json")
    assert rc == 0
    assert doc.pop("gates") == [g for g in b["gates"] if g["name"] == "ahp_criteria_cr"]
    assert doc.pop("warnings") == []
    assert doc == b["ahp"]
    # same split and EFA as the report; validity is the structural model's
    cli_only = ("validity", "model", "split", "cli_warnings")
    doc = {k: v for k, v in sem_doc[1].items() if k not in cli_only}
    assert doc.pop("gates") == [g for g in b["gates"] if g["name"].startswith("sem_")]
    assert doc == b["sem"]


def test_bias_document_matches_the_report_section(report_bundle, sem_doc, ahp_doc, tmp_path):
    # the command line re-normalizes the supplier weights it reads back from
    # ahp.json, which may move them in the last place
    rc, doc = _run_json(
        ["bias", "--ow", str(sem_doc[0]), "--sw", str(ahp_doc[0])], tmp_path / "b.json"
    )
    assert rc == 0
    want = report_bundle["bias"]
    assert doc["spearman"] == want["spearman"]
    assert doc["dominance"] == want["dominance"]
    assert len(doc["rows"]) == len(want["rows"])
    for got, row in zip(doc["rows"], want["rows"]):
        assert {k: got[k] for k in ("factor", "ow_rank", "sw_rank")} == {
            k: row[k] for k in ("factor", "ow_rank", "sw_rank")
        }
        assert got["ow"] == pytest.approx(row["ow"], rel=1e-12, abs=0)
        assert got["sw"] == pytest.approx(row["sw"], rel=1e-12, abs=0)


def test_bias_names_mismatched_weight_documents(sem_doc, ahp_doc, tmp_path, capsys):
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"a": 1.0, "b": 2.0}), encoding="utf-8")
    assert cli.main(["bias", "--ow", str(other), "--sw", str(ahp_doc[0])]) == 1
    assert "do not match the hierarchy leaves" in capsys.readouterr().err
    assert cli.main(["bias", "--ow", str(sem_doc[0]), "--sw", str(other)]) == 1
    assert "no weights for ['safe_security'" in capsys.readouterr().err


def _constant_q5(tmp_path) -> Path:
    """The fixture survey with every q5 rating set to 3."""
    rows = list(csv.reader(open(SURVEY, newline="", encoding="utf-8")))
    col = rows[0].index("q5")
    for r in rows[1:]:
        r[col] = "3"
    path = tmp_path / "const5.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return path


def test_constant_item_is_dropped_by_the_stage_commands(tmp_path):
    path = _constant_q5(tmp_path)
    rc, doc = _run_json(["reliability", "--input", str(path)], tmp_path / "r.json")
    assert rc == 0
    assert 5 not in doc["items"] and len(doc["items"]) == 31
    rc, doc = _run_json(["efa", "--input", str(path)], tmp_path / "e.json")
    assert rc == 0
    assert {"item": 5, "reason": "constant response"} in doc["assignment"]["dropped"]
    assert any("items [5]" in w for w in doc["assignment"]["warnings"])
    jsonschema.validate(doc, _schema("efa"))
    rc, doc = _run_json(["sem", "--input", str(path)], tmp_path / "s.json")
    assert rc == 0
    assert all(5 not in lat["indicators"] for lat in doc["model"]["latents"])
    jsonschema.validate(doc, _schema("sem"))


def test_reliability_without_a_usable_item_exits_1(tmp_path, capsys):
    rows = list(csv.reader(open(SURVEY, newline="", encoding="utf-8")))
    cols = [rows[0].index(f"q{i}") for i in range(1, 33)]
    for r in rows[1:]:
        for c in cols:
            r[c] = "3"
    path = tmp_path / "flat.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    assert cli.main(["reliability", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error: no usable item left for reliability and sampling adequacy" in err


def _edited_fixture(tmp_path, **cells) -> Path:
    """The fixture survey with each named column set to a constant, or to a copy of "qJ"."""
    rows = list(csv.reader(open(SURVEY, newline="", encoding="utf-8")))
    head = rows[0]
    for r in rows[1:]:
        for name, value in cells.items():
            r[head.index(name)] = r[head.index(value)] if value in head else value
    path = tmp_path / "edited.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return path


def test_report_strict_fails_on_a_failed_stage(tmp_path, capsys):
    # a constant post-trip rating fails the structural fit and the probit
    path = _edited_fixture(tmp_path, q33="4")
    argv = ["report", "--input", str(path), "--judgments", JUDGMENTS, "--out-dir", str(tmp_path / "o")]
    assert cli.main(argv + ["--strict"]) == 2
    out = capsys.readouterr().out
    assert "all gates pass" not in out
    failing = out.split("failing gates: ")[1].split("\n")[0].split(", ")
    assert {"sem_completed", "probit_completed"} <= set(failing)


def test_report_strict_on_a_survey_of_constant_items(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    assert cli.main(["synth", "--kind", "sem", "--n", "300", "--seed", "0", "--out-file", str(path)]) == 0
    rows = list(csv.reader(open(path, newline="", encoding="utf-8")))
    cols = [rows[0].index(f"q{i}") for i in range(1, 33)]
    for r in rows[1:]:
        for c in cols:
            r[c] = "3"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    argv = ["report", "--input", str(path), "--out-dir", str(tmp_path / "o"), "--strict"]
    assert cli.main(argv) == 2
    assert "failing gates: adequacy_completed, efa_completed\n" in capsys.readouterr().out
    bundle = json.loads((tmp_path / "o" / "report.json").read_text("utf-8"))
    jsonschema.validate(bundle, _schema("report"))
    assert bundle["adequacy"] is None and bundle["efa"] is None


def test_probit_error_names_only_the_failing_reason(tmp_path, capsys):
    # the duplicate q6 is left out with a warning; only the failure is the error
    path = _edited_fixture(tmp_path, q6="q5", q33="4")
    assert cli.main(["probit", "--input", str(path)]) == 1
    assert capsys.readouterr().err == "error: unobserved categories: [1, 2, 3]\n"


def test_reliability_without_valid_rows_names_the_screening(tmp_path, capsys):
    path = _edited_fixture(tmp_path, q5="9")
    assert cli.main(["reliability", "--input", str(path)]) == 1
    assert capsys.readouterr().err == "error: no valid respondent rows (750 rejected by screening)\n"


def test_stage_commands_leave_out_a_never_rated_item(tmp_path):
    rows = list(csv.reader(open(SURVEY, newline="", encoding="utf-8")))
    col = rows[0].index("q5")
    for r in rows[1:]:
        r[col] = ""
    path = tmp_path / "blank5.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    rc, doc = _run_json(["reliability", "--input", str(path)], tmp_path / "r.json")
    assert rc == 0 and 5 not in doc["items"] and len(doc["items"]) == 31
    rc, doc = _run_json(["efa", "--input", str(path)], tmp_path / "e.json")
    assert rc == 0 and {"item": 5, "reason": "no responses"} in doc["assignment"]["dropped"]
    rc, doc = _run_json(["probit", "--input", str(path)], tmp_path / "p.json")
    assert rc == 0
    jsonschema.validate(doc, _schema("probit"))
    assert "items [5] have no rating in the sample; left out of questionnaire reduction" in doc["warnings"]


def test_probit_command_drops_a_constant_item(tmp_path):
    rc, doc = _run_json(["probit", "--input", str(_constant_q5(tmp_path))], tmp_path / "p.json")
    assert rc == 0
    jsonschema.validate(doc, _schema("probit"))
    q5 = DEFAULT_CATALOG.abbreviation_of(5)
    assert q5 not in doc["survivors"] and all(s["dropped"] != q5 for s in doc["steps"])
    assert any(w.startswith("items [5] ") and w.endswith("left out of questionnaire reduction") for w in doc["warnings"])


def test_probit_command_leaves_out_a_duplicated_item(tmp_path):
    # a synthetic survey with every q6 rating copied from q5: the probit over
    # the whole catalog screens q6 out as the adequacy and EFA stages do,
    # instead of stopping on a collinear design
    src = tmp_path / "sem.csv"
    assert cli.main(["synth", "--kind", "sem", "--n", "300", "--seed", "0", "--out-file", str(src)]) == 0
    rows = list(csv.reader(open(src, newline="", encoding="utf-8")))
    q5, q6 = rows[0].index("q5"), rows[0].index("q6")
    for r in rows[1:]:
        r[q6] = r[q5]
    path = tmp_path / "dup6.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    rc, doc = _run_json(["probit", "--input", str(path)], tmp_path / "p.json")
    assert rc == 0
    jsonschema.validate(doc, _schema("probit"))
    assert doc["warnings"] == [
        "item 6 is a duplicate of q5 in every complete row; left out of questionnaire reduction"
    ]
    q6_name = DEFAULT_CATALOG.abbreviation_of(6)
    assert q6_name not in doc["survivors"] and all(s["dropped"] != q6_name for s in doc["steps"])
    assert doc["final"] is not None


def test_bad_invocations_exit_1(tmp_path, capsys):
    for argv in ([], ["frobnicate"], ["validate"], ["validate", "--no-such-flag"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
    capsys.readouterr()
    assert cli.main(["validate", "--input", str(tmp_path / "absent.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_reports_screening(tmp_path):
    rc, doc = _run_json(["validate", "--input", SURVEY], tmp_path / "v.json")
    assert rc == 0
    assert doc["n_valid"] == 750
    assert doc["n_rejected"] == 0
    jsonschema.validate(doc, _schema("validate"))


def test_describe_covers_all_items(tmp_path):
    rc, doc = _run_json(["describe", "--input", SURVEY], tmp_path / "d.json")
    assert rc == 0
    assert set(map(int, doc["items"])) >= set(DEFAULT_CATALOG.indices)
    jsonschema.validate(doc, _schema("describe"))


def test_reliability_full_item_set(tmp_path):
    rc, doc = _run_json(["reliability", "--input", SURVEY], tmp_path / "r.json")
    assert rc == 0
    assert doc["items"] == list(DEFAULT_CATALOG.indices)
    assert 0.8 < doc["cronbach_alpha"] < 0.95
    assert all(g["passed"] for g in doc["gates"])
    jsonschema.validate(doc, _schema("reliability"))


def test_reliability_strict_gate_failure_exits_2(tmp_path):
    # the three filler items barely correlate, so alpha sits far below 0.7
    argv = ["reliability", "--input", SURVEY, "--items", "4,27,28"]
    rc, doc = _run_json(argv, tmp_path / "soft.json")
    assert rc == 0
    assert doc["cronbach_alpha"] < 0.7
    failed = {g["name"] for g in doc["gates"] if not g["passed"]}
    assert "cronbach_alpha" in failed
    rc2, doc2 = _run_json(argv + ["--strict"], tmp_path / "hard.json")
    assert rc2 == 2
    assert doc2["cronbach_alpha"] == doc["cronbach_alpha"]


def test_malformed_items_list_exits_1(capsys):
    rc = cli.main(["reliability", "--input", SURVEY, "--items", "1,x"])
    assert rc == 1
    assert "comma-separated" in capsys.readouterr().err


def test_out_of_range_item_index_is_named(capsys):
    rc = cli.main(["reliability", "--input", SURVEY, "--items", "1,2,99"])
    assert rc == 1
    assert "unknown item indices: 99" in capsys.readouterr().err


def test_unknown_index_in_custom_groups_is_named(tmp_path, capsys):
    path = tmp_path / "groups.json"
    path.write_text(json.dumps({"g1": [1, 2, 99], "g2": [200]}))
    rc = cli.main(["entropy", "--input", SURVEY, "--groups", str(path)])
    assert rc == 1
    assert "unknown item indices in --groups: 99, 200" in capsys.readouterr().err


@pytest.mark.parametrize("items", [5, [1.7], [True], ["1"], None])
def test_custom_group_that_is_not_a_list_of_integers_is_named(tmp_path, capsys, items):
    path = tmp_path / "groups.json"
    path.write_text(json.dumps({"g1": [1, 2], "odd": items}))
    rc = cli.main(["entropy", "--input", SURVEY, "--groups", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: --groups group 'odd': expected a list of integer item indices" in err
    assert "Traceback" not in err


_CATALOG_ROWS = [
    {"index": it.index, "abbreviation": it.abbreviation, "kind": it.kind, "latent_hint": it.latent_hint}
    for it in DEFAULT_CATALOG.items
]


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ({"index": 5, "abbreviation": "wait_time", "latent_hint": "time_convenience"}, "row 4 has no 'kind'"),
        ([1, 2], "row 4 must be an object with index, abbreviation, kind, latent_hint"),
        ({**_CATALOG_ROWS[4], "index": "5"}, "row 4 'index' must be an integer"),
        ({**_CATALOG_ROWS[4], "kind": "yes/no"}, "row 4: unknown question kind 'yes/no'"),
    ],
    ids=["no-kind", "not-an-object", "string-index", "unknown-kind"],
)
def test_malformed_catalog_row_is_named(tmp_path, capsys, bad_row, message):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(_CATALOG_ROWS[:4] + [bad_row] + _CATALOG_ROWS[5:]))
    assert cli.main(["describe", "--input", SURVEY, "--catalog", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: catalog: {message}\n"


@pytest.mark.parametrize(
    "argv, named",
    [
        (["describe", "--input", SURVEY, "--catalog", "{bad}"], "catalog:"),
        (["sem", "--input", SURVEY, "--model", "{bad}"], "model:"),
        (["report", "--input", SURVEY, "--model", "{bad}", "--out-dir", "{out}"], "model:"),
        (["score", "--input", SURVEY, "--weights", "{bad}"], "--weights {bad}:"),
        (["entropy", "--input", SURVEY, "--groups", "{bad}"], "--groups {bad}:"),
        (["bias", "--ow", "{bad}", "--sw", "{ahp}"], "--ow {bad}:"),
        (["bias", "--ow", "{sem}", "--sw", "{bad}"], "--sw {bad}:"),
    ],
    ids=["catalog", "sem-model", "report-model", "weights", "groups", "ow", "sw"],
)
def test_a_file_that_is_not_json_is_named(tmp_path, capsys, sem_doc, ahp_doc, argv, named):
    bad = tmp_path / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    paths = {"bad": str(bad), "out": str(tmp_path / "out"), "sem": str(sem_doc[0]), "ahp": str(ahp_doc[0])}
    assert cli.main([arg.format(**paths) for arg in argv]) == 1
    reason = "not a JSON document (Expecting value: line 1 column 1 (char 0))"
    assert capsys.readouterr().err == f"error: {named.format(**paths)} {reason}\n"


@pytest.mark.parametrize(
    "argv, option",
    [
        (["describe", "--input", SURVEY, "--catalog", "{bad}", "--out", "{out}"], "--catalog"),
        (["sem", "--input", SURVEY, "--model", "{bad}", "--out", "{out}"], "--model"),
        (["report", "--input", SURVEY, "--catalog", "{bad}", "--out-dir", "{out}"], "--catalog"),
        (["report", "--input", SURVEY, "--model", "{bad}", "--out-dir", "{out}"], "--model"),
    ],
    ids=["describe-catalog", "sem-model", "report-catalog", "report-model"],
)
def test_a_catalog_or_model_file_that_is_not_utf8_is_named(tmp_path, capsys, argv, option):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe[]")
    out = tmp_path / "out"
    assert cli.main([arg.format(bad=bad, out=out) for arg in argv]) == 1
    reason = "not UTF-8 text ('utf-8' codec can't decode byte 0xff in position 0: invalid start byte)"
    assert capsys.readouterr().err == f"error: {option} {bad}: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "item_weights, latent_weights, what",
    [
        ({"a": {"1": "x"}}, {"a": 1.0}, "weight for item 1 of 'a' is not a number: 'x'"),
        ({"a": {"1": 0.5}}, {"a": None}, "weight for latent 'a' is not a number: None"),
        ({"a": {"one": 0.5}}, {"a": 1.0}, "item index of 'a' is not a number: 'one'"),
    ],
    ids=["item-weight", "latent-weight", "item-index"],
)
def test_score_names_the_file_and_a_weight_that_is_not_a_number(tmp_path, capsys, item_weights, latent_weights, what):
    path = tmp_path / "w.json"
    doc = {"latents": ["a"], "item_weights": item_weights, "latent_weights": latent_weights}
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "scores.json"
    assert cli.main(["score", "--input", SURVEY, "--weights", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --weights {path}: {what}\n"
    assert not out.exists()


def test_custom_catalog_is_read(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(_CATALOG_ROWS))
    assert _run_json(["describe", "--input", SURVEY, "--catalog", str(path)], tmp_path / "a.json") == _run_json(
        ["describe", "--input", SURVEY], tmp_path / "b.json"
    )


def test_a_reverse_keyed_item_refuses_the_score_weights_by_name(tmp_path, sem_doc):
    # items 13 and 23 written as 6 - code load negatively on their latents,
    # whose markers are items 12 and 22
    survey = tmp_path / "reversed.csv"
    with open(SURVEY, encoding="utf-8", newline="") as src, open(survey, "w", encoding="utf-8", newline="") as dst:
        rows = csv.reader(src)
        header = next(rows)
        cols = [header.index("q13"), header.index("q23")]
        out = csv.writer(dst, lineterminator="\n")
        out.writerow(header)
        for row in rows:
            for col in cols:
                if row[col].isdigit():
                    row[col] = str(6 - int(row[col]))
            out.writerow(row)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(sem_doc[1]["model"]), encoding="utf-8")
    out_dir = tmp_path / "out"
    argv = ["report", "--input", str(survey), "--judgments", JUDGMENTS, "--model", str(model), "--out-dir", str(out_dir)]
    assert cli.main(argv) == 0
    bundle = json.loads((out_dir / "report.json").read_text("utf-8"))
    jsonschema.validate(bundle, _schema("report"))
    assert bundle["sem"] is not None
    assert bundle["sem"]["score_weights"] is None
    assert bundle["scoring"] is None and bundle["bias"] is None
    sources = {p["from"] for p in sem_doc[1]["model"]["paths"]}
    bad = {
        f"nonpositive weight for item {r['rhs']} of {r['lhs']!r}"
        for r in bundle["sem"]["param_table"]
        if r["kind"] == "loading" and r["lhs"] in sources and r["std"] <= 0
    } | {
        f"nonpositive weight for latent {r['lhs']!r}"
        for r in bundle["sem"]["param_table"]
        if r["kind"] == "path" and r["std"] <= 0
    }
    assert {
        "nonpositive weight for item 13 of 'lockage_regulation'",
        "nonpositive weight for item 23 of 'comfortable_conditions'",
    } <= bad
    refusals = [w for w in bundle["warnings"] if w.startswith("score weights unavailable: ")]
    assert len(refusals) == 1
    assert set(refusals[0].removeprefix("score weights unavailable: ").split("; ")) == bad


def test_model_file_without_latents_is_named(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text("{}")
    assert cli.main(["sem", "--input", SURVEY, "--model", str(path)]) == 1
    assert "error: model: 'latents' must be a list" in capsys.readouterr().err


def test_model_latent_without_indicators_is_named(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"latents": [{"name": "a"}]}))
    argv = ["report", "--input", SURVEY, "--model", str(path), "--out-dir", str(tmp_path / "o")]
    assert cli.main(argv) == 1
    assert "error: model: latents[0] 'indicators' must be a list" in capsys.readouterr().err


def _with_weight(doc_path: Path, out: Path, value) -> Path:
    """A copy of a sem.json or flat weight document with its first latent weight set to value."""
    doc = json.loads(doc_path.read_text("utf-8"))
    weights = doc["score_weights"]["latent_weights"] if "score_weights" in doc else doc
    weights[next(iter(weights))] = value
    out.write_text(json.dumps(doc), encoding="utf-8")  # NaN and Infinity as json.dumps writes them
    return out


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_score_names_a_non_finite_latent_weight(sem_doc, tmp_path, capsys, value):
    weights = _with_weight(sem_doc[0], tmp_path / "w.json", value)
    assert cli.main(["score", "--input", SURVEY, "--weights", str(weights)]) == 1
    err = capsys.readouterr().err
    assert "non-finite weight for latent" in err and "missing ratings" not in err


@pytest.mark.parametrize("value", [math.nan, -math.inf])
def test_bias_refuses_a_non_finite_demand_weight(sem_doc, ahp_doc, tmp_path, capsys, value):
    ow = _with_weight(sem_doc[0], tmp_path / "ow.json", value)
    assert cli.main(["bias", "--ow", str(ow), "--sw", str(ahp_doc[0])]) == 1
    assert "error: non-finite weights for [" in capsys.readouterr().err


def test_bias_refuses_a_boolean_weight(sem_doc, ahp_doc, tmp_path, capsys):
    ow = _with_weight(sem_doc[0], tmp_path / "ow.json", True)
    assert cli.main(["bias", "--ow", str(ow), "--sw", str(ahp_doc[0])]) == 1
    assert "no usable name -> weight mapping" in capsys.readouterr().err


LONG_FIELD = "x" * (csv.field_size_limit() + 1)


def _survey_with_long_field(tmp_path) -> Path:
    lines = Path(SURVEY).read_text("utf-8").splitlines(keepends=True)
    cells = lines[3].split(",")
    cells[2] = LONG_FIELD
    lines[3] = ",".join(cells)
    path = tmp_path / "long.csv"
    path.write_text("".join(lines), encoding="utf-8")
    return path


def test_over_long_survey_field_exits_1_naming_the_row(tmp_path, capsys):
    path = _survey_with_long_field(tmp_path)
    want = f"error: row 3: field larger than field limit ({csv.field_size_limit()})"
    for argv in (
        ["validate", "--input", str(path)],
        ["report", "--input", str(path), "--judgments", JUDGMENTS, "--out-dir", str(tmp_path / "r")],
    ):
        assert cli.main(argv) == 1
        assert want in capsys.readouterr().err


def test_over_long_judgment_field_exits_1_naming_the_row(tmp_path, capsys):
    lines = Path(JUDGMENTS).read_text("utf-8").splitlines(keepends=True)
    cells = lines[2].split(",")
    cells[0] = LONG_FIELD
    lines[2] = ",".join(cells)
    path = tmp_path / "long.csv"
    path.write_text("".join(lines), encoding="utf-8")
    assert cli.main(["ahp", "--judgments", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"row 2: field larger than field limit ({csv.field_size_limit()})" in err


def test_score_rejects_weight_doc_of_wrong_shape(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"hello": "world"}))
    rc = cli.main(["score", "--input", SURVEY, "--weights", str(path)])
    assert rc == 1
    assert "not a usable weights document" in capsys.readouterr().err


def test_efa_on_the_full_sample(tmp_path):
    rc, doc = _run_json(["efa", "--input", SURVEY], tmp_path / "e.json")
    assert rc == 0
    assert doc["n_rows"] == 750
    assert doc["n_factors"] == 6
    assert {d["item"] for d in doc["assignment"]["dropped"]} == {4, 27, 28}
    jsonschema.validate(doc, _schema("efa"))


def test_sem_document_contents(sem_doc):
    _, doc = sem_doc
    assert doc["converged"] is True
    assert doc["split"]["n_train"] == 450
    assert doc["model"]["latents"][-1]["name"] == "service_quality"
    weights = doc["score_weights"]["latent_weights"]
    assert len(weights) == 6 and all(w > 0 for w in weights.values())
    assert doc["validity"] is not None
    assert all(g["passed"] for g in doc["gates"])
    jsonschema.validate(doc, _schema("sem"))


def test_score_accepts_the_sem_output(sem_doc, tmp_path):
    sem_path, _ = sem_doc
    csv_path = tmp_path / "scores.csv"
    rc, doc = _run_json(
        ["score", "--input", SURVEY, "--weights", str(sem_path), "--csv", str(csv_path)],
        tmp_path / "s.json",
    )
    assert rc == 0
    assert doc["n_scored"] == 750
    assert 0.0 < doc["mean_error"] < 1.0
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == doc["n_scored"]
    jsonschema.validate(doc, _schema("score"))


def test_entropy_with_default_groups(tmp_path):
    rc, doc = _run_json(["entropy", "--input", SURVEY], tmp_path / "ent.json")
    assert rc == 0
    assert set(doc["per_group"]) == {
        "safe_security",
        "time_convenience",
        "lockage_regulation",
        "supporting_facilities",
        "comfortable_conditions",
        "service_professional",
        "staff_skills",
    }
    assert len(doc["delay"]["bands"]) == 5
    time_items = [i for i in DEFAULT_CATALOG.indices if DEFAULT_CATALOG.hint_of(i) == "time_convenience"]
    assert set(doc["delay"]["alt_items"]).isdisjoint(time_items)
    jsonschema.validate(doc, _schema("entropy"))


def test_entropy_with_custom_groups(tmp_path):
    gpath = tmp_path / "groups.json"
    gpath.write_text(json.dumps({"g1": [1, 2, 3], "g2": [22, 23]}), encoding="utf-8")
    rc, doc = _run_json(
        ["entropy", "--input", SURVEY, "--groups", str(gpath)], tmp_path / "ent.json"
    )
    assert rc == 0
    assert set(doc["per_group"]) == {"g1", "g2"}
    assert doc["delay"]["alt_items"] == [1, 2, 3, 22, 23]


def test_delay_schemas_refuse_an_unknown_key(tmp_path):
    rc, doc = _run_json(["entropy", "--input", SURVEY], tmp_path / "ent.json")
    assert rc == 0
    report_delay = _schema("report")["properties"]["delay"]
    jsonschema.validate(doc["delay"], report_delay)
    doc["delay"]["extra"] = 1
    for part, schema in ((doc, _schema("entropy")), (doc["delay"], report_delay)):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(part, schema)
    del doc["delay"]["extra"], doc["delay"]["alt_excludes"]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc["delay"], report_delay)


def test_ahp_aggregation_document(ahp_doc):
    _, doc = ahp_doc
    assert doc["n_respondents"] == 49
    assert doc["n_included"] == 49
    assert doc["n_inconsistent"] == 8
    assert set(doc["criteria_weights"]) == {"WLOE", "WLFP", "WLMS"}
    gw = doc["global_weights"]
    assert abs(sum(gw.values()) - 1.0) < 1e-9
    assert sorted(doc["ranks"].values()) == [1, 2, 3, 4, 5, 6]
    assert all(g["passed"] for g in doc["gates"])
    jsonschema.validate(doc, _schema("ahp"))


def test_ahp_exclude_inconsistent_changes_the_pool(tmp_path, ahp_doc):
    rc, doc = _run_json(
        ["ahp", "--judgments", JUDGMENTS, "--exclude-inconsistent", "--strict"],
        tmp_path / "a.json",
    )
    assert rc == 0
    assert doc["n_included"] == 41
    _, full = ahp_doc
    assert doc["global_weights"] != full["global_weights"]


def test_probit_reduction_and_questionnaire(tmp_path):
    qcsv = tmp_path / "q.csv"
    rc, doc = _run_json(
        ["probit", "--input", SURVEY, "--items", "5,6,8,23,31,32", "--csv", str(qcsv)],
        tmp_path / "p.json",
    )
    assert rc == 0
    assert doc["n_obs"] == 750
    assert doc["final"] is not None
    names = {r["name"] for r in doc["final"]["coef_table"] if not r["name"].startswith("kappa")}
    assert names == set(doc["survivors"])
    with open(qcsv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == len(doc["survivors"])
    jsonschema.validate(doc, _schema("probit"))


def test_probit_single_pass(tmp_path):
    rc, doc = _run_json(
        ["probit", "--input", SURVEY, "--items", "5,6,8,23,31,32", "--single-pass"],
        tmp_path / "p1.json",
    )
    assert rc == 0
    assert len(doc["steps"]) <= 1
    jsonschema.validate(doc, _schema("probit"))


def test_bias_compares_both_weight_documents(sem_doc, ahp_doc, tmp_path):
    sem_path, _ = sem_doc
    ahp_path, _ = ahp_doc
    rc, doc = _run_json(
        ["bias", "--ow", str(sem_path), "--sw", str(ahp_path)], tmp_path / "b.json"
    )
    assert rc == 0
    assert len(doc["rows"]) == 6
    assert -1.0 <= doc["spearman"] <= 1.0
    jsonschema.validate(doc, _schema("bias"))


def test_weight_doc_unwrapping(tmp_path):
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"a": 2.0, "b": 1.0}), encoding="utf-8")
    assert cli._load_weight_doc("--ow", str(flat)) == {"a": 2.0, "b": 1.0}
    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps({"weights": {"a": 1}}), encoding="utf-8")
    assert cli._load_weight_doc("--ow", str(nested)) == {"a": 1.0}
    junk = tmp_path / "junk.json"
    junk.write_text(json.dumps({"a": "not a number"}), encoding="utf-8")
    with pytest.raises(ValueError, match="no usable"):
        cli._load_weight_doc("--ow", str(junk))


def test_synth_writes_data_and_sidecar(tmp_path):
    for kind, n in (("sem", 40), ("ahp", 5), ("probit", 30)):
        out = tmp_path / f"{kind}.csv"
        rc = cli.main(["synth", "--kind", kind, "--n", str(n), "--seed", "3", "--out-file", str(out)])
        assert rc == 0
        assert out.exists()
        meta = json.loads((tmp_path / f"{kind}.csv.meta.json").read_text("utf-8"))
        assert meta["kind"] == kind
        assert meta["seed"] == 3
        assert meta["n"] == n
        jsonschema.validate(meta, _schema("synth-meta"))


@pytest.mark.parametrize("noise", ["-1", "2", "nan"])
def test_synth_refuses_a_noise_outside_the_unit_interval_before_writing(tmp_path, capsys, noise):
    out = tmp_path / "ahp.csv"
    rc = cli.main(["synth", "--kind", "ahp", "--n", "5", "--seed", "1", "--noise", noise, "--out-file", str(out)])
    assert rc == 1
    assert "noise_level" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["sem", "ahp", "probit"])
@pytest.mark.parametrize("earlier", [None, b"an earlier file\n"], ids=["new", "over-earlier"])
def test_synth_writes_its_file_and_sidecar_or_neither(tmp_path, monkeypatch, capsys, kind, earlier):
    out = tmp_path / f"{kind}.csv"
    if earlier is not None:
        out.write_bytes(earlier)

    def fail_part_way(doc, path):
        Path(path).write_text("partial", encoding="utf-8")
        raise OSError("injected failure")

    monkeypatch.setattr(cli, "_write_json", fail_part_way)
    assert cli.main(["synth", "--kind", kind, "--n", "20", "--seed", "3", "--out-file", str(out)]) == 1
    assert "injected failure" in capsys.readouterr().err
    # the data file absent or as it was, and no sidecar or temporary beside it
    assert [p.name for p in tmp_path.iterdir()] == ([] if earlier is None else [out.name])
    if earlier is not None:
        assert out.read_bytes() == earlier


def test_synth_is_deterministic_per_seed(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert cli.main(["synth", "--kind", "sem", "--n", "25", "--seed", "9", "--out-file", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_honours_out_dir_env(tmp_path, monkeypatch, capsys):
    target = tmp_path / "from_env"
    monkeypatch.setenv("LOCKQUAL_OUT", str(target))
    rc = cli.main(
        ["report", "--input", SURVEY, "--judgments", JUDGMENTS, "--strict"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "all gates pass" in out
    assert (target / "report.json").exists()
    assert (target / "summary.md").exists()
    assert (target / "scores.csv").exists()
    assert (target / "questionnaire.csv").exists()


def test_emit_refuses_nonfinite_floats(tmp_path):
    with pytest.raises(ValueError):
        cli._emit({"x": float("nan")}, str(tmp_path / "out.json"))
    cli._emit(_jsonable({"x": float("-inf")}), str(tmp_path / "ok.json"))
    assert json.loads((tmp_path / "ok.json").read_text("utf-8")) == {"x": None}
    assert [p.name for p in tmp_path.iterdir()] == ["ok.json"]  # no file from the refused document


def test_report_bundle_is_the_same_at_any_blas_thread_count(tmp_path):
    # The probit's float products run over 512-row blocks. A 5,000-respondent
    # synthetic survey (3,000 training rows in the probit's design) gave a
    # different report.json under 1 and 2 OpenBLAS threads when the blocks
    # held 8,192 rows. The thread count is read when numpy loads, so each run
    # is a fresh process.
    survey = tmp_path / "survey.csv"
    assert cli.main(["synth", "--kind", "sem", "--n", "5000", "--seed", "7", "--out-file", str(survey)]) == 0
    src = str(Path(cli.__file__).resolve().parent.parent)
    bundles = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["report", "--input", str(survey), "--judgments", JUDGMENTS, "--out-dir", str(out)]
        subprocess.run([sys.executable, "-m", "lockqual.cli", *argv], env=env, check=True, capture_output=True)
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        files["report.json"] = re.sub(rb'\n *"generated_at": "[^"]*",?', b"", files["report.json"])
        bundles.append(files)
    assert sorted(bundles[0]) == ["questionnaire.csv", "report.json", "scores.csv", "summary.md"]
    assert bundles[0] == bundles[1]
