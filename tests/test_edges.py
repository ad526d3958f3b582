"""The columnar file edges against verbatim copies of their row-by-row forms.

The references below are the survey reader, judgment parser, power
iteration and score writer as they were before the three CSV edges became
columnar. The rewritten code must give the same arrays, the same rejected
rows, the same first error and the same bytes. The survey reader is also
run with its block size patched small, so rows, quotes and line ends fall
on block edges.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.dtypes import StringDType

from lockqual import dataset
from lockqual.ahp import (
    DEFAULT_HIERARCHY,
    load_judgments,
    SCALE,
    Hierarchy,
    aggregate_geomean,
    JudgmentMatrix,
    JudgmentStack,
    weights_eigen,
    weights_eigen_stack,
)
from lockqual.catalog import DEFAULT_CATALOG, VariableCatalog
from lockqual.dataset import DEMOGRAPHICS, RejectedRow, SurveyFormatError, _expected_header, load_survey
from lockqual.scoring import ScoreWeights, ValidationSummary, write_scores_csv
from lockqual.synth import write_judgments_csv

DATA_JUDGMENTS = str(Path(__file__).resolve().parent.parent / "data" / "fixture_judgments.csv")

# ---------------------------------------------------------------------------
# references: the row-by-row code, verbatim


def ref_parse_rating(cell: str) -> tuple[int | None, str | None]:
    cell = cell.strip()
    if cell == "":
        return None, None
    try:
        value = int(cell)
    except ValueError:
        return None, "invalid rating"
    if not 1 <= value <= 5:
        return None, "rating out of range"
    return value, None


_CODE_OF = {"": 0, "1": 1, "2": 2, "3": 3, "4": 4, "5": 5}


def ref_parse_codes(cells: Sequence[str]) -> tuple[bytes, str | None]:
    try:
        return bytes(map(_CODE_OF.__getitem__, cells)), None
    except KeyError:
        pass
    codes = bytearray()
    for cell in cells:
        value, reason = ref_parse_rating(cell)
        if reason is not None:
            return bytes(codes), reason
        codes.append(value or 0)
    return bytes(codes), None


def ref_parse_delay(cell: str) -> tuple[float, str | None]:
    cell = cell.strip()
    if cell == "":
        return math.nan, None
    try:
        delay = float(cell)
    except ValueError:
        return math.nan, "invalid delay"
    if not math.isfinite(delay):
        return math.nan, "invalid delay"
    if delay < 0:
        return math.nan, "negative delay"
    return delay, None


def ref_load_survey(path: str, catalog: VariableCatalog = DEFAULT_CATALOG):
    """(ids, codes, delays, demographics, rejected) as the row-by-row reader built them."""
    n_items = len(catalog)
    expected = _expected_header(n_items)
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SurveyFormatError("empty survey file") from None
        if [h.strip() for h in header] != expected:
            raise SurveyFormatError(
                "unexpected header; want " + ",".join(expected[:8]) + ",...," + expected[-1]
            )
        ids: list[str] = []
        demo: list[list[str]] = [[] for _ in DEMOGRAPHICS]
        delays: list[float] = []
        codes = bytearray()
        rejected: list[RejectedRow] = []
        seen: set[str] = set()
        labels: dict[str, str] = {}
        for row_number, row in enumerate(reader, start=1):
            rid = row[0].strip() if row else ""
            if rid == "" and all(c.strip() == "" for c in row):
                continue
            if len(row) != len(expected):
                rejected.append(RejectedRow(row_number, rid, "wrong number of fields"))
                continue
            if rid == "":
                rejected.append(RejectedRow(row_number, rid, "missing respondent id"))
                continue
            if rid in seen:
                rejected.append(RejectedRow(row_number, rid, "duplicate respondent id"))
                continue
            delay, reason = ref_parse_delay(row[6])
            if reason is None:
                row_codes, reason = ref_parse_codes(row[7:])
                if reason is None and (row_codes[0] == 0 or row_codes[-1] == 0):
                    reason = "missing overall satisfaction"
            if reason is not None:
                rejected.append(RejectedRow(row_number, rid, reason))
                continue
            seen.add(rid)
            ids.append(rid)
            for col, cell in zip(demo, row[1:6]):
                value = cell.strip()
                col.append(labels.setdefault(value, value))
            delays.append(delay)
            codes.extend(row_codes)
    return (
        ids,
        np.frombuffer(codes, dtype=np.int8).reshape(len(ids), n_items + 2),
        np.array(delays, dtype=float),
        dict(zip(DEMOGRAPHICS, demo)),
        tuple(rejected),
    )


@dataclass(frozen=True)
class RefMatrix:
    labels: tuple[str, ...]
    values: np.ndarray


def _pairs(labels: Sequence[str]) -> list[tuple[str, str]]:
    return [(labels[i], labels[j]) for i in range(len(labels)) for j in range(i + 1, len(labels))]


def ref_parse_judgments(rows: Iterable[Mapping[str, str]], hierarchy: Hierarchy = DEFAULT_HIERARCHY):
    """[(respondent_id, criteria, {criterion: leaf matrix})] as the per-cell parser built them."""
    per_resp: dict[str, dict[str, dict[frozenset, float]]] = {}
    order: list[str] = []
    for line_no, row in enumerate(rows, start=1):
        rid = str(row["respondent_id"]).strip()
        level = str(row["level"]).strip()
        left = str(row["left_factor"]).strip()
        right = str(row["right_factor"]).strip()
        sel = str(row["selection"]).strip()
        if sel not in SCALE:
            raise ValueError(f"row {line_no}: unknown selection code {sel!r}")
        if level == "criteria":
            labels = hierarchy.criteria
        elif level in hierarchy.children:
            labels = hierarchy.children[level]
        else:
            raise ValueError(f"row {line_no}: unknown level {level!r}")
        if left not in labels or right not in labels or left == right:
            raise ValueError(f"row {line_no}: invalid pair ({left!r}, {right!r}) for level {level!r}")
        if rid not in per_resp:
            per_resp[rid] = {}
            order.append(rid)
        cells = per_resp[rid].setdefault(level, {})
        key = frozenset((left, right))
        if key in cells:
            raise ValueError(f"respondent {rid!r}: duplicate comparison {left!r} vs {right!r}")
        value = SCALE[sel]
        cells[key] = value if left == min(left, right) else 1.0 / value
    out = []
    for rid in order:
        blocks = per_resp[rid]
        crit = ref_matrix_from_cells(hierarchy.criteria, blocks.get("criteria", {}), rid, "criteria")
        leaves = {
            c: ref_matrix_from_cells(hierarchy.children[c], blocks.get(c, {}), rid, c)
            for c in hierarchy.criteria
        }
        out.append((rid, crit, leaves))
    return out


def ref_matrix_from_cells(labels, cells, rid, level) -> RefMatrix:
    n = len(labels)
    a = np.eye(n)
    for i, j in _pairs(labels):
        key = frozenset((i, j))
        if key not in cells:
            raise ValueError(f"respondent {rid!r}: missing comparison {i!r} vs {j!r} at level {level!r}")
        v = cells[key]
        v_ij = v if i == min(i, j) else 1.0 / v
        a[labels.index(i), labels.index(j)] = v_ij
        a[labels.index(j), labels.index(i)] = 1.0 / v_ij
    return RefMatrix(tuple(labels), a)


def ref_weights_eigen(a: np.ndarray, tol: float = 1e-12, max_iter: int = 10000):
    """(w, lambda_max) of one matrix by the per-matrix power iteration."""
    n = a.shape[0]
    w = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        v = a @ w
        w_new = v / v.sum()
        if float(np.max(np.abs(w_new - w))) < tol:
            w = w_new
            break
        w = w_new
    v = a @ w
    lam = float(np.mean(v / w))
    return w, lam


def ref_write_scores_csv(summary: ValidationSummary, w: ScoreWeights, path: str) -> None:
    header = ["id"] + [f"lvr_{k + 1}" for k in range(len(w.latents))] + ["sqr", "error"]
    lvrs = summary.lvr[:, [summary.latents.index(name) for name in w.latents]]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [rid, *map(repr, row), repr(s), repr(abs(e))]
            for rid, row, s, e in zip(
                summary.ids, lvrs.tolist(), summary.sqr.tolist(), summary.signed_error.tolist()
            )
        )


# ---------------------------------------------------------------------------
# load_survey

HEADER = _expected_header(len(DEFAULT_CATALOG))
EXACT = ["", "1", "2", "3", "4", "5"]
VALID_ODD = [" 3", "03", "+3", "3 ", " ", "\t2"]  # parse to a code, but not exact spellings
INVALID = ["7", "0", "3.0", "x", "-1", "3,4", "2\n"]
rating_cells = st.one_of(
    st.sampled_from(EXACT), st.sampled_from(EXACT), st.sampled_from(VALID_ODD), st.sampled_from(INVALID)
)
text_cells = st.sampled_from(["dry_bulk", " male ", "a,b", "two\nlines", 'say "hi"', "", "é"])
delay_cells = st.sampled_from(["", "1.5", " 2 ", "-0.0", "1e3", "-1", "inf", "nan", "soon", "1,5"])
id_cells = st.sampled_from(["a", "b", " a", "c,d", "", "e\nf"])


@st.composite
def survey_rows(draw):
    kind = draw(st.sampled_from(["row"] * 8 + ["blank", "wrong_width"]))
    if kind == "blank":
        return [""] * draw(st.sampled_from([0, 1, len(HEADER)]))
    ratings = draw(st.lists(st.sampled_from(EXACT), min_size=34, max_size=34))
    for k in draw(st.lists(st.integers(0, 33), max_size=3)):
        ratings[k] = draw(rating_cells)
    row = [draw(id_cells), *(draw(text_cells) for _ in DEMOGRAPHICS), draw(delay_cells), *ratings]
    if kind == "wrong_width":
        row = row[:-1] if draw(st.booleans()) else row + ["3"]
    return row


def _write(rows, path) -> str:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        writer.writerows(rows)
    return str(path)


def _first_error_of(fn, path):
    try:
        return fn(path), None
    except ValueError as exc:
        return None, (type(exc), str(exc))


def _assert_same_survey(path: str, block_sizes=(1 << 18,)) -> None:
    want, want_err = _first_error_of(ref_load_survey, path)
    for size in block_sizes:
        with mock.patch.object(dataset, "_BLOCK_BYTES", size):
            d, err = _first_error_of(load_survey, path)
        if want_err is not None:
            assert err == want_err, size
            continue
        ids, codes, delays, demo, rejected = want
        assert err is None, (size, err)
        assert d.respondent_ids.tolist() == ids, size
        assert d.codes.dtype == np.int8 and np.array_equal(d.codes, codes), size
        assert np.array_equal(d.delay_hours, delays, equal_nan=True), size
        assert np.array_equal(np.signbit(d.delay_hours), np.signbit(delays)), size
        assert d.demographics.rows() == list(zip(*(demo[name] for name in DEMOGRAPHICS))), size
        assert d.rejected == rejected, size


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(survey_rows(), max_size=12))
def test_load_survey_matches_the_row_by_row_reader(rows, tmp_path_factory):
    path = _write(rows, tmp_path_factory.mktemp("survey") / "s.csv")
    # whole file in one block, and blocks of a few bytes or rows
    _assert_same_survey(path, (1 << 18, 7, 300))


# cells that csv.writer leaves unquoted, so the file stays on the block path
# up to any NUL. A row is plain but for at most two odd text cells (edges
# str.strip removes, digits int() and float() read, bad delays) and two odd
# rating cells, which make it take the per-row screen.
PLAIN_ENDS = ["\r\n", "\n"]
plain_ids = st.integers(0, 60).map("r{}".format)  # they repeat now and then
plain_text = st.sampled_from(["dry_bulk", "", "dry bulk", "a航b"])
plain_delays = st.sampled_from(["", "1.5", "0", "-0.0", "1e3", "12", ".5", "5.", "1_0"])
odd_ids = st.sampled_from([" r1", "r1 ", "\u00a0r2", "é", "航", "x y", "\x1c", ""])
odd_text = st.sampled_from([" male ", "é", "\tx", "航运", "x\u2003"])
odd_delays = st.sampled_from([" 2 ", "-1", "inf", "nan", "soon", "٣", "1e999"])
odd_ratings = st.sampled_from([" 3", "03", "+3", "3 ", " ", "7", "0", "3.0", "x", "-1", "33", "١", "é"])


@st.composite
def plain_rows(draw):
    kind = draw(st.sampled_from(["row"] * 8 + ["blank", "wrong_width"]))
    if kind == "blank":
        return [""] * draw(st.sampled_from([1, len(HEADER)]))
    row = [draw(plain_ids), *(draw(plain_text) for _ in DEMOGRAPHICS), draw(plain_delays)]
    row += draw(st.lists(st.sampled_from(EXACT), min_size=34, max_size=34))
    for k in draw(st.lists(st.integers(0, 6), max_size=2)):
        row[k] = draw(odd_ids if k == 0 else odd_delays if k == 6 else odd_text)
    for k in draw(st.lists(st.integers(7, 40), max_size=2)):
        row[k] = draw(odd_ratings)
    if kind == "wrong_width":
        row = row[:-1] if draw(st.booleans()) else row + ["3"]
    return row


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(plain_rows(), max_size=30),
    end=st.sampled_from(PLAIN_ENDS),
    final_end=st.booleans(),
    nul=st.booleans(),
    block=st.sampled_from([1, 7, 64, 150, 400, 1 << 18]),
)
def test_load_survey_matches_the_reference_on_unquoted_files(rows, end, final_end, nul, block, tmp_path_factory):
    lines = [",".join(HEADER)] + [",".join(r) for r in rows]
    if nul and len(lines) > 1:
        lines[len(lines) // 2] += "\0"
    text = end.join(lines) + (end if final_end else "")
    path = tmp_path_factory.mktemp("plain") / "s.csv"
    path.write_bytes(text.encode("utf-8"))
    _assert_same_survey(str(path), (block,))


def test_load_survey_matches_on_the_named_cases(tmp_path):
    row = ["x", "31-45", "male", "5-10y", "dry_bulk", "500-1000t", "1.5"]
    exact = ["3"] * 34

    def with_cells(rid, **cells):
        r = [rid, *row[1:], *exact]
        for k, v in cells.items():
            r[int(k[1:])] = v
        return r

    rows = [
        with_cells("a1", c9=" 3", c10="03", c11="+3"),  # valid, not exact spellings
        with_cells("b1", c12="7"),
        with_cells("b1"),  # a duplicate id after a rejected row: accepted
        with_cells("b2", c13="3.0"),
        with_cells("b3", c14="x"),
        with_cells("c1", c1="a,b", c2="two\nlines"),  # quoted demographics
        with_cells("c2", c20="3,4"),  # a quoted rating cell with a comma
        with_cells("c3", c30="2\n"),  # and one with a newline
        with_cells("d1", c7=""),  # blank q0 bookend
        with_cells("d2", c40=""),  # blank q33 bookend
        with_cells("d3", c20="", c21="", c22=""),  # a run of blank cells
        [""] * len(HEADER),
    ]
    path = _write(rows, tmp_path / "s.csv")
    _assert_same_survey(path, (1 << 18, 7, 200))
    assert [r.respondent_id for r in load_survey(path).rejected] == ["b1", "b2", "b3", "c2", "d1", "d2"]


BASE = ["31-45", "male", "5-10y", "dry_bulk", "500-1000t", "1.5"]


def _plain_row(rid: str, *, q5: str = "3", gender: str = "male") -> str:
    return ",".join([rid, BASE[0], gender, *BASE[2:], *(["3"] * 5), q5, *(["3"] * 28)])


def _write_lines(path, lines, end="\r\n") -> str:
    path.write_bytes((end.join([",".join(HEADER), *lines]) + end).encode("utf-8"))
    return str(path)


# block sizes from a few rows down to less than one line, so that every
# row and line end falls on a block edge for one of them
EDGE_SIZES = tuple(range(40, 520, 17))


@pytest.mark.parametrize("where", [1, 20, 39])
def test_a_quote_hands_the_rest_of_the_file_to_csv(tmp_path, where):
    lines = [_plain_row(f"r{k:02d}", q5="9" if k % 7 == 0 else "3") for k in range(40)]
    # a quoted demographic cell holding a comma and a line end
    lines[where] = _plain_row(f"r{where:02d}", gender='"fe,\nmale"')
    path = _write_lines(tmp_path / "q.csv", lines)
    _assert_same_survey(path, EDGE_SIZES)
    d = load_survey(path)
    gender = DEMOGRAPHICS.index("gender")
    assert [r[gender] for r in d.demographics.rows()].count("fe,\nmale") == 1
    assert [r.row_number for r in d.rejected] == [k + 1 for k in range(0, 40, 7) if k != where]


def test_a_rejected_first_occurrence_leaves_its_id_free_in_the_next_block(tmp_path):
    # r05 is rejected (q5 out of range), then accepted; r09 is accepted,
    # then rejected as a duplicate; the defects fall on every block edge
    lines = [_plain_row(f"r{k:02d}") for k in range(30)]
    lines[5] = _plain_row("r05", q5="6")
    lines[6] = _plain_row("r05")
    lines[10] = _plain_row("r09")
    lines[11] = _plain_row(" r09 ")
    path = _write_lines(tmp_path / "d.csv", lines)
    _assert_same_survey(path, EDGE_SIZES)
    d = load_survey(path)
    ids = d.respondent_ids.tolist()
    assert ids.count("r05") == 1 and ids.count("r09") == 1
    assert [(r.row_number, r.respondent_id, r.reason) for r in d.rejected] == [
        (6, "r05", "rating out of range"),
        (11, "r09", "duplicate respondent id"),
        (12, "r09", "duplicate respondent id"),
    ]


@pytest.mark.parametrize(
    "end, final",
    [("\n", True), ("\n", False), ("\r\n", False), ("\r", True), ("\r", False)],
)
def test_line_ends_and_a_missing_final_line_end(tmp_path, end, final):
    lines = [_plain_row(f"r{k:02d}", q5="0" if k == 4 else "3") for k in range(12)]
    text = end.join([",".join(HEADER), *lines]) + (end if final else "")
    path = tmp_path / "e.csv"
    path.write_bytes(text.encode("utf-8"))
    _assert_same_survey(str(path), EDGE_SIZES)
    assert load_survey(str(path)).n == 11


def test_a_lone_cr_inside_the_file(tmp_path):
    lines = [_plain_row(f"r{k:02d}") for k in range(12)]
    lines[6] = lines[6] + "\r" + _plain_row("lone")  # one CR ends a row as csv reads it
    path = _write_lines(tmp_path / "cr.csv", lines)
    _assert_same_survey(path, EDGE_SIZES)
    assert "lone" in load_survey(path).respondent_ids


def test_non_ascii_text_and_nul(tmp_path):
    lines = [_plain_row(f"r{k:02d}") for k in range(12)]
    lines[2] = _plain_row("航运", gender="女")
    lines[3] = _plain_row("\u00a0r03", gender="male\u2003")  # edges str.strip removes
    lines[4] = _plain_row("é", q5="٣")  # a digit int() reads
    lines[8] = _plain_row("nul\0id")
    path = _write_lines(tmp_path / "u.csv", lines)
    _assert_same_survey(path, EDGE_SIZES)
    d = load_survey(path)
    assert {"航运", "r03", "é"} <= set(d.respondent_ids)
    assert d.codes[d.respondent_ids.tolist().index("é"), 5] == 3


def test_an_over_long_line_names_its_row_on_every_path(tmp_path):
    limit = csv.field_size_limit()
    lines = [_plain_row(f"r{k:02d}") for k in range(6)]
    lines[4] = _plain_row("long", gender="x" * (limit + 1))
    path = _write_lines(tmp_path / "long.csv", lines)
    for size in (7, 300, 1 << 18):
        with mock.patch.object(dataset, "_BLOCK_BYTES", size):
            with pytest.raises(SurveyFormatError, match=rf"^row 5: field larger than field limit \({limit}\)$"):
                load_survey(path)
    # a long line whose fields are all within the limit is read as csv reads it
    lines[4] = ",".join(["long", *BASE[:1], "x" * (limit // 2), "y" * (limit // 2), *BASE[3:], *(["3"] * 34)])
    path = _write_lines(tmp_path / "long2.csv", lines)
    _assert_same_survey(path, (7, 300, 1 << 18))
    assert "long" in load_survey(path).respondent_ids


# ---------------------------------------------------------------------------
# judgments

CODES = list(SCALE)


def _all_rows(rids, pick):
    rows = []
    h = DEFAULT_HIERARCHY
    for rid in rids:
        for level, labels in [("criteria", h.criteria)] + [(c, h.children[c]) for c in h.criteria]:
            for i, j in _pairs(labels):
                left, right = (i, j) if pick() else (j, i)
                rows.append(
                    {"respondent_id": rid, "level": level, "left_factor": left, "right_factor": right, "selection": None}
                )
    return rows


DEFECTS = ("selection", "level", "pair", "same", "duplicate", "missing", "padded")


@st.composite
def judgment_rows(draw):
    rids = draw(st.lists(st.sampled_from(["e1", "e2", "e3", " e1", "e4"]), min_size=1, max_size=4, unique=True))
    rows = _all_rows(rids, lambda: draw(st.booleans()))
    for r in rows:
        r["selection"] = draw(st.sampled_from(CODES))
    for defect in draw(st.lists(st.sampled_from(DEFECTS), max_size=2)):
        k = draw(st.integers(0, len(rows) - 1))
        r = rows[k]
        if defect == "selection":
            r["selection"] = draw(st.sampled_from(["X2", "L4", ""]))
        elif defect == "level":
            r["level"] = draw(st.sampled_from(["nowhere", "Criteria"]))
        elif defect == "pair":
            r["right_factor"] = "safe_security" if r["level"] == "criteria" else "WLOE"
        elif defect == "same":
            r["right_factor"] = r["left_factor"]
        elif defect == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), dict(r))
        elif defect == "missing":
            del rows[k]
        else:
            r["left_factor"] = " " + r["left_factor"] + " "
    return rows


def _first_error(fn, rows):
    try:
        return fn(rows), None
    except ValueError as exc:
        return None, str(exc)


def ref_load_judgments(path: str):
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"respondent_id", "level", "left_factor", "right_factor", "selection"}
        if reader.fieldnames is None or not required.issubset(set(reader.fieldnames)):
            raise ValueError("judgment CSV must have columns " + ",".join(sorted(required)))
        return ref_parse_judgments(list(reader))


FIELDS = ["respondent_id", "level", "left_factor", "right_factor", "selection"]


@settings(max_examples=100, deadline=None)
@given(rows=judgment_rows(), data=st.data())
def test_load_judgments_reads_what_the_dict_reader_read(rows, data, tmp_path_factory):
    # columns in any order, an extra or repeated column, short and long
    # rows, blank lines
    header = data.draw(st.permutations(FIELDS + data.draw(st.sampled_from([[], ["note"], ["level"]]))))
    lines = [header]
    for r in rows:
        line = [r.get(f, "x") if f != "note" else "n" for f in header]
        cut = data.draw(st.sampled_from([None] * 12 + [2, 4, len(header) + 1]))
        lines.append(line[:cut] if cut is None or cut <= len(line) else line + ["extra"])
        if data.draw(st.integers(0, 15)) == 0:
            lines.append([])
    path = tmp_path_factory.mktemp("judgments") / "j.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(lines)
    want, want_err = _first_error(ref_load_judgments, str(path))
    got, got_err = _first_error(load_judgments, str(path))
    assert got_err == want_err
    if want is not None:
        assert list(got.respondent_ids) == [rid for rid, _, _ in want]
        for k, (_, crit, leaves) in enumerate(want):
            assert got.criteria.labels == crit.labels and np.array_equal(got.criteria.values[k], crit.values)
            for c, m in leaves.items():
                assert got.leaves[c].labels == m.labels and np.array_equal(got.leaves[c].values[k], m.values)


def test_parse_judgments_first_of_two_defects(tmp_path):
    rows = _all_rows(["e1", "e2"], lambda: True)
    for r in rows:
        r["selection"] = "L3"
    cases = [
        # a missing comparison is reported only when every row is valid
        ([("del", 3), ("sel", 10)], "row 9: unknown selection code 'X2'"),
        # missing comparisons: by respondent, then level, then pair
        ([("del", 9), ("del", 2)], "respondent 'e1': missing comparison 'WLFP' vs 'WLMS' at level 'criteria'"),
        ([("del", 5), ("del", 4)], "respondent 'e1': missing comparison 'lockage_regulation' vs 'supporting_facilities' at level 'WLFP'"),
        # row errors in row order, whatever their kind
        ([("dup", 1), ("sel", 8)], "respondent 'e1': duplicate comparison 'WLOE' vs 'WLMS'"),
        ([("sel", 8), ("level", 2)], "row 2: unknown level 'nowhere'"),
    ]
    for edits, message in cases:
        case = [dict(r) for r in rows]
        for op, k in sorted(edits, key=lambda e: -e[1]):
            if op == "del":
                del case[k]
            elif op == "dup":
                case.insert(k + 1, dict(case[k]))
            elif op == "sel":
                case[k - 1]["selection"] = "X2"
            else:
                case[k - 1]["level"] = "nowhere"
        path = str(tmp_path / "judgments.csv")
        write_judgments_csv(case, path)
        assert _first_error(ref_load_judgments, path)[1] == message
        assert _first_error(load_judgments, path)[1] == message


# ---------------------------------------------------------------------------
# batched power iteration


@st.composite
def reciprocal_stacks(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 6))
    a = np.tile(np.eye(n), (m, 1, 1))
    values = st.one_of(st.sampled_from(list(SCALE.values())), st.floats(1 / 9, 9))
    for k in range(m):
        for i in range(n):
            for j in range(i + 1, n):
                a[k, i, j] = draw(values)
                a[k, j, i] = 1.0 / a[k, i, j]
    return JudgmentStack(tuple("abcde"[:n]), a)


@settings(max_examples=300, deadline=None)
@given(stack=reciprocal_stacks())
def test_aggregate_geomean_is_reciprocal_to_two_ulp(stack):
    g = aggregate_geomean(stack).values
    assert np.all(np.diag(g) == 1.0)
    assert np.all(np.abs(g * g.T - 1.0) <= 2 * np.finfo(float).eps)


# (tol, max_iter): the defaults, stops at max_iter, and a loose tolerance
STOPS = [(1e-12, 10000), (1e-12, 1), (1e-12, 3), (0.0, 2), (0.0, 40), (1e-3, 10000)]


@settings(max_examples=150, deadline=None)
@given(stack=reciprocal_stacks(), stop=st.sampled_from(STOPS))
def test_batched_eigen_equals_the_per_matrix_loop(stack, stop):
    tol, max_iter = stop
    w, lam = weights_eigen_stack(stack.values, tol, max_iter)
    for k, a in enumerate(stack.values):
        w_ref, lam_ref = ref_weights_eigen(a, tol, max_iter)
        assert w[k].tolist() == w_ref.tolist()
        assert lam[k] == lam_ref
        wv, lam1 = weights_eigen(JudgmentMatrix(stack.labels, a), tol, max_iter)
        assert [wv.weights[x] for x in stack.labels] == w_ref.tolist() and lam1 == lam_ref


def test_batched_eigen_on_the_fixture_experts():
    experts = load_judgments(DATA_JUDGMENTS)
    w, lam = weights_eigen_stack(experts.criteria.values)
    for k, a in enumerate(experts.criteria.values):
        w_ref, lam_ref = ref_weights_eigen(a)
        assert w[k].tolist() == w_ref.tolist() and lam[k] == lam_ref


# ---------------------------------------------------------------------------
# write_scores_csv

ID_CHARS = st.sampled_from([",", '"', "\r", "\n", " ", "a", "7", "é", "航", "\t", "'"])
ids_st = st.one_of(st.text(ID_CHARS, max_size=6), st.text(max_size=4))
score = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=150, deadline=None)
@given(
    ids=st.lists(ids_st, max_size=8),
    data=st.data(),
)
def test_write_scores_csv_writes_the_csv_writer_bytes(ids, data, tmp_path_factory):
    n = len(ids)
    lvr = np.array(data.draw(st.lists(st.lists(score, min_size=2, max_size=2), min_size=n, max_size=n)), dtype=float)
    summary = ValidationSummary(
        ids=np.array(ids, dtype=StringDType()),
        latents=("B", "A"),
        lvr=lvr.reshape(n, 2),
        sqr=np.array(data.draw(st.lists(score, min_size=n, max_size=n)), dtype=float),
        actual=np.ones(n),
        signed_error=np.array(data.draw(st.lists(score, min_size=n, max_size=n)), dtype=float),
        n_scored=n,
        n_skipped=0,
        mean_error=0.0,
        share_within_10pct=0.0,
    )
    w = ScoreWeights(("A", "B"), {"A": {1: 1.0}, "B": {2: 1.0}}, {"A": 1.0, "B": 1.0})
    out = tmp_path_factory.mktemp("scores")
    ref_write_scores_csv(summary, w, str(out / "ref.csv"))
    write_scores_csv(summary, w, str(out / "new.csv"))
    assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()


# LVRs repeat: the writer formats each distinct bit pattern once
REPEATED = [3.0, 3.5, 10 / 3, -0.0, 0.0, math.nan, -math.nan, math.inf, 1e-300, 5e-324]


@settings(max_examples=100, deadline=None)
@given(ids=st.lists(ids_st, max_size=30), data=st.data())
def test_write_scores_csv_with_repeated_lvrs_and_quoted_ids(ids, data, tmp_path_factory):
    n = len(ids)
    lvr = np.array(data.draw(st.lists(st.sampled_from(REPEATED), min_size=3 * n, max_size=3 * n)), dtype=float)
    summary = ValidationSummary(
        ids=np.array(ids, dtype=StringDType()),
        latents=("C", "A", "B"),
        lvr=lvr.reshape(n, 3),
        sqr=np.array(data.draw(st.lists(st.sampled_from(REPEATED), min_size=n, max_size=n)), dtype=float),
        actual=np.ones(n),
        signed_error=np.array(data.draw(st.lists(score, min_size=n, max_size=n)), dtype=float),
        n_scored=n,
        n_skipped=0,
        mean_error=0.0,
        share_within_10pct=0.0,
    )
    w = ScoreWeights(("A", "B", "C"), {"A": {1: 1.0}, "B": {2: 1.0}, "C": {3: 1.0}}, {"A": 1.0, "B": 1.0, "C": 1.0})
    out = tmp_path_factory.mktemp("scores")
    ref_write_scores_csv(summary, w, str(out / "ref.csv"))
    write_scores_csv(summary, w, str(out / "new.csv"))
    assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()


def test_criteria_is_reserved_for_the_top_level():
    with pytest.raises(ValueError, match="top level"):
        Hierarchy(criteria=("criteria", "b"), children={"criteria": ("x", "y"), "b": ("z", "w")})
