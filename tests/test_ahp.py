"""Pairwise-comparison weighting: parsing, priorities, consistency, bias."""
from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
import pytest

from lockqual.ahp import (
    DEFAULT_HIERARCHY,
    RANDOM_INDEX,
    SCALE,
    Hierarchy,
    JudgmentMatrix,
    JudgmentStack,
    WeightVector,
    aggregate_geomean,
    bias_report,
    consistency,
    global_weights,
    load_judgments,
    normalized_weights,
    weights_eigen,
)
from lockqual.synth import write_judgments_csv


def _jm(labels, values):
    return JudgmentMatrix(tuple(labels), np.asarray(values, dtype=float))


def test_scale_codes_and_reciprocals():
    assert SCALE["E"] == 1.0
    assert SCALE["L9"] == 9.0
    assert SCALE["R9"] == pytest.approx(1.0 / 9.0)
    for k in ("3", "5", "7", "9"):
        assert SCALE["L" + k] * SCALE["R" + k] == pytest.approx(1.0)


def test_matrix_validation():
    with pytest.raises(ValueError):
        _jm(("a", "b"), [[1, 2], [2, 1]])  # not reciprocal
    with pytest.raises(ValueError):
        _jm(("a", "b"), [[2, 2], [0.5, 1]])  # bad diagonal
    with pytest.raises(ValueError):
        _jm(("a", "b"), [[1, -3], [-1 / 3, 1]])  # nonpositive
    with pytest.raises(ValueError):
        _jm(("a", "b", "c"), [[1, 2], [0.5, 1]])  # shape


def _allclose_verdict(a):
    """What the validation said when it called np.allclose."""
    if np.any(a <= 0):
        return "judgments must be positive"
    if not np.allclose(np.diag(a), 1.0, atol=1e-12):
        return "diagonal must be 1"
    if not np.allclose(a * a.T, 1.0, atol=1e-9):
        return "matrix must be reciprocal"
    return None


def _perturbed(i, j, value):
    a = np.array([[1.0, 3.0, 0.2], [1 / 3, 1.0, 7.0], [5.0, 1 / 7, 1.0]])
    a[i, j] = value
    return a


@pytest.mark.parametrize(
    "values, expected",
    [
        # a diagonal cell enters the product check squared
        (_perturbed(1, 1, 1 + 0.45e-5), None),
        (_perturbed(1, 1, 1 + 0.9e-5), "matrix must be reciprocal"),
        (_perturbed(1, 1, 1 - 0.9e-5), "matrix must be reciprocal"),
        (_perturbed(1, 1, 1 + 1.1e-5), "diagonal must be 1"),
        (_perturbed(1, 1, 1 - 1.1e-5), "diagonal must be 1"),
        (_perturbed(1, 0, (1 + 0.9e-5) / 3), None),
        (_perturbed(1, 0, (1 - 0.9e-5) / 3), None),
        (_perturbed(1, 0, (1 + 1.1e-5) / 3), "matrix must be reciprocal"),
        (_perturbed(1, 0, (1 - 1.1e-5) / 3), "matrix must be reciprocal"),
        (_perturbed(0, 2, math.nan), "matrix must be reciprocal"),
        (_perturbed(2, 2, math.nan), "diagonal must be 1"),
        (_perturbed(0, 2, math.inf), "matrix must be reciprocal"),
        (_perturbed(0, 0, math.inf), "diagonal must be 1"),
    ],
)
def test_matrix_validation_matches_allclose(values, expected):
    assert _allclose_verdict(values) == expected
    if expected is None:
        assert np.array_equal(_jm("abc", values).values, values)
    else:
        with pytest.raises(ValueError, match=expected):
            _jm("abc", values)


def test_two_by_two_weights_hand_value():
    m = _jm(("a", "b"), [[1, 3], [1 / 3, 1]])
    wv, lam = weights_eigen(m)
    assert wv.weights["a"] == pytest.approx(0.75, abs=1e-10)
    assert wv.weights["b"] == pytest.approx(0.25, abs=1e-10)
    assert lam == pytest.approx(2.0, abs=1e-9)


def test_consistent_matrix_recovers_ratio_weights():
    # built from w = (0.6, 0.3, 0.1): a_ij = w_i / w_j, perfectly consistent
    w = np.array([0.6, 0.3, 0.1])
    a = w[:, None] / w[None, :]
    m = _jm(("x", "y", "z"), a)
    wv, lam = weights_eigen(m)
    assert wv.weights["x"] == pytest.approx(0.6, abs=1e-9)
    assert wv.weights["y"] == pytest.approx(0.3, abs=1e-9)
    assert wv.weights["z"] == pytest.approx(0.1, abs=1e-9)
    assert lam == pytest.approx(3.0, abs=1e-9)
    cr = consistency(m, lam)
    assert cr.ci == pytest.approx(0.0, abs=1e-9)
    assert cr.passed


def test_eigenvector_agrees_with_numpy_eig():
    a = np.array(
        [
            [1.0, 3.0, 5.0],
            [1 / 3, 1.0, 2.0],
            [1 / 5, 1 / 2, 1.0],
        ]
    )
    m = _jm(("a", "b", "c"), a)
    wv, lam = weights_eigen(m)
    vals, vecs = np.linalg.eig(a)
    k = int(np.argmax(vals.real))
    v = np.abs(vecs[:, k].real)
    v = v / v.sum()
    assert lam == pytest.approx(float(vals[k].real), abs=1e-9)
    for i, name in enumerate(("a", "b", "c")):
        assert wv.weights[name] == pytest.approx(float(v[i]), abs=1e-9)


def test_consistency_ratio_inconsistent_matrix():
    # a cycle a>b, b>c, c>a is maximally inconsistent
    a = np.array(
        [
            [1.0, 3.0, 1 / 3],
            [1 / 3, 1.0, 3.0],
            [3.0, 1 / 3, 1.0],
        ]
    )
    m = _jm(("a", "b", "c"), a)
    wv, lam = weights_eigen(m)
    out = consistency(m, lam)
    assert out.lambda_max > 3.0
    assert out.cr == pytest.approx((lam - 3) / 2 / RANDOM_INDEX[3], rel=1e-12)
    assert not out.passed
    # cyclic symmetry forces equal weights
    for v in wv.weights.values():
        assert v == pytest.approx(1 / 3, abs=1e-9)


def test_consistency_small_matrices_trivially_pass():
    m = _jm(("a", "b"), [[1, 5], [0.2, 1]])
    _, lam = weights_eigen(m)
    out = consistency(m, lam)
    assert out.cr == 0.0
    assert out.passed


def test_consistency_unknown_size_raises():
    labels = tuple(f"f{i}" for i in range(11))
    m = _jm(labels, np.eye(11) + np.ones((11, 11)) - np.eye(11))
    with pytest.raises(ValueError):
        consistency(m, 11.0)


def test_geomean_hand_value_and_reciprocity():
    m1 = _jm(("a", "b"), [[1, 2], [0.5, 1]])
    m2 = _jm(("a", "b"), [[1, 8], [0.125, 1]])
    g = aggregate_geomean(JudgmentStack(("a", "b"), np.stack([m1.values, m2.values])))
    assert g.values[0, 1] == pytest.approx(4.0, rel=1e-12)  # sqrt(2 * 8)
    assert g.values[1, 0] == pytest.approx(0.25, rel=1e-12)
    assert g.values[0, 1] * g.values[1, 0] == pytest.approx(1.0, rel=1e-15)


def test_geomean_of_an_empty_stack():
    with pytest.raises(ValueError, match="nothing to aggregate"):
        aggregate_geomean(JudgmentStack(("a", "b"), np.empty((0, 2, 2))))


def test_global_weights_hand_value():
    h = Hierarchy(
        criteria=("c1", "c2", "c3"),
        children={"c1": ("f1", "f2"), "c2": ("f3", "f4"), "c3": ("f5", "f6")},
    )
    cw = WeightVector(("c1", "c2", "c3"), {"c1": 0.5, "c2": 0.3, "c3": 0.2})
    lw = {
        "c1": WeightVector(("f1", "f2"), {"f1": 0.7, "f2": 0.3}),
        "c2": WeightVector(("f3", "f4"), {"f3": 0.6, "f4": 0.4}),
        "c3": WeightVector(("f5", "f6"), {"f5": 0.5, "f6": 0.5}),
    }
    gw = global_weights(h, cw, lw)
    assert gw.weights["f1"] == pytest.approx(0.35)
    assert gw.weights["f2"] == pytest.approx(0.15)
    assert gw.weights["f3"] == pytest.approx(0.18)
    assert gw.weights["f4"] == pytest.approx(0.12)
    assert gw.weights["f5"] == pytest.approx(0.10)
    assert gw.weights["f6"] == pytest.approx(0.10)
    assert sum(gw.weights.values()) == pytest.approx(1.0)


def test_weight_vector_ranks_competition_order():
    wv = WeightVector(("a", "b", "c"), {"a": 0.5, "b": 0.2, "c": 0.3})
    assert wv.ranks == {"a": 1, "c": 2, "b": 3}


def test_normalized_weights():
    wv = normalized_weights({"x": 2.0, "y": 1.0, "z": 1.0})
    assert wv.weights["x"] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        normalized_weights({"x": 1.0, "y": 0.0})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_normalized_weights_names_non_finite_weights(bad):
    with pytest.raises(ValueError, match=r"non-finite weights for \['y'\]"):
        normalized_weights({"x": 1.0, "y": bad})
    with pytest.raises(ValueError, match="positive and finite"):
        WeightVector(("x", "y"), {"x": 1.0, "y": bad})


def _rows_for(rid: str, picks: dict[tuple[str, str, str], str]) -> list[dict[str, str]]:
    rows = []
    for (level, left, right), sel in picks.items():
        rows.append(
            {
                "respondent_id": rid,
                "level": level,
                "left_factor": left,
                "right_factor": right,
                "selection": sel,
            }
        )
    return rows


def _load(tmp_path, rows: list[dict[str, str]]):
    """The judgment set load_judgments reads from rows written as a judgment CSV."""
    path = tmp_path / "judgments.csv"
    write_judgments_csv(rows, str(path))
    return load_judgments(str(path))


def _complete_picks(sel: str = "E") -> dict[tuple[str, str, str], str]:
    picks: dict[tuple[str, str, str], str] = {}
    h = DEFAULT_HIERARCHY
    crit = h.criteria
    for i in range(3):
        for j in range(i + 1, 3):
            picks[("criteria", crit[i], crit[j])] = sel
    for c in crit:
        a, b = h.children[c]
        picks[(c, a, b)] = sel
    return picks


def test_parse_judgments_full_respondent(tmp_path):
    picks = _complete_picks("E")
    picks[("criteria", "WLOE", "WLFP")] = "L3"
    out = _load(tmp_path, _rows_for("e1", picks))
    assert len(out) == 1
    assert out.respondent_ids == ("e1",)
    i = out.criteria.labels.index("WLOE")
    j = out.criteria.labels.index("WLFP")
    assert out.criteria.values[0, i, j] == pytest.approx(3.0)
    assert out.criteria.values[0, j, i] == pytest.approx(1 / 3)
    assert set(out.leaves) == set(DEFAULT_HIERARCHY.criteria)


def test_parse_judgments_orientation_swap(tmp_path):
    # the same comparison entered right-to-left with the mirrored code
    # must build the same matrix
    picks_a = _complete_picks("E")
    picks_a[("criteria", "WLOE", "WLFP")] = "L5"
    picks_b = _complete_picks("E")
    del picks_b[("criteria", "WLOE", "WLFP")]
    picks_b[("criteria", "WLFP", "WLOE")] = "R5"
    m_a = _load(tmp_path, _rows_for("e1", picks_a)).criteria
    m_b = _load(tmp_path, _rows_for("e1", picks_b)).criteria
    assert np.allclose(m_a.values, m_b.values)


def test_parse_judgments_errors(tmp_path):
    with pytest.raises(ValueError, match="unknown selection"):
        _load(tmp_path, _rows_for("e1", {("criteria", "WLOE", "WLFP"): "X2"}))
    with pytest.raises(ValueError, match="unknown level"):
        _load(tmp_path, _rows_for("e1", {("nowhere", "WLOE", "WLFP"): "E"}))
    with pytest.raises(ValueError, match="invalid pair"):
        _load(tmp_path, _rows_for("e1", {("criteria", "WLOE", "safe_security"): "E"}))
    picks = _complete_picks("E")
    rows = _rows_for("e1", picks)
    rows.append(rows[0].copy())
    with pytest.raises(ValueError, match="duplicate comparison"):
        _load(tmp_path, rows)
    incomplete = _complete_picks("E")
    del incomplete[("criteria", "WLOE", "WLMS")]
    with pytest.raises(ValueError, match="missing comparison"):
        _load(tmp_path, _rows_for("e1", incomplete))


def test_load_judgments_csv(tmp_path):
    rows = _rows_for("e1", _complete_picks("E")) + _rows_for("e2", _complete_picks("L3"))
    path = tmp_path / "judgments.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["respondent_id", "level", "left_factor", "right_factor", "selection"]
        )
        writer.writeheader()
        writer.writerows(rows)
    out = load_judgments(str(path))
    assert out.respondent_ids == ("e1", "e2")
    bad = tmp_path / "bad.csv"
    bad.write_text("respondent_id,level\n")
    with pytest.raises(ValueError):
        load_judgments(str(bad))


def test_bias_report_identical_ranks():
    h = DEFAULT_HIERARCHY
    w = {f: v for f, v in zip(h.leaves, (0.25, 0.15, 0.2, 0.1, 0.18, 0.12))}
    ow = WeightVector(h.leaves, w)
    rep = bias_report(ow, ow, h)
    assert rep.spearman == pytest.approx(1.0)
    assert all(d["agree"] for d in rep.dominance.values())


def test_bias_report_reversed_ranks():
    h = DEFAULT_HIERARCHY
    vals = (0.25, 0.2, 0.18, 0.15, 0.12, 0.1)
    ow = WeightVector(h.leaves, dict(zip(h.leaves, vals)))
    sw = WeightVector(h.leaves, dict(zip(h.leaves, vals[::-1])))
    rep = bias_report(ow, sw, h)
    assert rep.spearman == pytest.approx(-1.0)
    for c in h.criteria:
        assert not rep.dominance[c]["agree"]


def test_bias_report_hand_spearman():
    # swap exactly one adjacent pair: d^2 total = 2, n = 6
    h = DEFAULT_HIERARCHY
    vals = (0.25, 0.2, 0.18, 0.15, 0.12, 0.1)
    ow = WeightVector(h.leaves, dict(zip(h.leaves, vals)))
    swapped = (0.2, 0.25, 0.18, 0.15, 0.12, 0.1)
    sw = WeightVector(h.leaves, dict(zip(h.leaves, swapped)))
    rep = bias_report(ow, sw, h)
    assert rep.spearman == pytest.approx(1 - 6 * 2 / (6 * 35), rel=1e-12)


def test_bias_report_label_mismatch():
    h = DEFAULT_HIERARCHY
    vals = (0.25, 0.2, 0.18, 0.15, 0.12, 0.1)
    ow = WeightVector(h.leaves, dict(zip(h.leaves, vals)))
    other = tuple(f"x{i}" for i in range(6))
    sw = WeightVector(other, dict(zip(other, vals)))
    with pytest.raises(ValueError):
        bias_report(ow, sw, h)


def test_full_chain_consistent_experts(tmp_path):
    # three experts with identical, perfectly consistent judgments:
    # the aggregate must reproduce each individual's priorities
    picks = _complete_picks("E")
    picks[("criteria", "WLOE", "WLFP")] = "L3"
    picks[("criteria", "WLOE", "WLMS")] = "L3"
    picks[("criteria", "WLFP", "WLMS")] = "E"
    for c in DEFAULT_HIERARCHY.criteria:
        a, b = DEFAULT_HIERARCHY.children[c]
        picks[(c, a, b)] = "L3"
    rows: list[dict[str, str]] = []
    for rid in ("e1", "e2", "e3"):
        rows += _rows_for(rid, picks)
    experts = _load(tmp_path, rows)
    agg = aggregate_geomean(experts.criteria)
    wv, lam = weights_eigen(agg)
    assert consistency(agg, lam).passed
    assert wv.weights["WLOE"] == pytest.approx(0.6, abs=1e-9)
    assert wv.weights["WLFP"] == pytest.approx(0.2, abs=1e-9)
    leaf_w = {}
    for c in DEFAULT_HIERARCHY.criteria:
        wv_c, _ = weights_eigen(aggregate_geomean(experts.leaves[c]))
        leaf_w[c] = wv_c
    gw = global_weights(DEFAULT_HIERARCHY, wv, leaf_w)
    assert gw.weights["safe_security"] == pytest.approx(0.6 * 0.75, abs=1e-9)
    assert gw.weights["time_convenience"] == pytest.approx(0.6 * 0.25, abs=1e-9)
    assert sum(gw.weights.values()) == pytest.approx(1.0, abs=1e-12)


def test_load_judgments_ignores_utf8_bom(tmp_path):
    fixture = Path(__file__).resolve().parent.parent / "data" / "fixture_judgments.csv"
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + fixture.read_bytes())
    plain, with_bom = load_judgments(str(fixture)), load_judgments(str(bom))
    assert with_bom.respondent_ids == plain.respondent_ids
    assert np.array_equal(with_bom.criteria.values, plain.criteria.values)
