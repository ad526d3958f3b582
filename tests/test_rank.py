"""The one numerical-rank test, `moments.dependent_sets`, and the decisions built on it."""
from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lockqual import sem
from lockqual.dataset import load_survey
from lockqual.moments import Moments, dependent_sets
from lockqual.pipeline import _screen

ROOT = Path(__file__).resolve().parent.parent
SURVEY = str(ROOT / "data" / "fixture_survey.csv")


def _codes(seed: int, n: int = 300, k: int = 6) -> np.ndarray:
    return np.random.default_rng(seed).integers(1, 6, size=(n, k), dtype=np.int8)


def test_full_rank_has_no_dependent_set():
    assert dependent_sets(Moments.of_codes(_codes(0), range(6)).centred()) == []


def test_a_zero_column_is_its_own_set_and_a_copy_names_its_pair():
    x = _codes(1)
    x[:, 2] = 3  # constant: zero centred diagonal
    x[:, 4] = x[:, 1]
    assert dependent_sets(Moments.of_codes(x, range(6)).centred()) == [[2], [1, 4]]


def test_null_directions_are_reduced_to_one_set_per_dropped_column():
    # two copies and a sum: three null directions that an eigensolver
    # returns mixed. Each set is one later column and the earlier columns,
    # none of them another set's last column, that span it.
    x = _codes(2, k=8).astype(np.int16)
    x[:, 3] = x[:, 0]
    x[:, 5] = 6 - x[:, 0]
    x[:, 7] = x[:, 1] + x[:, 2]
    sets = dependent_sets(Moments.of_matrix(x).centred())
    assert sets == [[0, 3], [0, 5], [1, 2, 7]]


def test_scaling_makes_the_test_independent_of_column_units():
    x = _codes(3).astype(float)
    x[:, 5] = 1e6 * x[:, 0] - 2e6 * x[:, 2]
    a = Moments.of_matrix(x).centred()
    assert dependent_sets(a) == [[0, 2, 5]]
    scale = np.array([1e-4, 1.0, 1e5, 1.0, 1.0, 1.0])
    assert dependent_sets(a * np.outer(scale, scale)) == [[0, 2, 5]]


def test_an_indefinite_or_non_finite_matrix_is_refused():
    a = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
    with pytest.raises(ValueError, match="not positive definite"):
        dependent_sets(a)
    with pytest.raises(ValueError, match="not positive definite"):
        dependent_sets(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError, match="non-finite"):
        dependent_sets(np.array([[1.0, math.nan], [math.nan, 1.0]]))


def test_check_sample_names_the_dependent_observed_variables():
    x = _codes(4).astype(float)
    x[:, 4] = x[:, 1] + x[:, 3]
    S = np.cov(x, rowvar=False)
    with pytest.raises(ValueError, match=r"observed variables \[12, 14, 15\] are linearly dependent"):
        sem._check_sample(S, (11, 12, 13, 14, 15, 16))
    model = sem.MeasurementModel(("a", "b"), {"a": (11, 12, 13), "b": (14, 15, 16)}, (), (("a", "b"),))
    with pytest.raises(ValueError, match="sample covariance is singular"):
        sem.fit_ml(model, S, n=300)


def test_a_model_that_is_not_identified_warns_by_name_with_null_ses():
    # two factors of two indicators and no covariance between them pass the
    # counting rule (8 parameters, 10 moments), but each factor has four
    # parameters for its three moments
    d = load_survey(SURVEY)
    model = sem.MeasurementModel(("a", "b"), {"a": (1, 2), "b": (3, 4)})
    m = d.moments(model.observed)
    est = sem.fit_ml(model, m.cov(), m.n)
    assert est.warnings == (
        "information matrix is singular, so the model is not identified: parameters "
        "a=~q2, a~~a, q1~~q1, q2~~q2; b=~q4, b~~b, q3~~q3, q4~~q4 are not separately "
        "determined; standard errors reported as null",
    )
    rows = [r for r in est.param_table() if not r["fixed"]]
    assert len(rows) == 8 and all(math.isnan(r["se"]) and r["t"] is None for r in rows)
    # with the covariance the model is identified and every SE is finite
    model = sem.MeasurementModel(("a", "b"), {"a": (1, 2), "b": (3, 4)}, (), (("a", "b"),))
    est = sem.fit_ml(model, m.cov(), m.n)
    assert est.warnings == ()
    assert all(math.isfinite(r["se"]) for r in est.param_table() if not r["fixed"])


def test_the_rank_decision_lives_in_moments_only():
    # every singularity test goes through `dependent_sets`; a second
    # rank decision elsewhere in the package would drift from it
    banned = re.compile(r"\b(svd|pinv|matrix_rank)\b")
    offenders = [
        f"{path.name}:{no}"
        for path in sorted((ROOT / "src" / "lockqual").glob("*.py"))
        if path.name != "moments.py"
        for no, line in enumerate(path.read_text("utf-8").splitlines(), 1)
        if banned.search(line)
    ]
    assert offenders == []


@st.composite
def planted(draw):
    """Codes with blanks and planted copies, reverse-keyed copies and two-column sums."""
    n = draw(st.integers(2, 200))
    k = draw(st.integers(3, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.integers(2, 5))
    codes = rng.integers(1, levels + 1, size=(n, k)).astype(np.int8)
    for kind in draw(st.lists(st.sampled_from(["copy", "reverse", "sum"]), max_size=4)):
        a, b, dst = rng.choice(k, size=3, replace=False).tolist()
        if kind == "copy":
            codes[:, dst] = codes[:, a]
        elif kind == "reverse":
            codes[:, dst] = 6 - codes[:, a]
        else:
            codes[:, dst] = codes[:, a] + codes[:, b] - 1
    codes[rng.random(codes.shape) < draw(st.sampled_from([0.0, 0.02, 0.1]))] = 0
    return codes


@settings(max_examples=150, deadline=None)
@given(planted())
def test_the_screen_leaves_no_dependent_set_and_drops_only_later_members(codes):
    k = codes.shape[1]
    items = tuple(range(1, k + 1))
    m = Moments.of_codes(codes, range(k))
    X = codes[(codes != 0).all(axis=1)].astype(float)
    constant = [items[j] for j in range(k) if m.n == 0 or (X[:, j] == X[0, j]).all()]
    if len(constant) == k:
        with pytest.raises(ValueError, match="no usable item left"):
            _screen(items, m, "test", [])
        return
    warnings: list[str] = []
    kept, kept_m, reasons = _screen(items, m, "test", warnings)
    assert sorted(kept + tuple(reasons)) == list(items)
    assert [i for i, r in reasons.items() if r == "constant response"] == constant
    assert np.array_equal(kept_m.cross, m.take([i - 1 for i in kept]).cross)
    dependent = {i: r for i, r in reasons.items() if r != "constant response"}
    assert len(warnings) == bool(constant) + len(dependent)
    if m.n <= k - len(constant):
        # as many items as rows: every R is singular, so no item is blamed
        assert dependent == {}
        return
    assert dependent_sets(kept_m.corr()) == []
    col = {i: X[:, i - 1] for i in items}
    for item, reason in dependent.items():
        if reason.startswith("duplicate of q"):
            named = [int(reason[len("duplicate of q") :])]
            assert np.array_equal(col[named[0]], col[item])
        else:
            listed = re.fullmatch(r"linearly dependent on \[q(.*)\]", reason)[1]
            named = [int(q) for q in listed.split(", q")]
            # the item lies in the span of the items named and a constant
            basis = np.column_stack([np.ones(m.n)] + [col[j] for j in named])
            resid = col[item] - basis @ np.linalg.lstsq(basis, col[item], rcond=None)[0]
            assert resid @ resid <= 1e-9 * ((col[item] - col[item].mean()) ** 2).sum()
        assert all(j < item and j in kept for j in named)
    # an item equal in every complete row to an earlier item kept is its duplicate
    for item in items:
        twins = [j for j in kept if j < item and np.array_equal(col[j], col[item])]
        if twins:
            assert reasons[item] == f"duplicate of q{twins[0]}"
