"""Moments of the complete rows against the matrix that listwise deletion builds."""
from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lockqual.catalog import DEFAULT_CATALOG
from lockqual.dataset import DEMOGRAPHICS, SurveyDataset
from lockqual.moments import _BLOCK_ROWS, Moments

FIELDS = tuple(range(0, len(DEFAULT_CATALOG) + 2))  # q0..q33


@st.composite
def surveys(draw):
    """Random codes with blanks, few levels and copied columns, and an item subset."""
    n = draw(st.integers(0, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.integers(1, 5))  # few levels make constant and equal columns likely
    codes = rng.integers(1, levels + 1, size=(n, len(FIELDS)), dtype=np.int8)
    codes[rng.random(codes.shape) < draw(st.sampled_from([0.0, 0.01, 0.1]))] = 0
    for _ in range(draw(st.integers(0, 4))):
        src, dst = rng.integers(0, len(FIELDS), size=2)
        codes[:, dst] = codes[:, src]
    d = SurveyDataset(
        DEFAULT_CATALOG,
        [f"r{i}" for i in range(n)],
        codes,
        np.full(n, math.nan),
        {name: [""] * n for name in DEMOGRAPHICS},
    )
    indices = draw(st.lists(st.sampled_from(FIELDS), min_size=1, max_size=len(FIELDS), unique=True))
    return d, indices


@settings(max_examples=150, deadline=None)
@given(surveys())
def test_moments_match_the_complete_row_matrix(point):
    d, indices = point
    _, X = d.matrix(indices)
    m = d.moments(indices)
    n, k = X.shape
    assert m.n == n
    assert np.array_equal(m.sums, X.sum(axis=0))
    assert np.array_equal(m.cross, X.T @ X)
    if n == 0:
        return
    const = (X == X[0]).all(axis=0)
    assert np.array_equal(m.constant(), const)
    if n < 2:
        return
    ref = np.cov(X, rowvar=False, ddof=1).reshape(k, k)
    sd = np.sqrt(np.diag(ref))
    scale = np.outer(sd, sd)
    assert np.all(np.abs(m.cov() - ref) <= 1e-13 * scale)
    live = ~const
    if live.sum() >= 2:
        r = m.take(np.flatnonzero(live)).corr()
        ref_r = np.corrcoef(X[:, live], rowvar=False)
        assert np.all(np.abs(r - ref_r) <= 1e-13)


def _assert_same_bits(got: Moments, want: Moments) -> None:
    assert got.n == want.n
    assert got.sums.tobytes() == want.sums.tobytes()
    assert got.cross.tobytes() == want.cross.tobytes()


@settings(max_examples=150, deadline=None)
@given(surveys(), st.data())
def test_masked_moments_equal_the_moments_of_the_masked_rows(point, data):
    d, indices = point
    rows = np.array(data.draw(st.lists(st.booleans(), min_size=d.n, max_size=d.n)), dtype=bool)
    _assert_same_bits(Moments.of_codes(d.codes, indices, rows), Moments.of_codes(d.codes[rows], indices))


def test_masked_moments_span_row_blocks():
    n = 20_000  # more than two blocks of _BLOCK_ROWS, cut at other rows than the masked copy's
    assert n > 2 * _BLOCK_ROWS
    rng = np.random.default_rng(11)
    codes = rng.integers(1, 6, size=(n, len(FIELDS)), dtype=np.int8)
    codes[rng.random(codes.shape) < 0.02] = 0
    rows = rng.random(n) < 0.6
    cols = [0, 3, 4, 17, 32, 33]
    _assert_same_bits(Moments.of_codes(codes, cols, rows), Moments.of_codes(codes[rows], cols))
