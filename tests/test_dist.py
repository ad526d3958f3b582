"""The scipy.special kernels against scipy.stats, float for float.

lockqual computes normal and chi-square values with the scipy.special
ufuncs that scipy.stats calls underneath, and sums the ordered-probit
derivatives per cutpoint with np.bincount. The references below are the
scipy.stats calls and the np.add.at scatters those replaced; results
must match them exactly, not approximately. Subprocess tests guard which
SciPy modules `import lockqual` and the kernel-free subcommands load.
"""
from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lockqual
from lockqual import cli, oprobit
from lockqual._dist import chi2_sf, expit, norm_cdf, norm_pdf, norm_ppf, norm_sf
from lockqual.oprobit import _grad_hess_raw

POINTS = [-np.inf, -40.0, -1e-300, -0.0, 0.0, 1e-300, 1.0, 8.5, 40.0, np.inf, np.nan]
PROBABILITIES = POINTS + [1e-12, 0.2, 0.5, 0.975, 1.0 - 1e-12]


def _same(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and bool(np.array_equal(got, want, equal_nan=True))


@pytest.mark.parametrize(
    "ours, ref, points",
    [
        (norm_cdf, scipy.stats.norm.cdf, POINTS),
        (norm_sf, scipy.stats.norm.sf, POINTS),
        (norm_pdf, scipy.stats.norm.pdf, POINTS),
        (norm_ppf, scipy.stats.norm.ppf, PROBABILITIES),
        (expit, scipy.stats.logistic.cdf, POINTS),
    ],
    ids=["cdf", "sf", "pdf", "ppf", "expit"],
)
def test_normal_kernels_equal_scipy_stats(ours, ref, points):
    x = np.array(points)
    assert _same(ours(x), ref(x))
    for v in points:  # the scalar path sem.py and fit() take
        assert _same(ours(v), ref(v)), v


@pytest.mark.parametrize("df", [1, 3, 496])
def test_chi2_sf_equals_scipy_stats(df):
    x = np.array(POINTS)
    assert _same(chi2_sf(x, df), scipy.stats.chi2.sf(x, df))
    for v in POINTS:
        assert _same(chi2_sf(v, df), scipy.stats.chi2.sf(v, df)), v
    assert chi2_sf(-1.0, df) == 1.0  # chdtrc alone would give NaN here


def test_import_loads_neither_scipy_stats_nor_optimize():
    src = os.path.dirname(os.path.dirname(lockqual.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, lockqual, lockqual.cli\n"
        "print(' '.join(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""


# scipy.special and scipy.linalg load scipy's array-API shim, about 0.3 s of
# a fresh process; only the kernels in _dist.py and the SEM objective import them.
SCIPY_LOADED = "[m for m in ('scipy.special', 'scipy.linalg', 'scipy._lib._array_api') if m in sys.modules]"


def _python(code: str) -> str:
    src = os.path.dirname(os.path.dirname(lockqual.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_import_loads_neither_scipy_special_nor_linalg():
    out = _python(f"import sys, lockqual, lockqual.cli\nprint({SCIPY_LOADED})")
    assert out.strip() == "[]"


def test_subcommands_without_kernels_load_neither_scipy_special_nor_linalg(tmp_path):
    data = Path(__file__).resolve().parent.parent / "data"
    survey, judgments = str(data / "fixture_survey.csv"), str(data / "fixture_judgments.csv")
    sem_json, ahp_json = str(tmp_path / "sem.json"), str(tmp_path / "ahp.json")
    assert cli.main(["sem", "--input", survey, "--out", sem_json]) == 0
    commands = [
        ["validate", "--input", survey],
        ["describe", "--input", survey],
        ["efa", "--input", survey],
        ["score", "--input", survey, "--weights", sem_json],
        ["entropy", "--input", survey],
        ["ahp", "--judgments", judgments, "--out", ahp_json],
        ["bias", "--ow", sem_json, "--sw", ahp_json],
    ]
    code = (
        "import contextlib, io, sys\n"
        "from lockqual.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        rc = main(argv)\n"
        f"    print(argv[0], rc, {SCIPY_LOADED})\n"
    )
    lines = _python(code).splitlines()
    assert lines == [f"{argv[0]} 0 []" for argv in commands]


# ---------------------------------------------------------------------------
# ordered-probit derivatives: the np.add.at implementation they replaced


def ref_grad_hess_raw(X, y, beta, kappa, c):
    _norm = scipy.stats.norm
    n, k = X.shape
    eta = X @ beta
    kext = np.concatenate(([-np.inf], kappa, [np.inf]))
    z_hi = kext[y] - eta
    z_lo = kext[y - 1] - eta
    p = np.where(z_lo > 0, _norm.sf(z_lo) - _norm.sf(z_hi), _norm.cdf(z_hi) - _norm.cdf(z_lo))
    p = np.maximum(p, 1e-300)
    ll = float(np.log(p).sum())
    phi_hi = np.where(np.isfinite(z_hi), _norm.pdf(z_hi), 0.0)
    phi_lo = np.where(np.isfinite(z_lo), _norm.pdf(z_lo), 0.0)
    zphi_hi = np.zeros_like(phi_hi)
    zphi_lo = np.zeros_like(phi_lo)
    fin_hi = np.isfinite(z_hi)
    fin_lo = np.isfinite(z_lo)
    zphi_hi[fin_hi] = z_hi[fin_hi] * phi_hi[fin_hi]
    zphi_lo[fin_lo] = z_lo[fin_lo] * phi_lo[fin_lo]
    g_eta = -(phi_hi - phi_lo)
    g_hi = phi_hi
    g_lo = -phi_lo
    s_ee = -zphi_hi + zphi_lo
    s_eh = zphi_hi
    s_el = -zphi_lo
    s_hh = -zphi_hi
    s_ll = zphi_lo

    def h(s_xy, g_x, g_y):
        return s_xy / p - g_x * g_y / p**2

    w_ee = h(s_ee, g_eta, g_eta)
    w_eh = h(s_eh, g_eta, g_hi)
    w_el = h(s_el, g_eta, g_lo)
    w_hh = h(s_hh, g_hi, g_hi)
    w_ll = h(s_ll, g_lo, g_lo)
    w_hl = h(np.zeros(n), g_hi, g_lo)
    dll_eta = g_eta / p
    grad = np.zeros(k + c - 1)
    grad[:k] = X.T @ dll_eta
    gk = np.zeros(c - 1)
    hi_idx = y - 1
    lo_idx = y - 2
    hi_ok = y <= c - 1
    lo_ok = y >= 2
    np.add.at(gk, hi_idx[hi_ok], (g_hi / p)[hi_ok])
    np.add.at(gk, lo_idx[lo_ok], (g_lo / p)[lo_ok])
    grad[k:] = gk
    hess = np.zeros((k + c - 1, k + c - 1))
    hess[:k, :k] = X.T @ (X * w_ee[:, None])
    hbk = np.zeros((k, c - 1))
    np.add.at(hbk.T, hi_idx[hi_ok], (X[hi_ok] * w_eh[hi_ok, None]))
    np.add.at(hbk.T, lo_idx[lo_ok], (X[lo_ok] * w_el[lo_ok, None]))
    hess[:k, k:] = hbk
    hess[k:, :k] = hbk.T
    hkk = np.zeros((c - 1, c - 1))
    np.add.at(hkk, (hi_idx[hi_ok], hi_idx[hi_ok]), w_hh[hi_ok])
    np.add.at(hkk, (lo_idx[lo_ok], lo_idx[lo_ok]), w_ll[lo_ok])
    both = hi_ok & lo_ok
    np.add.at(hkk, (hi_idx[both], lo_idx[both]), w_hl[both])
    np.add.at(hkk, (lo_idx[both], hi_idx[both]), w_hl[both])
    hess[k:, k:] = hkk
    return ll, grad, hess


@st.composite
def probit_points(draw):
    k = draw(st.integers(1, 4))
    c = draw(st.integers(3, 7))
    if draw(st.booleans()):
        # every row at an outer category, except one row per inner category
        ends = draw(st.lists(st.sampled_from([1, c]), min_size=1, max_size=40))
        y = np.array(draw(st.permutations(ends + list(range(2, c)))))
    else:
        y = np.array(draw(st.lists(st.integers(1, c), min_size=1, max_size=80)))
    X = draw(arrays(np.float64, (len(y), k), elements=st.floats(-4.0, 4.0)))
    beta = draw(arrays(np.float64, k, elements=st.floats(-6.0, 6.0)))
    kappa = np.sort(draw(arrays(np.float64, c - 1, elements=st.floats(-5.0, 5.0), unique=True)))
    return X, y, beta, kappa, c


@settings(max_examples=300, deadline=None)
@given(probit_points())
def test_grad_hess_raw_equals_add_at_reference(point):
    X, y, beta, kappa, c = point
    with np.errstate(all="ignore"):
        ll, grad, hess = _grad_hess_raw(X, y, beta, kappa, c)
        ref_ll, ref_grad, ref_hess = ref_grad_hess_raw(X, y, beta, kappa, c)
    assert _same(ll, ref_ll)
    assert _same(grad, ref_grad)
    assert _same(hess, ref_hess)


@settings(max_examples=200, deadline=None)
@given(probit_points(), st.sampled_from([1, 2, 3]))
def test_grad_hess_raw_equals_add_at_reference_across_chunk_edges(point, chunk):
    # the beta x kappa block carries its running sums from one chunk of
    # terms into the next; with 1-3 terms a chunk every bin crosses edges
    X, y, beta, kappa, c = point
    with np.errstate(all="ignore"), mock.patch.object(oprobit, "_CHUNK_ROWS", chunk):
        ll, grad, hess = _grad_hess_raw(X, y, beta, kappa, c)
        ref_ll, ref_grad, ref_hess = ref_grad_hess_raw(X, y, beta, kappa, c)
    assert _same(ll, ref_ll)
    assert _same(grad, ref_grad)
    assert _same(hess, ref_hess)


def test_grad_hess_raw_memory_stays_within_a_few_designs():
    # one bincount over every (row, column) term at once would hold their
    # products and bin indices together, several times the design itself
    rng = np.random.default_rng(5)
    n, k, c = 20_000, 20, 5
    X = rng.normal(size=(n, k))
    y = rng.integers(1, c + 1, size=n)
    beta = rng.normal(scale=0.2, size=k)
    kappa = np.array([-1.5, -0.5, 0.5, 1.5])
    tracemalloc.start()
    try:
        _grad_hess_raw(X, y, beta, kappa, c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * X.nbytes
