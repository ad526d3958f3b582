"""The kernels in _dist.py against SciPy and mpmath, to stated error bounds.

lockqual computes normal, logistic and chi-square values with its own
NumPy and standard-library kernels. SciPy, the implementation they
replaced, and mpmath at 40 digits, the exact value, are the references.
Each kernel must stay within a stated relative error of both, on dense
grids that reach the tails, and give exactly what SciPy gives at +-inf,
NaN and -0.0, with SciPy's return type. The bounds against SciPy are
wider than those against mpmath where SciPy's own error is the larger:
ndtr's beyond |x| = 7, norm.pdf's beyond |x| = 8 and chdtrc's in its
tails. The probit's cells run the normal kernel over row blocks, which
must give the bits of one call per row and bound the pass's memory.
The ordered-probit derivatives, summed per cutpoint with np.bincount,
must equal the np.add.at scatters they replaced, float for float, with
Phi and phi taken from lockqual's kernel on both sides. The beta x kappa
block of the Hessian is one BLAS product, which adds its n terms per
cell in an order of its own: each cell must lie within gamma_2n times
the sum of its terms' magnitudes of the scatter's (Higham, Accuracy and
Stability of Numerical Algorithms, §3.1), both sums being within gamma_n
of the exact one.
"""
from __future__ import annotations

import math
import os
import pkgutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lockqual
from lockqual import cli
from lockqual._dist import _normal, chi2_sf, expit, norm_ppf, norm_sf
from lockqual.oprobit import _CELL_ROWS, _cell_probs, _grad_hess_raw

mpmath.mp.dps = 40
EPS = np.finfo(float).eps

POINTS = [-np.inf, -40.0, -1e-300, -0.0, 0.0, 1e-300, 1.0, 8.5, 40.0, np.inf, np.nan]
PROBABILITIES = POINTS + [1e-12, 0.2, 0.5, 0.975, 1.0 - 1e-12]
# where a kernel's value is exactly representable, it must equal SciPy's
EXACT = [-np.inf, -0.0, 0.0, np.inf, np.nan]


def _same(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and bool(np.array_equal(got, want, equal_nan=True))


def _rel(got, want) -> np.ndarray:
    """|got - want| / |want|, 0 where both are equal (zeros, infinities, NaN)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(same, 0.0, np.abs(got - want) / np.abs(want))


def _exact_rel(got, exact) -> np.ndarray:
    """Relative errors of floats against mpmath values."""
    return np.array([float(abs(mpmath.mpf(float(g)) - e) / abs(e)) for g, e in zip(got, exact)])


def _cdf(x):
    """Phi(x), the normal kernel's first output (no module takes Phi alone)."""
    return _normal(np.asarray(x, dtype=float))[0]


def _pdf(x):
    """phi(x), the normal kernel's second output."""
    return _normal(np.asarray(x, dtype=float))[1]


@pytest.mark.parametrize(
    "ours, ref, points, bound",
    [
        (_cdf, scipy.stats.norm.cdf, POINTS, 1e-14),
        (norm_sf, scipy.stats.norm.sf, POINTS, 1e-14),
        (_pdf, scipy.stats.norm.pdf, POINTS, 1e-13),
        (norm_ppf, scipy.stats.norm.ppf, PROBABILITIES, 2e-15),
        (expit, scipy.stats.logistic.cdf, POINTS, 1e-15),
    ],
    ids=["cdf", "sf", "pdf", "ppf", "expit"],
)
def test_normal_kernels_equal_scipy_stats(ours, ref, points, bound):
    # equal to the stated relative error, exactly at the special points, with
    # scipy.stats' shape and scalar type, for arrays and 0-d inputs alike;
    # the largest difference is 7.2e-15, at Phi(-8.5). phi comes from the
    # split exp that Phi uses, not from SciPy's exp of the rounded x^2/2, so
    # its bound is 1e-13 (see the dense grid below), though it equals
    # SciPy's at these points
    x = np.array(points)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ours(x)
        assert got.shape == x.shape
        assert _rel(got, ref(x)).max() <= bound
        for v in points:
            one = ours(v)
            assert type(one) is type(ref(v)), v
            assert _rel(one, ref(v)) <= bound, v
    special = np.array(EXACT)
    assert _same(ours(special), ref(special))
    for v in special:
        assert _same(ours(v), ref(v)), v


@pytest.mark.parametrize("df", [1, 3, 496])
def test_chi2_sf_equals_scipy_stats(df):
    # equal to 1e-13 relative (measured: 1.0e-14, at x = 1 on one degree of
    # freedom); exactly 1 for x <= 0 (chdtrc alone would give NaN there)
    # and 0 at inf
    for v in POINTS:
        got, want = chi2_sf(v, df), float(scipy.stats.chi2.sf(v, df))
        assert type(got) is float
        if math.isnan(v) or v <= 0 or math.isinf(v):
            assert _same(got, want), v
        else:
            assert _rel(got, want) <= 1e-13, v
    assert chi2_sf(-1.0, df) == 1.0
    assert chi2_sf(5e-324, df) == 1.0  # halves to 0


def test_chi2_sf_rejects_degrees_of_freedom_that_are_not_positive():
    with pytest.raises(ValueError):
        chi2_sf(2.0, 0)


def test_norm_cdf_and_sf_relative_error_over_the_dense_grid():
    # |x| <= 38 in steps of 0.01, finer near 0 and off the grid's decimals,
    # wherever Phi >= 1e-300: 1.5e-15 from the exact value (measured
    # 1.2e-15 on a denser grid), and each 0-d input gives the bits it gets
    # inside the array. Against SciPy, 2e-14 on |x| <= 8 and 3e-13 beyond
    # (measured 1.1e-14 and 2.4e-13): ndtr rounds x / sqrt(2) and its square
    # before its exp, which puts it 1.1e-14 from the exact value near x = -7.9.
    grid = np.concatenate([np.linspace(-38, 38, 7601), np.linspace(-1e-3, 1e-3, 201), np.linspace(-6, 6, 601) + 3e-3])
    exact_all = [mpmath.ncdf(mpmath.mpf(float(v))) for v in grid]
    inside = np.array([e >= 1e-300 for e in exact_all])
    exact = [e for e, keep in zip(exact_all, inside) if keep]
    x = grid[inside]
    cdf = _cdf(x)
    assert _exact_rel(cdf, exact).max() <= 1.5e-15
    assert _same(norm_sf(-x), cdf)
    assert _same(np.array([_cdf(float(v)) for v in x]), cdf)
    diff = _rel(cdf, scipy.special.ndtr(x))
    assert diff[np.abs(x) <= 8].max() <= 2e-14
    assert diff.max() <= 3e-13


def test_norm_kernels_below_the_normal_range_and_on_every_shape():
    # under 1e-300, down through the subnormals, each value is within 2e-15
    # of the exact one or within the spacing of the subnormals
    x = np.linspace(-38.6, -37, 81)
    exact = np.array([float(mpmath.ncdf(mpmath.mpf(float(v)))) for v in x])
    assert np.all(np.abs(_cdf(x) - exact) <= 2e-15 * exact + 5e-324)
    z = np.linspace(-5, 5, 24).reshape(2, 3, 4)
    assert _same(_cdf(z), _cdf(z.ravel()).reshape(z.shape))
    assert _cdf(np.empty((0, 3))).shape == (0, 3)
    assert _same(_cdf([0.0, -1.0]), _cdf(np.array([0.0, -1.0])))


def _two_pass_cdf(x: np.ndarray):
    """Phi by the two Horner passes, one for P and one for Q, over the split exp."""
    from lockqual._dist import _R_DEN, _R_NUM

    def horner(coefs, t):
        out = t * coefs[-1]
        for c in coefs[-2:0:-1]:
            out += c
            out *= t
        out += coefs[0]
        return out

    x = np.asarray(x, dtype=float)
    t = np.minimum(np.abs(x).ravel(), 40.0)
    h = t + 1.5 * 2.0**48
    h -= 1.5 * 2.0**48
    split = np.exp(-0.5 * np.stack((h * h, (t - h) * (t + h))))
    q = horner(_R_NUM, t)
    q /= horner(_R_DEN, t)
    q *= split[0] * split[1]
    q = q.reshape(x.shape)
    return np.where(x > 0, 1.0 - q, q)[()]


# a grid over [-40, 40], the edge values and the subnormal tail
BITS_GRID = np.concatenate(
    [
        np.linspace(-40, 40, 80_001),
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324],
        np.linspace(-38.6, -37.4, 241),
    ]
)


def test_norm_cdf_gives_the_bits_of_the_two_pass_horner_sums():
    # on BITS_GRID and on 0-d input
    x = BITS_GRID
    want = _two_pass_cdf(x)
    assert np.any((want > 0) & (want < np.finfo(float).tiny))  # subnormal values reached
    assert _cdf(x).tobytes() == want.tobytes()
    assert norm_sf(-x).tobytes() == want.tobytes()
    for v in (0.0, -0.0, -1.5, 2.25, -38.2, np.inf, -np.inf, np.nan):
        got = _cdf(np.float64(v))
        assert type(got) is np.float64
        assert np.asarray(got).tobytes() == np.asarray(_two_pass_cdf(np.float64(v))).tobytes()


def test_normal_kernel_gives_norm_sf_bits_and_each_0d_call_its_own():
    # Phi from the fused kernel has the bits of the two-pass sums above and
    # of norm_sf on BITS_GRID, and every element of either output, Phi or
    # phi, has the bits of its own 0-d call (on every 10th point), as a
    # NumPy float
    x = BITS_GRID
    cdf, pdf = _normal(x)
    assert cdf.tobytes() == _two_pass_cdf(x).tobytes() == norm_sf(-x).tobytes()
    assert _same(_normal(-x)[1], pdf)  # phi is even, bit for bit
    ones = [_normal(np.float64(v)) for v in x[::10]]
    assert all(type(a) is np.float64 and type(b) is np.float64 for a, b in ones)
    assert np.array(ones).T.tobytes() == np.stack((cdf[::10], pdf[::10])).tobytes()


def test_normal_kernel_phi_relative_error_over_the_dense_grid():
    # phi = exp(-t^2/2) / sqrt(2 pi) from the split exp: 1e-15 from the exact
    # value wherever phi >= 1e-300 (|x| <= 37.1; measured 3.9e-16, and
    # 5.0e-16 on 200,000 points), 2e-15 from SciPy's norm.pdf on |x| <= 8 and
    # 1e-13 beyond (measured 1.9e-15 and 5.7e-14): SciPy takes exp of the
    # rounded x^2/2, which puts it 5.7e-14 from the exact value near |x| = 37
    grid = np.concatenate([np.linspace(-38.6, 38.6, 7721), np.linspace(-1e-3, 1e-3, 201), np.linspace(-6, 6, 601) + 3e-3])
    exact_all = [mpmath.npdf(mpmath.mpf(float(v))) for v in grid]
    inside = np.array([e >= 1e-300 for e in exact_all])
    x = grid[inside]
    pdf = _normal(x)[1]
    assert _exact_rel(pdf, [e for e, keep in zip(exact_all, inside) if keep]).max() <= 1e-15
    diff = _rel(pdf, scipy.stats.norm.pdf(x))
    assert diff[np.abs(x) <= 8].max() <= 2e-15
    assert diff.max() <= 1e-13


def test_cell_probs_over_row_blocks_equal_the_row_by_row_cells():
    # three blocks and one row more: p, z and phi have the bits of one call
    # per row, in the tails too (|eta| up to 40, p at its 1e-300 floor)
    rng = np.random.default_rng(11)
    n, c = 3 * _CELL_ROWS + 1, 5
    y = rng.integers(1, c + 1, size=n)
    eta = rng.normal(scale=3.0, size=n)
    eta[::97] *= 13.0
    kappa = np.array([-1.5, -0.5, 0.5, 1.5])
    p, z, phi = _cell_probs(eta, y, kappa)
    assert np.any(p == 1e-300) and np.any(phi == 0.0)
    rows = [_cell_probs(eta[i : i + 1], y[i : i + 1], kappa) for i in range(n)]
    assert p.tobytes() == np.concatenate([r[0] for r in rows]).tobytes()
    assert z.tobytes() == np.concatenate([r[1] for r in rows], axis=1).tobytes()
    assert phi.tobytes() == np.concatenate([r[2] for r in rows], axis=1).tobytes()


def test_cell_probs_memory_stays_within_a_few_row_arrays():
    # the kernel runs over blocks of _CELL_ROWS rows, so at n = 100,000 the
    # peak stays under 8 arrays of n floats (measured 6.8, of which the cells
    # returned hold 5); one pass over the whole stacked (2, n) cuts reaches
    # 24 of them, and the two passes of Phi over (n,) arrays it replaced 12
    rng = np.random.default_rng(3)
    n, c = 100_000, 5
    eta = rng.normal(size=n)
    y = rng.integers(1, c + 1, size=n)
    kappa = np.array([-1.5, -0.5, 0.5, 1.5])
    tracemalloc.start()
    try:
        _cell_probs(eta, y, kappa)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * eta.nbytes


def test_norm_ppf_relative_error_across_both_tails():
    # AS241: 2e-15 of SciPy's ndtri (measured 6.9e-16), and 2e-15 of the
    # exact quantile, found by mpmath on log Phi, on every 37th probability
    p = np.concatenate([10.0 ** -np.linspace(1, 300, 300), np.linspace(1e-3, 1 - 1e-3, 999), 1 - 10.0 ** -np.linspace(1, 15, 60)])
    got = norm_ppf(p)
    assert _rel(got, scipy.special.ndtri(p)).max() <= 2e-15
    exact = [
        mpmath.findroot(lambda t: mpmath.log(mpmath.ncdf(t)) - mpmath.log(mpmath.mpf(float(q))), float(g))
        for q, g in zip(p[::37], got[::37])
    ]
    assert _exact_rel(got[::37], exact).max() <= 2e-15


def test_expit_relative_error_where_exp_would_overflow():
    x = np.concatenate([np.linspace(-750, 750, 3001), np.linspace(-40, 40, 4001)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expit(x)
    ref = scipy.special.expit(x)
    assert _rel(got, ref)[ref > 1e-300].max() <= 1e-15
    assert np.all((got >= 0) & (got <= 1))


@pytest.mark.parametrize("df", [1, 2, 5, 19, 20, 21, 100, 496, 1000])
def test_chi2_sf_relative_error_over_the_body_and_the_tail(df):
    # 16 eps (1 + |log Q|) of the exact value (measured: 8.4), and 1e-14
    # where Q >= 1e-5 (measured: 6.1e-15); exp of a double rounds log Q
    # itself. Against SciPy's chdtrc, which reaches 49 eps (1 + |log Q|):
    # 1e-13 where Q >= 1e-5 and 1e-12 below (measured: 4.3e-14 and 6.8e-13)
    x = np.unique(np.concatenate([np.linspace(0.01, 3 * df + 60, 160), df * np.linspace(0.5, 1.5, 41), np.linspace(df, 1500, 60)]))
    exact = [mpmath.gammainc(df / 2, mpmath.mpf(float(v)) / 2, mpmath.inf, regularized=True) for v in x]
    keep = np.array([e >= 1e-300 for e in exact])
    got = np.array([chi2_sf(v, df) for v in x[keep]])
    exact = [e for e, k in zip(exact, keep) if k]
    q = np.array([float(e) for e in exact])
    err = _exact_rel(got, exact)
    assert np.all(err <= 16 * EPS * (1 - np.log(q)))
    assert err[q >= 1e-5].max() <= 1e-14
    diff = _rel(got, scipy.special.chdtrc(df, x[keep]))
    assert diff[q >= 1e-5].max() <= 1e-13
    assert diff.max() <= 1e-12


def test_bartlett_chi_square_of_the_fixture_underflows_to_zero():
    # the pinned bartlett_p of the fixture is 0.0: its chi-square on 496
    # degrees of freedom lies beyond the smallest double
    assert chi2_sf(20000.0, 496) == 0.0
    assert chi2_sf(1e300, 3) == 0.0


# `import lockqual` runs no submodule, so the import guards below import each
# one by name and so execute every module's top level
IMPORT_ALL = "import sys, " + ", ".join(
    sorted(f"lockqual.{m.name}" for m in pkgutil.iter_modules(lockqual.__path__))
)


def test_import_loads_neither_scipy_stats_nor_optimize():
    assert "lockqual.cli" in IMPORT_ALL and "lockqual.sem" in IMPORT_ALL
    src = os.path.dirname(os.path.dirname(lockqual.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        f"{IMPORT_ALL}\n"
        "print(' '.join(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""


# scipy.special and scipy.linalg load scipy's array-API shim, about 0.3 s of
# a fresh process; lockqual's own kernels stand in for both.
SCIPY_LOADED = "[m for m in ('scipy.special', 'scipy.linalg', 'scipy._lib._array_api') if m in sys.modules]"


def _python(code: str) -> str:
    src = os.path.dirname(os.path.dirname(lockqual.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_import_loads_neither_scipy_special_nor_linalg():
    out = _python(f"{IMPORT_ALL}\nprint({SCIPY_LOADED})")
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
# ordered-probit derivatives: the np.add.at implementation they replaced, with
# Phi and phi from lockqual's own kernels, whose values depend on their
# argument alone, so that the cell probabilities and sums are under test


def ref_grad_hess_raw(X, y, beta, kappa, c):
    n, k = X.shape
    eta = X @ beta
    kext = np.concatenate(([-np.inf], kappa, [np.inf]))
    z_hi = kext[y] - eta
    z_lo = kext[y - 1] - eta
    p = np.where(z_lo > 0, norm_sf(z_lo) - norm_sf(z_hi), _cdf(z_hi) - _cdf(z_lo))
    p = np.maximum(p, 1e-300)
    ll = float(np.log(p).sum())
    phi_hi = np.where(np.isfinite(z_hi), _normal(z_hi)[1], 0.0)
    phi_lo = np.where(np.isfinite(z_lo), _normal(z_lo)[1], 0.0)
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
    # the magnitudes of the beta x kappa terms, summed per cell
    hbk_abs = np.zeros((k, c - 1))
    np.add.at(hbk_abs.T, hi_idx[hi_ok], np.abs(X[hi_ok] * w_eh[hi_ok, None]))
    np.add.at(hbk_abs.T, lo_idx[lo_ok], np.abs(X[lo_ok] * w_el[lo_ok, None]))
    hess[:k, k:] = hbk
    hess[k:, :k] = hbk.T
    hkk = np.zeros((c - 1, c - 1))
    np.add.at(hkk, (hi_idx[hi_ok], hi_idx[hi_ok]), w_hh[hi_ok])
    np.add.at(hkk, (lo_idx[lo_ok], lo_idx[lo_ok]), w_ll[lo_ok])
    both = hi_ok & lo_ok
    np.add.at(hkk, (hi_idx[both], lo_idx[both]), w_hl[both])
    np.add.at(hkk, (lo_idx[both], hi_idx[both]), w_hl[both])
    hess[k:, k:] = hkk
    return ll, grad, hess, hbk_abs


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
    n, k = X.shape
    with np.errstate(all="ignore"):
        ll, grad, hess = _grad_hess_raw(X, y, beta, kappa, c)
        ref_ll, ref_grad, ref_hess, hbk_abs = ref_grad_hess_raw(X, y, beta, kappa, c)
    assert _same(ll, ref_ll)
    assert _same(grad, ref_grad)
    assert _same(hess[:k, :k], ref_hess[:k, :k])
    assert _same(hess[k:, k:], ref_hess[k:, k:])
    assert _same(hess[k:, :k], hess[:k, k:].T)
    got, want = hess[:k, k:], ref_hess[:k, k:]
    finite = np.isfinite(want)
    assert _same(got[~finite], want[~finite])
    u = EPS / 2
    gamma = 2 * n * u / (1 - 2 * n * u)
    assert np.all(np.abs(got[finite] - want[finite]) <= gamma * hbk_abs[finite])


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
