"""The SEM fit's kernels against the constructions they replaced.

`sem._information` sums the expected information of F_ML in closed form
from the rank-2 derivatives of Sigma. The oracle below builds it the
long way: one p x p derivative matrix per parameter, premultiplied by
Sigma^-1, and every trace tr(K D_s K D_t) by one contraction. The two
must agree to 1e-12 of sqrt(I_ss I_tt), on random models and on the
fixture's two fits.

`sem._make_objective`'s gradient reuses what the objective computed
last when both see the same vector. The oracle closure below is the
objective and gradient that compute everything per call; every float
of both must be the same bits, whatever the order of the calls, and
BFGS must take the same steps on the fixture.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from lockqual import pipeline
from lockqual.catalog import DEFAULT_CATALOG
from lockqual.dataset import load_survey, split
from lockqual.optimize import minimize_qn
from lockqual.sem import (
    MeasurementModel,
    _information,
    _make_objective,
    _ParamMap,
    fit_ml,
    implied_sigma,
)

SURVEY = str(Path(__file__).resolve().parent.parent / "data" / "fixture_survey.csv")


@pytest.fixture(scope="module")
def fixture_fits():
    """(model, S, n) of the report's measurement and structural fits on the fixture."""
    data = load_survey(SURVEY, DEFAULT_CATALOG)
    cfg = pipeline.PipelineConfig(survey_path=SURVEY, out_dir="")
    train = split(data, round(0.6 * data.n), cfg.seed)
    warnings: list[str] = []
    _, assignment, labels = pipeline.efa_section(data, DEFAULT_CATALOG, cfg.gates, warnings, train)
    out = []
    for model in pipeline.synthesize_models(assignment, labels, warnings):
        m = data.moments(model.observed, train)
        out.append((model, m.cov(), m.n))
    return out


def _oracle_information(pmap, lam, beta, psi, theta):
    """tr(K D_s K D_t) from a stack of the q matrices K D_t."""
    p, m, q = pmap.p, pmap.m, pmap.q
    a = np.linalg.inv(np.eye(m) - beta)
    c = a @ psi @ a.T
    sig = lam @ c @ lam.T + np.diag(theta)
    sig_inv = np.linalg.inv(0.5 * (sig + sig.T))
    mm = lam @ a
    lam_c = lam @ c
    ks = np.empty((q, p, p))
    t = 0
    for i, j in zip(pmap.load_rows, pmap.load_cols):
        d = np.zeros((p, p))
        d[i, :] += lam_c[:, j]
        d[:, i] += lam_c[:, j]
        ks[t] = sig_inv @ d
        t += 1
    for k, l in zip(pmap.path_dst, pmap.path_src):
        d = np.outer(mm[:, k], lam_c[:, l])
        ks[t] = sig_inv @ (d + d.T)
        t += 1
    for aa, bb in zip(pmap.cov_a, pmap.cov_b):
        d = np.outer(mm[:, aa], mm[:, bb])
        ks[t] = sig_inv @ (d + d.T)
        t += 1
    for j in range(m):
        ks[t] = sig_inv @ np.outer(mm[:, j], mm[:, j])
        t += 1
    for i in range(p):
        d = np.zeros((p, p))
        d[i, i] = 1.0
        ks[t] = sig_inv @ d
        t += 1
    return np.einsum("aij,bji->ab", ks, ks)


def _scaled_gap(got: np.ndarray, want: np.ndarray) -> float:
    """max |got - want| / sqrt(want_ss want_tt): the error in units of the entry's scale."""
    d = np.sqrt(np.diag(want))
    return float(np.max(np.abs(got - want) / np.outer(d, d)))


def _random_model(rng) -> MeasurementModel:
    """2-4 latents of 3-4 indicators, forward paths, and covariances among the exogenous ones."""
    m = int(rng.integers(2, 5))
    names = tuple(f"f{j}" for j in range(m))
    items = iter(range(1, 100))
    indicators = {name: tuple(next(items) for _ in range(int(rng.integers(3, 5)))) for name in names}
    paths = tuple(
        (names[s], names[d]) for d in range(1, m) for s in range(d) if rng.random() < 0.4
    )
    endo = {d for _, d in paths}
    exo = [name for name in names if name not in endo]
    covs = tuple((a, b) for i, a in enumerate(exo) for b in exo[i + 1 :] if rng.random() < 0.7)
    return MeasurementModel(names, indicators, paths, covs)


def _random_point(pmap, rng) -> np.ndarray:
    vec = np.empty(pmap.q)
    k = 0
    vec[k : k + pmap.n_load] = rng.uniform(0.5, 1.5, pmap.n_load)
    k += pmap.n_load
    vec[k : k + pmap.n_path] = rng.uniform(-0.6, 0.6, pmap.n_path)
    k += pmap.n_path
    # variances from 0.5 and at most three exogenous latents: Psi stays
    # diagonally dominant with covariances below 0.2
    vec[k : k + pmap.n_cov] = rng.uniform(-0.2, 0.2, pmap.n_cov)
    k += pmap.n_cov
    vec[k:] = np.log(rng.uniform(0.5, 1.5, pmap.q - k))
    return vec


def test_information_matches_the_derivative_stack_on_random_models():
    rng = np.random.default_rng(14)
    kinds = set()
    for _ in range(40):
        model = _random_model(rng)
        pmap = _ParamMap(model)
        kinds.add((pmap.n_path > 0, pmap.n_cov > 0))
        parts = pmap.unpack(_random_point(pmap, rng))
        assert _scaled_gap(_information(pmap, *parts), _oracle_information(pmap, *parts)) <= 1e-12
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def _cell_of_name(model: MeasurementModel, name: str) -> tuple[str, tuple[int, ...]]:
    """The matrix and index a lavaan-syntax parameter name denotes, read from the model."""
    obs = {item: i for i, item in enumerate(model.observed)}
    lat = {x: j for j, x in enumerate(model.latents)}
    if "=~" in name:
        latent, item = name.split("=~")
        return "lam", (obs[int(item[1:])], lat[latent])
    if "~~" in name:
        a, b = name.split("~~")
        if a.startswith("q"):
            return "theta", (obs[int(a[1:])],)
        return "psi", (lat[a], lat[b])
    dst, src = name.split("~")
    return "beta", (lat[dst], lat[src])


def test_scatter_gather_names_and_param_table_agree_on_random_models():
    rng = np.random.default_rng(29)
    kinds = set()
    for _ in range(40):
        model = _random_model(rng)
        pmap = _ParamMap(model)
        kinds.add((pmap.n_path > 0, pmap.n_cov > 0))
        v = rng.standard_normal(pmap.q)
        assert _bits(pmap.gather(*pmap.scatter(v, math.nan))) == _bits(v)
        # a sample covariance the model reproduces exactly, so the fit converges
        S = implied_sigma(*pmap.unpack(_random_point(pmap, rng)))
        est = fit_ml(model, S, 400)
        assert est.converged
        rows = est.param_table()
        order = ["loading", "path", "covariance", "variance", "residual"]
        assert [row["kind"] for row in rows] == sorted((row["kind"] for row in rows), key=order.index)
        assert [sum(row["kind"] == kind for row in rows) for kind in order] == [
            pmap.p, pmap.n_path, pmap.n_cov, pmap.m, pmap.p
        ]
        markers = [row for row in rows if row["fixed"]]
        assert [(row["lhs"], row["rhs"]) for row in markers] == [(x, model.marker_of(x)) for x in model.latents]
        assert all(row["kind"] == "loading" and row["est"] == 1.0 and row["se"] is None for row in markers)
        free = [row for row in rows if not row["fixed"]]
        assert len(free) == pmap.q
        for row, name in zip(free, pmap.names()):
            matrix, index = _cell_of_name(model, name)
            assert row["est"] == getattr(est, matrix)[index]
            assert row["se"] == getattr(est, "se_" + matrix)[index]
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def test_information_and_standard_errors_match_on_the_fixture_fits(fixture_fits):
    for model, S, n in fixture_fits:
        est = fit_ml(model, S, n)
        pmap = _ParamMap(model)
        parts = (est.lam, est.beta, est.psi, est.theta)
        want = _oracle_information(pmap, *parts)
        assert _scaled_gap(_information(pmap, *parts), want) <= 1e-12
        se = np.sqrt(np.diag((2.0 / (n - 1)) * np.linalg.inv(want)))
        got = np.concatenate(
            [
                est.se_lam[pmap.load_rows, pmap.load_cols],
                est.se_beta[pmap.path_dst, pmap.path_src],
                est.se_psi[pmap.cov_a, pmap.cov_b],
                np.diag(est.se_psi),
                est.se_theta,
            ]
        )
        assert np.max(np.abs(got - se) / se) <= 1e-12


def test_information_at_a_heywood_boundary():
    # exact-fit communality of item 1 would be 1.28, so the fit drives its
    # residual variance toward 0, where K = Sigma^-1 grows as 1 / theta_1
    S = np.array([[1.0, 0.8, 0.8], [0.8, 1.0, 0.5], [0.8, 0.5, 1.0]])
    model = MeasurementModel(("g",), {"g": (1, 2, 3)})
    est = fit_ml(model, S, n=200)
    assert est.heywood == (1,)
    pmap = _ParamMap(model)
    for theta_1 in (est.theta[0], 1e-6, 1e-9):
        theta = est.theta.copy()
        theta[0] = theta_1
        parts = (est.lam, est.beta, est.psi, theta)
        want = _oracle_information(pmap, *parts)
        assert _scaled_gap(_information(pmap, *parts), want) <= 1e-12


def _oracle_objective(pmap, S):
    """F_ML and its gradient, each computing Sigma and its factors afresh."""
    p = pmap.p
    _, logdet_s = np.linalg.slogdet(S)

    def fun(vec):
        lam, beta, psi, theta = pmap.unpack(vec)
        m = lam.shape[1]
        try:
            a = np.linalg.inv(np.eye(m) - beta)
        except np.linalg.LinAlgError:
            return math.inf
        c = a @ psi @ a.T
        sig = lam @ c @ lam.T + np.diag(theta)
        sig = 0.5 * (sig + sig.T)
        if not np.all(np.isfinite(sig)):
            return math.inf
        try:
            low = np.linalg.cholesky(sig)
        except np.linalg.LinAlgError:
            return math.inf
        diag = low.diagonal()
        if diag.min() <= 1e-8 * diag.max():
            return math.inf
        logdet = 2.0 * float(np.sum(np.log(diag)))
        tr = float(np.trace(np.linalg.solve(sig, S)))
        f = logdet + tr - logdet_s - p
        if f < -1e-10:
            return math.inf
        return float(f)

    def grad(vec):
        lam, beta, psi, theta = pmap.unpack(vec)
        m = pmap.m
        a = np.linalg.inv(np.eye(m) - beta)
        c = a @ psi @ a.T
        sig = lam @ c @ lam.T + np.diag(theta)
        sig_inv = np.linalg.inv(0.5 * (sig + sig.T))
        w = sig_inv - sig_inv @ S @ sig_inv
        w = 0.5 * (w + w.T)
        lam_c = lam @ c
        g_lam = 2.0 * (w @ lam_c)
        mm = lam @ a
        mtw = mm.T @ w
        g_beta = 2.0 * (mtw @ lam_c)
        g_psi = mtw @ mm
        out = np.empty(pmap.q)
        k = 0
        out[k : k + pmap.n_load] = g_lam[pmap.load_rows, pmap.load_cols]
        k += pmap.n_load
        out[k : k + pmap.n_path] = g_beta[pmap.path_dst, pmap.path_src]
        k += pmap.n_path
        out[k : k + pmap.n_cov] = 2.0 * g_psi[pmap.cov_a, pmap.cov_b]
        k += pmap.n_cov
        out[k : k + m] = np.diag(g_psi) * np.diag(psi)
        k += m
        out[k : k + p] = np.diag(w) * theta
        return out

    return fun, grad


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def test_gradient_gives_the_same_bits_whatever_the_objective_saw(fixture_fits):
    model, S, _ = fixture_fits[1]
    pmap = _ParamMap(model)
    ref_fun, ref_grad = _oracle_objective(pmap, S)
    rng = np.random.default_rng(5)
    start = pmap.pack_start(S)
    a = start + rng.uniform(-0.2, 0.2, pmap.q)
    b = start + rng.uniform(-0.2, 0.2, pmap.q)
    fun, grad = _make_objective(pmap, S)
    assert _bits(grad(a)) == _bits(ref_grad(a))  # before any objective call
    assert _bits(fun(b)) == _bits(ref_fun(b))
    assert _bits(grad(a)) == _bits(ref_grad(a))  # after the objective at another vector
    assert _bits(fun(a)) == _bits(ref_fun(a))
    assert _bits(grad(a.copy())) == _bits(ref_grad(a))  # an equal copy
    v = b.copy()
    assert _bits(fun(v)) == _bits(ref_fun(b))
    v[0] += 0.1  # the vector the objective saw, changed in place
    assert _bits(grad(v)) == _bits(ref_grad(v))
    # central differences, as tests/test_acceptance.py takes them
    for t in range(pmap.q):
        e = np.zeros(pmap.q)
        e[t] = 1e-6
        for x in (a + e, a - e):
            assert _bits(fun(x)) == _bits(ref_fun(x))
        assert _bits(grad(a)) == _bits(ref_grad(a))


def test_bfgs_takes_the_same_steps_on_the_fixture(fixture_fits):
    iters = []
    for model, S, n in fixture_fits:
        pmap = _ParamMap(model)
        est = fit_ml(model, S, n)
        ref = minimize_qn(*_oracle_objective(pmap, S), pmap.pack_start(S), gtol=1e-6, max_iter=500)
        assert est.n_iter == ref.n_iter and est.converged and ref.converged
        for got, want in zip((est.lam, est.beta, est.psi, est.theta), pmap.unpack(ref.x)):
            assert np.array_equal(got, want)
        assert _bits(est.f_min) == _bits(ref.fun)
        assert _bits(est.grad_max) == _bits(np.max(np.abs(ref.grad)))
        iters.append(est.n_iter)
    assert iters == [42, 49]
