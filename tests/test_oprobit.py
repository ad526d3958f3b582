"""Ordered probit estimation, derivatives, reduction, questionnaire output."""
from __future__ import annotations

import csv
import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lockqual import cli, oprobit, synth
from lockqual.oprobit import (
    EliminationResult,
    _grad_hess_raw,
    _kappa_of,
    _ll,
    _softplus_inv,
    _BLOCK_ROWS,
    backward_eliminate,
    fit,
    null_fit,
)
from lockqual.catalog import DEFAULT_CATALOG, DISPLAY_NAMES, SATI_AFTER
from lockqual.dataset import load_survey
from lockqual.moments import Moments
from lockqual.pipeline import GateThresholds, PipelineConfig, probit_section, run_pipeline, write_questionnaire


def _simulate(n, beta, kappa, seed):
    rng = np.random.default_rng(seed)
    k = len(beta)
    X = rng.normal(size=(n, k))
    ystar = X @ np.asarray(beta) + rng.normal(size=n)
    kext = np.concatenate(([-np.inf], kappa, [np.inf]))
    y = np.searchsorted(kext, ystar, side="left")
    return X, y


def test_null_fit_frozen_loglik():
    y = np.array([1] * 10 + [2] * 20 + [3] * 70)
    out = null_fit(y)
    expect = 10 * math.log(0.1) + 20 * math.log(0.2) + 70 * math.log(0.7)
    assert out.loglik == pytest.approx(expect, rel=1e-12)
    assert out.loglik == pytest.approx(-80.1818551, abs=1e-6)


def test_null_fit_cutpoints_are_share_quantiles():
    y = np.array([1] * 20 + [2] * 30 + [3] * 50)
    out = null_fit(y)
    assert out.kappa[0] == pytest.approx(scipy.stats.norm.ppf(0.2), rel=1e-12)
    assert out.kappa[0] == pytest.approx(-0.8416212, abs=1e-6)
    assert out.kappa[1] == pytest.approx(0.0, abs=1e-12)


def test_null_fit_guards():
    with pytest.raises(ValueError):
        null_fit(np.array([1, 2, 1, 2]))  # only 2 categories
    with pytest.raises(ValueError):
        null_fit(np.array([1, 3, 1, 3]))  # category 2 unobserved
    with pytest.raises(ValueError):
        null_fit(np.array([0, 1, 2]))


def test_softplus_cutpoint_round_trip():
    kappa = np.array([-1.2, -0.3, 0.4, 1.7])
    a = np.empty(4)
    a[0] = kappa[0]
    a[1:] = _softplus_inv(np.diff(kappa))
    assert np.allclose(_kappa_of(a), kappa, atol=1e-12)


def test_gradient_matches_finite_differences():
    beta = np.array([0.6, -0.4])
    kappa = np.array([-0.9, 0.1, 1.0])
    X, y = _simulate(80, beta, kappa, seed=3)
    c = 4
    b0 = np.array([0.3, -0.2])
    k0 = np.array([-0.7, 0.2, 0.9])
    ll, grad, _ = _grad_hess_raw(X, y, b0, k0, c)
    assert ll == pytest.approx(_ll(X @ b0, y, k0, c), rel=1e-12)

    def f(vec):
        return _ll(X @ vec[:2], y, vec[2:], c)

    x0 = np.concatenate([b0, k0])
    h = 1e-6
    for t in range(5):
        e = np.zeros(5)
        e[t] = h
        fd = (f(x0 + e) - f(x0 - e)) / (2 * h)
        assert grad[t] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_hessian_matches_finite_differences_of_gradient():
    beta = np.array([0.5])
    kappa = np.array([-0.8, 0.6])
    X, y = _simulate(60, beta, kappa, seed=9)
    c = 3
    b0 = np.array([0.35])
    k0 = np.array([-0.6, 0.5])
    _, _, hess = _grad_hess_raw(X, y, b0, k0, c)

    def g(vec):
        _, grad, _ = _grad_hess_raw(X, y, vec[:1], vec[1:], c)
        return grad

    x0 = np.concatenate([b0, k0])
    h = 1e-6
    for t in range(3):
        e = np.zeros(3)
        e[t] = h
        fd_col = (g(x0 + e) - g(x0 - e)) / (2 * h)
        assert np.allclose(hess[:, t], fd_col, rtol=1e-4, atol=1e-6)
    assert np.allclose(hess, hess.T, atol=1e-10)


def test_fit_agrees_with_derivative_free_optimizer():
    # same likelihood maximized by a completely different route:
    # Nelder-Mead over (beta, kappa_1, log gap), probabilities written
    # directly as differences of normal CDFs
    beta_true = np.array([0.8])
    kappa_true = np.array([-0.5, 0.7])
    X, y = _simulate(400, beta_true, kappa_true, seed=17)
    m = fit(X, y)
    assert m.converged

    norm = scipy.stats.norm

    def nll(params):
        b, k1, loggap = params
        kappa = np.array([k1, k1 + math.exp(loggap)])
        kext = np.concatenate(([-np.inf], kappa, [np.inf]))
        eta = X[:, 0] * b
        p = norm.cdf(kext[y] - eta) - norm.cdf(kext[y - 1] - eta)
        if np.any(p <= 0):
            return np.inf
        return -np.log(p).sum()

    start = np.array([beta_true[0], kappa_true[0], math.log(kappa_true[1] - kappa_true[0])])
    res = scipy.optimize.minimize(
        nll, start, method="Nelder-Mead", options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 5000}
    )
    assert m.loglik == pytest.approx(-res.fun, abs=1e-6)
    assert m.beta[0] == pytest.approx(res.x[0], abs=1e-4)
    assert m.kappa[0] == pytest.approx(res.x[1], abs=1e-4)
    assert m.kappa[1] == pytest.approx(res.x[1] + math.exp(res.x[2]), abs=1e-4)


def test_location_shift_absorbed_by_cutpoints():
    beta_true = np.array([0.7, -0.5])
    kappa_true = np.array([-0.6, 0.4])
    X, y = _simulate(500, beta_true, kappa_true, seed=21)
    m1 = fit(X, y)
    shift = np.array([2.0, -3.0])
    m2 = fit(X + shift, y)
    assert m1.converged and m2.converged
    assert np.allclose(m1.beta, m2.beta, atol=1e-6)
    assert np.allclose(m2.kappa, m1.kappa + shift @ m1.beta, atol=1e-6)
    assert m1.loglik == pytest.approx(m2.loglik, abs=1e-8)


def test_fit_recovers_truth_and_fit_statistics():
    beta_true = np.array([0.9, 0.0, -0.6])
    kappa_true = np.array([-1.0, 0.0, 1.0])
    X, y = _simulate(3000, beta_true, kappa_true, seed=5)
    m = fit(X, y, names=("a", "b", "c"))
    assert m.converged
    assert 0.0 <= m.grad_max < 1e-8  # the default gtol
    assert np.all(np.abs(m.beta - beta_true) < 0.08)
    assert np.all(np.abs(m.kappa - kappa_true) < 0.08)
    assert m.loglik >= m.loglik_null
    assert 0.0 < m.pseudo_r2 < 1.0
    assert m.pseudo_r2 == pytest.approx(1.0 - m.loglik / m.loglik_null, rel=1e-12)
    assert m.lr_chi2 == pytest.approx(2 * (m.loglik - m.loglik_null), rel=1e-12)
    assert m.lr_df == 3
    assert m.lr_p < 1e-10
    # the zero coefficient should not look significant
    assert m.p[1] > 0.01
    rows = m.coef_table()
    assert [r["name"] for r in rows] == ["a", "b", "c"]
    for r in rows:
        assert 0.0 <= r["p"] <= 1.0


def test_grad_max_is_the_gradient_at_the_returned_estimate():
    # stopped by max_iter after an accepted step, with no iteration at all,
    # and converged: grad_max is max|gradient| in the softplus-gap space at
    # the returned (beta, kappa), whose gaps are recovered here to rounding
    X, y = _simulate(600, [0.9, 0.0, -0.6], [-1.0, 0.0, 1.0], seed=8)
    c = int(y.max())
    for max_iter in (0, 1, 2, 200):
        m = fit(X, y, max_iter=max_iter)
        assert m.converged == (max_iter == 200)
        a = np.concatenate(([m.kappa[0]], _softplus_inv(np.diff(m.kappa))))
        _, g_raw, h_raw = _grad_hess_raw(X, y.astype(int), m.beta, _kappa_of(a), c)
        g = oprobit._transform_grad_hess(a, g_raw, h_raw, m.beta.size, c)[0]
        if m.converged:
            assert m.grad_max < 1e-8 and np.max(np.abs(g)) < 1e-6
        else:
            assert m.grad_max > 1e-3
            assert m.grad_max == pytest.approx(float(np.max(np.abs(g))), rel=1e-9)


def test_standard_errors_match_numeric_information():
    beta_true = np.array([0.8])
    kappa_true = np.array([-0.5, 0.7])
    X, y = _simulate(600, beta_true, kappa_true, seed=13)
    m = fit(X, y)
    x0 = np.concatenate([m.beta, m.kappa])

    def f(vec):
        return _ll(X @ vec[:1], y, vec[1:], 3)

    q = 3
    h = 1e-4
    hess = np.empty((q, q))
    for i in range(q):
        for j in range(q):
            ei = np.zeros(q)
            ej = np.zeros(q)
            ei[i] = h
            ej[j] = h
            hess[i, j] = (f(x0 + ei + ej) - f(x0 + ei - ej) - f(x0 - ei + ej) + f(x0 - ei - ej)) / (4 * h * h)
    se_fd = np.sqrt(np.diag(np.linalg.inv(-0.5 * (hess + hess.T))))
    assert m.se[0] == pytest.approx(se_fd[0], rel=1e-3)
    assert np.allclose(m.kappa_se, se_fd[1:], rtol=1e-3)


def test_input_validation():
    X = np.random.default_rng(0).normal(size=(50, 2))
    y_ok = np.array(([1] * 17 + [2] * 17 + [3] * 16))
    with pytest.raises(ValueError, match="2-dimensional"):
        fit(X[:, 0], y_ok)
    with pytest.raises(ValueError, match="integer"):
        fit(X, y_ok + 0.5)
    with pytest.raises(ValueError, match="start at 1"):
        fit(X, y_ok - 1)
    with pytest.raises(ValueError, match="3 response categories"):
        fit(X, np.array([1, 2] * 25))
    with pytest.raises(ValueError, match="unobserved"):
        yy = y_ok.copy()
        yy[yy == 2] = 3
        yy[0] = 4
        fit(X, yy)
    with pytest.raises(ValueError, match="collinear"):
        fit(np.column_stack([X[:, 0], 2 * X[:, 0]]), y_ok)
    with pytest.raises(ValueError, match="names"):
        fit(X, y_ok, names=("only_one",))
    with pytest.raises(ValueError, match="too few"):
        fit(X[:4], y_ok[:4] if len(set(y_ok[:4])) == 3 else np.array([1, 2, 3, 1]))
    # backward_eliminate and null_fit refuse each bad y with fit's message
    gap = y_ok.copy()
    gap[gap == 2] = 3
    gap[0] = 4
    bad_y = {
        "integer category codes": y_ok + 0.5,
        "categories must start at 1": y_ok - 1,
        "need at least 3 response categories": np.array([1, 2] * 25),
        r"unobserved categories: \[2\]": gap,
    }
    entries = {
        "fit": lambda x, y: fit(x, y),
        "backward_eliminate": lambda x, y: backward_eliminate(x, y, ("a", "b")[: x.shape[-1]]),
        "null_fit": lambda x, y: null_fit(y),
    }
    for match, y in bad_y.items():
        messages = set()
        for entry in entries.values():
            with pytest.raises(ValueError, match=match) as info:
                entry(X, y)
            messages.add(str(info.value))
        assert len(messages) == 1, messages
    # and backward_eliminate refuses a bad X, or names of the wrong length, as fit does
    for x, match in ((X[:, 0], "2-dimensional"), (np.column_stack([X[:, 0], 2 * X[:, 0]]), "collinear")):
        with pytest.raises(ValueError, match=match):
            entries["backward_eliminate"](x, y_ok)
    with pytest.raises(ValueError, match="names must match the number of predictors"):
        backward_eliminate(X, y_ok, ("only_one",))


def test_perfect_separation_flagged_not_crashed():
    x = np.linspace(-3, 3, 90)[:, None]
    y = np.where(x[:, 0] < -1, 1, np.where(x[:, 0] < 1, 2, 3))
    m = fit(x, y, max_iter=80)
    assert not m.converged
    assert any("separation" in w for w in m.warnings)
    with pytest.raises(ValueError, match="did not converge"):
        backward_eliminate(x, y, ("x1",))


def test_backward_elimination_keeps_signal_drops_noise():
    rng = np.random.default_rng(41)
    n = 600
    X = rng.normal(size=(n, 6))
    beta_true = np.array([0.9, 0.7, 0.0, 0.0, 0.0, 0.0])
    ystar = X @ beta_true + rng.normal(size=n)
    y = np.searchsorted(np.array([-0.8, 0.0, 0.8]), ystar, side="left") + 1
    names = tuple(f"v{i}" for i in range(1, 7))
    out = backward_eliminate(X, y, names, alpha=0.01)
    assert isinstance(out, EliminationResult)
    assert out.final is not None
    assert {"v1", "v2"} <= set(out.survivors)
    assert len(out.survivors) <= 3
    # one drop per step, each with the then-worst p-value at or above alpha
    assert len(out.steps) == 6 - len(out.survivors)
    for s in out.steps:
        assert s.p_value >= 0.01
    assert np.all(out.final.p < 0.01)
    # dropped names and survivors partition the original set
    dropped = {s.dropped for s in out.steps}
    assert dropped | set(out.survivors) == set(names)


def test_backward_elimination_single_pass_mode():
    rng = np.random.default_rng(41)
    n = 600
    X = rng.normal(size=(n, 6))
    beta_true = np.array([0.9, 0.7, 0.0, 0.0, 0.0, 0.0])
    ystar = X @ beta_true + rng.normal(size=n)
    y = np.searchsorted(np.array([-0.8, 0.0, 0.8]), ystar, side="left") + 1
    names = tuple(f"v{i}" for i in range(1, 7))
    out = backward_eliminate(X, y, names, alpha=0.01, single_pass=True)
    assert out.final is not None
    assert {"v1", "v2"} <= set(out.survivors)
    # the first sweep removes every failing predictor at once
    first_round_names = {s.dropped for s in out.steps[: 6 - len(out.survivors)]}
    assert first_round_names.isdisjoint({"v1", "v2"})


def test_backward_elimination_can_empty_out():
    rng = np.random.default_rng(7)
    n = 300
    X = rng.normal(size=(n, 2))
    y = rng.integers(1, 4, size=n)  # no relation at all
    out = backward_eliminate(X, y, ("a", "b"), alpha=1e-6)
    assert out.final is None
    assert out.survivors == ()
    assert any("cutpoints-only" in w for w in out.warnings)


def test_questionnaire_grouping_and_numbering():
    # the probit document files each survivor under its item's construct, by
    # display name, the constructs in the order they first appear among the
    # survivors, and numbers the rows from 1
    data = load_survey(str(Path(__file__).resolve().parent.parent / "data" / "fixture_survey.csv"))
    constructs = {i: "safe_security" if i % 2 else "staff_skills" for i in DEFAULT_CATALOG.indices}
    doc = probit_section(data, constructs, DEFAULT_CATALOG, GateThresholds(), False, [])
    item_of = {DEFAULT_CATALOG.abbreviation_of(i): i for i in DEFAULT_CATALOG.indices}
    survivors = doc["survivors"]
    first = constructs[item_of[survivors[0]]]
    grouped = sorted(survivors, key=lambda name: constructs[item_of[name]] != first)
    assert grouped != list(survivors)  # the survivors interleave the two constructs
    rows = doc["questionnaire"]
    assert [r["abbreviation"] for r in rows] == grouped
    assert [r["question_number"] for r in rows] == list(range(1, len(rows) + 1))
    assert [r["construct"] for r in rows] == [DISPLAY_NAMES[constructs[item_of[name]]] for name in grouped]
    assert [r["description"] for r in rows] == [f"survey item {item_of[name]}" for name in grouped]


def test_questionnaire_csv(tmp_path):
    path = tmp_path / "q.csv"
    write_questionnaire(
        [{"construct": "A", "question_number": 1, "description": "d", "abbreviation": "ab"}], str(path)
    )
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["construct", "question_number", "description", "abbreviation"]
    assert rows[1] == ["A", "1", "d", "ab"]


def test_fits_that_reach_gtol_keep_their_iteration_counts(monkeypatch, capsys):
    # `lockqual probit` on the fixture: every fit lands below gtol within a
    # few Newton steps, the 25-item refit too, although its last steps reach
    # the noise floor of the log-likelihood sum. The elimination warm-starts
    # its refits; refit each design it fits without `start` to pin the cold
    # counts, and pin the warm ones too.
    cold, warm = [], []

    def recording_fit(X, y, names=None, start=None, **kwargs):
        model = fit(X, y, names, start=start, **kwargs)
        warm.append(model.n_iter)
        cold.append(fit(X, y, names, **kwargs).n_iter)
        return model

    monkeypatch.setattr("lockqual.oprobit.fit", recording_fit)
    survey = str(Path(__file__).resolve().parent.parent / "data" / "fixture_survey.csv")
    assert cli.main(["probit", "--input", survey]) == 0
    capsys.readouterr()
    assert cold == [6] * 24
    assert warm == [6, 2, 2, 2] + [3] * 20


def test_single_pass_refit_at_the_noise_floor_reaches_the_optimum(monkeypatch, capsys):
    # `lockqual probit --single-pass` on the fixture: the warm refit of the 5
    # survivors reaches the noise floor, where every Newton step rounds the
    # log-likelihood down. It must still land on the optimum, as a cold fit
    # polished to gtol=1e-13 finds it, and not stop where it first met the floor.
    calls = []

    def recording_fit(X, y, names=None, **kwargs):
        model = fit(X, y, names, **kwargs)
        calls.append((X, y, names, model))
        return model

    monkeypatch.setattr("lockqual.oprobit.fit", recording_fit)
    survey = str(Path(__file__).resolve().parent.parent / "data" / "fixture_survey.csv")
    assert cli.main(["probit", "--input", survey, "--single-pass"]) == 0
    capsys.readouterr()
    X, y, names, final = calls[-1]
    assert final.converged and final.n_iter <= 6
    polished = fit(X, y, names, gtol=1e-13)
    assert polished.converged
    assert np.allclose(final.beta, polished.beta, rtol=1e-12, atol=0)
    assert np.allclose(final.p, polished.p, rtol=1e-12, atol=0)


def test_report_elimination_refits_through_the_module_level_fit(monkeypatch, tmp_path):
    # perfbench's oprobit.fit_calls and oprobit.fit_iters count the calls made
    # through lockqual.oprobit.fit: every refit must go through it
    fits = []

    def recording_fit(*args, **kwargs):
        model = fit(*args, **kwargs)
        fits.append(model)
        return model

    monkeypatch.setattr("lockqual.oprobit.fit", recording_fit)
    data = Path(__file__).resolve().parent.parent / "data"
    cfg = PipelineConfig(
        survey_path=str(data / "fixture_survey.csv"),
        judgments_path=str(data / "fixture_judgments.csv"),
        out_dir=str(tmp_path),
    )
    run_pipeline(cfg)
    assert len(fits) == 22
    assert all(m.converged for m in fits)
    assert sum(m.n_iter for m in fits) <= 100


@pytest.mark.parametrize("n, seed", [(150, 0), (200, 1), (300, 2), (300, 3)])
def test_warm_started_elimination_matches_cold_refits(monkeypatch, n, seed):
    # the questionnaire reduction of `lockqual probit`: the post-trip rating
    # against the 32 rated items of a synthetic survey
    survey = synth.gen_sem_survey(synth.default_sem_truth(n=n, seed=seed))
    items = list(range(1, SATI_AFTER))
    _, X = survey.matrix(items)
    y = survey.column(SATI_AFTER).astype(int)
    names = tuple(f"q{i}" for i in items)
    warm = backward_eliminate(X, y, names)
    monkeypatch.setattr("lockqual.oprobit.fit", lambda *a, start=None, **kw: fit(*a, **kw))
    cold = backward_eliminate(X, y, names)
    assert warm.survivors == cold.survivors
    assert [s.dropped for s in warm.steps] == [s.dropped for s in cold.steps]
    assert np.allclose([s.p_value for s in warm.steps], [s.p_value for s in cold.steps], rtol=1e-8, atol=0)
    assert warm.final is not None and cold.final is not None
    for attr in ("beta", "se", "p", "kappa"):
        assert np.allclose(getattr(warm.final, attr), getattr(cold.final, attr), rtol=1e-8, atol=0), attr


@pytest.mark.parametrize("n, seed", [(150, 0), (300, 2)])
def test_carried_cell_probabilities_change_no_bit_of_the_fits(monkeypatch, n, seed):
    # fit() hands the cell probabilities of the point its line search accepted
    # to the next derivative evaluation, which computed them again before
    survey = synth.gen_sem_survey(synth.default_sem_truth(n=n, seed=seed))
    items = list(range(1, SATI_AFTER))
    _, X = survey.matrix(items)
    y = survey.column(SATI_AFTER).astype(int)
    names = tuple(f"q{i}" for i in items)
    calls = []
    cell_probs = oprobit._cell_probs

    def counting_cell_probs(*args):
        calls.append(1)
        return cell_probs(*args)

    def recomputing_grad_hess_raw(X, y, beta, kappa, c, design=None, cells=None):
        return _grad_hess_raw(X, y, beta, kappa, c, design)

    monkeypatch.setattr("lockqual.oprobit._cell_probs", counting_cell_probs)
    carried = backward_eliminate(X, y, names)
    n_carried = len(calls)
    calls.clear()
    monkeypatch.setattr("lockqual.oprobit._grad_hess_raw", recomputing_grad_hess_raw)
    recomputed = backward_eliminate(X, y, names)
    assert n_carried < len(calls)
    assert carried.survivors == recomputed.survivors
    assert [(s.dropped, s.p_value) for s in carried.steps] == [(s.dropped, s.p_value) for s in recomputed.steps]
    for a, b in ((carried.initial, recomputed.initial), (carried.final, recomputed.final)):
        assert (a.n_iter, a.loglik, a.converged) == (b.n_iter, b.loglik, b.converged)
        for attr in ("beta", "se", "p", "kappa", "cov"):
            assert np.array_equal(getattr(a, attr), getattr(b, attr), equal_nan=True), attr


def _codes(n, k, seed, beta_scale=0.5):
    """int8 ratings 1..5 in k columns, and a 4-category response on a weighted sum of them."""
    rng = np.random.default_rng(seed)
    X = rng.integers(1, 6, size=(n, k)).astype(np.int8)
    beta = beta_scale * np.linspace(1.0, -0.5, k) / math.sqrt(k)
    y = np.searchsorted([-0.7, 0.0, 0.7], (X - 3.0) @ beta + rng.normal(size=n)) + 1
    return X, y


def _assert_permuted(model, permuted, perm):
    for attr in ("beta", "se", "p"):
        np.testing.assert_allclose(getattr(permuted, attr), getattr(model, attr)[perm], rtol=0, atol=1e-8, err_msg=attr)
    np.testing.assert_allclose(permuted.kappa, model.kappa, rtol=0, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(80, 200), data=st.data())
def test_permuting_the_columns_permutes_the_fit(seed, n, data):
    k = data.draw(st.integers(1, 5))
    perm = data.draw(st.permutations(range(k)))
    X, y = _simulate(n, np.linspace(0.8, -0.6, k), [-0.8, 0.0, 0.8], seed)
    assume(len(set(y.tolist())) == 4)
    model = fit(X, y)
    assume(model.converged)
    permuted = fit(X[:, perm], y)
    assert permuted.converged
    _assert_permuted(model, permuted, perm)


def test_a_design_of_several_row_blocks_fits_as_its_float_copy():
    # the int8 design is converted one row block at a time, the float copy
    # read in the same blocks: every field of the fit is the same float
    n = 20_000
    assert n > 2 * _BLOCK_ROWS
    X, y = _codes(n, 4, seed=5)
    model = fit(X, y)
    assert model.converged
    copy = fit(X.astype(float), y)
    for f in dataclasses.fields(model):
        a, b = getattr(model, f.name), getattr(copy, f.name)
        assert np.array_equal(a, b, equal_nan=True) if isinstance(a, np.ndarray) else a == b, f.name
    perm = [2, 0, 3, 1]
    _assert_permuted(model, fit(X[:, perm], y), perm)


def test_supplied_moments_stand_in_for_the_collinearity_check(monkeypatch):
    X, y = _codes(500, 3, seed=2)
    names = ("a", "b", "c")
    m = Moments.of_codes(X, range(3))
    # the moments are tested, not recomputed from X
    monkeypatch.setattr(Moments, "of_matrix", lambda X: pytest.fail("moments recomputed"))
    out = backward_eliminate(X, y, names, moments=m)
    monkeypatch.undo()
    assert out.initial.beta.tolist() == backward_eliminate(X, y, names).initial.beta.tolist()
    dependent = Moments.of_codes(X[:, [0, 1, 1]], range(3))
    with pytest.raises(ValueError, match="collinear"):
        backward_eliminate(X, y, names, moments=dependent)
    with pytest.raises(ValueError, match="moments"):
        backward_eliminate(X, y, names, moments=m.take([0, 1]))


def test_an_integer_design_adds_no_float_copy_of_its_columns():
    # 35 more int8 columns may not cost a float copy of them at the traced
    # peak of the elimination (NumPy reports its buffers to tracemalloc): the
    # design is read in row blocks, with no (n, k) float array
    n = 60_000

    def traced_peak(k):
        X, y = _codes(n, k, seed=k, beta_scale=1.0)
        X[:, -1] = np.random.default_rng(k + 1).integers(1, 6, size=n)  # noise, so that a refit runs
        names = tuple(f"x{j}" for j in range(k))
        tracemalloc.start()
        try:
            out = backward_eliminate(X, y, names)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.final is not None and out.final.n_obs == n
        return peak

    growth = traced_peak(40) - traced_peak(5)
    assert growth < n * 35 * 8 / 2, growth
