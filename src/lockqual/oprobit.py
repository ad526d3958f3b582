"""Ordered probit regression and backward questionnaire reduction.

The model places a latent index y* = x'beta + e, e ~ N(0,1), against
ascending cutpoints kappa_1 < ... < kappa_{C-1}:

    P(y = c) = Phi(kappa_c - x'beta) - Phi(kappa_{c-1} - x'beta)

with kappa_0 = -inf and kappa_C = +inf. There is no intercept; the
cutpoints absorb location. Estimation is Newton's method with a
backtracking line search on the log-likelihood, run in a transformed
space where cutpoint gaps are softplus-parameterized so the ascending
order can never be violated. Standard errors come from the inverse
observed information at the optimum in the raw (beta, kappa) space.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
import scipy.special

from ._dist import chi2_sf, norm_cdf, norm_pdf, norm_ppf, norm_sf

__all__ = [
    "ProbitModel",
    "NullFit",
    "EliminationResult",
    "QuestionnaireEntry",
    "SimplifiedQuestionnaire",
    "fit",
    "null_fit",
    "predict_proba",
    "backward_eliminate",
    "build_questionnaire",
    "write_questionnaire_csv",
]

def _validate_xy(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2:
        raise ValueError("X must be 2-dimensional")
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise ValueError("y must be a vector matching the rows of X")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains non-finite values")
    yi = y.astype(int)
    if np.any(yi != y):
        raise ValueError("y must contain integer category codes")
    c = int(yi.max())
    if yi.min() < 1:
        raise ValueError("categories must start at 1")
    if c < 3:
        raise ValueError("need at least 3 response categories")
    counts = np.bincount(yi, minlength=c + 1)[1:]
    missing = [int(i + 1) for i in np.flatnonzero(counts == 0)]
    if missing:
        raise ValueError(f"unobserved categories: {missing}")
    return X, yi, c


def _check_collinear(X: np.ndarray) -> None:
    Xc = X - X.mean(axis=0)
    s = np.linalg.svd(Xc, compute_uv=False)
    if s[0] == 0 or s[-1] / s[0] < 1e-10:
        raise ValueError("predictors are collinear (rank-deficient design)")


def _ll(eta: np.ndarray, y: np.ndarray, kappa: np.ndarray, c: int) -> float:
    kext = np.concatenate(([-np.inf], kappa, [np.inf]))
    z_hi = kext[y] - eta
    z_lo = kext[y - 1] - eta
    p = np.where(z_lo > 0, norm_sf(z_lo) - norm_sf(z_hi), norm_cdf(z_hi) - norm_cdf(z_lo))
    p = np.maximum(p, 1e-300)
    return float(np.log(p).sum())


def _grad_hess_raw(
    X: np.ndarray, y: np.ndarray, beta: np.ndarray, kappa: np.ndarray, c: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """Log-likelihood, gradient and Hessian in the raw (beta, kappa) space."""
    n, k = X.shape
    eta = X @ beta
    kext = np.concatenate(([-np.inf], kappa, [np.inf]))
    z_hi = kext[y] - eta
    z_lo = kext[y - 1] - eta
    p = np.where(z_lo > 0, norm_sf(z_lo) - norm_sf(z_hi), norm_cdf(z_hi) - norm_cdf(z_lo))
    p = np.maximum(p, 1e-300)
    ll = float(np.log(p).sum())
    phi_hi = norm_pdf(z_hi)  # 0 at the infinite outer cuts
    phi_lo = norm_pdf(z_lo)
    zphi_hi = np.zeros_like(phi_hi)
    zphi_lo = np.zeros_like(phi_lo)
    fin_hi = np.isfinite(z_hi)
    fin_lo = np.isfinite(z_lo)
    zphi_hi[fin_hi] = z_hi[fin_hi] * phi_hi[fin_hi]
    zphi_lo[fin_lo] = z_lo[fin_lo] * phi_lo[fin_lo]
    # gradients of P per observation
    g_eta = -(phi_hi - phi_lo)
    g_hi = phi_hi  # d P / d kappa_{y}
    g_lo = -phi_lo  # d P / d kappa_{y-1}
    # second derivatives of P (cross hi/lo term is zero)
    s_ee = -zphi_hi + zphi_lo
    s_eh = zphi_hi
    s_el = -zphi_lo
    s_hh = -zphi_hi
    s_ll = zphi_lo

    def h(s_xy: np.ndarray, g_x: np.ndarray, g_y: np.ndarray) -> np.ndarray:
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
    # Each kappa sum runs over the upper-cut terms, then the lower-cut
    # terms, in row order: one bincount over both index lists in turn.
    hi_ok = y <= c - 1  # kappa_{y} is a finite cut
    lo_ok = y >= 2  # kappa_{y-1} is a finite cut
    cut = np.concatenate((y[hi_ok] - 1, y[lo_ok] - 2))

    def per_cut(hi_terms: np.ndarray, lo_terms: np.ndarray) -> np.ndarray:
        return np.bincount(cut, np.concatenate((hi_terms[hi_ok], lo_terms[lo_ok])), minlength=c - 1)

    grad[k:] = per_cut(g_hi / p, g_lo / p)
    hess = np.zeros((k + c - 1, k + c - 1))
    hess[:k, :k] = X.T @ (X * w_ee[:, None])
    hbk = np.empty((k, c - 1))
    for j in range(k):
        hbk[j] = per_cut(X[:, j] * w_eh, X[:, j] * w_el)
    hess[:k, k:] = hbk
    hess[k:, :k] = hbk.T
    hkk = np.diag(per_cut(w_hh, w_ll))
    both = hi_ok & lo_ok
    off = np.bincount(y[both] - 2, w_hl[both], minlength=c - 2)
    r = np.arange(c - 2)
    hkk[r + 1, r] = off
    hkk[r, r + 1] = off
    hess[k:, k:] = hkk
    return ll, grad, hess


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _softplus_inv(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v + np.log1p(-np.exp(-v))


def _kappa_of(a: np.ndarray) -> np.ndarray:
    gaps = _softplus(a[1:])
    return a[0] + np.concatenate(([0.0], np.cumsum(gaps)))


def _transform_grad_hess(
    a: np.ndarray, grad: np.ndarray, hess: np.ndarray, k: int, c: int
) -> tuple[np.ndarray, np.ndarray]:
    """Chain rule from (beta, kappa) to (beta, a) with softplus gaps."""
    nk = c - 1
    sig = scipy.special.expit(a[1:])
    deriv = np.concatenate(([1.0], sig))
    jac = np.tril(np.broadcast_to(deriv, (nk, nk)).copy())
    g_kappa = grad[k:]
    g_t = grad.copy()
    g_t[k:] = jac.T @ g_kappa
    h_t = hess.copy()
    h_t[:k, k:] = hess[:k, k:] @ jac
    h_t[k:, :k] = h_t[:k, k:].T
    h_kk = jac.T @ hess[k:, k:] @ jac
    # curvature of the transform: d2 kappa_j / d a_i^2 = sigma'(a_i) for i >= 1
    cum = np.cumsum(g_kappa[::-1])[::-1]
    extra = np.zeros(nk)
    extra[1:] = cum[1:] * sig * (1.0 - sig)
    h_kk += np.diag(extra)
    h_t[k:, k:] = h_kk
    return g_t, h_t


@dataclass(frozen=True)
class NullFit:
    loglik: float
    kappa: np.ndarray = field(repr=False)


def null_fit(y: np.ndarray) -> NullFit:
    """Cutpoints-only model, available in closed form.

    The MLE cutpoints are the normal quantiles of the cumulative
    category shares and the maximized log-likelihood is
    sum_c n_c ln(n_c / N).
    """
    y = np.asarray(y)
    yi = y.astype(int)
    if np.any(yi != y) or yi.min() < 1:
        raise ValueError("y must contain integer category codes starting at 1")
    c = int(yi.max())
    if c < 3:
        raise ValueError("need at least 3 response categories")
    counts = np.bincount(yi, minlength=c + 1)[1:].astype(float)
    if np.any(counts == 0):
        missing = [int(i + 1) for i in np.flatnonzero(counts == 0)]
        raise ValueError(f"unobserved categories: {missing}")
    n = counts.sum()
    shares = counts / n
    kappa = norm_ppf(np.cumsum(shares)[:-1])
    ll = float((counts * np.log(shares)).sum())
    return NullFit(loglik=ll, kappa=kappa)


@dataclass(frozen=True)
class ProbitModel:
    """Fitted ordered probit with per-coefficient inference."""

    names: tuple
    beta: np.ndarray = field(repr=False)
    se: np.ndarray = field(repr=False)
    z: np.ndarray = field(repr=False)
    p: np.ndarray = field(repr=False)
    kappa: np.ndarray = field(repr=False)
    kappa_se: np.ndarray = field(repr=False)
    loglik: float
    loglik_null: float
    pseudo_r2: float
    lr_chi2: float
    lr_df: int
    lr_p: float
    n_obs: int
    n_categories: int
    n_iter: int
    converged: bool
    warnings: tuple[str, ...] = ()

    def coef_table(self) -> list[dict]:
        rows = []
        for i, name in enumerate(self.names):
            rows.append(
                {
                    "name": name,
                    "beta": float(self.beta[i]),
                    "se": float(self.se[i]),
                    "z": float(self.z[i]),
                    "p": float(self.p[i]),
                }
            )
        return rows


def fit(
    X: np.ndarray,
    y: np.ndarray,
    names: Sequence | None = None,
    gtol: float = 1e-8,
    max_iter: int = 200,
) -> ProbitModel:
    """Maximum-likelihood ordered probit (no intercept)."""
    X, yi, c = _validate_xy(X, y)
    n, k = X.shape
    if k < 1:
        raise ValueError("need at least one predictor")
    if n <= k + c - 1:
        raise ValueError("too few observations for the parameter count")
    _check_collinear(X)
    if names is None:
        names = tuple(f"x{i + 1}" for i in range(k))
    names = tuple(names)
    if len(names) != k:
        raise ValueError("names must match the number of predictors")
    null = null_fit(yi)
    beta = np.zeros(k)
    a = np.empty(c - 1)
    a[0] = null.kappa[0]
    if c > 2:
        a[1:] = _softplus_inv(np.diff(null.kappa))
    t = np.concatenate([beta, a])
    ll = _ll(X @ beta, yi, _kappa_of(a), c)
    converged = False
    warnings: list[str] = []
    it = 0
    for it in range(1, max_iter + 1):
        beta = t[:k]
        a = t[k:]
        kappa = _kappa_of(a)
        ll, grad_raw, hess_raw = _grad_hess_raw(X, yi, beta, kappa, c)
        g, h = _transform_grad_hess(a, grad_raw, hess_raw, k, c)
        if float(np.max(np.abs(g))) < gtol:
            converged = True
            break
        d = None
        try:
            d = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            d = None
        if d is None or float(g @ d) <= 0:
            d = g.copy()
        slope = float(g @ d)
        step = 1.0
        accepted = False
        for _ in range(60):
            cand = t + step * d
            ll_new = _ll(X @ cand[:k], yi, _kappa_of(cand[k:]), c)
            if math.isfinite(ll_new) and ll_new >= ll + 1e-4 * step * slope:
                t = cand
                ll = ll_new
                accepted = True
                break
            step *= 0.5
        if not accepted:
            warnings.append("line search stalled before reaching the gradient tolerance")
            break
    beta = t[:k]
    kappa = _kappa_of(t[k:])
    ll, grad_raw, hess_raw = _grad_hess_raw(X, yi, beta, kappa, c)
    if converged and ll > -1e-3:
        # every fitted probability is numerically 1: the likelihood has no
        # finite maximum and the flat gradient is saturation, not optimality
        converged = False
        warnings.append(
            "log-likelihood is numerically zero (perfect separation); no finite optimum exists"
        )
    if not converged and not warnings:
        warnings.append(
            "did not converge; estimates may be on a separation ray (check predictor overlap)"
        )
    info = -hess_raw
    se_all = np.full(k + c - 1, math.nan)
    try:
        cov = np.linalg.inv(info)
        var = np.diag(cov).copy()
        if np.any(var < 0):
            warnings.append("observed information is not positive definite at the solution")
            var[var < 0] = math.nan
        se_all = np.sqrt(var)
    except np.linalg.LinAlgError:
        warnings.append("observed information is singular; standard errors unavailable")
    se = se_all[:k]
    with np.errstate(invalid="ignore", divide="ignore"):
        z = beta / se
    pvals = 2.0 * norm_sf(np.abs(z))
    lr = 2.0 * (ll - null.loglik)
    return ProbitModel(
        names=names,
        beta=beta,
        se=se,
        z=z,
        p=pvals,
        kappa=kappa,
        kappa_se=se_all[k:],
        loglik=ll,
        loglik_null=null.loglik,
        pseudo_r2=1.0 - ll / null.loglik,
        lr_chi2=lr,
        lr_df=k,
        lr_p=float(chi2_sf(lr, k)),
        n_obs=n,
        n_categories=c,
        n_iter=it,
        converged=converged,
        warnings=tuple(warnings),
    )


def predict_proba(model: ProbitModel, X: np.ndarray) -> np.ndarray:
    """Category probabilities per row; each row sums to 1."""
    X = np.asarray(X, dtype=float)
    eta = X @ model.beta
    c = model.n_categories
    kext = np.concatenate(([-np.inf], model.kappa, [np.inf]))
    cdf = norm_cdf(kext[None, :] - eta[:, None])
    return np.diff(cdf, axis=1)


@dataclass(frozen=True)
class EliminationStep:
    dropped: object
    p_value: float


@dataclass(frozen=True)
class EliminationResult:
    final: ProbitModel | None
    survivors: tuple
    steps: tuple[EliminationStep, ...]
    initial: ProbitModel
    warnings: tuple[str, ...]


def backward_eliminate(
    X: np.ndarray,
    y: np.ndarray,
    names: Sequence,
    alpha: float = 0.01,
    single_pass: bool = False,
) -> EliminationResult:
    """Drop insignificant predictors until every survivor has p < alpha.

    Default mode re-fits after removing the single worst predictor each
    round; single_pass removes all failing predictors at once and
    re-fits once. An empty survivor set is returned with a warning
    rather than an error.
    """
    X = np.asarray(X, dtype=float)
    names = list(names)
    if X.shape[1] != len(names):
        raise ValueError("names must match the number of predictors")
    initial = fit(X, y, names)
    if not initial.converged:
        raise ValueError("initial fit did not converge; elimination would be meaningless")
    warnings: list[str] = []
    steps: list[EliminationStep] = []
    cols = list(range(len(names)))
    model = initial
    while cols:
        pv = model.p
        if single_pass:
            failing = [i for i in range(len(cols)) if not pv[i] < alpha]
            if not failing:
                break
            for i in sorted(failing, reverse=True):
                steps.append(EliminationStep(names[cols[i]], float(pv[i])))
                del cols[i]
        else:
            worst = int(np.nanargmax(pv))
            if pv[worst] < alpha:
                break
            steps.append(EliminationStep(names[cols[worst]], float(pv[worst])))
            del cols[worst]
        if not cols:
            break
        model = fit(X[:, cols], y, [names[i] for i in cols])
        if not model.converged:
            warnings.append("a re-fit during elimination did not converge; stopping early")
            break
    if not cols:
        warnings.append("all predictors eliminated; only the cutpoints-only model remains")
        return EliminationResult(None, (), tuple(steps), initial, tuple(warnings))
    return EliminationResult(model, tuple(names[i] for i in cols), tuple(steps), initial, tuple(warnings))


@dataclass(frozen=True)
class QuestionnaireEntry:
    construct: str
    number: int
    description: str
    abbreviation: str
    item: object


@dataclass(frozen=True)
class SimplifiedQuestionnaire:
    entries: tuple[QuestionnaireEntry, ...]


def build_questionnaire(
    survivors: Sequence,
    metadata: Mapping[object, Mapping[str, str]] | None = None,
    construct_order: Sequence[str] | None = None,
) -> SimplifiedQuestionnaire:
    """Arrange surviving items into a short questionnaire.

    metadata may carry construct/abbreviation/description per item;
    items are grouped by construct (in construct_order when given) and
    renumbered sequentially.
    """
    metadata = metadata or {}
    info = []
    for item in survivors:
        meta = metadata.get(item, {})
        info.append(
            (
                str(meta.get("construct", "")),
                str(meta.get("description", "")),
                str(meta.get("abbreviation", item)),
                item,
            )
        )
    if construct_order is None:
        seen: list[str] = []
        for construct, _, _, _ in info:
            if construct not in seen:
                seen.append(construct)
        construct_order = seen
    rank = {c: i for i, c in enumerate(construct_order)}
    info.sort(key=lambda rec: rank.get(rec[0], len(rank)))  # stable: input order within construct
    entries = tuple(
        QuestionnaireEntry(construct=c, number=i + 1, description=d, abbreviation=a, item=item)
        for i, (c, d, a, item) in enumerate(info)
    )
    return SimplifiedQuestionnaire(entries)


def write_questionnaire_csv(q: SimplifiedQuestionnaire, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["construct", "question_number", "description", "abbreviation"])
        for e in q.entries:
            writer.writerow([e.construct, e.number, e.description, e.abbreviation])
