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

Much of each Newton step depends on y alone: which rows have a finite
upper or lower cut, the cutpoint of each such term, and the null model.
A `_Design` holds those arrays. `backward_eliminate` validates its
inputs, checks the full design matrix for collinearity and builds the
`_Design` once; every re-fit on a subset of the columns reuses it, and
starts from the previous solution, moved to where it predicts the
optimum without the dropped coefficients.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ._dist import chi2_sf, expit, norm_cdf, norm_pdf, norm_ppf, norm_sf

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


class _Design:
    """The response side of a fit: y, its category count and every array of y alone.

    Each row of y has a term at its upper cut kappa_y unless y = C, and one
    at its lower cut kappa_{y-1} unless y = 1. `cut` and `rows` list those
    terms, the upper ones in row order and then the lower ones, with the
    cutpoint and the row of each; `both` marks the rows with two terms,
    whose cuts meet in the off-diagonal of the kappa block at the lower
    one, `both_cut`. A design built by `_prepare` also carries the null
    fit, and stands for a y that passed validation against a design
    matrix that passed `_check_collinear`.
    """

    def __init__(self, y: np.ndarray, c: int, null: NullFit | None = None) -> None:
        self.y = y
        self.c = c
        self.null = null
        self.hi_ok = y <= c - 1  # kappa_{y} is a finite cut
        self.lo_ok = y >= 2  # kappa_{y-1} is a finite cut
        self.both = self.hi_ok & self.lo_ok
        self.cut = np.concatenate((y[self.hi_ok] - 1, y[self.lo_ok] - 2))
        self.rows = np.concatenate((np.flatnonzero(self.hi_ok), np.flatnonzero(self.lo_ok)))
        self.both_cut = y[self.both] - 2


def _prepare(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, _Design]:
    """Validate X and y, check X for collinearity, and build y's design.

    A design that passes the check passes it with any subset of its
    columns: the singular values of a column subset interlace those of
    the whole, so their spread can only narrow.
    """
    X, yi, c = _validate_xy(X, y)
    n, k = X.shape
    if k < 1:
        raise ValueError("need at least one predictor")
    if n <= k + c - 1:
        raise ValueError("too few observations for the parameter count")
    _check_collinear(X)
    return X, _Design(yi, c, null_fit(yi))


def _cell_probs(eta: np.ndarray, y: np.ndarray, kappa: np.ndarray):
    """P(y_i) per row, floored at 1e-300, with the standardized cuts z_hi and z_lo.

    Each row takes the branch that keeps the difference accurate: the
    upper tails Phi(-z_lo) - Phi(-z_hi) when z_lo > 0, the lower ones
    Phi(z_hi) - Phi(z_lo) otherwise. Flipping the signs of those rows
    first evaluates each row's branch alone, in two passes of Phi.
    """
    kext = np.concatenate(([-np.inf], kappa, [np.inf]))
    z_hi = kext[y] - eta
    z_lo = kext[y - 1] - eta
    upper = z_lo > 0
    sign = np.where(upper, -1.0, 1.0)
    cdf_hi = norm_cdf(sign * z_hi)
    cdf_lo = norm_cdf(sign * z_lo)
    p = np.where(upper, cdf_lo - cdf_hi, cdf_hi - cdf_lo)
    return np.maximum(p, 1e-300), z_hi, z_lo


def _ll(eta: np.ndarray, y: np.ndarray, kappa: np.ndarray, c: int) -> float:
    p, _, _ = _cell_probs(eta, y, kappa)
    return float(np.log(p).sum())


# Cut terms (rows of X) per bincount in the beta x kappa block of
# _grad_hess_raw. One bincount over all of them would hold the products and
# bin indices of up to 2n x k terms at once, 16 * 2n * k bytes: 47 MB for the
# n = 74,000, k = 20 fit of the survey_100k benchmark, whose X is 12 MB.
# Chunks of 8,192 rows still take a fixture-sized design whole, and raised the
# peak RSS of `lockqual probit` on the fixture by 0.7 MB and of `lockqual
# report` by 0.3 MB against k per-column bincounts; with 256 neither rose, and
# the time per call is the same for both sizes at 450 x 29 and 74,000 x 20.
_CHUNK_ROWS = 256


def _grad_hess_raw(
    X: np.ndarray,
    y: np.ndarray,
    beta: np.ndarray,
    kappa: np.ndarray,
    c: int,
    design: _Design | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Log-likelihood, gradient and Hessian in the raw (beta, kappa) space.

    `design` holds the arrays of y alone; it is built here when not given.
    """
    d = _Design(y, c) if design is None else design
    n, k = X.shape
    p, z_hi, z_lo = _cell_probs(X @ beta, y, kappa)
    ll = float(np.log(p).sum())
    phi_hi = norm_pdf(z_hi)  # 0 at the infinite outer cuts
    phi_lo = norm_pdf(z_lo)
    zphi_hi = np.multiply(z_hi, phi_hi, out=np.zeros(n), where=np.isfinite(z_hi))
    zphi_lo = np.multiply(z_lo, phi_lo, out=np.zeros(n), where=np.isfinite(z_lo))
    # gradients of P per observation: g_hi = phi_hi is d P / d kappa_{y},
    # g_lo = -phi_lo is d P / d kappa_{y-1}; the second derivatives of P are
    # s_ee = zphi_lo - zphi_hi, s_eh = zphi_hi, s_el = -zphi_lo,
    # s_hh = -zphi_hi and s_ll = zphi_lo (the cross hi/lo term is zero)
    g_eta = -(phi_hi - phi_lo)
    g_lo = -phi_lo
    p2 = p**2

    def h(s_xy: np.ndarray, g_x: np.ndarray, g_y: np.ndarray) -> np.ndarray:
        return s_xy / p - g_x * g_y / p2

    grad = np.zeros(k + c - 1)
    grad[:k] = X.T @ (g_eta / p)
    # Each kappa sum runs over the upper-cut terms, then the lower-cut terms,
    # in row order: one bincount over both term lists in turn.
    hi_ok, lo_ok = d.hi_ok, d.lo_ok

    def per_cut(hi_terms: np.ndarray, lo_terms: np.ndarray) -> np.ndarray:
        return np.bincount(d.cut, np.concatenate((hi_terms[hi_ok], lo_terms[lo_ok])), minlength=c - 1)

    grad[k:] = per_cut(phi_hi / p, g_lo / p)
    hess = np.zeros((k + c - 1, k + c - 1))
    hess[:k, :k] = X.T @ (X * h(-zphi_hi + zphi_lo, g_eta, g_eta)[:, None])
    # beta x kappa: one bincount over the (column, cut) bins, fed _CHUNK_ROWS
    # terms at a time with the running sums in front, so that each bin adds
    # its terms in the order a bincount per column would
    w = np.concatenate((h(zphi_hi, g_eta, phi_hi)[hi_ok], h(-zphi_lo, g_eta, g_lo)[lo_ok]))
    nbins = k * (c - 1)
    size = nbins + min(d.rows.size, _CHUNK_ROWS) * k
    idx = np.empty(size, dtype=np.intp)
    wts = np.empty(size)
    idx[:nbins] = np.arange(nbins)
    col_bin = np.arange(k) * (c - 1)
    hbk = np.zeros(nbins)
    for s in range(0, d.rows.size, _CHUNK_ROWS):
        rows = d.rows[s : s + _CHUNK_ROWS]
        end = nbins + rows.size * k
        wts[:nbins] = hbk
        # X[rows], not np.take: the re-fits' X[:, cols] is not C-contiguous,
        # and np.take(axis=0) copies such an X whole on every call
        np.multiply(X[rows], w[s : s + _CHUNK_ROWS, None], out=wts[nbins:end].reshape(rows.size, k))
        np.add(d.cut[s : s + _CHUNK_ROWS, None], col_bin, out=idx[nbins:end].reshape(rows.size, k))
        hbk = np.bincount(idx[:end], wts[:end], minlength=nbins)
    hbk = hbk.reshape(k, c - 1)
    hess[:k, k:] = hbk
    hess[k:, :k] = hbk.T
    hkk = np.diag(per_cut(h(-zphi_hi, phi_hi, phi_hi), h(zphi_lo, g_lo, g_lo)))
    both = d.both
    off = np.bincount(d.both_cut, h(np.zeros(n), phi_hi, g_lo)[both], minlength=c - 2)
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
    sig = expit(a[1:])
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
    # inverse observed information over (beta, kappa); all NaN when singular
    cov: np.ndarray = field(repr=False)
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


# Near the optimum the Newton step can gain less than the log-likelihood's
# rounding error. The line search then accepts steps that leave it unchanged
# until one happens to land below gtol. Over the 731 converging fits of the
# report's and `lockqual probit`'s eliminations on 18 synthetic surveys
# (150 to 3,000 respondents), that took at most 17 flat steps in a row; a fit
# still flat after 30 is stuck, not about to land.
_FLAT_STEPS = 30


def fit(
    X: np.ndarray,
    y: np.ndarray,
    names: Sequence | None = None,
    gtol: float = 1e-8,
    max_iter: int = 200,
    start: np.ndarray | None = None,
) -> ProbitModel:
    """Maximum-likelihood ordered probit (no intercept).

    Converges when max|gradient| < gtol, or at the floating-point floor
    of the objective: the last _FLAT_STEPS accepted steps left the
    log-likelihood no higher, and the gain the next step predicts is
    within n * eps * |loglik|, the rounding error of the n-term
    log-likelihood sum. There the line search can no longer tell a
    better point from this one, and max|gradient| may never get below
    gtol.

    y is a vector of category codes 1..C, or the `_Design` that
    `backward_eliminate` built once from its codes and full design
    matrix; X is then a subset of that matrix's columns, which is
    neither validated nor checked for collinearity again. Newton starts
    at beta = 0 and the null model's cutpoints, or at `start`, a raw
    (beta, kappa) vector of length k + C - 1 with ascending cutpoints.
    """
    if isinstance(y, _Design):
        design = y
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] != design.y.shape[0]:
            raise ValueError("X must be 2-dimensional with one row per response")
        if X.shape[1] < 1:
            raise ValueError("need at least one predictor")
    else:
        X, design = _prepare(X, y)
    yi, c, null = design.y, design.c, design.null
    n, k = X.shape
    if names is None:
        names = tuple(f"x{i + 1}" for i in range(k))
    names = tuple(names)
    if len(names) != k:
        raise ValueError("names must match the number of predictors")
    if start is None:
        beta, kappa = np.zeros(k), null.kappa
    else:
        start = np.asarray(start, dtype=float)
        if start.shape != (k + c - 1,):
            raise ValueError("start must hold k coefficients and C - 1 cutpoints")
        beta, kappa = start[:k], start[k:]
        if not (np.all(np.isfinite(start)) and np.all(np.diff(kappa) > 0)):
            raise ValueError("start cutpoints must be finite and strictly ascending")
    a = np.empty(c - 1)
    a[0] = kappa[0]
    if c > 2:
        a[1:] = _softplus_inv(np.diff(kappa))
    t = np.concatenate([beta, a])
    converged = False
    flat = 0  # accepted steps in a row that did not raise the log-likelihood
    noise = n * np.finfo(float).eps
    warnings: list[str] = []
    derivs = None  # _grad_hess_raw at t, until a step moves t
    it = 0
    for it in range(1, max_iter + 1):
        beta = t[:k]
        a = t[k:]
        derivs = _grad_hess_raw(X, yi, beta, _kappa_of(a), c, design)
        ll, grad_raw, hess_raw = derivs
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
        if flat >= _FLAT_STEPS and slope <= noise * abs(ll):
            converged = True
            break
        step = 1.0
        accepted = stuck = False
        for _ in range(60):
            cand = t + step * d
            ll_new = _ll(X @ cand[:k], yi, _kappa_of(cand[k:]), c)
            if math.isfinite(ll_new) and ll_new >= ll + 1e-4 * step * slope:
                flat = flat + 1 if ll_new <= ll else 0
                stuck = ll_new == ll and cand.tobytes() == t.tobytes()
                t = cand
                ll = ll_new
                if not stuck:
                    derivs = None
                accepted = True
                break
            step *= 0.5
        if not accepted:
            warnings.append("line search stalled before reaching the gradient tolerance")
            break
        if stuck:
            # The accepted step was too small to move t. Each later iteration
            # would repeat this one bit for bit, adding one flat step, until
            # the flat-step rule or max_iter ends the loop: go to that end.
            floor_at = it + 1 + max(0, _FLAT_STEPS - flat)
            converged = slope <= noise * abs(ll) and floor_at <= max_iter
            it = floor_at if converged else max_iter
            break
    beta = t[:k]
    kappa = _kappa_of(t[k:])
    if derivs is None:
        derivs = _grad_hess_raw(X, yi, beta, kappa, c, design)
    ll, grad_raw, hess_raw = derivs
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
    cov = np.full_like(info, math.nan)
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
        cov=cov,
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


def _restart(model: ProbitModel, drop: Sequence[int]) -> np.ndarray:
    """Start for the re-fit of `model` without the coefficients at `drop`.

    The quadratic approximation of the log-likelihood at the last
    solution theta, with covariance S, peaks over the kept parameters K
    at theta_K - S_KD S_DD^-1 theta_D once the dropped ones D are 0: one
    Newton step from theta with theta_D removed. Where that step is not
    a valid start (a singular S, cutpoints out of order), the re-fit
    starts from theta without theta_D.
    """
    theta = np.concatenate((model.beta, model.kappa))
    keep = np.delete(np.arange(theta.size), drop)
    start = theta[keep]
    s_kd = model.cov[np.ix_(keep, drop)]
    s_dd = model.cov[np.ix_(drop, drop)]
    if not (np.all(np.isfinite(s_kd)) and np.all(np.isfinite(s_dd))):
        return start
    try:
        moved = start - s_kd @ np.linalg.solve(s_dd, theta[drop])
    except np.linalg.LinAlgError:
        return start
    k = model.beta.size - len(drop)
    if np.all(np.isfinite(moved)) and np.all(np.diff(moved[k:]) > 0):
        return moved
    return start


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

    X and y are validated, and X checked for collinearity, once: every
    re-fit shares the design built from them, and starts where the last
    fit's solution puts the optimum without the dropped coefficients
    (`_restart`).
    """
    X = np.asarray(X, dtype=float)
    names = list(names)
    if X.shape[1] != len(names):
        raise ValueError("names must match the number of predictors")
    X, design = _prepare(X, y)
    initial = fit(X, design, names)
    if not initial.converged:
        raise ValueError("initial fit did not converge; elimination would be meaningless")
    warnings: list[str] = []
    steps: list[EliminationStep] = []
    cols = list(range(len(names)))
    model = initial
    while cols:
        pv = model.p
        if single_pass:
            drop = [i for i in range(len(cols)) if not pv[i] < alpha]
            if not drop:
                break
        else:
            worst = int(np.nanargmax(pv))
            if pv[worst] < alpha:
                break
            drop = [worst]
        for i in sorted(drop, reverse=True):
            steps.append(EliminationStep(names[cols[i]], float(pv[i])))
            del cols[i]
        if not cols:
            break
        model = fit(X[:, cols], design, [names[i] for i in cols], start=_restart(model, drop))
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
