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
A `_Design` holds those arrays. Sums over rows that carry a column of
X are BLAS products of X: X beta, X'(g / p), X'WX with a diagonal
weight, and the Hessian's beta x kappa block W'X, where W is (n, C - 1)
and holds each row's weights at its upper and lower cut in the columns
of those cuts.

The design X may be float or integer, such as the int8 rating codes of
a survey. Every product runs over row blocks of `_BLOCK_ROWS` rows, each
block converted to float64 once per pass over X, so no (n, k) float
array is formed; a design that fits in one block is converted once,
when it is validated, and then used whole. `backward_eliminate`
validates X and y once and checks X for collinearity once: on
`Moments.of_matrix(X)`, which reads X in row blocks too, or on the exact
moments the caller passes in. It builds the `_Design` once; every re-fit on a subset of
the columns reuses it, and starts from the previous solution, moved to
where it predicts the optimum without the dropped coefficients.

Each evaluation of the cell probabilities is one pass of the normal
kernel over the stacked (2, n) cuts, in blocks of `_CELL_ROWS` rows,
which gives Phi and the density phi together: the derivatives read phi
from the cells and take no second pass. The chain rule to the softplus
gaps is a pair of reverse cumulative sums (`_transform_grad_hess`).

This module holds the statistics only: the questionnaire that a
reduction leaves is laid out by `pipeline.probit_section`.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._dist import _normal, chi2_sf, expit, norm_ppf, norm_sf
from .moments import Moments, dependent_sets

__all__ = [
    "ProbitModel",
    "NullFit",
    "EliminationResult",
    "fit",
    "null_fit",
    "backward_eliminate",
]

# Rows per block of the design's float products. With OpenBLAS 0.3.31, the
# products of 512-row blocks came out the same under 1, 2 and 4 threads, and
# those of 2,048- or 8,192-row blocks did not; this rests on how that build
# splits a small product, not on a documented guarantee. moments._BLOCK_ROWS
# stays larger, as its integer sums are exact in any order.
_BLOCK_ROWS = 512
# Rows per block of `_cell_probs`' pass of the normal kernel: one block on a
# survey of a few thousand rows, and (2, 4096) temporaries on a larger one.
_CELL_ROWS = 4096


def _blocks(X: np.ndarray):
    """(rows, block) over X in row blocks of `_BLOCK_ROWS`, each block as float64.

    A float X's blocks are views of it; an integer X's are converted, and
    each pass over X converts every block once.
    """
    for start in range(0, X.shape[0], _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        yield rows, X[rows].astype(float, copy=False)


def _eta(X: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """X beta, one row block at a time."""
    return np.concatenate([b @ beta for _, b in _blocks(X)])


class _Design:
    """The response side of a fit: y, its category count and every array of y alone.

    Each row of y has a term at its upper cut kappa_y unless y = C, and one
    at its lower cut kappa_{y-1} unless y = 1. `cut` and `rows` list those
    terms, the upper ones in row order and then the lower ones, with the
    cutpoint and the row of each; `both` marks the rows with two terms,
    whose cuts meet in the off-diagonal of the kappa block at the lower
    one, `both_cut`. A design built by `_prepare` also carries the null
    fit, and stands for a y and a design matrix that passed its checks.
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


def _prepare(X: np.ndarray, y: np.ndarray, moments: Moments | None = None) -> tuple[np.ndarray, _Design]:
    """Validate X and y, check X for collinearity, and build y's design.

    This is the one check behind `fit` and `backward_eliminate`. X must be
    2-dimensional, integer or finite float, with one code of y per row;
    `null_fit` holds the rules on y itself and gives C. The collinearity
    check is `dependent_sets`: no eigenvalue of the correlations at or
    below k * eps times the largest. Any subset of the columns passes it
    too, as a principal submatrix's eigenvalues interlace the whole's.
    It reads `moments`, the moments of X's rows and columns when the
    caller has them, or else `Moments.of_matrix(X)`. An integer X is kept
    as it is, except that an X that fits in one row block is returned as
    float64.
    """
    X = np.asarray(X)
    if X.dtype.kind not in "iu":
        X = X.astype(float, copy=False)
    if X.ndim != 2:
        raise ValueError("X must be 2-dimensional")
    y = np.asarray(y)
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise ValueError("y must be a vector matching the rows of X")
    if X.dtype == float and not np.all(np.isfinite(X)):
        raise ValueError("X contains non-finite values")
    null = null_fit(y)
    c = null.kappa.size + 1
    n, k = X.shape
    if k < 1:
        raise ValueError("need at least one predictor")
    if n <= k + c - 1:
        raise ValueError("too few observations for the parameter count")
    if n <= _BLOCK_ROWS:
        X = X.astype(float, copy=False)
    if moments is None:
        moments = Moments.of_matrix(X)
    elif (moments.n, moments.k) != (n, k):
        raise ValueError("moments must be taken over the rows and columns of X")
    sets = dependent_sets(moments.centred())
    if sets:
        named = ", ".join(map(str, sets))
        raise ValueError(f"predictors are collinear: columns {named} are linearly dependent")
    return X, _Design(y.astype(int), c, null)


def _cell_probs(eta: np.ndarray, y: np.ndarray, kappa: np.ndarray):
    """(p, z, phi): P(y_i) per row, floored at 1e-300, the standardized cuts
    z = (z_hi, z_lo) and the normal density phi(z), 0 at the infinite cuts.

    Each row takes the branch that keeps the difference accurate: the
    upper tails Phi(-z_lo) - Phi(-z_hi) when z_lo > 0, the lower ones
    Phi(z_hi) - Phi(z_lo) otherwise. Flipping the signs of those rows
    first evaluates each row's branch alone, in one pass of the normal
    kernel over the stacked (2, n) cuts that gives Phi and phi together
    (phi is even, so the flip leaves it as it is). The pass runs over
    blocks of `_CELL_ROWS` rows, which bounds its temporaries; the kernel
    is elementwise, so the block size changes no bit.
    """
    kext = np.concatenate(([-np.inf], kappa, [np.inf]))
    n = eta.shape[0]
    z = np.empty((2, n))
    z_hi, z_lo = z
    np.subtract(kext[y], eta, out=z_hi)
    np.subtract(kext[y - 1], eta, out=z_lo)
    sign = np.where(z_lo > 0, -1.0, 1.0)
    p = np.empty(n)
    phi = np.empty((2, n))
    for start in range(0, n, _CELL_ROWS):
        rows = slice(start, start + _CELL_ROWS)
        cdf, phi[:, rows] = _normal(z[:, rows] * sign[rows])
        np.subtract(cdf[0], cdf[1], out=p[rows])
    p *= sign
    return np.maximum(p, 1e-300, out=p), z, phi


def _ll(eta: np.ndarray, y: np.ndarray, kappa: np.ndarray, c: int) -> float:
    p = _cell_probs(eta, y, kappa)[0]
    return float(np.log(p).sum())


def _grad_hess_raw(
    X: np.ndarray,
    y: np.ndarray,
    beta: np.ndarray,
    kappa: np.ndarray,
    c: int,
    design: _Design | None = None,
    cells: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Log-likelihood, gradient and Hessian in the raw (beta, kappa) space.

    `design` holds the arrays of y alone; it is built here when not given.
    `cells` is `_cell_probs(X @ beta, y, kappa)`, when the caller has it.
    The products with X take one pass over its row blocks.
    """
    d = _Design(y, c) if design is None else design
    n, k = X.shape
    p, z, phi = _cell_probs(_eta(X, beta), y, kappa) if cells is None else cells
    ll = float(np.log(p).sum())
    phi_hi, phi_lo = phi
    zphi_hi, zphi_lo = np.multiply(z, phi, out=np.zeros_like(z), where=np.isfinite(z))
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
    g_beta = g_eta / p
    h_bb = h(-zphi_hi + zphi_lo, g_eta, g_eta)
    # Each kappa sum runs over the upper-cut terms, then the lower-cut terms,
    # in row order: one bincount over both term lists in turn.
    hi_ok, lo_ok = d.hi_ok, d.lo_ok

    def per_cut(hi_terms: np.ndarray, lo_terms: np.ndarray) -> np.ndarray:
        return np.bincount(d.cut, np.concatenate((hi_terms[hi_ok], lo_terms[lo_ok])), minlength=c - 1)

    grad[k:] = per_cut(phi_hi / p, g_lo / p)
    hess = np.zeros((k + c - 1, k + c - 1))
    # beta x kappa: row i adds x_i times its upper-cut weight to cut y_i - 1
    # and x_i times its lower-cut weight to cut y_i - 2, so the block is W'X,
    # one BLAS product per row block, with those weights in an (n, C - 1) W;
    # W' is built row-major, which BLAS multiplies faster than X' W, and
    # lives only from its weights' scatter to its products, the (C - 1, n)
    # array being the largest of this function
    w_terms = np.concatenate((h(zphi_hi, g_eta, phi_hi)[hi_ok], h(-zphi_lo, g_eta, g_lo)[lo_ok]))
    wt = np.zeros((c - 1, n))
    wt[d.cut, d.rows] = w_terms
    del w_terms
    # summed over the row blocks in order; one block gives its products as they are
    parts = [(b.T @ g_beta[rows], b.T @ (b * h_bb[rows, None]), wt[:, rows] @ b) for rows, b in _blocks(X)]
    del wt
    grad[:k], hess[:k, :k], hkb = (functools.reduce(np.add, terms) for terms in zip(*parts))
    hess[k:, :k] = hkb
    hess[:k, k:] = hkb.T
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


def _rcumsum(v: np.ndarray) -> np.ndarray:
    """Reverse cumulative sums along the last axis: entry j sums entries j, j + 1, ..."""
    return v[..., ::-1].cumsum(-1)[..., ::-1]


def _transform_grad_hess(
    a: np.ndarray, grad: np.ndarray, hess: np.ndarray, k: int, c: int
) -> tuple[np.ndarray, np.ndarray]:
    """Chain rule from (beta, kappa) to (beta, a) with softplus gaps.

    kappa_j = a_0 + softplus(a_1) + ... + softplus(a_j), so the Jacobian
    d kappa_j / d a_i is s_i = sigma(a_i) (s_0 = 1) for i <= j and 0
    beyond: J = L diag(s), with L the lower triangle of ones. So J'v is
    s times L'v, whose entry i is v_i + v_{i+1} + ...: a reverse
    cumulative sum, and J'HJ takes one along each axis of H.
    """
    sig = expit(a[1:])
    s = np.concatenate(([1.0], sig))
    cum = _rcumsum(grad[k:])
    g_t = grad.copy()
    g_t[k:] = s * cum
    h_t = hess.copy()
    h_t[:k, k:] = _rcumsum(hess[:k, k:]) * s
    h_t[k:, :k] = h_t[:k, k:].T
    h_kk = _rcumsum(_rcumsum(hess[k:, k:]).T).T * s[:, None] * s
    # curvature of the transform: d2 kappa_j / d a_i^2 = sigma'(a_i) for i >= 1
    r = np.arange(1, c - 1)
    h_kk[r, r] += cum[1:] * sig * (1.0 - sig)
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
    if np.any(yi != y):
        raise ValueError("y must contain integer category codes")
    if yi.min() < 1:
        raise ValueError("categories must start at 1")
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
    """Fitted ordered probit with per-coefficient inference.

    grad_max is max|gradient| at the estimate in the space Newton steps
    in (softplus cutpoint gaps), the value `fit` tests against gtol.
    """

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
    grad_max: float
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
    start: np.ndarray | None = None,
) -> ProbitModel:
    """Maximum-likelihood ordered probit (no intercept).

    Converges when max|gradient| < gtol, and stops short of it when the
    line search stalls or after max_iter iterations. The line search
    takes the first halving of the Newton step whose log-likelihood
    passes the Armijo test less n * eps * |loglik|, the rounding error
    of the n-term log-likelihood sum (Nocedal & Wright, Numerical
    Optimization, §3.1). At the floating-point floor of the objective,
    where a step near the optimum can round the sum down, the full
    Newton step still passes, and the next gradient lands below gtol.

    X is an n x k float or integer design. y is a vector of category
    codes 1..C, or the `_Design` that `backward_eliminate` built once
    from its codes and full design matrix; X is then a subset of the
    columns of the matrix that `_prepare` returned, and is not checked
    again. Newton starts at beta = 0 and the null model's
    cutpoints, or at `start`, a raw (beta, kappa) vector of length
    k + C - 1 with ascending cutpoints.
    """
    if isinstance(y, _Design):
        design = y
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
    noise = n * np.finfo(float).eps
    warnings: list[str] = []
    derivs = None  # _grad_hess_raw at t, until a step moves t
    cells = None  # _cell_probs at t, from the line search that accepted it
    it = 0
    for it in range(1, max_iter + 1):
        beta = t[:k]
        a = t[k:]
        derivs = _grad_hess_raw(X, yi, beta, _kappa_of(a), c, design, cells)
        ll, grad_raw, hess_raw = derivs
        g, h = _transform_grad_hess(a, grad_raw, hess_raw, k, c)
        grad_max = float(np.max(np.abs(g)))
        if grad_max < gtol:
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
            trial = _cell_probs(_eta(X, cand[:k]), yi, _kappa_of(cand[k:]))
            ll_new = float(np.log(trial[0]).sum())
            # sufficient increase, less the rounding error of the n-term sum ll
            if math.isfinite(ll_new) and ll_new >= ll + 1e-4 * step * slope - noise * abs(ll):
                t, cells = cand, trial
                derivs = None
                accepted = True
                break
            step *= 0.5
        if not accepted:
            warnings.append("line search stalled before reaching the gradient tolerance")
            break
    beta = t[:k]
    kappa = _kappa_of(t[k:])
    if derivs is None:  # t moved after the last gradient, or no iteration ran
        derivs = _grad_hess_raw(X, yi, beta, kappa, c, design, cells)
        grad_max = float(np.max(np.abs(_transform_grad_hess(t[k:], *derivs[1:], k, c)[0])))
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
        grad_max=grad_max,
        warnings=tuple(warnings),
    )


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
    moments: Moments | None = None,
) -> EliminationResult:
    """Drop insignificant predictors until every survivor has p < alpha.

    Default mode re-fits after removing the single worst predictor each
    round; single_pass removes all failing predictors at once and
    re-fits once. An empty survivor set is returned with a warning
    rather than an error.

    X and y are validated, and X checked for collinearity, once: on
    `moments` when given, the `Moments` of X's rows and columns, such as
    the exact moments of rating codes that a caller has screened
    already. Every re-fit shares the design built from them, and starts
    where the last fit's solution puts the optimum without the dropped
    coefficients (`_restart`).
    """
    names = list(names)
    X, design = _prepare(X, y, moments)
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
