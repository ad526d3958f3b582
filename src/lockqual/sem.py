"""Covariance-structure estimation by maximum likelihood.

A measurement model maps latent factors to observed ratings (marker
identification: the first indicator of each latent has its loading
fixed at 1). Structural paths form a recursive system between latents.
The discrepancy between the sample covariance S and the model-implied
covariance Sigma(theta) is minimized with

    F_ML = ln det Sigma + tr(S Sigma^-1) - ln det S - p

which yields the likelihood-ratio statistic chi2 = (N - 1) * F_min.
Standard errors come from the inverse expected information. Residual
and latent variances are log-parameterized inside the optimizer so the
search space is unconstrained; estimates are reported on the raw scale
and boundary solutions are flagged, never clamped.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from ._dist import norm_sf
from .optimize import minimize_qn

__all__ = [
    "MeasurementModel",
    "SemEstimate",
    "FitIndices",
    "ValidityReport",
    "implied_sigma",
    "sample_cov",
    "fit_ml",
    "standardize",
    "fit_indices",
    "construct_validity",
]


@dataclass(frozen=True)
class MeasurementModel:
    """Latent structure: indicator blocks, paths and free covariances.

    indicators maps each latent to its observed-variable indices; the
    first index is the marker whose loading is fixed at 1. Structural
    paths are (source, target) pairs and must form an acyclic system.
    latent_covariances lists free covariance pairs among exogenous
    latents (those that are never a path target).
    """

    latents: tuple[str, ...]
    indicators: Mapping[str, tuple[int, ...]]
    structural_paths: tuple[tuple[str, str], ...] = ()
    latent_covariances: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.latents:
            raise ValueError("model needs at least one latent")
        if len(set(self.latents)) != len(self.latents):
            raise ValueError("latent names must be unique")
        seen: set[int] = set()
        endogenous = {dst for _, dst in self.structural_paths}
        for name in self.latents:
            inds = self.indicators.get(name, ())
            if len(inds) == 0:
                raise ValueError(f"latent {name!r} has no indicators (marker identification needs one)")
            if len(inds) < 2 and name not in endogenous and not any(src == name for src, _ in self.structural_paths):
                raise ValueError(f"latent {name!r} needs 2+ indicators or a structural path")
            for i in inds:
                if i in seen:
                    raise ValueError(f"observed variable {i} loads on more than one latent")
                seen.add(i)
        for extra in self.indicators:
            if extra not in self.latents:
                raise ValueError(f"indicator block for unknown latent {extra!r}")
        for src, dst in self.structural_paths:
            if src not in self.latents or dst not in self.latents:
                raise ValueError(f"path {src!r} -> {dst!r} references unknown latent")
            if src == dst:
                raise ValueError("self-paths are not allowed")
        self._check_acyclic()
        for a, b in self.latent_covariances:
            if a not in self.latents or b not in self.latents:
                raise ValueError(f"covariance pair ({a!r}, {b!r}) references unknown latent")
            if a == b:
                raise ValueError("covariance pairs must name two distinct latents")
            if a in endogenous or b in endogenous:
                raise ValueError("free covariances are only allowed among exogenous latents")
        pairs = [frozenset(p) for p in self.latent_covariances]
        if len(set(pairs)) != len(pairs):
            raise ValueError("duplicate covariance pair")

    def _check_acyclic(self) -> None:
        children: dict[str, list[str]] = {n: [] for n in self.latents}
        for src, dst in self.structural_paths:
            children[src].append(dst)
        state: dict[str, int] = {}

        def visit(node: str) -> None:
            state[node] = 1
            for nxt in children[node]:
                mark = state.get(nxt, 0)
                if mark == 1:
                    raise ValueError("structural paths contain a cycle")
                if mark == 0:
                    visit(nxt)
            state[node] = 2

        for n in self.latents:
            if state.get(n, 0) == 0:
                visit(n)

    @property
    def observed(self) -> tuple[int, ...]:
        out: list[int] = []
        for name in self.latents:
            out.extend(self.indicators[name])
        return tuple(out)

    def marker_of(self, latent: str) -> int:
        return self.indicators[latent][0]

    def to_json(self) -> str:
        doc = {
            "latents": [
                {"name": name, "indicators": list(self.indicators[name])} for name in self.latents
            ],
            "paths": [{"from": s, "to": t} for s, t in self.structural_paths],
            "covariances": [list(p) for p in self.latent_covariances],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MeasurementModel":
        doc = json.loads(text)
        latents = tuple(str(b["name"]) for b in doc["latents"])
        indicators = {str(b["name"]): tuple(int(i) for i in b["indicators"]) for b in doc["latents"]}
        paths = tuple((str(p["from"]), str(p["to"])) for p in doc.get("paths", []))
        covs = tuple((str(a), str(b)) for a, b in doc.get("covariances", []))
        return cls(latents, indicators, paths, covs)


def load_model(path: str) -> MeasurementModel:
    with open(path, "r", encoding="utf-8") as fh:
        return MeasurementModel.from_json(fh.read())


def sample_cov(X: np.ndarray) -> np.ndarray:
    """Unbiased sample covariance of the columns of X."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need an n x p matrix with n >= 2")
    return np.cov(X, rowvar=False, ddof=1)


def implied_sigma(lam: np.ndarray, beta: np.ndarray, psi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Model-implied covariance Lam (I-B)^-1 Psi (I-B)^-T Lam^T + diag(Theta)."""
    lam = np.asarray(lam, dtype=float)
    beta = np.asarray(beta, dtype=float)
    psi = np.asarray(psi, dtype=float)
    theta = np.asarray(theta, dtype=float).ravel()
    m = lam.shape[1]
    imb = np.eye(m) - beta
    try:
        a = np.linalg.inv(imb)
    except np.linalg.LinAlgError:
        raise ValueError("I - B is singular") from None
    c = a @ psi @ a.T
    sig = lam @ c @ lam.T + np.diag(theta)
    return 0.5 * (sig + sig.T)


class _ParamMap:
    """Packed parameter layout for one model.

    Order: free loadings, structural paths, free latent covariances,
    log latent variances, log residual variances.
    """

    def __init__(self, model: MeasurementModel):
        self.model = model
        obs = model.observed
        self.p = len(obs)
        self.m = len(model.latents)
        self.lat_index = {name: j for j, name in enumerate(model.latents)}
        self.obs_index = {item: i for i, item in enumerate(obs)}
        self.load_rows: list[int] = []
        self.load_cols: list[int] = []
        self.marker_rows: list[int] = []
        for name in model.latents:
            j = self.lat_index[name]
            inds = model.indicators[name]
            self.marker_rows.append(self.obs_index[inds[0]])
            for item in inds[1:]:
                self.load_rows.append(self.obs_index[item])
                self.load_cols.append(j)
        self.path_dst = [self.lat_index[d] for _, d in model.structural_paths]
        self.path_src = [self.lat_index[s] for s, _ in model.structural_paths]
        self.cov_a = [self.lat_index[a] for a, _ in model.latent_covariances]
        self.cov_b = [self.lat_index[b] for _, b in model.latent_covariances]
        self.n_load = len(self.load_rows)
        self.n_path = len(self.path_dst)
        self.n_cov = len(self.cov_a)
        self.q = self.n_load + self.n_path + self.n_cov + self.m + self.p

    def unpack(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        p, m = self.p, self.m
        lam = np.zeros((p, m))
        lam[self.marker_rows, np.arange(m)] = 1.0
        k = 0
        lam[self.load_rows, self.load_cols] = vec[k : k + self.n_load]
        k += self.n_load
        beta = np.zeros((m, m))
        beta[self.path_dst, self.path_src] = vec[k : k + self.n_path]
        k += self.n_path
        psi = np.zeros((m, m))
        psi[self.cov_a, self.cov_b] = vec[k : k + self.n_cov]
        psi = psi + psi.T
        k += self.n_cov
        np.fill_diagonal(psi, np.exp(vec[k : k + m]))
        k += m
        theta = np.exp(vec[k : k + p])
        return lam, beta, psi, theta

    def pack_start(self, S: np.ndarray) -> np.ndarray:
        vec = np.empty(self.q)
        k = 0
        vec[k : k + self.n_load] = 1.0
        k += self.n_load
        vec[k : k + self.n_path] = 0.0
        k += self.n_path
        vec[k : k + self.n_cov] = 0.0
        k += self.n_cov
        marker_var = np.diag(S)[self.marker_rows]
        vec[k : k + self.m] = np.log(0.5 * marker_var)
        k += self.m
        vec[k : k + self.p] = np.log(0.5 * np.diag(S))
        return vec


@dataclass(frozen=True)
class SemEstimate:
    """Fitted model with raw estimates, standard errors and fit stats.

    Standardized fields (std_lam, std_beta, latent_corr, smc) are None
    until `standardize` is applied.
    """

    model: MeasurementModel
    lam: np.ndarray = field(repr=False)
    beta: np.ndarray = field(repr=False)
    psi: np.ndarray = field(repr=False)
    theta: np.ndarray = field(repr=False)
    se_lam: np.ndarray = field(repr=False)
    se_beta: np.ndarray = field(repr=False)
    se_psi: np.ndarray = field(repr=False)
    se_theta: np.ndarray = field(repr=False)
    sample: np.ndarray = field(repr=False, compare=False)
    n: int
    f_min: float
    chi2: float
    df: int
    n_iter: int
    converged: bool
    heywood: tuple[int, ...]
    warnings: tuple[str, ...]
    std_lam: np.ndarray | None = field(default=None, repr=False)
    std_beta: np.ndarray | None = field(default=None, repr=False)
    latent_corr: np.ndarray | None = field(default=None, repr=False)
    smc: np.ndarray | None = field(default=None, repr=False)

    def implied_sigma(self) -> np.ndarray:
        return implied_sigma(self.lam, self.beta, self.psi, self.theta)

    def latent_cov(self) -> np.ndarray:
        m = len(self.model.latents)
        a = np.linalg.inv(np.eye(m) - self.beta)
        return a @ self.psi @ a.T

    def param_table(self) -> list[dict]:
        """Flat per-parameter rows for reports (unstd, se, t, p, std, smc)."""
        rows: list[dict] = []
        obs = self.model.observed
        lat = self.model.latents
        li = {name: j for j, name in enumerate(lat)}
        oi = {item: i for i, item in enumerate(obs)}

        def tp(est: float, se: float) -> tuple[float | None, float | None]:
            if not math.isfinite(se) or se <= 0:
                return None, None
            t = est / se
            return t, float(2.0 * norm_sf(abs(t)))

        for name in lat:
            for pos, item in enumerate(self.model.indicators[name]):
                i, j = oi[item], li[name]
                se = float(self.se_lam[i, j])
                fixed = pos == 0
                t, p = (None, None) if fixed else tp(float(self.lam[i, j]), se)
                rows.append(
                    {
                        "kind": "loading",
                        "lhs": name,
                        "rhs": item,
                        "est": float(self.lam[i, j]),
                        "se": None if fixed else se,
                        "t": t,
                        "p": p,
                        "std": None if self.std_lam is None else float(self.std_lam[i, j]),
                        "smc": None if self.smc is None else float(self.smc[i]),
                        "fixed": fixed,
                    }
                )
        for src, dst in self.model.structural_paths:
            k, l = li[dst], li[src]
            se = float(self.se_beta[k, l])
            t, p = tp(float(self.beta[k, l]), se)
            rows.append(
                {
                    "kind": "path",
                    "lhs": src,
                    "rhs": dst,
                    "est": float(self.beta[k, l]),
                    "se": se,
                    "t": t,
                    "p": p,
                    "std": None if self.std_beta is None else float(self.std_beta[k, l]),
                    "smc": None,
                    "fixed": False,
                }
            )
        for a, b in self.model.latent_covariances:
            i, j = li[a], li[b]
            se = float(self.se_psi[i, j])
            t, p = tp(float(self.psi[i, j]), se)
            rows.append(
                {
                    "kind": "covariance",
                    "lhs": a,
                    "rhs": b,
                    "est": float(self.psi[i, j]),
                    "se": se,
                    "t": t,
                    "p": p,
                    "std": None if self.latent_corr is None else float(self.latent_corr[i, j]),
                    "smc": None,
                    "fixed": False,
                }
            )
        for name in lat:
            j = li[name]
            se = float(self.se_psi[j, j])
            t, p = tp(float(self.psi[j, j]), se)
            rows.append(
                {
                    "kind": "variance",
                    "lhs": name,
                    "rhs": name,
                    "est": float(self.psi[j, j]),
                    "se": se,
                    "t": t,
                    "p": p,
                    "std": None,
                    "smc": None,
                    "fixed": False,
                }
            )
        for item in obs:
            i = oi[item]
            se = float(self.se_theta[i])
            t, p = tp(float(self.theta[i]), se)
            rows.append(
                {
                    "kind": "residual",
                    "lhs": item,
                    "rhs": item,
                    "est": float(self.theta[i]),
                    "se": se,
                    "t": t,
                    "p": p,
                    "std": None,
                    "smc": None if self.smc is None else float(self.smc[i]),
                    "fixed": False,
                }
            )
        return rows


def _check_sample(S: np.ndarray, p: int) -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if S.shape != (p, p):
        raise ValueError(f"sample covariance must be {p} x {p}")
    if not np.allclose(S, S.T, atol=1e-10):
        raise ValueError("sample covariance must be symmetric")
    sign, _ = np.linalg.slogdet(S)
    if sign <= 0:
        raise ValueError("sample covariance must be positive definite")
    return 0.5 * (S + S.T)


def _make_objective(pmap: _ParamMap, S: np.ndarray):
    """F_ML and its analytic gradient over the packed parameter vector.

    Variances are log-parameterized in the packed space, so the chain
    rule multiplies their gradient entries by the variance itself.
    """
    # imported here rather than at module top, so that `import lockqual`
    # does not load SciPy (see _dist.py)
    from scipy.linalg import LinAlgError, cho_factor, cho_solve

    p = pmap.p
    _, logdet_s = np.linalg.slogdet(S)

    def fun(vec: np.ndarray) -> float:
        lam, beta, psi, theta = pmap.unpack(vec)
        try:
            sig = implied_sigma(lam, beta, psi, theta)
        except ValueError:
            return math.inf
        if not np.all(np.isfinite(sig)):
            return math.inf
        try:
            cf = cho_factor(sig, lower=True, check_finite=False)
        except LinAlgError:
            return math.inf
        diag = np.diag(cf[0])
        if diag.min() <= 1e-8 * diag.max():
            # numerically singular; solve results would be meaningless
            return math.inf
        logdet = 2.0 * float(np.sum(np.log(diag)))
        tr = float(np.trace(cho_solve(cf, S, check_finite=False)))
        f = logdet + tr - logdet_s - p
        # the discrepancy is nonnegative by construction, so anything
        # clearly below zero is lost-precision garbage, not progress
        if f < -1e-10:
            return math.inf
        return float(f)

    def grad(vec: np.ndarray) -> np.ndarray:
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


def fit_ml(
    model: MeasurementModel,
    S: np.ndarray,
    n: int,
    gtol: float = 1e-6,
    max_iter: int = 500,
) -> SemEstimate:
    """Fit the model to a sample covariance by maximum likelihood."""
    pmap = _ParamMap(model)
    p = pmap.p
    S = _check_sample(S, p)
    if n < p + 1:
        raise ValueError("sample size too small for the number of observed variables")
    df = p * (p + 1) // 2 - pmap.q
    if df < 0:
        raise ValueError("model not identified (more parameters than covariance moments)")
    fun, grad = _make_objective(pmap, S)
    start = pmap.pack_start(S)
    res = minimize_qn(fun, grad, start, gtol=gtol, max_iter=max_iter)
    lam, beta, psi, theta = pmap.unpack(res.x)
    f_min = float(res.fun)
    chi2 = (n - 1) * f_min
    warnings: list[str] = []
    if not res.converged:
        warnings.append(f"optimizer did not converge: {res.message}")
    se_lam, se_beta, se_psi, se_theta, info_warn = _expected_se(pmap, lam, beta, psi, theta, n)
    warnings.extend(info_warn)
    obs = model.observed
    # a residual variance this far below its observed variance means the
    # optimizer ran into the zero boundary (improper solution)
    heywood = tuple(obs[i] for i in range(p) if theta[i] < 1e-4 * max(S[i, i], 1e-12))
    if heywood:
        warnings.append("residual variance collapsed to the boundary for: " + ", ".join(str(h) for h in heywood))
    return SemEstimate(
        model=model,
        lam=lam,
        beta=beta,
        psi=psi,
        theta=theta,
        se_lam=se_lam,
        se_beta=se_beta,
        se_psi=se_psi,
        se_theta=se_theta,
        sample=S,
        n=n,
        f_min=f_min,
        chi2=chi2,
        df=df,
        n_iter=res.n_iter,
        converged=res.converged,
        heywood=heywood,
        warnings=tuple(warnings),
    )


def _expected_se(
    pmap: _ParamMap,
    lam: np.ndarray,
    beta: np.ndarray,
    psi: np.ndarray,
    theta: np.ndarray,
    n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """Standard errors from the inverse expected information.

    The information for F_ML has entries tr(Sigma^-1 D_s Sigma^-1 D_t)
    over raw parameters, and the asymptotic covariance of the estimates
    is 2/(N-1) times its inverse.
    """
    p, m, q = pmap.p, pmap.m, pmap.q
    a = np.linalg.inv(np.eye(m) - beta)
    c = a @ psi @ a.T
    sig = implied_sigma(lam, beta, psi, theta)
    sig_inv = np.linalg.inv(sig)
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
        d = d + d.T
        ks[t] = sig_inv @ d
        t += 1
    for aa, bb in zip(pmap.cov_a, pmap.cov_b):
        d = np.outer(mm[:, aa], mm[:, bb])
        d = d + d.T
        ks[t] = sig_inv @ d
        t += 1
    for j in range(m):
        d = np.outer(mm[:, j], mm[:, j])
        ks[t] = sig_inv @ d
        t += 1
    for i in range(p):
        d = np.zeros((p, p))
        d[i, i] = 1.0
        ks[t] = sig_inv @ d
        t += 1
    info = np.einsum("aij,bji->ab", ks, ks)
    warnings: list[str] = []
    try:
        acov = (2.0 / (n - 1)) * np.linalg.inv(info)
        var = np.diag(acov).copy()
    except np.linalg.LinAlgError:
        warnings.append("information matrix is singular; standard errors from a pseudo-inverse")
        acov = (2.0 / (n - 1)) * np.linalg.pinv(info)
        var = np.diag(acov).copy()
    if np.any(var < 0):
        warnings.append("negative variance estimates in the information inverse; affected SEs reported as nan")
        var[var < 0] = math.nan
    se = np.sqrt(var)
    se_lam = np.full((p, m), math.nan)
    se_beta = np.full((m, m), math.nan)
    se_psi = np.full((m, m), math.nan)
    se_theta = np.full(p, math.nan)
    t = 0
    for i, j in zip(pmap.load_rows, pmap.load_cols):
        se_lam[i, j] = se[t]
        t += 1
    for k, l in zip(pmap.path_dst, pmap.path_src):
        se_beta[k, l] = se[t]
        t += 1
    for aa, bb in zip(pmap.cov_a, pmap.cov_b):
        se_psi[aa, bb] = se[t]
        se_psi[bb, aa] = se[t]
        t += 1
    for j in range(m):
        se_psi[j, j] = se[t]
        t += 1
    for i in range(p):
        se_theta[i] = se[t]
        t += 1
    return se_lam, se_beta, se_psi, se_theta, warnings


def standardize(est: SemEstimate) -> SemEstimate:
    """Completely standardized solution (latents and indicators at unit sd)."""
    c = est.latent_cov()
    sd_lat = np.sqrt(np.diag(c))
    sig = est.implied_sigma()
    sd_obs = np.sqrt(np.diag(sig))
    std_lam = est.lam * sd_lat[None, :] / sd_obs[:, None]
    std_beta = est.beta * sd_lat[None, :] / sd_lat[:, None]
    latent_corr = c / np.outer(sd_lat, sd_lat)
    smc = 1.0 - est.theta / np.diag(sig)
    return replace(est, std_lam=std_lam, std_beta=std_beta, latent_corr=latent_corr, smc=smc)


@dataclass(frozen=True)
class FitIndices:
    """Global fit measures for one fitted model.

    Indices that need positive degrees of freedom are None when df = 0.
    """

    chi2: float
    df: int
    baseline_chi2: float
    baseline_df: int
    cmin_df: float | None
    rmsea: float | None
    gfi: float
    agfi: float | None
    nfi: float
    tli: float | None
    ifi: float | None
    cfi: float


def _chi2_indices(chi2: float, df: int, chi2_b: float, df_b: int, n: int) -> dict:
    """Comparative and noncentrality indices from the two chi-squares."""
    cmin_df = chi2 / df if df > 0 else None
    rmsea = math.sqrt(max(chi2 - df, 0.0) / (df * (n - 1))) if df > 0 else None
    nfi = (chi2_b - chi2) / chi2_b if chi2_b > 0 else 0.0
    denom_cfi = max(chi2_b - df_b, chi2 - df, 0.0)
    cfi = 1.0 - max(chi2 - df, 0.0) / denom_cfi if denom_cfi > 0 else 1.0
    if df > 0 and df_b > 0 and chi2_b / df_b != 1.0:
        tli = (chi2_b / df_b - chi2 / df) / (chi2_b / df_b - 1.0)
    else:
        tli = None
    ifi = (chi2_b - chi2) / (chi2_b - df) if chi2_b - df != 0 else None
    return {"cmin_df": cmin_df, "rmsea": rmsea, "nfi": nfi, "cfi": cfi, "tli": tli, "ifi": ifi}


def _gfi(sigma_hat: np.ndarray, S: np.ndarray) -> float:
    """Share of S reproduced by sigma_hat in the ML metric."""
    p = S.shape[0]
    w = np.linalg.solve(sigma_hat, S)
    resid = w - np.eye(p)
    return 1.0 - float(np.trace(resid @ resid)) / float(np.trace(w @ w))


def fit_indices(est: SemEstimate) -> FitIndices:
    """Chi-square based and residual-based fit indices.

    The independence baseline keeps the sample variances and zeroes all
    covariances: chi2_b = (N - 1) (sum ln S_ii - ln det S) with
    df_b = p(p-1)/2.
    """
    S = est.sample
    n = est.n
    p = S.shape[0]
    chi2, df = est.chi2, est.df
    _, logdet_s = np.linalg.slogdet(S)
    f_base = float(np.sum(np.log(np.diag(S))) - logdet_s)
    chi2_b = (n - 1) * f_base
    df_b = p * (p - 1) // 2
    core = _chi2_indices(chi2, df, chi2_b, df_b, n)
    gfi = _gfi(est.implied_sigma(), S)
    agfi = 1.0 - (p * (p + 1)) / (2.0 * df) * (1.0 - gfi) if df > 0 else None
    return FitIndices(
        chi2=chi2,
        df=df,
        baseline_chi2=chi2_b,
        baseline_df=df_b,
        cmin_df=core["cmin_df"],
        rmsea=core["rmsea"],
        gfi=gfi,
        agfi=agfi,
        nfi=core["nfi"],
        tli=core["tli"],
        ifi=core["ifi"],
        cfi=core["cfi"],
    )


@dataclass(frozen=True)
class ValidityReport:
    """Convergent and discriminant validity of the measurement blocks.

    fornell_larcker carries sqrt(AVE) on the diagonal and the implied
    latent correlations off it; a factor passes the discriminant check
    when its diagonal entry exceeds every absolute correlation in its
    row and column.
    """

    factors: tuple[str, ...]
    composite_reliability: Mapping[str, float]
    ave: Mapping[str, float]
    fornell_larcker: np.ndarray = field(repr=False)
    convergent_pass: Mapping[str, bool]
    discriminant_pass: Mapping[str, bool]


def construct_validity(est: SemEstimate, cr_gate: float = 0.7, ave_gate: float = 0.5) -> ValidityReport:
    """Composite reliability, AVE and the Fornell-Larcker comparison."""
    if est.std_lam is None:
        est = standardize(est)
    model = est.model
    oi = {item: i for i, item in enumerate(model.observed)}
    li = {name: j for j, name in enumerate(model.latents)}
    factors = tuple(name for name in model.latents if len(model.indicators[name]) > 0)
    cr: dict[str, float] = {}
    ave: dict[str, float] = {}
    for name in factors:
        lams = np.array([est.std_lam[oi[it], li[name]] for it in model.indicators[name]])
        s = float(lams.sum())
        resid = float((1.0 - lams**2).sum())
        cr[name] = s * s / (s * s + resid)
        ave[name] = float((lams**2).mean())
    k = len(factors)
    fl = np.empty((k, k))
    corr = est.latent_corr
    for a, na in enumerate(factors):
        for b, nb in enumerate(factors):
            fl[a, b] = math.sqrt(ave[na]) if a == b else corr[li[na], li[nb]]
    convergent = {name: (cr[name] >= cr_gate and ave[name] >= ave_gate) for name in factors}
    discriminant: dict[str, bool] = {}
    for a, name in enumerate(factors):
        others = [abs(fl[a, b]) for b in range(k) if b != a]
        discriminant[name] = all(fl[a, a] > o for o in others) if others else True
    return ValidityReport(
        factors=factors,
        composite_reliability=cr,
        ave=ave,
        fornell_larcker=fl,
        convergent_pass=convergent,
        discriminant_pass=discriminant,
    )
