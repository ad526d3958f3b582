"""Covariance-structure estimation by maximum likelihood.

A measurement model maps latent factors to observed ratings (marker
identification: the first indicator of each latent has its loading
fixed at 1). Structural paths form a recursive system between latents.
The discrepancy between the sample covariance S and the model-implied
covariance Sigma(theta) is minimized with

    F_ML = ln det Sigma + tr(S Sigma^-1) - ln det S - p

which yields the likelihood-ratio statistic chi2 = (N - 1) * F_min.
The fit reads the rows only through S and N (Bollen 1989, Structural
Equations with Latent Variables, ch. 4), which the pipeline takes from
the complete rows' `Moments`.
Standard errors come from the inverse expected information. Residual
and latent variances are log-parameterized inside the optimizer so the
search space is unconstrained; estimates are reported on the raw scale
and boundary solutions are flagged, never clamped.
The order of the packed parameter vector lives in `_ParamMap` alone:
the start values, the objective and its gradient, the standard errors
and the parameter table read and write the vector through its
`scatter`, `gather` and `table`.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from ._dist import norm_sf
from .catalog import _read_text
from .moments import Moments, dependent_sets
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
        """Read `to_json`'s document; a missing or malformed field is a ValueError naming it."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"model: not a JSON document ({exc})") from None
        blocks = doc.get("latents") if isinstance(doc, dict) else None
        if not isinstance(blocks, list):
            raise ValueError("model: 'latents' must be a list of {name, indicators} objects")
        indicators: dict[str, tuple[int, ...]] = {}
        for j, b in enumerate(blocks):
            if not isinstance(b, dict) or "name" not in b:
                raise ValueError(f"model: latents[{j}] has no 'name'")
            inds = b.get("indicators")
            if not (isinstance(inds, list) and all(type(i) is int for i in inds)):
                raise ValueError(f"model: latents[{j}] 'indicators' must be a list of item indices")
            indicators[str(b["name"])] = tuple(inds)
        paths = doc.get("paths", [])
        if not (isinstance(paths, list) and all(isinstance(p, dict) and "from" in p and "to" in p for p in paths)):
            raise ValueError("model: 'paths' must be a list of {from, to} objects")
        covs = doc.get("covariances", [])
        if not (isinstance(covs, list) and all(isinstance(c, list) and len(c) == 2 for c in covs)):
            raise ValueError("model: 'covariances' must be a list of [latent, latent] pairs")
        return cls(
            tuple(str(b["name"]) for b in blocks),
            indicators,
            tuple((str(p["from"]), str(p["to"])) for p in paths),
            tuple((str(a), str(b)) for a, b in covs),
        )


def load_model(path: str) -> MeasurementModel:
    """The model in the JSON file at `path`, the file of `--model`."""
    return MeasurementModel.from_json(_read_text("--model", path))


def sample_cov(X: np.ndarray) -> np.ndarray:
    """Unbiased sample covariance of the columns of an n x p matrix X, n >= 2."""
    return Moments.of_matrix(X).cov()


def implied_sigma(lam: np.ndarray, beta: np.ndarray, psi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Model-implied covariance Lam (I-B)^-1 Psi (I-B)^-T Lam^T + diag(Theta)."""
    lam = np.asarray(lam, dtype=float)
    beta = np.asarray(beta, dtype=float)
    psi = np.asarray(psi, dtype=float)
    theta = np.asarray(theta, dtype=float).ravel()
    return _implied(lam, beta, psi, theta)[3]


def _implied(lam: np.ndarray, beta: np.ndarray, psi: np.ndarray, theta: np.ndarray):
    """(I-B)^-1, the latent covariance C, Lam C and the symmetrized Sigma."""
    m = lam.shape[1]
    if not beta.any():
        # no paths (a measurement model): A = I and C = Psi, which the
        # inverse and products of the other branch give exactly for a finite Psi
        a, c = np.eye(m), psi
    else:
        try:
            a = np.linalg.inv(np.eye(m) - beta)
        except np.linalg.LinAlgError:
            raise ValueError("I - B is singular") from None
        c = a @ psi @ a.T
    lam_c = lam @ c
    sig = lam_c @ lam.T + np.diag(theta)
    return a, c, lam_c, 0.5 * (sig + sig.T)


# a parameter's name in lavaan's syntax, from its table entry's lhs and rhs
_SYNTAX = {
    "loading": "{0}=~q{1}",
    "path": "{1}~{0}",
    "covariance": "{0}~~{1}",
    "variance": "{0}~~{1}",
    "residual": "q{0}~~q{1}",
}


class _ParamMap:
    """Packed parameter layout for one model; no other code knows the order.

    Order: free loadings, structural paths, free latent covariances,
    log latent variances, log residual variances. Each entry of `table`
    is (kind, lhs, rhs, cell), with the cell a flat position in Lam
    (p x m), B (m x m), Psi (m x m) and Theta (p) laid end to end (see
    `flat`). The table lists the fixed markers too, each before its
    latent's free loadings, in the row order of `SemEstimate.param_table`.
    `fixed` holds the markers' cells, `cells` the packed parameters' and
    `mirror` the Psi cell (b, a) of each covariance (a, b); `scatter`
    puts a packed vector into the four matrices and `gather` reads one
    out of them.
    """

    def __init__(self, model: MeasurementModel):
        self.model = model
        obs = model.observed
        self.p = p = len(obs)
        self.m = m = len(model.latents)
        lat = {name: j for j, name in enumerate(model.latents)}
        self.obs_index = {item: i for i, item in enumerate(obs)}
        b0, s0, t0 = p * m, p * m + m * m, p * m + 2 * m * m
        self._bounds = [b0, s0, t0]
        self.size = t0 + p
        self.table = (
            [("loading", x, item, self.obs_index[item] * m + lat[x]) for x in lat for item in model.indicators[x]]
            + [("path", src, dst, b0 + lat[dst] * m + lat[src]) for src, dst in model.structural_paths]
            + [("covariance", a, b, s0 + lat[a] * m + lat[b]) for a, b in model.latent_covariances]
            + [("variance", x, x, s0 + j * (m + 1)) for x, j in lat.items()]
            + [("residual", item, item, t0 + i) for item, i in self.obs_index.items()]
        )
        self.marker_rows = np.array([self.obs_index[model.marker_of(x)] for x in lat], dtype=np.intp)
        self.fixed = frozenset((self.marker_rows * m + np.arange(m)).tolist())  # the markers' cells
        self.free = [entry for entry in self.table if entry[3] not in self.fixed]
        self.cells = np.array([entry[3] for entry in self.free], dtype=np.intp)
        self.q = len(self.cells)
        self.n_path = len(model.structural_paths)
        self.n_cov = len(model.latent_covariances)
        self.n_load = self.q - self.n_path - self.n_cov - m - p
        self.cov = slice(self.n_load + self.n_path, self.q - m - p)
        self.log = slice(self.cov.stop, self.q)
        # each kind's matrix indices, which _information reads
        self.load_rows, self.load_cols = np.divmod(self.cells[: self.n_load], m)
        self.path_dst, self.path_src = np.divmod(self.cells[self.n_load : self.cov.start] - b0, m)
        self.cov_a, self.cov_b = np.divmod(self.cells[self.cov] - s0, m)
        self.mirror = s0 + self.cov_b * m + self.cov_a

    def names(self) -> list[str]:
        """The packed parameters in lavaan's syntax: a=~q2, b~a, a~~b, a~~a, q2~~q2."""
        return [_SYNTAX[kind].format(lhs, rhs) for kind, lhs, rhs, _ in self.free]

    @staticmethod
    def flat(lam: np.ndarray, beta: np.ndarray, psi: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Lam, B, Psi and Theta laid end to end, as the cells index them."""
        return np.concatenate((lam.ravel(), beta.ravel(), psi.ravel(), theta))

    def scatter(self, values: np.ndarray, fill: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Lam, B, Psi and Theta holding the packed values, and `fill` in every other cell."""
        flat = np.full(self.size, fill)
        flat[self.cells] = values
        flat[self.mirror] = values[self.cov]
        b0, s0, t0 = self._bounds
        return (
            flat[:b0].reshape(self.p, self.m),
            flat[b0:s0].reshape(self.m, self.m),
            flat[s0:t0].reshape(self.m, self.m),
            flat[t0:],
        )

    def gather(self, lam: np.ndarray, beta: np.ndarray, psi: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """The packed vector of the four matrices' parameter cells."""
        return self.flat(lam, beta, psi, theta)[self.cells]

    def unpack(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        values = np.array(vec, dtype=float)
        values[self.log] = np.exp(values[self.log])
        lam, beta, psi, theta = self.scatter(values, 0.0)
        lam[self.marker_rows, np.arange(self.m)] = 1.0
        return lam, beta, psi, theta

    def pack_start(self, S: np.ndarray) -> np.ndarray:
        """Free loadings 1, paths and covariances 0, each variance half its marker's or item's."""
        half = 0.5 * np.diag(S)
        vec = np.zeros(self.q)
        vec[: self.n_load] = 1.0
        vec[self.log] = np.log(np.concatenate((half[self.marker_rows], half)))
        return vec


@dataclass(frozen=True)
class SemEstimate:
    """Fitted model with raw estimates, standard errors and fit stats.

    Standardized fields (std_lam, std_beta, latent_corr, smc) are None
    until `standardize` is applied. grad_max is the optimizer's final
    max|gradient| of F_ML over the packed parameters, the value it tests
    against gtol.
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
    grad_max: float
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
        """Flat per-parameter rows for reports (unstd, se, t, p, std, smc).

        One row per entry of the model's `_ParamMap.table`: loadings (the
        fixed markers among them), paths, covariances, latent variances
        and residual variances.
        """
        pmap = _ParamMap(self.model)
        est = pmap.flat(self.lam, self.beta, self.psi, self.theta).tolist()
        se = pmap.flat(self.se_lam, self.se_beta, self.se_psi, self.se_theta).tolist()
        std = smc = None
        if self.std_lam is not None:
            std = pmap.flat(self.std_lam, self.std_beta, self.latent_corr, self.smc).tolist()
            smc = self.smc.tolist()
        rows: list[dict] = []
        for kind, lhs, rhs, cell in pmap.table:
            fixed = cell in pmap.fixed
            tested = not fixed and math.isfinite(se[cell]) and se[cell] > 0
            rows.append(
                {
                    "kind": kind,
                    "lhs": lhs,
                    "rhs": rhs,
                    "est": est[cell],
                    "se": None if fixed else se[cell],
                    "t": est[cell] / se[cell] if tested else None,
                    "p": None,
                    "std": std[cell] if std is not None and kind in ("loading", "path", "covariance") else None,
                    "smc": smc[pmap.obs_index[rhs]] if smc is not None and kind in ("loading", "residual") else None,
                    "fixed": fixed,
                }
            )
        # two-sided normal p-values of every t, in one call of the kernel
        tested = [row for row in rows if row["t"] is not None]
        p_values = 2.0 * norm_sf(np.abs([row["t"] for row in tested], dtype=float))
        for row, p in zip(tested, p_values.tolist()):
            row["p"] = p
        return rows


def _check_sample(S: np.ndarray, observed: Sequence[int]) -> np.ndarray:
    S = np.asarray(S, dtype=float)
    p = len(observed)
    if S.shape != (p, p):
        raise ValueError(f"sample covariance must be {p} x {p}")
    if not np.allclose(S, S.T, atol=1e-10):
        raise ValueError("sample covariance must be symmetric")
    S = 0.5 * (S + S.T)
    sets = dependent_sets(S)
    if sets:
        named = ", ".join(str([observed[i] for i in cols]) for cols in sets)
        raise ValueError(f"sample covariance is singular: observed variables {named} are linearly dependent")
    return S


def _make_objective(pmap: _ParamMap, S: np.ndarray):
    """F_ML and its analytic gradient over the packed parameter vector.

    Variances are log-parameterized in the packed space, so the chain
    rule multiplies their gradient entries by the variance itself.
    `fun` keeps the last vector it unpacked, with (I-B)^-1, C, Lam C and
    Sigma; `grad` reuses them when its vector holds the same bits (the
    optimizer asks for the gradient at the trial point whose value it
    has just accepted), and computes them afresh otherwise. Both ways
    run the same operations, so the floats do not depend on the order
    of the calls.
    """
    p = pmap.p
    _, logdet_s = np.linalg.slogdet(S)
    last: list = [None, None]  # the bytes of fun's last vector, and its parts

    def parts(vec: np.ndarray) -> tuple:
        lam, beta, psi, theta = pmap.unpack(vec)
        return (lam, psi, theta) + _implied(lam, beta, psi, theta)

    def fun(vec: np.ndarray) -> float:
        lam, beta, psi, theta = pmap.unpack(vec)
        last[:] = None, None
        try:
            implied = _implied(lam, beta, psi, theta)
        except ValueError:  # I - B is singular
            return math.inf
        last[:] = np.asarray(vec, dtype=float).tobytes(), (lam, psi, theta) + implied
        sig = implied[-1]
        if not np.all(np.isfinite(sig)):
            return math.inf
        try:
            low = np.linalg.cholesky(sig)
        except np.linalg.LinAlgError:
            return math.inf
        diag = low.diagonal()
        if diag.min() <= 1e-8 * diag.max():
            # numerically singular; solve results would be meaningless
            return math.inf
        logdet = 2.0 * float(np.sum(np.log(diag)))
        tr = float(np.trace(np.linalg.solve(sig, S)))
        f = logdet + tr - logdet_s - p
        # the discrepancy is nonnegative by construction, so anything
        # clearly below zero is lost-precision garbage, not progress
        if f < -1e-10:
            return math.inf
        return float(f)

    def grad(vec: np.ndarray) -> np.ndarray:
        key = np.asarray(vec, dtype=float).tobytes()
        lam, psi, theta, a, c, lam_c, sig = last[1] if key == last[0] else parts(vec)
        sig_inv = np.linalg.inv(sig)
        w = sig_inv - sig_inv @ S @ sig_inv
        w = 0.5 * (w + w.T)
        g_lam = 2.0 * (w @ lam_c)
        mm = lam @ a
        mtw = mm.T @ w
        g_beta = 2.0 * (mtw @ lam_c)
        g_psi = mtw @ mm
        out = pmap.gather(g_lam, g_beta, g_psi, np.diag(w))
        out[pmap.cov] *= 2.0
        out[pmap.log] *= np.concatenate((np.diag(psi), theta))
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
    S = _check_sample(S, model.observed)
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
        grad_max=float(np.max(np.abs(res.grad))),
        heywood=heywood,
        warnings=tuple(warnings),
    )


def _information(
    pmap: _ParamMap, lam: np.ndarray, beta: np.ndarray, psi: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """Expected information of F_ML over the raw parameters, q x q.

    Its entries are tr(K D_s K D_t), K = Sigma^-1 and D_t = d Sigma / d
    theta_t (Lee & Jennrich 1979, Psychometrika 44). Every D_t has rank
    two at most, D_t = u_t v_t' + v_t u_t', with u_t and v_t the rows of
    U and V:

        loading Lam_ij            e_i           (Lam C)_j
        path B_kl                 (Lam A)_k     (Lam C)_l
        covariance Psi_ab         (Lam A)_a     (Lam A)_b
        latent variance Psi_jj    (Lam A)_j / 2 (Lam A)_j
        residual variance Theta_i e_i / 2       e_i

    with A = (I-B)^-1, C = A Psi A' and (.)_j the j-th column. Expanding
    the trace gives

        I = 2 (P o Q + R o R'),  P = U K U',  Q = V K V',  R = U K V'

    (o the elementwise product): O(q^2 p) matrix products in place of q
    p x p derivative matrices and an O(q^2 p^2) contraction.
    """
    p = pmap.p
    a, _, lam_c, sig = _implied(lam, beta, psi, theta)
    k_inv = np.linalg.inv(sig)
    mm = lam @ a
    eye = np.eye(p)
    u = np.concatenate(
        (
            eye[pmap.load_rows],
            mm[:, pmap.path_dst].T,
            mm[:, pmap.cov_a].T,
            0.5 * mm.T,
            0.5 * eye,
        )
    )
    v = np.concatenate(
        (
            lam_c[:, pmap.load_cols].T,
            lam_c[:, pmap.path_src].T,
            mm[:, pmap.cov_b].T,
            mm.T,
            eye,
        )
    )
    uk = u @ k_inv
    r = uk @ v.T
    return 2.0 * (uk @ u.T * (v @ k_inv @ v.T) + r * r.T)


def _expected_se(
    pmap: _ParamMap,
    lam: np.ndarray,
    beta: np.ndarray,
    psi: np.ndarray,
    theta: np.ndarray,
    n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """Standard errors from the inverse expected information.

    The asymptotic covariance of the estimates is 2/(N-1) times the
    inverse of `_information`, whose entries tr(K D_s K D_t) are summed
    in closed form from the rank-2 derivatives D_t = u_t v_t' + v_t u_t'
    as I = 2 (P o Q + R o R') with P = U K U', Q = V K V', R = U K V'.
    A singular I means the model is not identified (Rothenberg 1971,
    Econometrica 39): a warning names the parameters, and no SE is given.
    """
    info = _information(pmap, lam, beta, psi, theta)
    warnings: list[str] = []
    sets = dependent_sets(info)
    if sets:
        names = pmap.names()
        named = "; ".join(", ".join(names[t] for t in cols) for cols in sets)
        warnings.append(
            f"information matrix is singular, so the model is not identified: parameters {named} "
            "are not separately determined; standard errors reported as null"
        )
        var = np.full(pmap.q, math.nan)
    else:
        var = np.diag(np.linalg.inv(info)) * (2.0 / (n - 1))
        if np.any(var < 0):
            warnings.append("negative variance estimates in the information inverse; affected SEs reported as nan")
            var[var < 0] = math.nan
    se_lam, se_beta, se_psi, se_theta = pmap.scatter(np.sqrt(var), math.nan)
    return se_lam, se_beta, se_psi, se_theta, warnings


def standardize(est: SemEstimate) -> SemEstimate:
    """Completely standardized solution (latents and indicators at unit sd)."""
    c = est.latent_cov()
    flat = [name for name, v in zip(est.model.latents, np.diag(c)) if not v > 0]
    if flat:
        raise ValueError(f"latent variance collapsed to zero for: {', '.join(flat)}")
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
