"""Synthetic survey, judgment and regression data with known truth.

Generators draw from the same structures the estimators assume, so
recovery can be checked against the planted parameters. All draws run
through numpy's default PCG64 generator seeded explicitly; the same
spec always yields the same dataset.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .ahp import DEFAULT_HIERARCHY, Hierarchy
from .catalog import DEFAULT_CATALOG, SATI_AFTER, SATI_BEFORE
from .dataset import SurveyDataset
from .sem import MeasurementModel, implied_sigma

__all__ = [
    "LIKERT_THRESHOLDS",
    "SemSurveySpec",
    "AhpSpec",
    "ProbitSpec",
    "default_sem_truth",
    "true_cfa_model",
    "gen_sem_survey",
    "gen_ahp_judgments",
    "write_judgments_csv",
    "gen_probit",
]

LIKERT_THRESHOLDS: tuple[float, ...] = (-1.5, -0.5, 0.5, 1.5)

# six-block measurement structure of the planted truth; the first item
# of each block is the marker in the matching analysis models
_BLOCKS: Mapping[str, tuple[int, ...]] = {
    "safe_security": (1, 2, 3),
    "time_convenience": (5, 6, 7, 8, 9, 10),
    "lockage_regulation": (11, 12, 13, 14),
    "supporting_facilities": (15, 16, 17, 18, 19, 20, 21),
    "comfortable_conditions": (22, 23, 24),
    "staff_skills": (25, 26, 29, 30, 31, 32),
}

_TRUE_LOADINGS: Mapping[str, tuple[float, ...]] = {
    "safe_security": (0.78, 0.82, 0.74),
    "time_convenience": (0.80, 0.78, 0.74, 0.76, 0.72, 0.70),
    "lockage_regulation": (0.82, 0.80, 0.78, 0.76),
    "supporting_facilities": (0.82, 0.80, 0.78, 0.76, 0.74, 0.78, 0.72),
    "comfortable_conditions": (0.80, 0.78, 0.76),
    "staff_skills": (0.82, 0.80, 0.78, 0.80, 0.76, 0.74),
}

# weak fillers the pruning stage is expected to drop
_NOISE_ITEMS: Mapping[int, tuple[str, float]] = {
    4: ("time_convenience", 0.35),
    27: ("staff_skills", 0.30),
    28: ("comfortable_conditions", 0.22),
}

_FACTOR_ORDER = tuple(_BLOCKS)

_FACTOR_CORR = np.array(
    [
        [1.00, 0.22, 0.18, 0.15, 0.12, 0.20],
        [0.22, 1.00, 0.28, 0.24, 0.18, 0.25],
        [0.18, 0.28, 1.00, 0.30, 0.22, 0.26],
        [0.15, 0.24, 0.30, 1.00, 0.28, 0.24],
        [0.12, 0.18, 0.22, 0.28, 1.00, 0.32],
        [0.20, 0.25, 0.26, 0.32, 0.32, 1.00],
    ]
)

_TRUE_GAMMA: Mapping[str, float] = {
    "safe_security": 0.22,
    "time_convenience": 0.40,
    "lockage_regulation": 0.15,
    "supporting_facilities": 0.28,
    "comfortable_conditions": 0.17,
    "staff_skills": 0.23,
}

_QUALITY_LOADINGS = (0.735, 0.822)  # pre-trip marker, post-trip bookend

_AGE_BANDS = ("18-30", "31-45", "46-60", "60+")
_GENDERS = ("male", "female")
_EXPERIENCE = ("<5y", "5-10y", "10-20y", ">20y")
_VESSELS = ("dry_bulk", "container", "tanker", "other")
_DWT = ("<500t", "500-1000t", "1000-2000t", ">2000t")


@dataclass(frozen=True)
class SemSurveySpec:
    """Planted truth for a full survey draw.

    Matrices follow the estimator's convention: lam rows are observed
    variables in `observed` order, columns are `latents`; variances on
    the diagonal of psi; theta holds residual variances.
    """

    n: int
    seed: int
    observed: tuple[int, ...]
    latents: tuple[str, ...]
    lam: np.ndarray = field(repr=False)
    beta: np.ndarray = field(repr=False)
    psi: np.ndarray = field(repr=False)
    theta: np.ndarray = field(repr=False)
    thresholds: tuple[float, ...] = LIKERT_THRESHOLDS
    delay_latent: str = "time_convenience"
    delay_mu: float = 1.2
    delay_slope: float = 0.9
    delay_sd: float = 0.85
    missing_rate: float = 0.0


def default_sem_truth(n: int = 750, seed: int = 7) -> SemSurveySpec:
    """Six correlated factors, an overall quality construct, three weak fillers."""
    latents = _FACTOR_ORDER + ("service_quality",)
    observed = tuple(range(0, 34))  # 0 bookend, 1..32 items, 33 bookend
    m = len(latents)
    p = len(observed)
    obs_index = {v: i for i, v in enumerate(observed)}
    lat_index = {name: j for j, name in enumerate(latents)}
    lam = np.zeros((p, m))
    theta = np.empty(p)
    for name, items in _BLOCKS.items():
        for item, loading in zip(items, _TRUE_LOADINGS[name]):
            lam[obs_index[item], lat_index[name]] = loading
            theta[obs_index[item]] = 1.0 - loading**2
    for item, (name, loading) in _NOISE_ITEMS.items():
        lam[obs_index[item], lat_index[name]] = loading
        theta[obs_index[item]] = 1.0 - loading**2
    lam[obs_index[SATI_BEFORE], lat_index["service_quality"]] = _QUALITY_LOADINGS[0]
    lam[obs_index[SATI_AFTER], lat_index["service_quality"]] = _QUALITY_LOADINGS[1]
    theta[obs_index[SATI_BEFORE]] = 1.0 - _QUALITY_LOADINGS[0] ** 2
    theta[obs_index[SATI_AFTER]] = 1.0 - _QUALITY_LOADINGS[1] ** 2
    beta = np.zeros((m, m))
    gamma = np.array([_TRUE_GAMMA[name] for name in _FACTOR_ORDER])
    beta[lat_index["service_quality"], : m - 1] = gamma
    psi = np.zeros((m, m))
    psi[: m - 1, : m - 1] = _FACTOR_CORR
    r2 = float(gamma @ _FACTOR_CORR @ gamma)
    if not r2 < 0.95:
        raise ValueError("planted structural weights leave no disturbance variance")
    psi[m - 1, m - 1] = 1.0 - r2
    return SemSurveySpec(
        n=n,
        seed=seed,
        observed=observed,
        latents=latents,
        lam=lam,
        beta=beta,
        psi=psi,
        theta=theta,
    )


def true_cfa_model() -> MeasurementModel:
    """Measurement-only model over the 29 strong items (markers first)."""
    pairs = [(a, b) for i, a in enumerate(_FACTOR_ORDER) for b in _FACTOR_ORDER[i + 1 :]]
    return MeasurementModel(
        latents=_FACTOR_ORDER,
        indicators={name: _BLOCKS[name] for name in _FACTOR_ORDER},
        structural_paths=(),
        latent_covariances=tuple(pairs),
    )


def _discretize(z: np.ndarray, thresholds: Sequence[float]) -> np.ndarray:
    cuts = np.asarray(thresholds, dtype=float)
    if np.any(np.diff(cuts) <= 0):
        raise ValueError("thresholds must be strictly ascending")
    return 1 + np.searchsorted(cuts, z, side="left").astype(int)


def gen_sem_survey(spec: SemSurveySpec) -> SurveyDataset:
    """Draw a complete survey dataset from the planted structure.

    Latents and observed variables are drawn jointly (Cholesky of the
    stacked covariance) so the delay covariate can be tied to the
    planted factor scores. Continuous responses are standardized by
    their implied sd and cut at the Likert thresholds.
    """
    rng = np.random.default_rng(spec.seed)
    lam = np.asarray(spec.lam, dtype=float)
    beta = np.asarray(spec.beta, dtype=float)
    psi = np.asarray(spec.psi, dtype=float)
    theta = np.asarray(spec.theta, dtype=float).ravel()
    p, m = lam.shape
    a = np.linalg.inv(np.eye(m) - beta)
    c = a @ psi @ a.T
    sig = implied_sigma(lam, beta, psi, theta)
    joint = np.empty((m + p, m + p))
    joint[:m, :m] = c
    joint[:m, m:] = c @ lam.T
    joint[m:, :m] = lam @ c
    joint[m:, m:] = sig
    chol = np.linalg.cholesky(joint + 1e-12 * np.eye(m + p))
    draws = rng.standard_normal((spec.n, m + p)) @ chol.T
    factors = draws[:, :m]
    cont = draws[:, m:]
    z = cont / np.sqrt(np.diag(sig))[None, :]
    ratings = _discretize(z, spec.thresholds)
    lat_index = {name: j for j, name in enumerate(spec.latents)}
    f_delay = factors[:, lat_index[spec.delay_latent]]
    f_sd = math.sqrt(c[lat_index[spec.delay_latent], lat_index[spec.delay_latent]])
    delay_noise = rng.standard_normal(spec.n)
    delay = np.exp(spec.delay_mu - spec.delay_slope * f_delay / f_sd + spec.delay_sd * delay_noise)
    age = rng.choice(_AGE_BANDS, size=spec.n, p=(0.20, 0.40, 0.30, 0.10))
    gender = rng.choice(_GENDERS, size=spec.n, p=(0.82, 0.18))
    exp_band = rng.choice(_EXPERIENCE, size=spec.n, p=(0.15, 0.30, 0.35, 0.20))
    vessel = rng.choice(_VESSELS, size=spec.n, p=(0.55, 0.20, 0.15, 0.10))
    dwt = rng.choice(_DWT, size=spec.n, p=(0.15, 0.35, 0.35, 0.15))
    if spec.missing_rate > 0:
        miss = rng.random((spec.n, p)) < spec.missing_rate
    else:
        miss = np.zeros((spec.n, p), dtype=bool)
    # the bookends are never blanked; items outside spec.observed stay missing
    miss[:, [k for k, v in enumerate(spec.observed) if v in (SATI_BEFORE, SATI_AFTER)]] = False
    codes = np.zeros((spec.n, len(DEFAULT_CATALOG) + 2), dtype=np.int8)
    codes[:, list(spec.observed)] = np.where(miss, 0, ratings)
    return SurveyDataset(
        DEFAULT_CATALOG,
        [f"r{i + 1:04d}" for i in range(spec.n)],
        codes,
        np.round(delay, 2),
        {
            "age_band": age.tolist(),
            "gender": gender.tolist(),
            "experience_band": exp_band.tolist(),
            "vessel_type": vessel.tolist(),
            "dwt_band": dwt.tolist(),
        },
    )


# ---------------------------------------------------------------------------
# pairwise judgments

_LADDER = (1 / 9, 1 / 7, 1 / 5, 1 / 3, 1.0, 3.0, 5.0, 7.0, 9.0)
_CODES = ("R9", "R7", "R5", "R3", "E", "L3", "L5", "L7", "L9")

_DEFAULT_TRUE_WEIGHTS: Mapping[str, float] = {
    "safe_security": 0.244,
    "time_convenience": 0.144,
    "lockage_regulation": 0.145,
    "supporting_facilities": 0.109,
    "comfortable_conditions": 0.155,
    "staff_skills": 0.203,
}


@dataclass(frozen=True)
class AhpSpec:
    n_respondents: int = 49
    seed: int = 11
    noise_level: float = 0.05
    true_weights: Mapping[str, float] = field(default_factory=lambda: dict(_DEFAULT_TRUE_WEIGHTS))
    hierarchy: Hierarchy = DEFAULT_HIERARCHY

    def __post_init__(self) -> None:
        if not 0.0 <= self.noise_level <= 1.0:
            raise ValueError(f"noise_level is a rung-slip probability in [0, 1], got {self.noise_level}")


def _nearest_ladder(ratio: float) -> int:
    logs = np.log(np.asarray(_LADDER))
    return int(np.argmin(np.abs(logs - math.log(ratio))))


def gen_ahp_judgments(spec: AhpSpec) -> list[dict[str, str]]:
    """Pairwise comparison rows consistent with the planted weights.

    Each true ratio is rounded to the nearest scale rung in log space;
    with probability noise_level the selection slips one rung in a
    random direction. Some respondents therefore fail the consistency
    gate, as real panels do.
    """
    rng = np.random.default_rng(spec.seed)
    h = spec.hierarchy
    w = dict(spec.true_weights)
    missing = [f for f in h.leaves if f not in w]
    if missing:
        raise ValueError(f"true_weights missing factors: {missing}")
    crit_w = {c: sum(w[f] for f in h.children[c]) for c in h.criteria}
    rows: list[dict[str, str]] = []
    for r in range(spec.n_respondents):
        rid = f"e{r + 1:03d}"
        comparisons: list[tuple[str, str, str, float]] = []
        crits = h.criteria
        for i in range(len(crits)):
            for j in range(i + 1, len(crits)):
                comparisons.append(("criteria", crits[i], crits[j], crit_w[crits[i]] / crit_w[crits[j]]))
        for c in crits:
            a, b = h.children[c]
            comparisons.append((c, a, b, w[a] / w[b]))
        for level, left, right, ratio in comparisons:
            idx = _nearest_ladder(ratio)
            if rng.random() < spec.noise_level:
                idx += 1 if rng.random() < 0.5 else -1
                idx = min(max(idx, 0), len(_LADDER) - 1)
            rows.append(
                {
                    "respondent_id": rid,
                    "level": level,
                    "left_factor": left,
                    "right_factor": right,
                    "selection": _CODES[idx],
                }
            )
    return rows


def write_judgments_csv(rows: Sequence[Mapping[str, str]], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["respondent_id", "level", "left_factor", "right_factor", "selection"]
        )
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


# ---------------------------------------------------------------------------
# ordered-probit draws

@dataclass(frozen=True)
class ProbitSpec:
    beta: tuple[float, ...]
    kappa: tuple[float, ...]
    n: int
    seed: int


def gen_probit(spec: ProbitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Standard-normal design plus ordinal outcome from the latent index."""
    kappa = np.asarray(spec.kappa, dtype=float)
    if np.any(np.diff(kappa) <= 0):
        raise ValueError("kappa must be strictly ascending")
    beta = np.asarray(spec.beta, dtype=float)
    rng = np.random.default_rng(spec.seed)
    X = rng.standard_normal((spec.n, beta.size))
    ystar = X @ beta + rng.standard_normal(spec.n)
    y = 1 + np.searchsorted(kappa, ystar, side="left")
    return X, y.astype(int)
