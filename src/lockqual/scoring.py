"""Satisfaction scoring, holdout validation, entropy and delay profiling.

Scores compose observed ratings with the standardized regression
weights of a fitted structural model:

    LVR_i = sum_j OVR_j * w_j / sum_j w_j      (within latent i)
    SQR   = sum_i LVR_i * W_i / sum_i W_i      (across latents)

so every score stays inside the rating scale. Holdout validation
compares SQR against the post-trip overall satisfaction bookend.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from .catalog import SATI_AFTER
from .dataset import RespondentRecord, SurveyDataset

if TYPE_CHECKING:
    from .sem import SemEstimate

__all__ = [
    "ScoreWeights",
    "RespondentScore",
    "ValidationSummary",
    "EntropyReport",
    "DelayBand",
    "DelayStrata",
    "weights_from_estimate",
    "lvr",
    "sqr",
    "score_respondent",
    "validation_summary",
    "write_scores_csv",
    "entropy",
    "count_entropy",
    "entropy_report",
    "delay_strata",
]


def _weight_fault(w: float) -> str | None:
    """Why a score cannot use weight w, or None when it can."""
    if not math.isfinite(w):
        return "non-finite"
    if w <= 0:
        return "nonpositive"
    return None


@dataclass(frozen=True)
class ScoreWeights:
    """Standardized weights used by the two-stage score.

    latents       : latent order used in reports and score CSVs.
    item_weights  : latent -> {observed item index -> weight}.
    latent_weights: latent -> structural weight.
    nonpositive   : labels of any weight that is not a finite number > 0
                    (scores refuse to use them).
    """

    latents: tuple[str, ...]
    item_weights: Mapping[str, Mapping[int, float]]
    latent_weights: Mapping[str, float]
    nonpositive: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        flagged: list[str] = []
        for name in self.latents:
            if name not in self.item_weights or name not in self.latent_weights:
                raise ValueError(f"weights missing for latent {name!r}")
            if _weight_fault(self.latent_weights[name]):
                flagged.append(f"latent:{name}")
            for item, w in self.item_weights[name].items():
                if _weight_fault(w):
                    flagged.append(f"item:{name}:{item}")
        object.__setattr__(self, "nonpositive", tuple(flagged))

    def to_jsonable(self) -> dict:
        return {
            "latents": list(self.latents),
            "item_weights": {k: {str(i): float(w) for i, w in v.items()} for k, v in self.item_weights.items()},
            "latent_weights": {k: float(v) for k, v in self.latent_weights.items()},
        }

    @classmethod
    def from_jsonable(cls, doc: Mapping) -> "ScoreWeights":
        latents = tuple(str(x) for x in doc["latents"])
        item_weights = {
            str(k): {int(i): float(w) for i, w in v.items()} for k, v in doc["item_weights"].items()
        }
        latent_weights = {str(k): float(v) for k, v in doc["latent_weights"].items()}
        return cls(latents, item_weights, latent_weights)


def weights_from_estimate(est: SemEstimate) -> ScoreWeights:
    """Pull standardized loadings and structural weights off a fitted model.

    The estimate must contain exactly one endogenous latent (the overall
    quality construct); its predecessors become the scored latents.
    """
    if est.std_lam is None or est.std_beta is None:
        raise ValueError("standardize the estimate before extracting weights")
    targets = {dst for _, dst in est.model.structural_paths}
    if len(targets) != 1:
        raise ValueError("weights need a model with exactly one endogenous latent")
    target = targets.pop()
    li = {name: j for j, name in enumerate(est.model.latents)}
    oi = {item: i for i, item in enumerate(est.model.observed)}
    sources = tuple(src for src, _ in est.model.structural_paths)
    item_weights: dict[str, dict[int, float]] = {}
    latent_weights: dict[str, float] = {}
    for name in sources:
        latent_weights[name] = float(est.std_beta[li[target], li[name]])
        item_weights[name] = {
            item: float(est.std_lam[oi[item], li[name]]) for item in est.model.indicators[name]
        }
    return ScoreWeights(sources, item_weights, latent_weights)


def _lvr_rows(column: Callable[[int], np.ndarray], w: ScoreWeights, latent: str) -> np.ndarray:
    """LVR of every row, NaN where the row misses one of the latent's items.

    column(item) gives that item's int8 codes over the rows (0 = missing).
    Items are accumulated one at a time in weight order, so a row's value
    is the same float however many rows are scored together.
    """
    items = w.item_weights[latent]
    if not items:
        raise ValueError(f"latent {latent!r} has no item weights")
    for item, weight in items.items():
        fault = _weight_fault(weight)
        if fault:
            raise ValueError(f"{fault} weight for item {item} of {latent!r}")
    num: np.ndarray | float = 0.0
    den = 0.0
    rated: np.ndarray | bool = True
    for item, weight in items.items():
        codes = column(item)
        rated = rated & (codes != 0)
        num = num + codes * weight
        den += weight
    return np.where(rated, num / den, np.nan)


def _score_rows(
    column: Callable[[int], np.ndarray], actual: np.ndarray, w: ScoreWeights
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LVRs (rows x latents), SQR and signed relative error of every row.

    Rows missing any scored item carry NaN throughout.
    """
    values = {name: _lvr_rows(column, w, name) for name in w.latents}
    s = sqr(values, w)
    return np.column_stack([values[name] for name in w.latents]), s, (s - actual) / actual


def _record_column(r: RespondentRecord) -> Callable[[int], np.ndarray]:
    return lambda item: np.array([r.rating(item) or 0], dtype=np.int8)


def lvr(r: RespondentRecord, w: ScoreWeights, latent: str) -> float | None:
    """Latent variable rating: weighted mean of the latent's item ratings.

    Returns None when the respondent is missing any of the items.
    """
    value = float(_lvr_rows(_record_column(r), w, latent)[0])
    return None if math.isnan(value) else value


def sqr(lvr_values: Mapping[str, float], w: ScoreWeights) -> float:
    """Service quality rating: weighted mean of the latent ratings.

    The values may be floats or arrays of one rating per respondent.
    """
    num = 0.0
    den = 0.0
    for name in w.latents:
        weight = w.latent_weights[name]
        fault = _weight_fault(weight)
        if fault:
            raise ValueError(f"{fault} weight for latent {name!r}")
        num = num + lvr_values[name] * weight
        den += weight
    if den == 0:
        raise ValueError("latent weights sum to zero")
    return num / den


@dataclass(frozen=True)
class RespondentScore:
    id: str
    lvr: Mapping[str, float]
    sqr: float
    actual: int
    error: float
    signed_error: float


def score_respondent(r: RespondentRecord, w: ScoreWeights) -> RespondentScore | None:
    """Two-stage score plus relative error against the post-trip bookend."""
    lvrs, s, signed = _score_rows(_record_column(r), np.array([r.sati_after]), w)
    if math.isnan(s[0]):
        return None
    return RespondentScore(
        id=r.id,
        lvr=dict(zip(w.latents, lvrs[0].tolist())),
        sqr=float(s[0]),
        actual=r.sati_after,
        error=abs(float(signed[0])),
        signed_error=float(signed[0]),
    )


@dataclass(frozen=True, eq=False)
class ValidationSummary:
    """Holdout scores of the scoreable respondents, in row order.

    ids is the scored rows of the dataset's respondent_ids; lvr holds one
    column per name in ``latents``; actual is the post-trip bookend and
    signed_error is (sqr - actual) / actual.
    """

    ids: np.ndarray = field(repr=False)
    latents: tuple[str, ...] = field(repr=False)
    lvr: np.ndarray = field(repr=False)
    sqr: np.ndarray = field(repr=False)
    actual: np.ndarray = field(repr=False)
    signed_error: np.ndarray = field(repr=False)
    n_scored: int
    n_skipped: int
    mean_error: float
    share_within_10pct: float


def validation_summary(d: SurveyDataset, w: ScoreWeights, rows: np.ndarray | None = None) -> ValidationSummary:
    """Score every scoreable respondent and summarize the relative error.

    With a boolean row mask, only the rows it sets are offered. Their codes
    are taken once, and the ids of the scored rows as one slice of respondent_ids.
    """
    at = None if rows is None else np.flatnonzero(rows)
    # one row per observed variable, so that each item's codes are contiguous
    codes = (d.codes if at is None else d.codes.take(at, axis=0)).T.copy()
    actual = codes[d._col(SATI_AFTER)]
    lvrs, s, signed = _score_rows(lambda item: codes[d._col(item)], actual, w)
    scored = ~np.isnan(s)
    n_scored = int(scored.sum())
    if n_scored == 0:
        raise ValueError("no respondent could be scored (missing ratings)")
    kept = scored
    if at is not None:
        kept = np.zeros(d.n, dtype=bool)
        kept[at[scored]] = True
    signed = signed[scored]
    return ValidationSummary(
        ids=d.respondent_ids[kept],
        latents=w.latents,
        lvr=lvrs[scored],
        sqr=s[scored],
        actual=actual[scored].astype(int),
        signed_error=signed,
        n_scored=n_scored,
        n_skipped=s.size - n_scored,
        mean_error=float(np.abs(signed).mean()),
        share_within_10pct=float(np.mean(np.abs(signed) <= 0.10)),
    )


# what makes csv.writer's default dialect quote a field
_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def write_scores_csv(summary: ValidationSummary, w: ScoreWeights, path: str) -> None:
    """Per-respondent scores: id, one LVR column per latent, SQR, error.

    The bytes are csv.writer's. An LVR is a weighted mean of a few ratings,
    so few LVR values are distinct: each distinct bit pattern is formatted
    once and looked up. Each line is one join of its fields, and the lines
    are produced lazily, so no copy of the whole file is held.
    """
    header = ["id"] + [f"lvr_{k + 1}" for k in range(len(w.latents))] + ["sqr", "error"]
    lvrs = summary.lvr[:, [summary.latents.index(name) for name in w.latents]]
    bits, where = np.unique(lvrs.view(np.int64), return_inverse=True)
    lvr_text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    lvr_text = lvr_text[where.reshape(lvrs.shape)]
    ids = summary.ids.tolist()
    if _NEEDS_QUOTES("".join(ids)):
        ids = ['"' + r.replace('"', '""') + '"' if _NEEDS_QUOTES(r) else r for r in ids]
    columns = [
        ids,
        *lvr_text.T.tolist(),
        map(repr, summary.sqr.tolist()),
        map(repr, np.abs(summary.signed_error).tolist()),
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(line + "\r\n" for line in map(",".join, zip(*columns)))


def entropy(values: Sequence[float]) -> float:
    """Normalized Shannon entropy of one item's ratings across respondents.

    With y_k the rating of respondent k and P_k = y_k / sum(y),

        E = -(1 / ln N) * sum_k P_k ln P_k

    and the 0 * ln 0 term taken as 0. E is 1 when everyone gives the
    same rating and shrinks as answers concentrate on few respondents.
    """
    y = np.asarray(values, dtype=float)
    if y.size < 2:
        raise ValueError("entropy needs at least 2 respondents")
    if np.any(y < 0):
        raise ValueError("ratings must be nonnegative")
    total = y.sum()
    if total <= 0:
        raise ValueError("zero rating sum")
    p = y / total
    nz = p > 0
    return float(-(p[nz] * np.log(p[nz])).sum() / math.log(y.size))


def count_entropy(counts: Sequence[int]) -> float:
    """entropy() of one item's ratings from the counts of its codes 0..5 (0, missing, left out).

    With c_l ratings l, N = sum_l c_l and T = sum_l l c_l: E = -(1 / ln N) sum_l c_l (l / T) ln(l / T)."""
    c = np.asarray(counts, dtype=np.int64)[1:]
    if c.sum() < 2:
        raise ValueError("entropy needs at least 2 respondents")
    p = np.arange(1, 6) / int(c @ np.arange(1, 6))
    return float(-np.sum(c * (p * np.log(p))) / math.log(c.sum()))


@dataclass(frozen=True)
class EntropyReport:
    """Per-item and per-latent response entropy.

    variability is 1 - E; latents are ranked by descending variability
    (most diverging perceptions first).
    """

    per_item: Mapping[int, float]
    per_latent: Mapping[str, float]
    variability: Mapping[str, float]
    ranking: tuple[str, ...]


def entropy_report(d: SurveyDataset, latent_items: Mapping[str, Sequence[int]]) -> EntropyReport:
    """Entropy of each item of each latent, from d.rating_counts(), and their mean per latent."""
    counts = d.rating_counts()
    per_item: dict[int, float] = {}
    for items in latent_items.values():
        for item in items:
            if item not in per_item:
                per_item[item] = count_entropy(counts[d._col(item)])
    per_latent = {
        name: float(np.mean([per_item[i] for i in items])) for name, items in latent_items.items() if items
    }
    variability = {name: 1.0 - e for name, e in per_latent.items()}
    ranking = tuple(sorted(variability, key=lambda nm: (-variability[nm], nm)))
    return EntropyReport(per_item, per_latent, variability, ranking)


_DELAY_BANDS: tuple[tuple[str, float, float], ...] = (
    ("[0,2]", 0.0, 2.0),
    ("(2,4]", 2.0, 4.0),
    ("(4,8]", 4.0, 8.0),
    ("(8,16]", 8.0, 16.0),
    (">16", 16.0, math.inf),
)


@dataclass(frozen=True)
class DelayBand:
    label: str
    n: int
    share_pct: float
    s_mean: float | None
    s_mean_alt: float | None


@dataclass(frozen=True)
class DelayStrata:
    bands: tuple[DelayBand, ...]
    n_with_delay: int
    n_missing_delay: int


# upper edges of the bands; a boundary value falls into the lower band
_BAND_TOPS = np.array([hi for _, _, hi in _DELAY_BANDS])


def delay_strata(
    d: SurveyDataset,
    alt_items: Sequence[int] | None = None,
) -> DelayStrata:
    """Satisfaction stratified by reported delay bands.

    s_mean is the post-trip bookend average inside each band. When
    alt_items is given (for example the retained items outside the
    time-pressure block), s_mean_alt averages each respondent's mean
    rating over those items, which reads satisfaction with delay
    exposure removed from the instrument itself.
    """
    # band x post-trip code counts; a row without a delay (NaN) sorts one band past the last
    band = np.searchsorted(_BAND_TOPS, d.delay_hours)
    counts = np.bincount(band * 6 + d.column(SATI_AFTER), minlength=6 * (len(_DELAY_BANDS) + 1)).reshape(-1, 6)
    total = int(counts[: len(_DELAY_BANDS)].sum())
    if total == 0:
        raise ValueError("no respondent reports a delay")
    if alt_items:
        codes = d.codes.take([d._col(i) for i in alt_items], axis=1)
        n_rated = (codes != 0).sum(axis=1)
        alt_mean = codes.sum(axis=1, dtype=np.int64) / np.maximum(n_rated, 1)
    bands: list[DelayBand] = []
    for k, (label, _, _) in enumerate(_DELAY_BANDS):
        n = int(counts[k].sum())
        s_mean = int(counts[k] @ np.arange(6)) / n if n else None
        s_alt: float | None = None
        if alt_items and n:
            per_resp = alt_mean[(band == k) & (n_rated > 0)]
            s_alt = float(np.mean(per_resp)) if per_resp.size else None
        bands.append(DelayBand(label, n, 100.0 * n / total, s_mean, s_alt))
    return DelayStrata(tuple(bands), total, d.n - total)
