"""End-to-end two-perspective evaluation pipeline.

Sequences the customer-side chain (screening, descriptives, adequacy
gates, train/holdout split, factor extraction, measurement and
structural model fits, holdout score validation, entropy and delay
profiling) and the supplier-side chain (pairwise-judgment weighting,
consistency checks, weight comparison), then a questionnaire reduction
by ordered probit. Emits one JSON bundle, a Markdown summary rendered
from that JSON, a per-respondent score CSV and, when the reduction
succeeds, a simplified questionnaire CSV.

Gate failures and failed stages never abort the run; both are recorded
on the bundle so callers (and the command line's --strict mode) can decide.
"""
from __future__ import annotations

import csv
import datetime
import json
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import partial
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from .catalog import DISPLAY_NAMES, SATI_AFTER, SATI_BEFORE, VariableCatalog, load_catalog
from .catalog import DEFAULT_CATALOG
from .dataset import DescriptiveReport, SurveyDataset, describe, load_survey, split
from .moments import Moments, dependent_sets

if TYPE_CHECKING:
    from . import ahp as ahp_mod
    from . import efa as efa_mod
    from . import scoring as scoring_mod
    from . import sem as sem_mod

__all__ = [
    "GateThresholds",
    "PipelineConfig",
    "GateCheck",
    "PipelineResult",
    "TooFewRowsError",
    "run_pipeline",
    "render_summary",
    "screening_section",
    "descriptives_section",
    "adequacy_section",
    "efa_section",
    "cfa_section",
    "sem_section",
    "scoring_section",
    "entropy_section",
    "delay_section",
    "ahp_section",
    "bias_section",
    "probit_section",
    "gates_doc",
    "validity_doc",
    "synthesize_models",
    "write_questionnaire",
]


@dataclass(frozen=True)
class GateThresholds:
    """Documented decision gates; each is checked, none aborts the run."""

    alpha: float = 0.70
    kmo: float = 0.60
    bartlett_p: float = 0.01
    loading: float = 0.50
    cross_margin: float = 0.20
    cmin_df: float = 3.0
    rmsea: float = 0.08
    index_floor: float = 0.80
    consistency_ratio: float = 0.10
    probit_alpha: float = 0.01

    def __post_init__(self) -> None:
        for name, lo, hi in (
            ("alpha", 0.0, 1.0),
            ("kmo", 0.0, 1.0),
            ("bartlett_p", 0.0, 1.0),
            ("loading", 0.0, 1.0),
            ("cross_margin", 0.0, 1.0),
            ("rmsea", 0.0, 1.0),
            ("index_floor", 0.0, 1.0),
            ("consistency_ratio", 0.0, 1.0),
            ("probit_alpha", 0.0, 1.0),
        ):
            v = getattr(self, name)
            if not lo <= v <= hi:
                raise ValueError(f"{name} must lie in [{lo}, {hi}]")
        if self.cmin_df <= 0:
            raise ValueError("cmin_df gate must be positive")


@dataclass(frozen=True)
class PipelineConfig:
    survey_path: str
    out_dir: str
    catalog_path: str | None = None
    model_path: str | None = None
    judgments_path: str | None = None
    seed: int = 7
    n_train: int | None = None
    gates: GateThresholds = field(default_factory=GateThresholds)
    exclude_inconsistent: bool = False
    probit_single_pass: bool = False


@dataclass(frozen=True)
class GateCheck:
    """One pass/fail record: value compared against threshold by mode."""

    name: str
    value: float
    threshold: float
    mode: str  # "at_least" or "below"
    passed: bool


@dataclass(frozen=True)
class PipelineResult:
    bundle: Mapping[str, object]
    gate_failures: tuple[str, ...]
    out_paths: Mapping[str, str]


class TooFewRowsError(ValueError):
    """No more complete rows than items: bad input for the whole run, not one stage."""


def _check(name: str, value: float, threshold: float, mode: str) -> GateCheck:
    if mode == "at_least":
        ok = value >= threshold
    elif mode == "below":
        ok = value < threshold
    else:
        raise ValueError(f"unknown gate mode {mode!r}")
    return GateCheck(name, float(value), float(threshold), mode, bool(ok))


def _jsonable(value):
    """The one JSON type policy: str keys, lists for tuples and arrays, Python scalars
    for NumPy ones, None for non-finite floats, and a dataclass as {field: value} in
    field order. The tests run in the order they hit on a bundle, the rarest last."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if math.isfinite(v) else None
    if value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, np.ndarray):
        # bool, integer and all-finite float arrays list to JSON types as they are
        # (a long double lists to NumPy scalars, so it takes the path below)
        kind = value.dtype.kind
        if kind in "biu" or (kind == "f" and value.itemsize <= 8 and np.isfinite(value).all()):
            return value.tolist()
        return _jsonable(value.tolist())  # a 0-d array lists to a scalar
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name)) for f in fields(value)}
    return value


def _dump_json(doc, fh) -> None:
    """Stream doc into a text file: the one JSON writer of the command line and the bundle.

    Keys sorted, two-space indent, a final newline; raises ValueError on NaN or Infinity.
    """
    json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
    fh.write("\n")


def _write_json(doc, path: str) -> None:
    """Write doc to the JSON file at path (see _dump_json)."""
    with open(path, "w", encoding="utf-8") as fh:
        _dump_json(doc, fh)


def _write_all(writers: Mapping[str, Callable[[str], None]]) -> None:
    """Write every file of `writers` (path -> writer(path)), or none of them.

    Each writer writes to a temporary name beside its path (the same file
    system, so os.replace can move it), and the files are moved into place
    only once all of them are written. If a writer fails, the
    temporaries are removed, the files already at the paths are left as they
    were, and the error propagates.
    """
    temps: dict[str, str] = {}
    try:
        for path, write in writers.items():
            head, name = os.path.split(path)
            temps[path] = os.path.join(head, f".{name}.{os.getpid()}.tmp")
            write(temps[path])
        for path, temp in temps.items():
            os.replace(temp, path)
    except BaseException:
        for temp in temps.values():
            with suppress(FileNotFoundError):
                os.remove(temp)
        raise


def gates_doc(checks: Sequence[GateCheck]) -> list[dict]:
    """JSON form of gate checks, in the order they were made."""
    return _jsonable(checks)


def _label_factors(assignment: efa_mod.FactorAssignment, catalog: VariableCatalog) -> dict[int, str]:
    """Name each factor by the dominant a-priori hint of its items."""
    labels: dict[int, str] = {}
    used: set[str] = set()
    for j in sorted(assignment.factor_items):
        items = assignment.factor_items[j]
        hints = [catalog.hint_of(i) for i in items]
        counts: dict[str, int] = {}
        for h in hints:
            counts[h] = counts.get(h, 0) + 1
        best = max(counts, key=lambda h: (counts[h], -hints.index(h)))
        name = best
        k = 2
        while name in used:
            name = f"{best}_{k}"
            k += 1
        used.add(name)
        labels[j] = name
    return labels


def synthesize_models(
    assignment: efa_mod.FactorAssignment,
    labels: Mapping[int, str],
    warnings: list[str],
) -> tuple[sem_mod.MeasurementModel | None, sem_mod.MeasurementModel | None]:
    """EFA assignment -> (measurement model, structural model).

    Factors keeping fewer than two items cannot be modelled and are
    dropped with a warning. The structural model adds the overall
    quality construct measured by the two satisfaction bookends, with
    one path from every factor.
    """
    from . import sem as sem_mod

    usable = [j for j in sorted(assignment.factor_items) if len(assignment.factor_items[j]) >= 2]
    thin = [j for j in sorted(assignment.factor_items) if j not in usable]
    for j in thin:
        warnings.append(
            f"factor {labels[j]!r} kept fewer than 2 items and was left out of the models"
        )
    if len(usable) < 2:
        warnings.append("fewer than 2 usable factors; model fitting skipped")
        return None, None
    latents = tuple(labels[j] for j in usable)
    indicators = {labels[j]: tuple(assignment.factor_items[j]) for j in usable}
    pairs = tuple((a, b) for i, a in enumerate(latents) for b in latents[i + 1 :])
    cfa = sem_mod.MeasurementModel(latents, indicators, (), pairs)
    full_ind = dict(indicators)
    full_ind["service_quality"] = (SATI_BEFORE, SATI_AFTER)
    structural = sem_mod.MeasurementModel(
        latents + ("service_quality",),
        full_ind,
        tuple((name, "service_quality") for name in latents),
        pairs,
    )
    return cfa, structural


def _cfa_from_structural(model: sem_mod.MeasurementModel) -> sem_mod.MeasurementModel | None:
    """Measurement part of a user-supplied structural model."""
    from . import sem as sem_mod

    endo = {dst for _, dst in model.structural_paths}
    lat = tuple(name for name in model.latents if name not in endo)
    if len(lat) < 2:
        return None
    pairs = tuple((a, b) for i, a in enumerate(lat) for b in lat[i + 1 :])
    return sem_mod.MeasurementModel(lat, {name: model.indicators[name] for name in lat}, (), pairs)


def _fit_index_gates(fi: sem_mod.FitIndices, prefix: str, g: GateThresholds) -> list[GateCheck]:
    checks: list[GateCheck] = []
    if fi.cmin_df is not None:
        checks.append(_check(f"{prefix}_cmin_df", fi.cmin_df, g.cmin_df, "below"))
    if fi.rmsea is not None:
        checks.append(_check(f"{prefix}_rmsea", fi.rmsea, g.rmsea, "below"))
    for name, value in (
        ("cfi", fi.cfi),
        ("gfi", fi.gfi),
        ("agfi", fi.agfi),
        ("nfi", fi.nfi),
        ("tli", fi.tli),
        ("ifi", fi.ifi),
    ):
        if value is not None:
            checks.append(_check(f"{prefix}_{name}", value, g.index_floor, "at_least"))
    return checks


def _rated_moments(
    data: SurveyDataset, items: Sequence[int], stage: str, warnings: list[str], rows: np.ndarray | None
) -> tuple[list[int], Moments, dict[int, str]]:
    """The moments of the complete rows among `rows`, after leaving out the items no such row rates.

    Such an item leaves no complete row, and while a row is complete every
    item is rated. Returns the items kept, their moments and "no responses"
    for each item left out.
    """
    m = data.moments(items, rows)
    dropped = {i: "no responses" for i in items if m.n == 0 and not data.complete([i], rows).any()}
    if dropped:
        warnings.append(f"items {list(dropped)} have no rating in the sample; left out of {stage}")
        items = [i for i in items if i not in dropped]
        m = data.moments(items, rows)
    return list(items), m, dropped


def _screen(
    items: Sequence[int], m: Moments, stage: str, warnings: list[str]
) -> tuple[tuple[int, ...], Moments, dict[int, str]]:
    """Leave out constant items, then the last item of each linearly dependent set.

    Either makes the correlation matrix singular. The sets are
    `dependent_sets` of the kept correlations, taken until there are
    none, and only while the complete rows outnumber the kept items: with
    fewer rows every R is singular. An item equal in every row to the one
    other item of its set is a "duplicate of qJ", any other "linearly
    dependent on [qJ, ...]". Returns the items kept, their moments and
    the reason for each item left out; raises ValueError if none is kept.
    """
    const = m.constant()
    dropped = {i: "constant response" for i, c in zip(items, const) if c}
    if dropped:
        warnings.append(
            f"items {list(dropped)} give the same response in every complete row; left out of {stage}"
        )
    keep = [j for j, c in enumerate(const) if not c]
    while keep and m.n > len(keep):
        sets = dependent_sets(m.take(keep).corr())
        if not sets:
            break
        for cols in sets:
            *earlier, last = [keep[t] for t in cols]
            item, named = items[last], [f"q{items[j]}" for j in earlier]
            if len(earlier) == 1 and m.equal(earlier[0], last):
                dropped[item] = f"duplicate of {named[0]}"
                how = f"a {dropped[item]} in every complete row"
            else:
                dropped[item] = f"linearly dependent on [{', '.join(named)}]"
                how = f"{dropped[item]} in the complete rows"
            warnings.append(f"item {item} is {how}; left out of {stage}")
        keep = [j for j in keep if items[j] not in dropped]
    if not keep:
        raise ValueError(f"no usable item left for {stage}: every item is constant or never rated")
    return tuple(items[j] for j in keep), m.take(keep), dropped


@contextmanager
def _stage(doc: dict, gates: list[GateCheck], warnings: list[str], section: str, stage: str):
    """Guard the builder call that fills doc[section]; TooFewRowsError propagates.

    On any other ValueError the section stays null, the stage's gates are taken back,
    and a "<stage> failed: <reason>" warning and a failing `<section>_completed` gate are added."""
    doc[section] = None
    n_gates = len(gates)
    try:
        yield
    except TooFewRowsError:
        raise
    except ValueError as exc:
        del gates[n_gates:]
        warnings.append(f"{stage} failed: {exc}")
        gates.append(_check(f"{section}_completed", math.nan, 1.0, "at_least"))


# One builder per report section. Each returns its section's document,
# raises ValueError when it cannot produce it, and appends to the caller's
# gate checks and warnings; run_pipeline and the command line share them.
# A builder that takes `rows` reads only the rows that boolean mask sets
# (split's training part or its holdout), or every row when it is None.


def screening_section(data: SurveyDataset) -> dict:
    """Rows kept and rows rejected by screening, with the reasons."""
    return {
        "n_valid": data.n,
        "n_rejected": len(data.rejected),
        "rejected": [
            {"row": r.row_number, "id": r.respondent_id, "reason": r.reason} for r in data.rejected
        ],
    }


def descriptives_section(rep: DescriptiveReport, warnings: list[str]) -> dict:
    """Item and bookend statistics; warns on items outside the normality screen."""
    non_normal = sorted(i for i, s in rep.items.items() if s.normal is False)
    if non_normal:
        warnings.append(f"items outside the skew/kurtosis screen: {non_normal}")
    return {**_jsonable(rep), "non_normal_items": non_normal}


def adequacy_section(
    data: SurveyDataset,
    items: Sequence[int],
    g: GateThresholds,
    gates: list[GateCheck],
    warnings: list[str],
) -> tuple[dict, tuple[int, ...]]:
    """Alpha, KMO and Bartlett over the complete rows of `items`.

    Items never rated are left out first. Raises TooFewRowsError unless
    there are more complete rows than rated items. Constant and linearly
    dependent items are left out too; the items analysed come back with
    the document.
    """
    from . import psychometrics

    stage = "reliability and sampling adequacy"
    if data.n == 0:
        raise TooFewRowsError(f"no valid respondent rows ({len(data.rejected)} rejected by screening)")
    items, m, _ = _rated_moments(data, items, stage, warnings, None)
    if m.n <= len(items):
        raise TooFewRowsError(
            f"only {m.n} complete respondents for {len(items)} items; too few for "
            f"{stage}, which need more respondents than items"
        )
    items, m, _ = _screen(items, m, stage, warnings)
    adq = psychometrics.adequacy(m)
    gates.append(_check("cronbach_alpha", adq.cronbach_alpha, g.alpha, "at_least"))
    gates.append(_check("kmo", adq.kmo, g.kmo, "at_least"))
    gates.append(_check("bartlett_p", adq.bartlett_p, g.bartlett_p, "below"))
    return {"n_complete": m.n, **_jsonable(adq)}, items


def efa_section(
    data: SurveyDataset,
    catalog: VariableCatalog,
    g: GateThresholds,
    warnings: list[str],
    rows: np.ndarray | None = None,
) -> tuple[dict, efa_mod.FactorAssignment, dict[int, str]]:
    """PCA, varimax and pruning (g.loading, g.cross_margin) on the complete rows.

    Items are screened first: never rated ("no responses"), constant
    ("constant response"), then linearly dependent on earlier items
    ("duplicate of qJ" or "linearly dependent on [qJ, ...]").
    Returns the document, the assignment and the factor labels.
    """
    from . import efa as efa_mod
    from . import psychometrics

    stage = "factor extraction"
    items, m, reasons = _rated_moments(data, catalog.indices, stage, warnings, rows)
    items, m, screened = _screen(items, m, stage, warnings)
    reasons.update(screened)
    r = psychometrics.correlation_matrix(m)
    rotated = efa_mod.rotate_varimax(efa_mod.extract_pca(r, items=items))
    assignment = efa_mod.prune(rotated, data=m, threshold=g.loading, cross_margin=g.cross_margin)
    screened = tuple(efa_mod.DroppedItem(i, reasons[i]) for i in catalog.indices if i in reasons)
    assignment = replace(assignment, dropped_items=screened + assignment.dropped_items)
    labels = _label_factors(assignment, catalog)
    warnings.extend(assignment.warnings)
    doc = {
        "n_rows": m.n,
        "n_factors": rotated.n_factors,
        "eigenvalues": rotated.eigenvalues,
        "variance_explained": rotated.variance_explained,
        "cumulative_explained": rotated.cumulative_explained,
        "loadings": dict(zip(rotated.items, rotated.loadings)),
        "assignment": {
            "factor_labels": {j: labels[j] for j in sorted(labels)},
            "factor_items": {labels[j]: items for j, items in assignment.factor_items.items()},
            "dropped": assignment.dropped_items,
            "per_factor_alpha": {labels[j]: a for j, a in assignment.per_factor_alpha.items()},
        },
    }
    return _jsonable(doc), assignment, labels


def _fit(
    data: SurveyDataset,
    model: sem_mod.MeasurementModel,
    prefix: str,
    what: str,
    g: GateThresholds,
    gates: list[GateCheck],
    warnings: list[str],
    rows: np.ndarray | None,
) -> tuple[dict, sem_mod.SemEstimate]:
    """ML fit on the complete rows among `rows`: fit document and standardized estimate."""
    from . import sem as sem_mod

    m = data.moments(model.observed, rows)
    est = sem_mod.standardize(sem_mod.fit_ml(model, m.cov(), n=m.n))
    fi = sem_mod.fit_indices(est)
    warnings.extend(f"{what}: {w}" for w in est.warnings)
    gates.extend(_fit_index_gates(fi, prefix, g))
    doc = {
        "n": est.n,
        "converged": est.converged,
        "n_iter": est.n_iter,
        "f_min": est.f_min,
        "heywood": est.heywood,
        "warnings": est.warnings,
        "param_table": est.param_table(),
        "fit_indices": fi,
    }
    return _jsonable(doc), est


def validity_doc(est: sem_mod.SemEstimate, warnings: list[str]) -> dict:
    """Composite reliability, AVE and Fornell-Larcker of a fitted model."""
    from . import sem as sem_mod

    v = sem_mod.construct_validity(est)
    for name in v.factors:
        if not v.convergent_pass[name]:
            warnings.append(f"convergent validity short of the gate for {name!r}")
        if not v.discriminant_pass[name]:
            warnings.append(f"discriminant validity short of the gate for {name!r}")
    return _jsonable(v)


def cfa_section(
    data: SurveyDataset,
    model: sem_mod.MeasurementModel,
    g: GateThresholds,
    gates: list[GateCheck],
    warnings: list[str],
    rows: np.ndarray | None = None,
) -> dict:
    """Measurement-model fit, its fit-index gates and construct validity."""
    doc, est = _fit(data, model, "cfa", "measurement fit", g, gates, warnings, rows)
    doc["validity"] = validity_doc(est, warnings)
    return doc


def sem_section(
    data: SurveyDataset,
    model: sem_mod.MeasurementModel,
    g: GateThresholds,
    gates: list[GateCheck],
    warnings: list[str],
    rows: np.ndarray | None = None,
) -> tuple[dict, sem_mod.SemEstimate]:
    """Structural-model fit, its fit-index gates and the score weights.

    The weights are null when they cannot be drawn from the estimate or
    any of them is nonpositive or non-finite. The estimate comes back as well.
    """
    from . import scoring as scoring_mod

    doc, est = _fit(data, model, "sem", "structural fit", g, gates, warnings, rows)
    try:
        doc["score_weights"] = _jsonable(scoring_mod.weights_from_estimate(est))
    except ValueError as exc:
        warnings.append(f"score weights unavailable: {exc}")
        doc["score_weights"] = None
    return doc, est


def scoring_section(
    data: SurveyDataset, weights: scoring_mod.ScoreWeights, rows: np.ndarray | None = None
) -> tuple[dict, scoring_mod.ValidationSummary]:
    """Two-stage scores checked against the post-trip rating; the summary comes back too."""
    from . import scoring as scoring_mod

    s = scoring_mod.validation_summary(data, weights, rows)
    doc = {
        "n_scored": s.n_scored,
        "n_skipped": s.n_skipped,
        "mean_error": s.mean_error,
        "share_within_10pct": s.share_within_10pct,
    }
    return _jsonable(doc), s


def entropy_section(data: SurveyDataset, groups: Mapping[str, Sequence[int]]) -> dict:
    """Response entropy per item, per group of items and of the two bookends."""
    from . import scoring as scoring_mod

    ent = scoring_mod.entropy_report(data, groups)
    counts = data.rating_counts()
    bookends = {idx: scoring_mod.count_entropy(counts[data._col(idx)]) for idx in (SATI_BEFORE, SATI_AFTER)}
    return {**_jsonable(ent), "bookends": _jsonable(bookends)}


def delay_section(data: SurveyDataset, groups: Mapping[str, Sequence[int]]) -> dict:
    """Satisfaction by delay band.

    The alternative per-band reading leaves out every group whose name
    starts with "time_convenience": those items measure the delay itself.
    """
    from . import scoring as scoring_mod

    time_groups = {name for name in groups if name.startswith("time_convenience")}
    alt_items = sorted(i for name, items in groups.items() if name not in time_groups for i in items)
    strata = scoring_mod.delay_strata(data, alt_items=alt_items or None)
    return {**_jsonable(strata), "alt_items": alt_items, "alt_excludes": sorted(time_groups)}


def ahp_section(
    judgments_path: str,
    g: GateThresholds,
    exclude_inconsistent: bool,
    gates: list[GateCheck],
    warnings: list[str],
) -> dict:
    """Supplier-side weights from the pairwise judgments, gated by g.consistency_ratio."""
    from . import ahp as ahp_mod

    cr_gate = g.consistency_ratio
    h = ahp_mod.DEFAULT_HIERARCHY
    experts = ahp_mod.load_judgments(judgments_path, h)
    if not experts:
        raise ValueError("judgment file holds no respondents")
    # each expert's lambda_max and CR over the whole criteria stack at once;
    # 2x2 leaf matrices are consistent by construction
    _, lam = ahp_mod.weights_eigen_stack(experts.criteria.values)
    _, cr = ahp_mod.consistency_ratios(experts.criteria.n, lam)
    ok = cr < cr_gate
    per_resp = [
        {"id": rid, "criteria_cr": _jsonable(c), "consistent": passed}
        for rid, c, passed in zip(experts.respondent_ids, cr.tolist(), ok.tolist())
    ]
    n_fail = len(ok) - int(ok.sum())
    keep = ok if exclude_inconsistent else np.ones_like(ok)
    if exclude_inconsistent and n_fail:
        warnings.append(f"{n_fail} respondent(s) over the consistency gate were excluded")
    if not keep.any():
        raise ValueError("no respondent passed the consistency gate")
    agg_crit = ahp_mod.aggregate_geomean(experts.criteria[keep])
    crit_wv, crit_lam = ahp_mod.weights_eigen(agg_crit)
    crit_cons = ahp_mod.consistency(agg_crit, crit_lam, cr_gate)
    gates.append(_check("ahp_criteria_cr", crit_cons.cr, cr_gate, "below"))
    leaf_wv: dict[str, ahp_mod.WeightVector] = {}
    local = {}
    for c in h.criteria:
        agg = ahp_mod.aggregate_geomean(experts.leaves[c][keep])
        wv, _ = ahp_mod.weights_eigen(agg)
        leaf_wv[c] = wv
        local[c] = wv.weights
    sw = ahp_mod.global_weights(h, crit_wv, leaf_wv)
    doc = {
        "n_respondents": len(experts),
        "n_included": keep.sum(),
        "n_inconsistent": n_fail,
        "criteria_weights": crit_wv.weights,
        "criteria_lambda_max": crit_lam,
        "criteria_cr": crit_cons.cr,
        "local_weights": local,
        "global_weights": sw.weights,
        "ranks": sw.ranks,
    }
    # the per-respondent rows are coerced as they are made: one pass over them
    return {**_jsonable(doc), "respondents": per_resp}


def bias_section(ow_raw: Mapping[str, float], sw: ahp_mod.WeightVector) -> dict:
    """Demand-side weights, normalized over sw's labels, set against the supplier's."""
    from . import ahp as ahp_mod

    if set(ow_raw) != set(sw.labels):
        raise ValueError("factor names from the survey side do not match the hierarchy leaves")
    rep = ahp_mod.bias_report(ahp_mod.normalized_weights(ow_raw, labels=tuple(sw.labels)), sw)
    return _jsonable(rep)


def probit_section(
    data: SurveyDataset,
    constructs: Mapping[int, str],
    catalog: VariableCatalog,
    g: GateThresholds,
    single_pass: bool,
    warnings: list[str],
    rows: np.ndarray | None = None,
) -> dict:
    """Ordered-probit backward elimination of the post-trip rating.

    `constructs` maps each candidate item, in column order, to the
    construct its questionnaire entry is filed under. The design is the
    int8 rating codes of the items `_screen` keeps, over the rows where
    every rated item is rated, and the exact moments `_screen` tested
    are the elimination's collinearity check.
    """
    from . import oprobit

    stage = "questionnaire reduction"
    rated, m, _ = _rated_moments(data, list(constructs), stage, warnings, rows)
    if not rated:
        raise ValueError("no retained items")
    items, m, _ = _screen(rated, m, stage, warnings)
    keep = data.complete(rated, rows)
    X = data.codes[keep].take([data._col(i) for i in items], axis=1)
    y = data.column(SATI_AFTER)[keep].astype(int)
    names = tuple(catalog.abbreviation_of(i) for i in items)
    out = oprobit.backward_eliminate(X, y, names, alpha=g.probit_alpha, single_pass=single_pass, moments=m)
    warnings.extend(f"questionnaire reduction: {w}" for w in out.warnings)
    doc: dict[str, object] = {
        "n_obs": out.initial.n_obs,
        "alpha": g.probit_alpha,
        "initial_loglik": out.initial.loglik,
        "initial_pseudo_r2": out.initial.pseudo_r2,
        "steps": out.steps,
        "survivors": out.survivors,
        "final": None,
        "questionnaire": None,
    }
    if out.final is not None:
        doc["final"] = {
            "coef_table": out.final.coef_table(),
            "kappa": out.final.kappa,
            "loglik": out.final.loglik,
            "pseudo_r2": out.final.pseudo_r2,
            "lr_chi2": out.final.lr_chi2,
            "lr_p": out.final.lr_p,
            "converged": out.final.converged,
        }
        # one row per survivor, grouped by construct in the order the
        # constructs first appear among the survivors, and numbered from 1
        item_of = dict(zip(names, items))
        filed: dict[str, list[str]] = {}
        for name in out.survivors:
            construct = constructs[item_of[name]]
            filed.setdefault(DISPLAY_NAMES.get(construct, construct), []).append(name)
        entries = [(c, name) for c, group in filed.items() for name in group]
        doc["questionnaire"] = [
            {"construct": c, "question_number": k, "description": f"survey item {item_of[name]}", "abbreviation": name}
            for k, (c, name) in enumerate(entries, 1)
        ]
    return _jsonable(doc)


_QUESTIONNAIRE_COLUMNS = ("construct", "question_number", "description", "abbreviation")


def write_questionnaire(rows: Sequence[Mapping], path: str) -> None:
    """Write the `questionnaire` rows of a probit document as CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_QUESTIONNAIRE_COLUMNS)
        writer.writerows([row[c] for c in _QUESTIONNAIRE_COLUMNS] for row in rows)


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Execute every stage, write the bundle and reports, return the result."""
    from . import ahp as ahp_mod
    from . import scoring as scoring_mod
    from . import sem as sem_mod

    g = cfg.gates
    gates: list[GateCheck] = []
    warnings: list[str] = []
    catalog = load_catalog(cfg.catalog_path) if cfg.catalog_path else DEFAULT_CATALOG
    data = load_survey(cfg.survey_path, catalog)

    # customer side: the full sample, then the training part, scored on the holdout
    bundle: dict[str, object] = {
        "screening": screening_section(data),
        "descriptives": descriptives_section(describe(data), warnings),
    }
    # a section stays null when its stage fails or has nothing to run on
    bundle.update(dict.fromkeys(("cfa", "sem", "scoring", "ahp", "bias", "probit")))
    stage = partial(_stage, bundle, gates, warnings)
    with stage("adequacy", "reliability and sampling adequacy"):
        bundle["adequacy"], _ = adequacy_section(data, catalog.indices, g, gates, warnings)
    n_train = cfg.n_train if cfg.n_train is not None else round(0.6 * data.n)
    train = split(data, n_train, cfg.seed)  # the training rows' mask; the holdout is ~train
    n_train = int(train.sum())
    bundle["split"] = {"seed": cfg.seed, "n_train": n_train, "n_holdout": data.n - n_train}
    assignment = labels = None
    with stage("efa", "factor extraction"):
        bundle["efa"], assignment, labels = efa_section(data, catalog, g, warnings, train)
    if cfg.model_path:
        structural = sem_mod.load_model(cfg.model_path)
        cfa = _cfa_from_structural(structural)
        if not structural.structural_paths:
            cfa, structural = structural, None
    elif assignment is None:
        warnings.append("no factor assignment; model fitting skipped")
        cfa = structural = None
    else:
        cfa, structural = synthesize_models(assignment, labels, warnings)
    if cfa is not None:
        with stage("cfa", "measurement fit"):
            bundle["cfa"] = cfa_section(data, cfa, g, gates, warnings, train)
    if structural is not None:
        with stage("sem", "structural fit"):
            bundle["sem"], _ = sem_section(data, structural, g, gates, warnings, train)
    sw_doc = bundle["sem"] and bundle["sem"]["score_weights"]
    weights = scoring_mod.ScoreWeights.from_jsonable(sw_doc) if sw_doc else None
    scores = None
    if weights is not None:
        with stage("scoring", "scoring"):
            bundle["scoring"], scores = scoring_section(data, weights, ~train)
    groups = bundle["efa"]["assignment"]["factor_items"] if bundle["efa"] else {}
    with stage("entropy", "response entropy"):
        bundle["entropy"] = entropy_section(data, groups)
    with stage("delay", "delay bands"):
        bundle["delay"] = delay_section(data, groups)

    # supplier side, and the two sides' weights compared
    if cfg.judgments_path:
        with stage("ahp", "supplier weights"):
            bundle["ahp"] = ahp_section(cfg.judgments_path, g, cfg.exclude_inconsistent, gates, warnings)
    else:
        warnings.append("no judgment file supplied; supplier-side sections absent")
    if bundle["ahp"] is not None and weights is not None:
        sw = ahp_mod.WeightVector(
            tuple(ahp_mod.DEFAULT_HIERARCHY.leaves), dict(bundle["ahp"]["global_weights"])
        )
        with stage("bias", "weight comparison"):
            bundle["bias"] = bias_section(weights.latent_weights, sw)

    # questionnaire reduction on the training part, items filed under their EFA factor
    if assignment is None:
        warnings.append("no factor assignment; questionnaire reduction skipped")
    else:
        constructs = {i: labels[assignment.factor_of[i]] for i in sorted(assignment.retained_items)}
        with stage("probit", "questionnaire reduction"):
            bundle["probit"] = probit_section(
                data, constructs, catalog, g, cfg.probit_single_pass, warnings, train
            )

    bundle["gates"] = gates_doc(gates)
    bundle["warnings"] = warnings
    bundle["meta"] = {
        "tool": "lockqual",
        "version": _tool_version(),
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": cfg.seed,
        "inputs": {
            "survey": os.path.basename(cfg.survey_path),
            "catalog": os.path.basename(cfg.catalog_path) if cfg.catalog_path else None,
            "model": os.path.basename(cfg.model_path) if cfg.model_path else None,
            "judgments": os.path.basename(cfg.judgments_path) if cfg.judgments_path else None,
        },
        "entropy_reading": "per observed variable across respondents, averaged per factor",
        "random_generator": "python Random (split), numpy PCG64 (synthetic data)",
    }

    out_paths = _write_outputs(cfg, bundle, weights, scores)
    failures = tuple(c.name for c in gates if not c.passed)
    return PipelineResult(bundle=bundle, gate_failures=failures, out_paths=out_paths)


def _tool_version() -> str:
    from . import __version__

    return __version__


def _write_outputs(cfg, bundle, weights, scores) -> dict[str, str]:
    """Write report.json, summary.md and, when there are any, scores.csv and
    questionnaire.csv into cfg.out_dir, all or none, then remove an earlier
    run's scores.csv or questionnaire.csv this run did not write; returns kind -> path."""
    os.makedirs(cfg.out_dir, exist_ok=True)

    def write_summary(path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_summary(bundle))

    files = {"report": ("report.json", partial(_write_json, bundle)), "summary": ("summary.md", write_summary)}
    if weights is not None and scores is not None:
        from . import scoring as scoring_mod

        files["scores"] = ("scores.csv", partial(scoring_mod.write_scores_csv, scores, weights))
    probit = bundle.get("probit")
    if probit and probit.get("questionnaire"):
        files["questionnaire"] = ("questionnaire.csv", partial(write_questionnaire, probit["questionnaire"]))
    _write_all({os.path.join(cfg.out_dir, name): write for name, write in files.values()})
    for name in {"scores.csv", "questionnaire.csv"}.difference(name for name, _ in files.values()):
        with suppress(FileNotFoundError):
            os.remove(os.path.join(cfg.out_dir, name))
    return {kind: os.path.join(cfg.out_dir, name) for kind, (name, _) in files.items()}


def _fmt(x, digits: int = 3) -> str:
    if x is None:
        return "n/a"
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        return f"{x:.{digits}f}"
    return str(x)


def render_summary(bundle: Mapping[str, object]) -> str:
    """Markdown digest generated from the JSON bundle, never recomputed."""
    lines: list[str] = []
    add = lines.append
    add("# Lock service quality evaluation")
    add("")
    scr = bundle["screening"]
    add(f"Valid respondents: {scr['n_valid']} (rejected {scr['n_rejected']}).")
    desc = bundle["descriptives"]
    add(
        f"Post-trip overall satisfaction averages {_fmt(desc['overall_sati_after'])} on the "
        "five-point scale."
    )
    adq = bundle["adequacy"]
    if adq:
        add("")
        add("## Reliability and sampling adequacy")
        add("")
        add(f"- Cronbach alpha: {_fmt(adq['cronbach_alpha'])}")
        add(f"- KMO: {_fmt(adq['kmo'])}")
        add(
            f"- Bartlett chi2 {_fmt(adq['bartlett_chi2'], 1)} "
            f"(df {adq['bartlett_df']}, p {_fmt(adq['bartlett_p'], 4)})"
        )
    sp = bundle["split"]
    add("")
    add(f"Training/holdout split: {sp['n_train']}/{sp['n_holdout']} (seed {sp['seed']}).")
    efa = bundle["efa"]
    if efa:
        add("")
        add("## Factor structure")
        add("")
        add(
            f"{efa['n_factors']} factors retained "
            f"(cumulative variance {_fmt(efa['cumulative_explained'][-1], 1)}%)."
        )
        for name, items in efa["assignment"]["factor_items"].items():
            alpha = efa["assignment"]["per_factor_alpha"].get(name)
            add(f"- {name}: items {', '.join(str(i) for i in items)} (alpha {_fmt(alpha)})")
        if efa["assignment"]["dropped"]:
            dropped = ", ".join(f"{d['item']} ({d['reason']})" for d in efa["assignment"]["dropped"])
            add(f"- dropped: {dropped}")
    for key, title in (("cfa", "Measurement model"), ("sem", "Structural model")):
        sec = bundle.get(key)
        if not sec:
            continue
        add("")
        add(f"## {title}")
        add("")
        fi = sec["fit_indices"]
        add(
            f"chi2 {_fmt(fi['chi2'], 1)} on {fi['df']} df; CMIN/DF {_fmt(fi['cmin_df'])}, "
            f"RMSEA {_fmt(fi['rmsea'])}, CFI {_fmt(fi['cfi'])}, GFI {_fmt(fi['gfi'])}, "
            f"AGFI {_fmt(fi['agfi'])}, NFI {_fmt(fi['nfi'])}, TLI {_fmt(fi['tli'])}, "
            f"IFI {_fmt(fi['ifi'])}."
        )
        if key == "cfa" and sec.get("validity"):
            v = sec["validity"]
            add("")
            add("| factor | CR | AVE |")
            add("| --- | --- | --- |")
            for name in v["factors"]:
                add(
                    f"| {name} | {_fmt(v['composite_reliability'][name])} "
                    f"| {_fmt(v['ave'][name])} |"
                )
        if key == "sem" and sec.get("score_weights"):
            add("")
            add("Standardized factor weights on overall quality:")
            for name, w in sec["score_weights"]["latent_weights"].items():
                add(f"- {name}: {_fmt(w)}")
    sco = bundle.get("scoring")
    if sco:
        add("")
        add("## Holdout score validation")
        add("")
        add(
            f"Scored {sco['n_scored']} respondents (skipped {sco['n_skipped']}); mean relative "
            f"error {_fmt(100 * sco['mean_error'], 2)}%, share within 10%: "
            f"{_fmt(100 * sco['share_within_10pct'], 1)}%."
        )
    ent = bundle.get("entropy")
    if ent and ent["ranking"]:
        add("")
        add("## Response variability")
        add("")
        add("Factors by diverging perceptions (most first): " + ", ".join(ent["ranking"]) + ".")
    delay = bundle.get("delay")
    if delay:
        add("")
        add("## Delay bands")
        add("")
        add("| band (h) | n | share % | mean satisfaction | excl. time items |")
        add("| --- | --- | --- | --- | --- |")
        for b in delay["bands"]:
            add(
                f"| {b['label']} | {b['n']} | {_fmt(b['share_pct'], 1)} "
                f"| {_fmt(b['s_mean'], 2)} | {_fmt(b['s_mean_alt'], 2)} |"
            )
    ahp = bundle.get("ahp")
    if ahp:
        add("")
        add("## Supplier-side weights")
        add("")
        add(
            f"{ahp['n_included']} of {ahp['n_respondents']} respondents aggregated; "
            f"{ahp['n_inconsistent']} over the consistency gate; aggregate criteria CR "
            f"{_fmt(ahp['criteria_cr'])}."
        )
        for name, w in ahp["global_weights"].items():
            add(f"- {name}: {_fmt(w)} (rank {ahp['ranks'][name]})")
    bias = bundle.get("bias")
    if bias:
        add("")
        add("## Weight comparison")
        add("")
        add("| factor | demand weight | rank | supplier weight | rank |")
        add("| --- | --- | --- | --- | --- |")
        for r in bias["rows"]:
            add(
                f"| {r['factor']} | {_fmt(r['ow'])} | {r['ow_rank']} "
                f"| {_fmt(r['sw'])} | {r['sw_rank']} |"
            )
        add("")
        add(f"Rank correlation between the two sides: {_fmt(bias['spearman'])}.")
    probit = bundle.get("probit")
    if probit:
        add("")
        add("## Questionnaire reduction")
        add("")
        add(
            f"{len(probit['survivors'])} of {len(probit['survivors']) + len(probit['steps'])} "
            f"items survive backward elimination at alpha {_fmt(probit['alpha'], 2)}: "
            + ", ".join(probit["survivors"])
            + "."
        )
    failures = [c["name"] for c in bundle["gates"] if not c["passed"]]
    add("")
    add("## Gates")
    add("")
    if failures:
        add("Failing: " + ", ".join(failures) + ".")
    else:
        add("All gates pass.")
    add("")
    add("| gate | value | threshold | passed |")
    add("| --- | --- | --- | --- |")
    for c in bundle["gates"]:
        thr = f"{'>=' if c['mode'] == 'at_least' else '<'} {_fmt(c['threshold'], 2)}"
        add(f"| {c['name']} | {_fmt(c['value'])} | {thr} | {_fmt(c['passed'])} |")
    if bundle.get("warnings"):
        add("")
        add("## Warnings")
        add("")
        for w in bundle["warnings"]:
            add(f"- {w}")
    add("")
    return "\n".join(lines)
