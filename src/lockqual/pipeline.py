"""End-to-end two-perspective evaluation pipeline.

Sequences the customer-side chain (screening, descriptives, adequacy
gates, train/holdout split, factor extraction, measurement and
structural model fits, holdout score validation, entropy and delay
profiling) and the supplier-side chain (pairwise-judgment weighting,
consistency checks, weight comparison), then a questionnaire reduction
by ordered probit. Emits one JSON bundle, a Markdown summary rendered
from that JSON, a per-respondent score CSV and, when the reduction
succeeds, a simplified questionnaire CSV.

Gate failures never abort the run; they are recorded on the bundle so
callers (and the command line's --strict mode) can decide.
"""
from __future__ import annotations

import datetime
import json
import math
import os
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from . import ahp as ahp_mod
from . import efa as efa_mod
from . import oprobit
from . import psychometrics
from . import scoring as scoring_mod
from . import sem as sem_mod
from .catalog import DISPLAY_NAMES, SATI_AFTER, SATI_BEFORE, VariableCatalog, load_catalog
from .catalog import DEFAULT_CATALOG
from .dataset import SurveyDataset, describe, load_survey, split

__all__ = [
    "GateThresholds",
    "PipelineConfig",
    "GateCheck",
    "PipelineResult",
    "run_pipeline",
    "render_summary",
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


def _check(name: str, value: float, threshold: float, mode: str) -> GateCheck:
    if mode == "at_least":
        ok = value >= threshold
    elif mode == "below":
        ok = value < threshold
    else:
        raise ValueError(f"unknown gate mode {mode!r}")
    return GateCheck(name, float(value), float(threshold), mode, bool(ok))


def _jsonable(value):
    """Coerce numpy scalars/arrays and dataclass-ish values for json."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _stats_doc(s) -> dict:
    return {
        "n": s.n,
        "mean": _jsonable(s.mean),
        "std": _jsonable(s.std),
        "skewness": _jsonable(s.skewness),
        "kurtosis": _jsonable(s.kurtosis),
        "normal": s.normal,
    }


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


def _synthesize_models(
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
    endo = {dst for _, dst in model.structural_paths}
    lat = tuple(name for name in model.latents if name not in endo)
    if len(lat) < 2:
        return None
    pairs = tuple((a, b) for i, a in enumerate(lat) for b in lat[i + 1 :])
    return sem_mod.MeasurementModel(lat, {name: model.indicators[name] for name in lat}, (), pairs)


def _fit_doc(est: sem_mod.SemEstimate, fi: sem_mod.FitIndices) -> dict:
    return {
        "n": est.n,
        "converged": est.converged,
        "n_iter": est.n_iter,
        "f_min": _jsonable(est.f_min),
        "heywood": list(est.heywood),
        "warnings": list(est.warnings),
        "param_table": _jsonable(est.param_table()),
        "fit_indices": {
            "chi2": _jsonable(fi.chi2),
            "df": fi.df,
            "baseline_chi2": _jsonable(fi.baseline_chi2),
            "baseline_df": fi.baseline_df,
            "cmin_df": _jsonable(fi.cmin_df),
            "rmsea": _jsonable(fi.rmsea),
            "gfi": _jsonable(fi.gfi),
            "agfi": _jsonable(fi.agfi),
            "nfi": _jsonable(fi.nfi),
            "tli": _jsonable(fi.tli),
            "ifi": _jsonable(fi.ifi),
            "cfi": _jsonable(fi.cfi),
        },
    }


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


def _xy_for_probit(
    d: SurveyDataset, items: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    ids, X = d.matrix(items)
    y = d.column(SATI_AFTER)[d.complete(items)].astype(int)
    return X, y, ids


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Execute every stage, write the bundle and reports, return the result."""
    gates: list[GateCheck] = []
    warnings: list[str] = []
    catalog = load_catalog(cfg.catalog_path) if cfg.catalog_path else DEFAULT_CATALOG
    data = load_survey(cfg.survey_path, catalog)
    if data.n < 10:
        raise ValueError(f"only {data.n} valid respondents; too few for any analysis")

    bundle: dict[str, object] = {}
    bundle["screening"] = {
        "n_valid": data.n,
        "n_rejected": len(data.rejected),
        "rejected": [
            {"row": r.row_number, "id": r.respondent_id, "reason": r.reason} for r in data.rejected
        ],
    }

    # descriptives over the full sample
    rep = describe(data)
    non_normal = sorted(i for i, s in rep.items.items() if s.normal is False)
    bundle["descriptives"] = {
        "items": {str(i): _stats_doc(s) for i, s in sorted(rep.items.items())},
        "sati_before": _stats_doc(rep.sati_before),
        "sati_after": _stats_doc(rep.sati_after),
        "overall_sati_after": _jsonable(rep.overall_sati_after),
        "non_normal_items": non_normal,
    }
    if non_normal:
        warnings.append(f"items outside the skew/kurtosis screen: {non_normal}")

    # reliability and sampling adequacy on the full sample
    _, x_full = data.matrix(catalog.indices)
    adq = psychometrics.adequacy(x_full)
    bundle["adequacy"] = {
        "n_complete": int(x_full.shape[0]),
        "cronbach_alpha": _jsonable(adq.cronbach_alpha),
        "kmo": _jsonable(adq.kmo),
        "bartlett_chi2": _jsonable(adq.bartlett_chi2),
        "bartlett_df": adq.bartlett_df,
        "bartlett_p": _jsonable(adq.bartlett_p),
    }
    g = cfg.gates
    gates.append(_check("cronbach_alpha", adq.cronbach_alpha, g.alpha, "at_least"))
    gates.append(_check("kmo", adq.kmo, g.kmo, "at_least"))
    gates.append(_check("bartlett_p", adq.bartlett_p, g.bartlett_p, "below"))

    # deterministic train/holdout split
    n_train = cfg.n_train if cfg.n_train is not None else round(0.6 * data.n)
    train, holdout = split(data, n_train, cfg.seed)
    bundle["split"] = {"seed": cfg.seed, "n_train": train.n, "n_holdout": holdout.n}

    # factor extraction on the training part
    _, x_train = train.matrix(catalog.indices)
    r_train = psychometrics.correlation_matrix(x_train)
    raw = efa_mod.extract_pca(r_train, items=catalog.indices)
    rotated = efa_mod.rotate_varimax(raw)
    assignment = efa_mod.prune(rotated, data=x_train, threshold=g.loading, cross_margin=g.cross_margin)
    labels = _label_factors(assignment, catalog)
    warnings.extend(assignment.warnings)
    bundle["efa"] = {
        "n_rows": int(x_train.shape[0]),
        "n_factors": rotated.n_factors,
        "eigenvalues": _jsonable(rotated.eigenvalues),
        "variance_explained": _jsonable(rotated.variance_explained),
        "cumulative_explained": _jsonable(rotated.cumulative_explained),
        "loadings": {
            str(item): _jsonable(rotated.loadings[k, :]) for k, item in enumerate(rotated.items)
        },
        "assignment": {
            "factor_labels": {str(j): labels[j] for j in sorted(labels)},
            "factor_items": {labels[j]: list(items) for j, items in assignment.factor_items.items()},
            "dropped": [{"item": di.item, "reason": di.reason} for di in assignment.dropped_items],
            "per_factor_alpha": {labels[j]: _jsonable(a) for j, a in assignment.per_factor_alpha.items()},
        },
    }

    # model specs: user-supplied or synthesized from the assignment
    if cfg.model_path:
        structural = sem_mod.load_model(cfg.model_path)
        cfa = _cfa_from_structural(structural)
        if not structural.structural_paths:
            cfa, structural = structural, None
    else:
        cfa, structural = _synthesize_models(assignment, labels, warnings)

    # measurement fit and construct validity
    weights = None
    bundle["cfa"] = None
    bundle["sem"] = None
    if cfa is not None:
        try:
            ids_c, x_cfa = train.matrix(cfa.observed)
            est_c = sem_mod.fit_ml(cfa, sem_mod.sample_cov(x_cfa), n=x_cfa.shape[0])
            est_c = sem_mod.standardize(est_c)
            fi_c = sem_mod.fit_indices(est_c)
            validity = sem_mod.construct_validity(est_c)
        except ValueError as exc:
            warnings.append(f"measurement fit failed: {exc}")
        else:
            doc = _fit_doc(est_c, fi_c)
            doc["validity"] = {
                "factors": list(validity.factors),
                "composite_reliability": _jsonable(dict(validity.composite_reliability)),
                "ave": _jsonable(dict(validity.ave)),
                "convergent_pass": _jsonable(dict(validity.convergent_pass)),
                "discriminant_pass": _jsonable(dict(validity.discriminant_pass)),
                "fornell_larcker": _jsonable(validity.fornell_larcker),
            }
            bundle["cfa"] = doc
            warnings.extend(f"measurement fit: {w}" for w in est_c.warnings)
            gates.extend(_fit_index_gates(fi_c, "cfa", g))
            for name in validity.factors:
                if not validity.convergent_pass[name]:
                    warnings.append(f"convergent validity short of the gate for {name!r}")
                if not validity.discriminant_pass[name]:
                    warnings.append(f"discriminant validity short of the gate for {name!r}")

    # structural fit, standardized weights
    if structural is not None:
        try:
            ids_s, x_sem = train.matrix(structural.observed)
            est_s = sem_mod.fit_ml(structural, sem_mod.sample_cov(x_sem), n=x_sem.shape[0])
            est_s = sem_mod.standardize(est_s)
            fi_s = sem_mod.fit_indices(est_s)
        except ValueError as exc:
            warnings.append(f"structural fit failed: {exc}")
        else:
            doc = _fit_doc(est_s, fi_s)
            try:
                weights = scoring_mod.weights_from_estimate(est_s)
            except ValueError as exc:
                warnings.append(f"score weights unavailable: {exc}")
            if weights is not None and weights.nonpositive:
                warnings.append(
                    "nonpositive standardized weights, scoring skipped: "
                    + ", ".join(weights.nonpositive)
                )
                weights = None
            doc["score_weights"] = weights.to_jsonable() if weights is not None else None
            bundle["sem"] = doc
            warnings.extend(f"structural fit: {w}" for w in est_s.warnings)
            gates.extend(_fit_index_gates(fi_s, "sem", g))

    # holdout score validation
    bundle["scoring"] = None
    scores = None
    if weights is not None:
        try:
            scores = scoring_mod.validation_summary(holdout, weights)
        except ValueError as exc:
            warnings.append(f"holdout scoring failed: {exc}")
        if scores is not None:
            bundle["scoring"] = {
                "n_scored": scores.n_scored,
                "n_skipped": scores.n_skipped,
                "mean_error": _jsonable(scores.mean_error),
                "share_within_10pct": _jsonable(scores.share_within_10pct),
            }

    # response entropy per item and factor, over the full sample
    latent_items = {labels[j]: list(items) for j, items in assignment.factor_items.items()}
    ent = scoring_mod.entropy_report(data, latent_items)
    bookends = {}
    for idx in (SATI_BEFORE, SATI_AFTER):
        bookends[str(idx)] = _jsonable(scoring_mod.entropy(data.observed(idx)))
    bundle["entropy"] = {
        "per_item": {str(i): _jsonable(e) for i, e in sorted(ent.per_item.items())},
        "per_latent": _jsonable(dict(ent.per_latent)),
        "variability": _jsonable(dict(ent.variability)),
        "ranking": list(ent.ranking),
        "bookends": bookends,
    }

    # delay bands; the time-pressure factor's items are structurally
    # excluded from the alternative per-band satisfaction reading
    time_factors = {name for name in latent_items if name.startswith("time_convenience")}
    alt_items = sorted(
        i for name, items in latent_items.items() if name not in time_factors for i in items
    )
    try:
        strata = scoring_mod.delay_strata(data, alt_items=alt_items or None)
        bundle["delay"] = {
            "bands": [
                {
                    "label": b.label,
                    "n": b.n,
                    "share_pct": _jsonable(b.share_pct),
                    "s_mean": _jsonable(b.s_mean),
                    "s_mean_alt": _jsonable(b.s_mean_alt),
                }
                for b in strata.bands
            ],
            "n_with_delay": strata.n_with_delay,
            "n_missing_delay": strata.n_missing_delay,
            "alt_items": alt_items,
            "alt_excludes": sorted(time_factors),
        }
    except ValueError as exc:
        bundle["delay"] = None
        warnings.append(f"delay bands unavailable: {exc}")

    # supplier-side weighting
    bundle["ahp"] = None
    sw = None
    if cfg.judgments_path:
        bundle["ahp"] = _ahp_stage(
            cfg.judgments_path, g.consistency_ratio, cfg.exclude_inconsistent, gates, warnings
        )
        if bundle["ahp"] is not None:
            sw = ahp_mod.WeightVector(
                tuple(ahp_mod.DEFAULT_HIERARCHY.leaves),
                {k: v for k, v in bundle["ahp"]["global_weights"].items()},
            )
    else:
        warnings.append("no judgment file supplied; supplier-side sections absent")

    # demand-vs-supplier weight comparison
    bundle["bias"] = None
    if sw is not None and weights is not None:
        ow_raw = dict(weights.latent_weights)
        if set(ow_raw) == set(sw.labels):
            ow = ahp_mod.normalized_weights(ow_raw, labels=tuple(sw.labels))
            rep_b = ahp_mod.bias_report(ow, sw)
            bundle["bias"] = {
                "rows": [
                    {
                        "factor": r.factor,
                        "ow": _jsonable(r.ow),
                        "ow_rank": r.ow_rank,
                        "sw": _jsonable(r.sw),
                        "sw_rank": r.sw_rank,
                    }
                    for r in rep_b.rows
                ],
                "spearman": _jsonable(rep_b.spearman),
                "dominance": _jsonable(dict(rep_b.dominance)),
            }
        else:
            warnings.append(
                "factor names from the survey side do not match the hierarchy leaves; "
                "weight comparison skipped"
            )

    # questionnaire reduction on the training part
    bundle["probit"] = _probit_stage(cfg, g, train, assignment, labels, catalog, warnings)

    bundle["gates"] = [
        {
            "name": c.name,
            "value": _jsonable(c.value),
            "threshold": _jsonable(c.threshold),
            "mode": c.mode,
            "passed": c.passed,
        }
        for c in gates
    ]
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


def _ahp_stage(
    judgments_path: str,
    cr_gate: float,
    exclude_inconsistent: bool,
    gates: list[GateCheck],
    warnings: list[str],
) -> dict | None:
    h = ahp_mod.DEFAULT_HIERARCHY
    try:
        experts = ahp_mod.load_judgments(judgments_path, h)
    except ValueError as exc:
        warnings.append(f"judgment file rejected: {exc}")
        return None
    if not experts:
        warnings.append("judgment file holds no respondents")
        return None
    per_resp = []
    keep = []
    for e in experts:
        _, lam = ahp_mod.weights_eigen(e.criteria)
        crit_cons = ahp_mod.consistency(e.criteria, lam, cr_gate)
        ok = crit_cons.passed  # 2x2 leaf matrices are consistent by construction
        per_resp.append(
            {
                "id": e.respondent_id,
                "criteria_cr": _jsonable(crit_cons.cr),
                "consistent": ok,
            }
        )
        if ok or not exclude_inconsistent:
            keep.append(e)
    n_fail = sum(1 for r in per_resp if not r["consistent"])
    if exclude_inconsistent and n_fail:
        warnings.append(f"{n_fail} respondent(s) over the consistency gate were excluded")
    if not keep:
        warnings.append("no respondent passed the consistency gate; supplier weights skipped")
        return None
    agg_crit = ahp_mod.aggregate_geomean([e.criteria for e in keep])
    crit_wv, crit_lam = ahp_mod.weights_eigen(agg_crit)
    crit_cons = ahp_mod.consistency(agg_crit, crit_lam, cr_gate)
    gates.append(_check("ahp_criteria_cr", crit_cons.cr, cr_gate, "below"))
    leaf_wv: dict[str, ahp_mod.WeightVector] = {}
    local = {}
    for c in h.criteria:
        agg = ahp_mod.aggregate_geomean([e.leaves[c] for e in keep])
        wv, _ = ahp_mod.weights_eigen(agg)
        leaf_wv[c] = wv
        local[c] = {k: _jsonable(v) for k, v in wv.weights.items()}
    sw = ahp_mod.global_weights(h, crit_wv, leaf_wv)
    return {
        "n_respondents": len(experts),
        "n_included": len(keep),
        "n_inconsistent": n_fail,
        "respondents": per_resp,
        "criteria_weights": {k: _jsonable(v) for k, v in crit_wv.weights.items()},
        "criteria_lambda_max": _jsonable(crit_lam),
        "criteria_cr": _jsonable(crit_cons.cr),
        "local_weights": local,
        "global_weights": {k: _jsonable(v) for k, v in sw.weights.items()},
        "ranks": {k: int(v) for k, v in sw.ranks.items()},
    }


def _probit_stage(
    cfg: PipelineConfig,
    g: GateThresholds,
    train: SurveyDataset,
    assignment: efa_mod.FactorAssignment,
    labels: Mapping[int, str],
    catalog: VariableCatalog,
    warnings: list[str],
) -> dict | None:
    items = sorted(assignment.retained_items)
    if not items:
        warnings.append("no retained items; questionnaire reduction skipped")
        return None
    X, y, _ = _xy_for_probit(train, items)
    names = tuple(catalog.abbreviation_of(i) for i in items)
    try:
        out = oprobit.backward_eliminate(
            X, y, names, alpha=g.probit_alpha, single_pass=cfg.probit_single_pass
        )
    except ValueError as exc:
        warnings.append(f"questionnaire reduction failed: {exc}")
        return None
    warnings.extend(f"questionnaire reduction: {w}" for w in out.warnings)
    doc: dict[str, object] = {
        "n_obs": out.initial.n_obs,
        "alpha": _jsonable(g.probit_alpha),
        "initial_loglik": _jsonable(out.initial.loglik),
        "initial_pseudo_r2": _jsonable(out.initial.pseudo_r2),
        "steps": [{"dropped": s.dropped, "p_value": _jsonable(s.p_value)} for s in out.steps],
        "survivors": list(out.survivors),
        "final": None,
        "questionnaire": None,
    }
    if out.final is not None:
        doc["final"] = {
            "coef_table": _jsonable(out.final.coef_table()),
            "kappa": _jsonable(out.final.kappa),
            "loglik": _jsonable(out.final.loglik),
            "pseudo_r2": _jsonable(out.final.pseudo_r2),
            "lr_chi2": _jsonable(out.final.lr_chi2),
            "lr_p": _jsonable(out.final.lr_p),
            "converged": out.final.converged,
        }
        abbrev_to_item = {catalog.abbreviation_of(i): i for i in items}
        factor_of = assignment.factor_of
        metadata = {}
        order: list[str] = []
        for name in out.survivors:
            idx = abbrev_to_item[name]
            construct = DISPLAY_NAMES.get(labels[factor_of[idx]], labels[factor_of[idx]])
            metadata[name] = {
                "construct": construct,
                "abbreviation": name,
                "description": f"survey item {idx}",
            }
            if construct not in order:
                order.append(construct)
        q = oprobit.build_questionnaire(out.survivors, metadata, construct_order=order)
        doc["questionnaire"] = [
            {
                "construct": e.construct,
                "question_number": e.number,
                "description": e.description,
                "abbreviation": e.abbreviation,
            }
            for e in q.entries
        ]
    return doc


def _write_outputs(cfg, bundle, weights, scores) -> dict[str, str]:
    os.makedirs(cfg.out_dir, exist_ok=True)
    paths: dict[str, str] = {}
    report_path = os.path.join(cfg.out_dir, "report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(bundle, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    paths["report"] = report_path
    summary_path = os.path.join(cfg.out_dir, "summary.md")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(render_summary(bundle))
    paths["summary"] = summary_path
    if weights is not None and scores is not None:
        scores_path = os.path.join(cfg.out_dir, "scores.csv")
        scoring_mod.write_scores_csv(scores, weights, scores_path)
        paths["scores"] = scores_path
    probit = bundle.get("probit")
    if probit and probit.get("questionnaire"):
        q_path = os.path.join(cfg.out_dir, "questionnaire.csv")
        entries = tuple(
            oprobit.QuestionnaireEntry(
                construct=e["construct"],
                number=e["question_number"],
                description=e["description"],
                abbreviation=e["abbreviation"],
                item=e["abbreviation"],
            )
            for e in probit["questionnaire"]
        )
        oprobit.write_questionnaire_csv(oprobit.SimplifiedQuestionnaire(entries), q_path)
        paths["questionnaire"] = q_path
    return paths


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
    if ent:
        add("")
        add("## Response variability")
        add("")
        ranked = ent["ranking"]
        add("Factors by diverging perceptions (most first): " + ", ".join(ranked) + ".")
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
