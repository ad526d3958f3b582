"""Command line front end.

Every subcommand wraps one analysis surface and emits JSON (stdout or
--out). Exit codes: 0 success, 1 input error, 2 gate failure when
--strict was given. The report subcommand drives the whole pipeline
and writes its bundle into an output directory (flag, or LOCKQUAL_OUT,
or ./lockqual_out).
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Mapping, Sequence

import numpy as np

from . import ahp as ahp_mod
from . import efa as efa_mod
from . import oprobit
from . import psychometrics
from . import scoring as scoring_mod
from . import sem as sem_mod
from . import synth
from .catalog import DEFAULT_CATALOG, DISPLAY_NAMES, load_catalog
from .dataset import describe, load_survey, split, write_survey
from .pipeline import (
    GateThresholds,
    PipelineConfig,
    _ahp_stage,
    _check,
    _fit_doc,
    _fit_index_gates,
    _jsonable,
    _label_factors,
    _stats_doc,
    _synthesize_models,
    _xy_for_probit,
    run_pipeline,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on bad flags (2 is reserved for gates)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(doc: object, out: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _catalog(args: argparse.Namespace):
    return load_catalog(args.catalog) if getattr(args, "catalog", None) else DEFAULT_CATALOG


def _items_arg(text: str | None, known: Sequence[int]) -> tuple[int, ...]:
    if not text:
        return tuple(known)
    try:
        items = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"--items expects a comma-separated integer list, got {text!r}")
    bad = sorted(set(items) - set(known))
    if bad:
        raise ValueError("unknown item indices: " + ", ".join(str(b) for b in bad))
    return items


def _gate_doc(checks) -> list[dict]:
    return [
        {
            "name": c.name,
            "value": _jsonable(c.value),
            "threshold": _jsonable(c.threshold),
            "mode": c.mode,
            "passed": c.passed,
        }
        for c in checks
    ]


def _finish(args: argparse.Namespace, doc: dict, checks, out: str | None) -> int:
    doc["gates"] = _gate_doc(checks)
    _emit(doc, out)
    if getattr(args, "strict", False) and any(not c.passed for c in checks):
        return 2
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    d = load_survey(args.input, _catalog(args))
    _emit(
        {
            "n_valid": d.n,
            "n_rejected": len(d.rejected),
            "rejected": [
                {"row": r.row_number, "id": r.respondent_id, "reason": r.reason}
                for r in d.rejected
            ],
        },
        args.out,
    )
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    d = load_survey(args.input, _catalog(args))
    rep = describe(d)
    _emit(
        {
            "items": {str(i): _stats_doc(s) for i, s in sorted(rep.items.items())},
            "sati_before": _stats_doc(rep.sati_before),
            "sati_after": _stats_doc(rep.sati_after),
            "overall_sati_after": _jsonable(rep.overall_sati_after),
            "non_normal_items": sorted(i for i, s in rep.items.items() if s.normal is False),
        },
        args.out,
    )
    return 0


def _cmd_reliability(args: argparse.Namespace) -> int:
    catalog = _catalog(args)
    d = load_survey(args.input, catalog)
    items = _items_arg(args.items, catalog.indices)
    _, x = d.matrix(items)
    adq = psychometrics.adequacy(x)
    g = GateThresholds()
    checks = [
        _check("cronbach_alpha", adq.cronbach_alpha, g.alpha, "at_least"),
        _check("kmo", adq.kmo, g.kmo, "at_least"),
        _check("bartlett_p", adq.bartlett_p, g.bartlett_p, "below"),
    ]
    doc = {
        "items": list(items),
        "n_complete": int(x.shape[0]),
        "cronbach_alpha": _jsonable(adq.cronbach_alpha),
        "kmo": _jsonable(adq.kmo),
        "bartlett_chi2": _jsonable(adq.bartlett_chi2),
        "bartlett_df": adq.bartlett_df,
        "bartlett_p": _jsonable(adq.bartlett_p),
    }
    return _finish(args, doc, checks, args.out)


def _cmd_efa(args: argparse.Namespace) -> int:
    catalog = _catalog(args)
    d = load_survey(args.input, catalog)
    _, x = d.matrix(catalog.indices)
    R = psychometrics.correlation_matrix(x)
    rotated = efa_mod.rotate_varimax(efa_mod.extract_pca(R, items=catalog.indices))
    assignment = efa_mod.prune(
        rotated, data=x, threshold=args.threshold, cross_margin=args.cross_margin
    )
    labels = _label_factors(assignment, catalog)
    _emit(
        {
            "n_rows": int(x.shape[0]),
            "n_factors": rotated.n_factors,
            "eigenvalues": _jsonable(rotated.eigenvalues),
            "variance_explained": _jsonable(rotated.variance_explained),
            "cumulative_explained": _jsonable(rotated.cumulative_explained),
            "loadings": {
                str(item): _jsonable(rotated.loadings[k, :])
                for k, item in enumerate(rotated.items)
            },
            "assignment": {
                "factor_labels": {str(j): labels[j] for j in sorted(labels)},
                "factor_items": {
                    labels[j]: list(items) for j, items in assignment.factor_items.items()
                },
                "dropped": [
                    {"item": di.item, "reason": di.reason} for di in assignment.dropped_items
                ],
                "per_factor_alpha": {
                    labels[j]: _jsonable(a) for j, a in assignment.per_factor_alpha.items()
                },
                "warnings": list(assignment.warnings),
            },
        },
        args.out,
    )
    return 0


def _cmd_sem(args: argparse.Namespace) -> int:
    catalog = _catalog(args)
    d = load_survey(args.input, catalog)
    n_train = args.n_train if args.n_train is not None else round(0.6 * d.n)
    train, _ = split(d, n_train, args.seed)
    warnings: list[str] = []
    if args.model:
        model = sem_mod.load_model(args.model)
    else:
        _, x = train.matrix(catalog.indices)
        R = psychometrics.correlation_matrix(x)
        rotated = efa_mod.rotate_varimax(efa_mod.extract_pca(R, items=catalog.indices))
        assignment = efa_mod.prune(rotated, data=x)
        labels = _label_factors(assignment, catalog)
        _, model = _synthesize_models(assignment, labels, warnings)
        if model is None:
            raise ValueError("factor extraction left no usable model; supply --model")
    _, x_fit = train.matrix(model.observed)
    est = sem_mod.fit_ml(model, sem_mod.sample_cov(x_fit), n=x_fit.shape[0])
    est = sem_mod.standardize(est)
    fi = sem_mod.fit_indices(est)
    doc = _fit_doc(est, fi)
    doc["model"] = json.loads(model.to_json())
    doc["split"] = {"seed": args.seed, "n_train": train.n}
    try:
        validity = sem_mod.construct_validity(est)
        doc["validity"] = {
            "factors": list(validity.factors),
            "composite_reliability": _jsonable(dict(validity.composite_reliability)),
            "ave": _jsonable(dict(validity.ave)),
            "convergent_pass": _jsonable(dict(validity.convergent_pass)),
            "discriminant_pass": _jsonable(dict(validity.discriminant_pass)),
            "fornell_larcker": _jsonable(validity.fornell_larcker),
        }
    except ValueError as exc:
        doc["validity"] = None
        warnings.append(f"construct validity unavailable: {exc}")
    try:
        doc["score_weights"] = scoring_mod.weights_from_estimate(est).to_jsonable()
    except ValueError as exc:
        doc["score_weights"] = None
        warnings.append(f"score weights unavailable: {exc}")
    doc["cli_warnings"] = warnings
    checks = _fit_index_gates(fi, "sem", GateThresholds())
    return _finish(args, doc, checks, args.out)


def _load_weight_doc(path: str) -> Mapping[str, float]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    for key in ("score_weights", "ahp"):
        if isinstance(doc.get(key), dict):
            doc = doc[key]
    for key in ("latent_weights", "global_weights", "weights"):
        inner = doc.get(key)
        if isinstance(inner, dict):
            doc = inner
            break
    if not doc or not all(isinstance(v, (int, float)) for v in doc.values()):
        raise ValueError(f"{path}: no usable name -> weight mapping found")
    return {str(k): float(v) for k, v in doc.items()}


def _cmd_score(args: argparse.Namespace) -> int:
    catalog = _catalog(args)
    d = load_survey(args.input, catalog)
    with open(args.weights, "r", encoding="utf-8") as fh:
        wdoc = json.load(fh)
    if isinstance(wdoc, dict) and isinstance(wdoc.get("score_weights"), dict):
        wdoc = wdoc["score_weights"]
    try:
        w = scoring_mod.ScoreWeights.from_jsonable(wdoc)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(
            f"{args.weights}: not a usable weights document "
            "(needs latents, item_weights and latent_weights)"
        ) from exc
    summary = scoring_mod.validation_summary(d, w)
    if args.csv:
        scoring_mod.write_scores_csv(summary, w, args.csv)
    _emit(
        {
            "n_scored": summary.n_scored,
            "n_skipped": summary.n_skipped,
            "mean_error": _jsonable(summary.mean_error),
            "share_within_10pct": _jsonable(summary.share_within_10pct),
            "csv": args.csv,
        },
        args.out,
    )
    return 0


def _cmd_entropy(args: argparse.Namespace) -> int:
    catalog = _catalog(args)
    d = load_survey(args.input, catalog)
    if args.groups:
        with open(args.groups, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict) or not raw:
            raise ValueError(f"{args.groups}: expected a JSON object of name -> item list")
        groups = {str(k): [int(i) for i in v] for k, v in raw.items()}
        bad = sorted({i for v in groups.values() for i in v} - set(catalog.indices))
        if bad:
            raise ValueError(
                "unknown item indices in --groups: " + ", ".join(str(b) for b in bad)
            )
    else:
        groups = {}
        for i in catalog.indices:
            groups.setdefault(catalog.hint_of(i), []).append(i)
    ent = scoring_mod.entropy_report(d, groups)
    alt_items = sorted(
        i for name, items in groups.items() if name != "time_convenience" for i in items
    )
    doc: dict[str, object] = {
        "per_item": {str(i): _jsonable(e) for i, e in sorted(ent.per_item.items())},
        "per_group": _jsonable(dict(ent.per_latent)),
        "variability": _jsonable(dict(ent.variability)),
        "ranking": list(ent.ranking),
    }
    try:
        strata = scoring_mod.delay_strata(d, alt_items=alt_items or None)
        doc["delay"] = {
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
        }
    except ValueError as exc:
        doc["delay"] = None
        doc["delay_warning"] = str(exc)
    _emit(doc, args.out)
    return 0


def _cmd_ahp(args: argparse.Namespace) -> int:
    checks: list = []
    warnings: list[str] = []
    doc = _ahp_stage(
        args.judgments, args.cr_gate, args.exclude_inconsistent, checks, warnings
    )
    if doc is None:
        raise ValueError("; ".join(warnings) or "no usable judgments")
    doc["warnings"] = warnings
    return _finish(args, doc, checks, args.out)


def _cmd_probit(args: argparse.Namespace) -> int:
    catalog = _catalog(args)
    d = load_survey(args.input, catalog)
    items = _items_arg(args.items, catalog.indices)
    X, y, _ = _xy_for_probit(d, items)
    names = tuple(catalog.abbreviation_of(i) for i in items)
    out = oprobit.backward_eliminate(
        X, y, names, alpha=args.alpha, single_pass=args.single_pass
    )
    doc: dict[str, object] = {
        "n_obs": out.initial.n_obs,
        "alpha": args.alpha,
        "initial_loglik": _jsonable(out.initial.loglik),
        "initial_pseudo_r2": _jsonable(out.initial.pseudo_r2),
        "steps": [{"dropped": s.dropped, "p_value": _jsonable(s.p_value)} for s in out.steps],
        "survivors": list(out.survivors),
        "warnings": list(out.warnings),
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
        by_abbrev = {catalog.abbreviation_of(i): i for i in items}
        metadata = {}
        order: list[str] = []
        for name in out.survivors:
            idx = by_abbrev[name]
            construct = DISPLAY_NAMES.get(catalog.hint_of(idx), catalog.hint_of(idx))
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
        if args.csv:
            oprobit.write_questionnaire_csv(q, args.csv)
            doc["csv"] = args.csv
    _emit(doc, args.out)
    return 0


def _cmd_bias(args: argparse.Namespace) -> int:
    h = ahp_mod.DEFAULT_HIERARCHY
    ow = ahp_mod.normalized_weights(_load_weight_doc(args.ow), labels=h.leaves)
    sw = ahp_mod.normalized_weights(_load_weight_doc(args.sw), labels=h.leaves)
    rep = ahp_mod.bias_report(ow, sw, h)
    _emit(
        {
            "rows": [
                {
                    "factor": r.factor,
                    "ow": _jsonable(r.ow),
                    "ow_rank": r.ow_rank,
                    "sw": _jsonable(r.sw),
                    "sw_rank": r.sw_rank,
                }
                for r in rep.rows
            ],
            "spearman": _jsonable(rep.spearman),
            "dominance": _jsonable(dict(rep.dominance)),
        },
        args.out,
    )
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    meta: dict[str, object] = {
        "kind": args.kind,
        "seed": args.seed,
        "random_generator": "numpy default_rng (PCG64)",
    }
    if args.kind == "sem":
        n = args.n if args.n is not None else 750
        spec = synth.default_sem_truth(n=n, seed=args.seed)
        write_survey(synth.gen_sem_survey(spec), args.out_file)
        meta.update({"n": n, "structure": "six correlated factors, 29 strong items, 3 fillers"})
    elif args.kind == "ahp":
        n = args.n if args.n is not None else 49
        spec = synth.AhpSpec(n_respondents=n, seed=args.seed, noise_level=args.noise)
        synth.write_judgments_csv(synth.gen_ahp_judgments(spec), args.out_file)
        meta.update({"n": n, "noise_level": args.noise})
    else:
        n = args.n if args.n is not None else 600
        beta = (0.9, 0.7, 0.0, 0.0, 0.0, 0.0)
        kappa = (-2.2, -0.9, 0.6, 2.0)
        X, y = synth.gen_probit(synth.ProbitSpec(beta=beta, kappa=kappa, n=n, seed=args.seed))
        with open(args.out_file, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{j + 1}" for j in range(X.shape[1])] + ["y"])
            for row, yi in zip(X, y):
                writer.writerow([repr(float(v)) for v in row] + [int(yi)])
        meta.update({"n": n, "beta": list(beta), "kappa": list(kappa)})
    with open(args.out_file + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {args.out_file}\n")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    out_dir = args.out_dir or os.environ.get("LOCKQUAL_OUT") or "lockqual_out"
    cfg = PipelineConfig(
        survey_path=args.input,
        out_dir=out_dir,
        catalog_path=args.catalog,
        model_path=args.model,
        judgments_path=args.judgments,
        seed=args.seed,
        n_train=args.n_train,
        exclude_inconsistent=args.exclude_inconsistent,
        probit_single_pass=args.single_pass,
    )
    res = run_pipeline(cfg)
    for kind, path in sorted(res.out_paths.items()):
        sys.stdout.write(f"{kind}: {path}\n")
    if res.gate_failures:
        sys.stdout.write("failing gates: " + ", ".join(res.gate_failures) + "\n")
        if args.strict:
            return 2
    else:
        sys.stdout.write("all gates pass\n")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="lockqual", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("validate", _cmd_validate, "screen a survey CSV and report rejected rows")
    p.add_argument("--input", required=True)
    p.add_argument("--catalog")
    p.add_argument("--out")

    p = add("describe", _cmd_describe, "item statistics and normality screens")
    p.add_argument("--input", required=True)
    p.add_argument("--catalog")
    p.add_argument("--out")

    p = add("reliability", _cmd_reliability, "Cronbach alpha, KMO and Bartlett test")
    p.add_argument("--input", required=True)
    p.add_argument("--catalog")
    p.add_argument("--items", help="comma-separated item indices (default: all)")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out")

    p = add("efa", _cmd_efa, "extract, rotate and prune a factor solution")
    p.add_argument("--input", required=True)
    p.add_argument("--catalog")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--cross-margin", type=float, default=0.2)
    p.add_argument("--out")

    p = add("sem", _cmd_sem, "fit the structural model and emit score weights")
    p.add_argument("--input", required=True)
    p.add_argument("--catalog")
    p.add_argument("--model", help="model spec JSON (default: synthesized from EFA)")
    p.add_argument("--n-train", type=int, default=None)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out")

    p = add("score", _cmd_score, "two-stage satisfaction scores against the bookend")
    p.add_argument("--input", required=True)
    p.add_argument("--weights", required=True, help="score weights JSON (sem output works)")
    p.add_argument("--catalog")
    p.add_argument("--csv", help="write per-respondent scores CSV here")
    p.add_argument("--out")

    p = add("entropy", _cmd_entropy, "response entropy, variability and delay bands")
    p.add_argument("--input", required=True)
    p.add_argument("--catalog")
    p.add_argument("--groups", help="JSON object of group -> item indices")
    p.add_argument("--out")

    p = add("ahp", _cmd_ahp, "aggregate pairwise judgments into global weights")
    p.add_argument("--judgments", required=True)
    p.add_argument("--cr-gate", type=float, default=0.1)
    p.add_argument("--exclude-inconsistent", action="store_true")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out")

    p = add("probit", _cmd_probit, "backward elimination and simplified questionnaire")
    p.add_argument("--input", required=True)
    p.add_argument("--catalog")
    p.add_argument("--items", help="comma-separated item indices (default: all)")
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--single-pass", action="store_true")
    p.add_argument("--csv", help="write the simplified questionnaire CSV here")
    p.add_argument("--out")

    p = add("bias", _cmd_bias, "demand vs supplier weight comparison")
    p.add_argument("--ow", required=True, help="demand-side weights JSON (sem output works)")
    p.add_argument("--sw", required=True, help="supplier-side weights JSON (ahp output works)")
    p.add_argument("--out")

    p = add("synth", _cmd_synth, "generate synthetic inputs with planted structure")
    p.add_argument("--kind", required=True, choices=("sem", "ahp", "probit"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--noise", type=float, default=0.05, help="ahp rung-slip probability")
    p.add_argument("--out-file", required=True)

    p = add("report", _cmd_report, "run the full pipeline and write the bundle")
    p.add_argument("--input", required=True)
    p.add_argument("--catalog")
    p.add_argument("--model")
    p.add_argument("--judgments")
    p.add_argument("--out-dir")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--n-train", type=int, default=None)
    p.add_argument("--exclude-inconsistent", action="store_true")
    p.add_argument("--single-pass", action="store_true")
    p.add_argument("--strict", action="store_true")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
