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
from dataclasses import replace
from functools import partial
from typing import Mapping, Sequence

from .catalog import DEFAULT_CATALOG, load_catalog
from .dataset import describe, load_survey, split, write_survey
from .pipeline import (
    GateThresholds,
    PipelineConfig,
    _dump_json,
    _stage,
    _write_all,
    _write_json,
    adequacy_section,
    ahp_section,
    bias_section,
    delay_section,
    descriptives_section,
    efa_section,
    entropy_section,
    gates_doc,
    probit_section,
    run_pipeline,
    scoring_section,
    screening_section,
    sem_section,
    synthesize_models,
    validity_doc,
    write_questionnaire,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on bad flags (2 is reserved for gates)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(doc: object, out: str | None) -> None:
    if out:
        _write_all({out: partial(_write_json, doc)})
    else:
        _dump_json(doc, sys.stdout)


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


def _finish(args: argparse.Namespace, doc: dict, checks, out: str | None) -> int:
    doc["gates"] = gates_doc(checks)
    _emit(doc, out)
    if getattr(args, "strict", False) and any(not c.passed for c in checks):
        return 2
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    _emit(screening_section(load_survey(args.input, _catalog(args))), args.out)
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    d = load_survey(args.input, _catalog(args))
    _emit(descriptives_section(describe(d), []), args.out)
    return 0


def _cmd_reliability(args: argparse.Namespace) -> int:
    catalog = _catalog(args)
    d = load_survey(args.input, catalog)
    checks: list = []
    doc, items = adequacy_section(
        d, _items_arg(args.items, catalog.indices), GateThresholds(), checks, []
    )
    doc["items"] = list(items)
    return _finish(args, doc, checks, args.out)


def _cmd_efa(args: argparse.Namespace) -> int:
    catalog = _catalog(args)
    d = load_survey(args.input, catalog)
    g = replace(GateThresholds(), loading=args.threshold, cross_margin=args.cross_margin)
    warnings: list[str] = []
    doc, _, _ = efa_section(d, catalog, g, warnings)
    doc["assignment"]["warnings"] = warnings
    _emit(doc, args.out)
    return 0


def _cmd_sem(args: argparse.Namespace) -> int:
    from . import sem as sem_mod

    catalog = _catalog(args)
    d = load_survey(args.input, catalog)
    n_train = args.n_train if args.n_train is not None else round(0.6 * d.n)
    train = split(d, n_train, args.seed)
    g = GateThresholds()
    checks: list = []
    warnings: list[str] = []
    if args.model:
        model = sem_mod.load_model(args.model)
    else:
        _, assignment, labels = efa_section(d, catalog, g, warnings, train)
        _, model = synthesize_models(assignment, labels, warnings)
        if model is None:
            raise ValueError("factor extraction left no usable model; supply --model")
    doc, est = sem_section(d, model, g, checks, warnings, train)
    doc["validity"] = validity_doc(est, warnings)
    doc["model"] = json.loads(model.to_json())
    doc["split"] = {"seed": args.seed, "n_train": int(train.sum())}
    doc["cli_warnings"] = warnings
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
    # JSON true and false load as bool, which is an int
    if not doc or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in doc.values()):
        raise ValueError(f"{path}: no usable name -> weight mapping found")
    return {str(k): float(v) for k, v in doc.items()}


def _cmd_score(args: argparse.Namespace) -> int:
    from . import scoring as scoring_mod

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
    doc, summary = scoring_section(d, w)
    if args.csv:
        scoring_mod.write_scores_csv(summary, w, args.csv)
    doc["csv"] = args.csv
    _emit(doc, args.out)
    return 0


def _cmd_entropy(args: argparse.Namespace) -> int:
    catalog = _catalog(args)
    d = load_survey(args.input, catalog)
    if args.groups:
        with open(args.groups, "r", encoding="utf-8") as fh:
            groups = json.load(fh)
        if not isinstance(groups, dict) or not groups:
            raise ValueError(f"{args.groups}: expected a JSON object of name -> item list")
        for name, items in groups.items():
            if not (isinstance(items, list) and all(type(i) is int for i in items)):
                raise ValueError(f"--groups group {name!r}: expected a list of integer item indices")
        bad = sorted({i for v in groups.values() for i in v} - set(catalog.indices))
        if bad:
            raise ValueError(
                "unknown item indices in --groups: " + ", ".join(str(b) for b in bad)
            )
    else:
        groups = {}
        for i in catalog.indices:
            groups.setdefault(catalog.hint_of(i), []).append(i)
    warnings: list[str] = []
    doc = entropy_section(d, groups)
    doc["per_group"] = doc.pop("per_latent")
    with _stage(doc, [], warnings, "delay", "delay bands"):
        doc["delay"] = delay_section(d, groups)
    doc["cli_warnings"] = warnings
    _emit(doc, args.out)
    return 0


def _cmd_ahp(args: argparse.Namespace) -> int:
    g = replace(GateThresholds(), consistency_ratio=args.cr_gate)
    checks: list = []
    warnings: list[str] = []
    doc = ahp_section(args.judgments, g, args.exclude_inconsistent, checks, warnings)
    doc["warnings"] = warnings
    return _finish(args, doc, checks, args.out)


def _cmd_probit(args: argparse.Namespace) -> int:
    catalog = _catalog(args)
    d = load_survey(args.input, catalog)
    # items are filed under their catalog hint: EFA may drop some of them
    constructs = {i: catalog.hint_of(i) for i in _items_arg(args.items, catalog.indices)}
    g = replace(GateThresholds(), probit_alpha=args.alpha)
    warnings: list[str] = []
    doc = probit_section(d, constructs, catalog, g, args.single_pass, warnings)
    doc["warnings"] = warnings
    if args.csv and doc["questionnaire"] is not None:
        write_questionnaire(doc["questionnaire"], args.csv)
        doc["csv"] = args.csv
    _emit(doc, args.out)
    return 0


def _cmd_bias(args: argparse.Namespace) -> int:
    from . import ahp as ahp_mod

    sw = ahp_mod.normalized_weights(
        _load_weight_doc(args.sw), labels=ahp_mod.DEFAULT_HIERARCHY.leaves
    )
    _emit(bias_section(_load_weight_doc(args.ow), sw), args.out)
    return 0


def _write_probit_csv(X, y, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(X.shape[1])] + ["y"])
        writer.writerows([repr(float(v)) for v in row] + [int(yi)] for row, yi in zip(X, y))


def _cmd_synth(args: argparse.Namespace) -> int:
    from . import synth

    n = args.n if args.n is not None else {"sem": 750, "ahp": 49, "probit": 600}[args.kind]
    meta = {"kind": args.kind, "seed": args.seed, "n": n, "random_generator": "numpy default_rng (PCG64)"}
    if args.kind == "sem":
        write = partial(write_survey, synth.gen_sem_survey(synth.default_sem_truth(n=n, seed=args.seed)))
        meta["structure"] = "six correlated factors, 29 strong items, 3 fillers"
    elif args.kind == "ahp":
        spec = synth.AhpSpec(n_respondents=n, seed=args.seed, noise_level=args.noise)
        write = partial(synth.write_judgments_csv, synth.gen_ahp_judgments(spec))
        meta["noise_level"] = args.noise
    else:
        beta, kappa = (0.9, 0.7, 0.0, 0.0, 0.0, 0.0), (-2.2, -0.9, 0.6, 2.0)
        write = partial(_write_probit_csv, *synth.gen_probit(synth.ProbitSpec(beta, kappa, n=n, seed=args.seed)))
        meta.update({"beta": list(beta), "kappa": list(kappa)})
    # the data file and its sidecar together, or neither
    _write_all({args.out_file: write, args.out_file + ".meta.json": partial(_write_json, meta)})
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
    p.add_argument("--threshold", type=float, default=GateThresholds().loading)
    p.add_argument("--cross-margin", type=float, default=GateThresholds().cross_margin)
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
    p.add_argument("--cr-gate", type=float, default=GateThresholds().consistency_ratio)
    p.add_argument("--exclude-inconsistent", action="store_true")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out")

    p = add("probit", _cmd_probit, "backward elimination and simplified questionnaire")
    p.add_argument("--input", required=True)
    p.add_argument("--catalog")
    p.add_argument("--items", help="comma-separated item indices (default: all)")
    p.add_argument("--alpha", type=float, default=GateThresholds().probit_alpha)
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
