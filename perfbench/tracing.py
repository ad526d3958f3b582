"""Spans and counts around lockqual's public functions, installed from outside.

`install(tracer)` replaces each traced function at the name its callers look
up (a module attribute, or `SurveyDataset.matrix` on the class) with a
wrapper that records a span and the counts its return value carries, and
returns a function that puts the originals back. Spans are kept in memory as
`[name, start, end, parent, run]` and written out by the caller when the run
ends.

Run as a script, this module is the traced form of `python -m lockqual.cli`:

    python perfbench/tracing.py SPANS.json <subcommand> [args...]
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.run = 0
        self._open: list[int] = []

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        span = [name, time.perf_counter(), None, parent, self.run]
        self.spans.append(span)
        self._open.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[(self.run, key)] += value

    def dump(self) -> dict:
        counts: dict[str, dict[str, float]] = defaultdict(dict)
        for (run, key), value in self.counts.items():
            counts[str(run)][key] = value
        return {"spans": self.spans, "counts": counts}


def _count_load(t, res, args):
    t.add("dataset.rows_read", res.n + len(res.rejected))
    t.add("dataset.rows_rejected", len(res.rejected))


def _count_matrix(t, res, args):
    t.add("dataset.matrix_calls", 1)
    t.add("dataset.matrix_rows_offered", args[0].n)
    t.add("dataset.matrix_rows_kept", res[1].shape[0])


def _count_validation(t, res, args):
    t.add("scoring.n_scored", res.n_scored)
    t.add("scoring.n_offered", res.n_scored + res.n_skipped)


def _count_elimination(t, res, args):
    t.add("oprobit.drops", len(res.steps))


def _count_probit_fit(t, res, args):
    t.add("oprobit.fit_calls", 1)
    t.add("oprobit.fit_iters", res.n_iter)
    t.add("oprobit.fit_converged", bool(res.converged))


def _count_sem_fit(t, res, args):
    t.add("sem.fit_ml_calls", 1)
    t.add("sem.fit_ml_iters", res.n_iter)
    t.add("sem.fit_ml_converged", bool(res.converged))


def _count_eigen(t, res, args):
    t.add("ahp.weights_eigen_calls", 1)


def _count_consistency(t, res, args):
    t.add("ahp.consistency_checks", 1)
    t.add("ahp.consistent", bool(res.passed))


def _count_prune(t, res, args):
    t.add("efa.items_dropped", len(res.dropped_items))


# (module, attribute path, span name, counter). Names that pipeline.py and
# cli.py import with `from ... import` are patched in those modules.
TARGETS = (
    ("lockqual.pipeline", "run_pipeline", "pipeline.run", None),
    ("lockqual.cli", "run_pipeline", "pipeline.run", None),
    ("lockqual.pipeline", "render_summary", "pipeline.render_summary", None),
    ("lockqual.pipeline", "load_survey", "dataset.load_survey", _count_load),
    ("lockqual.cli", "load_survey", "dataset.load_survey", _count_load),
    ("lockqual.pipeline", "describe", "dataset.describe", None),
    ("lockqual.cli", "describe", "dataset.describe", None),
    ("lockqual.pipeline", "split", "dataset.split", None),
    ("lockqual.cli", "split", "dataset.split", None),
    ("lockqual.dataset", "SurveyDataset.matrix", "dataset.matrix", _count_matrix),
    ("lockqual.psychometrics", "adequacy", "psychometrics.adequacy", None),
    ("lockqual.psychometrics", "correlation_matrix", "psychometrics.correlation_matrix", None),
    ("lockqual.efa", "extract_pca", "efa.extract_pca", None),
    ("lockqual.efa", "rotate_varimax", "efa.rotate_varimax", None),
    ("lockqual.efa", "prune", "efa.prune", _count_prune),
    ("lockqual.sem", "fit_ml", "sem.fit_ml", _count_sem_fit),
    ("lockqual.sem", "standardize", "sem.post_fit", None),
    ("lockqual.sem", "fit_indices", "sem.post_fit", None),
    ("lockqual.sem", "construct_validity", "sem.post_fit", None),
    ("lockqual.scoring", "validation_summary", "scoring.validation_summary", _count_validation),
    ("lockqual.scoring", "entropy_report", "scoring.entropy_report", None),
    ("lockqual.scoring", "delay_strata", "scoring.delay_strata", None),
    ("lockqual.scoring", "write_scores_csv", "scoring.write_scores_csv", None),
    ("lockqual.ahp", "load_judgments", "ahp.load_judgments", None),
    ("lockqual.ahp", "weights_eigen", "ahp.weights_eigen", _count_eigen),
    ("lockqual.ahp", "aggregate_geomean", "ahp.aggregate_geomean", None),
    ("lockqual.ahp", "consistency", "ahp.consistency", _count_consistency),
    ("lockqual.oprobit", "backward_eliminate", "oprobit.backward_eliminate", _count_elimination),
    ("lockqual.oprobit", "fit", "oprobit.fit", _count_probit_fit),
)


def _wrap(tracer: Tracer, name: str, fn, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        res = tracer.call(name, fn, args, kwargs)
        if counter is not None:
            counter(tracer, res, args)
        return res

    return traced


def install(tracer: Tracer):
    """Wrap every target that is importable; return the undo function."""
    undo = []
    for module_name, path, span_name, counter in TARGETS:
        if module_name == "lockqual.cli" and "lockqual.cli" not in sys.modules:
            continue
        owner = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        setattr(owner, attr, _wrap(tracer, span_name, original, counter))
        undo.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


TIMED = (
    "dataset.load_survey",
    "dataset.matrix",
    "dataset.describe",
    "dataset.split",
    "scoring.validation_summary",
    "scoring.entropy_report",
    "scoring.delay_strata",
    "scoring.write_scores_csv",
    "oprobit.backward_eliminate",
    "sem.fit_ml",
    "sem.post_fit",
    "ahp.load_judgments",
    "ahp.weights_eigen",
    "ahp.aggregate_geomean",
    "psychometrics.adequacy",
    "psychometrics.correlation_matrix",
    "efa.extract_pca",
    "efa.rotate_varimax",
    "efa.prune",
    "pipeline.render_summary",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_metrics(parts: list[tuple[list[list], dict[str, float]]]) -> dict[str, float]:
    """Per-layer metrics of one run, from the (spans, counts) of each process in it."""
    busy: dict[str, float] = defaultdict(float)
    c: dict[str, float] = defaultdict(float)
    run_s = children_s = 0.0
    for spans, counts in parts:
        for key, value in counts.items():
            c[key] += value
        roots = set()
        for i, (name, start, end, parent, _run) in enumerate(spans):
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][3]
            if up < 0:  # a span nested in one of its own name is already counted
                busy[name] += end - start
            if name == "pipeline.run":
                roots.add(i)
                run_s += end - start
            elif parent in roots and name in TIMED:  # other children stay in self_s
                children_s += end - start
    m = {name + "_s": busy[name] for name in TIMED}
    m["pipeline.self_s"] = run_s - children_s
    m["pipeline.run_s"] = run_s
    m["dataset.matrix_calls"] = c["dataset.matrix_calls"]
    m["dataset.rows_read"] = c["dataset.rows_read"]
    m["dataset.rows_rejected"] = c["dataset.rows_rejected"]
    m["dataset.rows_kept_ratio"] = _ratio(c["dataset.matrix_rows_kept"], c["dataset.matrix_rows_offered"])
    m["scoring.scored_ratio"] = _ratio(c["scoring.n_scored"], c["scoring.n_offered"])
    m["oprobit.fit_calls"] = c["oprobit.fit_calls"]
    m["oprobit.fit_iters"] = c["oprobit.fit_iters"]
    m["oprobit.fit_converged_ratio"] = _ratio(c["oprobit.fit_converged"], c["oprobit.fit_calls"])
    m["oprobit.drop_ratio"] = _ratio(c["oprobit.drops"], c["oprobit.fit_calls"])
    m["sem.fit_ml_calls"] = c["sem.fit_ml_calls"]
    m["sem.fit_ml_iters"] = c["sem.fit_ml_iters"]
    m["sem.fit_ml_converged_ratio"] = _ratio(c["sem.fit_ml_converged"], c["sem.fit_ml_calls"])
    m["ahp.weights_eigen_calls"] = c["ahp.weights_eigen_calls"]
    m["ahp.consistent_ratio"] = _ratio(c["ahp.consistent"], c["ahp.consistency_checks"])
    m["efa.items_dropped"] = c["efa.items_dropped"]
    return m


def split_runs(dump: dict) -> list[tuple[list[list], dict[str, float]]]:
    """One (spans, counts) part per run id of a dump; parents re-indexed."""
    by_run: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(dump["spans"]):
        by_run[span[4]].append(i)
    parts = []
    for run, idxs in sorted(by_run.items()):
        local = {g: k for k, g in enumerate(idxs)}
        spans = [dump["spans"][g][:3] + [local.get(dump["spans"][g][3], -1), run] for g in idxs]
        parts.append((spans, dump["counts"].get(str(run), {})))
    return parts


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def _main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    import lockqual.cli

    tracer = Tracer()
    uninstall = install(tracer)
    try:
        code = lockqual.cli.main(cli_argv)
    finally:
        uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
