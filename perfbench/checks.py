"""Output checks: schema validity, reference digests, byte identity.

A digest is the part of a document the reference pins: its discrete results
(counts, rejected rows, factor assignment, dropped items, probit survivors,
ranks, gate outcomes) and a few headline floats. Discrete values must match
exactly and floats within `REL_TOL`.
"""
from __future__ import annotations

import hashlib
import json
import os
import re

REL_TOL = 1e-6
ABS_TOL = 1e-12

REPORT_FIELDS = (
    "screening.n_valid",
    "screening.n_rejected",
    "screening.rejected",
    "split",
    "adequacy.cronbach_alpha",
    "adequacy.kmo",
    "adequacy.n_complete",
    "efa.n_rows",
    "efa.assignment.factor_items",
    "efa.assignment.dropped",
    "cfa.fit_indices.chi2",
    "cfa.fit_indices.df",
    "sem.fit_indices.chi2",
    "sem.fit_indices.df",
    "sem.score_weights.latent_weights",
    "scoring",
    "entropy.per_latent",
    "entropy.ranking",
    "delay.bands",
    "ahp.n_inconsistent",
    "ahp.global_weights",
    "ahp.ranks",
    "bias.rows",
    "probit.n_obs",
    "probit.survivors",
    "probit.steps",
    "probit.final.loglik",
    "gates",
)

# Fields pinned for each stage document of the one-shot chain.
STAGE_FIELDS = {
    "validate": ("n_valid", "n_rejected", "rejected"),
    "describe": ("overall_sati_after", "non_normal_items", "sati_after"),
    "reliability": ("n_complete", "cronbach_alpha", "kmo", "bartlett_chi2", "gates"),
    "efa": ("n_rows", "n_factors", "eigenvalues", "assignment.factor_items", "assignment.dropped"),
    "sem": ("n", "fit_indices.chi2", "fit_indices.df", "score_weights.latent_weights", "gates"),
    "score": ("n_scored", "n_skipped", "mean_error", "share_within_10pct"),
    "entropy": ("ranking", "per_group", "delay.bands"),
    "ahp": ("n_inconsistent", "global_weights", "ranks", "gates"),
    "probit": ("n_obs", "survivors", "steps", "final.loglik"),
    "bias": ("rows", "spearman"),
    "report": REPORT_FIELDS,
}

_GENERATED_AT = re.compile(rb'\n *"generated_at": "[^"]*",?\n')


def _get(doc, path: str):
    for part in path.split("."):
        if not isinstance(doc, dict):
            return None
        doc = doc.get(part)
    return doc


def digest(kind: str, doc: dict) -> dict:
    return {path: _get(doc, path) for path in STAGE_FIELDS[kind]}


def compare(got, want, where: str = "") -> list[str]:
    """Differences between two digests, one line each."""
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return [] if got == want and type(got) is type(want) else [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            return [f"{where}: {got!r} is not a number"]
        if abs(got - want) <= REL_TOL * max(abs(got), abs(want)) + ABS_TOL:
            return []
        return [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, int):
        return [] if got == want and not isinstance(got, bool) else [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"]
        return [d for k in want for d in compare(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in compare(g, w, f"{where}[{i}]")]
    raise TypeError(f"unexpected reference value at {where}: {want!r}")


_SCHEMAS: dict[str, dict] = {}


def schema_errors(schema_dir: str, kind: str, doc: dict) -> list[str]:
    if kind not in _SCHEMAS:
        with open(os.path.join(schema_dir, f"{kind}.schema.json"), encoding="utf-8") as fh:
            _SCHEMAS[kind] = json.load(fh)
    import jsonschema  # the timed processes import this module too; keep them lean

    schema = _SCHEMAS[kind]
    validator = jsonschema.validators.validator_for(schema)(schema)
    return [f"{kind} schema: {e.message}" for e in validator.iter_errors(doc)][:5]


def check_doc(schema_dir: str, kind: str, doc: dict, ref: dict | None) -> list[str]:
    """Schema errors plus differences from the reference digest."""
    problems = schema_errors(schema_dir, kind, doc)
    if ref is None:
        problems.append(f"{kind}: no reference digest")
    else:
        problems += compare(digest(kind, doc), ref, kind)[:10]
    return problems


def bundle_hash(paths) -> str:
    """SHA-256 over the given files, with report.json's generated_at line removed."""
    h = hashlib.sha256()
    for path in sorted(paths):
        with open(path, "rb") as fh:
            data = fh.read()
        if os.path.basename(path) == "report.json":
            data = _GENERATED_AT.sub(b"\n", data)
        h.update(os.path.basename(path).encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
