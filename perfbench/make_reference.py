"""Rebuild perfbench/reference.json from the current code.

    python3 perfbench/make_reference.py

Pins the SHA-256 of every generated survey input (n=100,000 for each input
seed, and n=2,000 for input seed 0, which the smoke run uses) and records the
reference digest of each bundle and stage document. Run it only when a change
is meant to alter the benchmark's inputs or results, and say so in CHANGES.md.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile

import run as bench

os.environ.update(dict.fromkeys(bench.THREAD_VARS, "1"))  # as in the benchmark's children
sys.path.insert(0, bench.SRC)
import inputs  # noqa: E402
from lockqual import cli  # noqa: E402
from lockqual.pipeline import PipelineConfig, run_pipeline  # noqa: E402


def report_digest(survey: str, judgments: str, out_dir: str) -> dict:
    run_pipeline(PipelineConfig(survey_path=survey, judgments_path=judgments, out_dir=out_dir))
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        return bench.checks.digest("report", json.load(fh))


def main() -> None:
    ref: dict = {"inputs": {}, "survey": {}, "cli": {}}
    os.makedirs(bench.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.WORK) as tmp:
        ref["fixture"] = report_digest(bench.FIXTURE_SURVEY, bench.FIXTURE_JUDGMENTS, os.path.join(tmp, "fixture"))
        fill = {"survey": bench.FIXTURE_SURVEY, "judgments": bench.FIXTURE_JUDGMENTS, "dir": tmp}
        for sub, args in bench.CHAIN:
            argv = [a.format(**fill) for a in args]
            out = os.path.join(tmp, "report", "report.json") if sub == "report" else os.path.join(tmp, f"{sub}.json")
            if sub != "report":
                argv += ["--out", out]
            if cli.main([sub, *argv]) != 0:
                raise SystemExit(f"lockqual {sub} failed")
            with open(out, encoding="utf-8") as fh:
                ref["cli"][sub] = bench.checks.digest(sub, json.load(fh))
        keys = [(bench.SURVEY_N, g) for g in range(bench.INPUT_SEEDS)] + [(2000, 0)]
        for n, g in keys:
            key = f"{n}:{g}"
            paths = inputs.generate(n, g, os.path.join(tmp, key))
            ref["inputs"][key] = {os.path.basename(p): bench.checks.file_sha256(p) for p in paths.values()}
            ref["survey"][key] = report_digest(paths["survey"], paths["judgments"], os.path.join(tmp, key, "out"))
            print(key, ref["survey"][key]["screening.n_rejected"], flush=True)
    sections = []
    for name in sorted(ref):
        rows = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(ref[name].items())]
        sections.append(f" {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n }")
    with open(bench.REFERENCE, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(sections) + "\n}\n")  # one line per pinned entry


if __name__ == "__main__":
    main()
