"""Smoke run of the benchmark harness itself (about three minutes).

    python3 perfbench/smoke.py

1. Runs every workload, untraced and traced, for one second with a
   2,000-respondent survey, and checks that each run is correct and emits
   every metric BENCHMARK.json declares, with its unit. The traced runs pass
   only if traced and untraced calls wrote byte-identical bundles.
2. Checks that the output check rejects deliberately corrupted bundles and
   that the bundle hash ignores `generated_at` only.
Exits 1 on the first failure.
"""
from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys
import tempfile

import run as bench


def fail(msg: str) -> None:
    print("SMOKE FAILED: " + msg)
    sys.exit(1)


def check_runs() -> None:
    for workload in bench.WORKLOADS:
        for trace in (0, 1):
            line = bench.one(workload, 0, 1.0, bool(trace), survey_n=2000)
            if not line["correct"] or line["failed"] or line["attempted"] < 1:
                fail(f"{workload} trace {trace}: {line['failed']}/{line['attempted']} jobs failed (problems above)")
            metrics = line["metrics"]
            for name, unit in bench.declared(bool(trace)).items():
                m = metrics.get(name)
                if m is None or m["unit"] != unit or not math.isfinite(m["value"]):
                    fail(f"{workload} trace {trace}: metric {name} missing or malformed: {m}")
            if set(metrics) != set(bench.declared(bool(trace))):
                fail(f"{workload} trace {trace}: undeclared metrics {sorted(set(metrics) - set(bench.declared(bool(trace))))}")
            print(f"ok  {workload:12s} trace {trace}: {len(metrics)} metrics, {line['attempted']} jobs checked")


def check_corruption() -> None:
    ref = bench.load_reference()["fixture"]
    with tempfile.TemporaryDirectory(dir=bench.ROOT) as tmp:
        env = dict(os.environ, PYTHONPATH=bench.SRC)
        subprocess.run([sys.executable, "-m", "lockqual.cli", "report", "--input", bench.FIXTURE_SURVEY,
                        "--judgments", bench.FIXTURE_JUDGMENTS, "--out-dir", tmp],
                       check=True, env=env, capture_output=True)
        path = os.path.join(tmp, "report.json")
        with open(path, encoding="utf-8") as fh:
            good = json.load(fh)
        if bench.checks.check_doc(bench.SCHEMAS, "report", good, ref):
            fail("the uncorrupted fixture bundle fails its check")

        def corrupt(label, edit):
            doc = copy.deepcopy(good)
            edit(doc)
            if not bench.checks.check_doc(bench.SCHEMAS, "report", doc, ref):
                fail(f"corruption not detected: {label}")
            print(f"ok  corruption detected: {label}")

        corrupt("probit survivor renamed", lambda d: d["probit"]["survivors"].__setitem__(0, "XX"))
        corrupt("gate outcome flipped", lambda d: d["gates"][0].__setitem__("passed", not d["gates"][0]["passed"]))
        corrupt("AHP rank swapped", lambda d: d["ahp"]["ranks"].update({k: 7 for k in list(d["ahp"]["ranks"])[:1]}))
        corrupt("loglik off by 1e-5 relative", lambda d: d["probit"]["final"].__setitem__("loglik", d["probit"]["final"]["loglik"] * (1 + 1e-5)))
        corrupt("rejected row added", lambda d: d["screening"]["rejected"].append({"row": 1, "id": "r0001", "reason": "x"}))
        corrupt("required section removed (schema)", lambda d: d.pop("efa"))
        corrupt("unknown key (schema)", lambda d: d["adequacy"].__setitem__("extra", 1))

        before = bench.checks.bundle_hash([path])
        text = open(path, encoding="utf-8").read()
        stamp = good["meta"]["generated_at"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(stamp, "2000-01-01T00:00:00+00:00"))
        if bench.checks.bundle_hash([path]) != before:
            fail("bundle hash depends on generated_at")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace('"n_valid": 750', '"n_valid": 751'))
        if bench.checks.bundle_hash([path]) == before:
            fail("bundle hash ignores a changed result")
        print("ok  bundle hash ignores generated_at and nothing else")


if __name__ == "__main__":
    check_corruption()
    check_runs()
    print("smoke ok")
