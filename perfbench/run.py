"""lockqual benchmark: warm reports, a 100k survey and the one-shot CLI chain.

    python3 perfbench/run.py --workload fixture --seed 1 --seconds 20 --trace 0

Workloads (BENCHMARK.json says why each exists):
  fixture      warm `run_pipeline` on the committed fixture (n=750, 49 experts)
  survey_100k  warm `run_pipeline` on 100,000 synthetic respondents with blank
               cells and defective rows, plus 2,000 synthetic experts
  cli_oneshot  the README's chain of eleven `lockqual` subcommands on the
               fixture, one fresh process each
  all          the three in turn

With `--trace 0` the last stdout line holds the end-to-end metrics, measured
untraced; with `--trace 1` it holds the per-layer metrics of a traced run.
Every job's output is checked (schema, reference digest, byte identity). A
run writes its details and an environment record under `.perfbench_results/`
and exits 1 when a check fails. The program is imported from `src/` beside
this directory; without it the benchmark exits 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(ROOT, "data")
SCHEMAS = os.path.join(SRC, "lockqual", "schemas")
FIXTURE_SURVEY = os.path.join(DATA, "fixture_survey.csv")
FIXTURE_JUDGMENTS = os.path.join(DATA, "fixture_judgments.csv")
WORK = os.path.join(ROOT, ".perfbench_work")
RESULTS = os.path.join(ROOT, ".perfbench_results")
REFERENCE = os.path.join(HERE, "reference.json")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
sys.path.insert(0, HERE)
import calib  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("fixture", "survey_100k", "cli_oneshot")
SURVEY_N = 100_000
INPUT_SEEDS = 10  # the survey draws its inputs from seed % INPUT_SEEDS; each is pinned
SETUP_PROBES = 3
IMPORT_PROBES = 3
DEADLINE_S = 170.0
REPORT_REPEATS = 3  # cold `lockqual report` runs beyond the chains', so report_s has 5 samples

# Process start-up slows down with the host much as lockqual's own start-up
# does, so a stdlib-only start timed between the measured processes scales
# each of them to the speed this machine had when REFERENCE_STARTUP_S was
# measured (median on a 2-vCPU x86_64 VM, Python 3.11.7).
STARTUP_PROBE = "import argparse, asyncio, csv, decimal, email.parser, http.client, json, unittest, xml.dom.minidom"
REFERENCE_STARTUP_S = 0.140

CHAIN = (
    ("validate", ("--input", "{survey}")),
    ("describe", ("--input", "{survey}")),
    ("reliability", ("--input", "{survey}")),
    ("efa", ("--input", "{survey}")),
    ("sem", ("--input", "{survey}")),
    ("score", ("--input", "{survey}", "--weights", "{dir}/sem.json")),
    ("entropy", ("--input", "{survey}")),
    ("ahp", ("--judgments", "{judgments}")),
    ("probit", ("--input", "{survey}")),
    ("bias", ("--ow", "{dir}/sem.json", "--sw", "{dir}/ahp.json")),
    ("report", ("--input", "{survey}", "--judgments", "{judgments}", "--out-dir", "{dir}/report")),
)


class Run:
    """State of one benchmark invocation: deadline, work dir, child accounting."""

    def __init__(self, work: str):
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + os.pathsep + HERE
        self.env["PYTHONHASHSEED"] = "0"
        self.env.update(dict.fromkeys(THREAD_VARS, "1"))  # no extra threads in any child
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.details: dict[str, object] = {}
        self.probes: list[float] = []  # start-up probe times, in the order taken

    def child(self, argv, log_name: str = "child.log") -> tuple[int, float, int]:
        """Run a Python child to completion: (exit code, wall seconds, peak RSS in KiB).

        The wait blocks in wait4, which also returns the child's own peak RSS;
        an interval timer kills the child at the run's deadline.
        """
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("run deadline passed before " + " ".join(argv[:3]))
        with open(os.path.join(self.work, log_name), "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.work, env=self.env, stdout=log, stderr=log)
            signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode == -signal.SIGKILL:
            self.problems.append("killed at the run deadline: " + " ".join(argv[:3]))
        return proc.returncode, wall, usage.ru_maxrss

    def log_tail(self, log_name: str) -> str:
        with open(os.path.join(self.work, log_name), encoding="utf-8", errors="replace") as fh:
            return fh.read()[-600:]

    def job(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if problem:
                self.problems.append(problem)


def summary(times: list[float]) -> dict:
    """Median, min, and the highest of p75/p90/p95/p99 with ten samples beyond it."""
    s = sorted(times)
    out = {"n": len(s), "median": statistics.median(s), "min": s[0], "max": s[-1]}
    for pct in (99, 95, 90, 75):
        if len(s) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(s, n=100)[pct - 1]
            break
    return out


def startup_probe(run: Run) -> float:
    rc, wall, _ = run.child(["-c", STARTUP_PROBE], "probe.log")
    if rc != 0:
        raise RuntimeError("start-up probe failed:\n" + run.log_tail("probe.log"))
    run.probes.append(wall)
    return wall


def last_probe(run: Run) -> float | None:
    return run.probes[-1] if run.probes else None


def scaled(run: Run, wall: float, before: float | None) -> float:
    """`wall` of the process just ended, in reference seconds.

    Takes a start-up probe now and scales by the mean of it and the probe
    taken just before the process, when there was one. (Over four minutes of
    cold `lockqual report` runs, the median of 20-second windows spread 16%
    raw, 3.2% scaled by one factor per window and 2.2% scaled this way.)
    """
    after = startup_probe(run)
    return wall * REFERENCE_STARTUP_S / (after if before is None else (before + after) / 2)


def scale_record(samples: list[float], reference_s: float) -> dict:
    """A probe's samples for the results file: count, median, spread and the factor the median gives.

    Recorded so that a shift in the probe itself can be told from a shift in
    the times it scales.
    """
    med = statistics.median(samples)
    q = statistics.quantiles(samples, n=4) if len(samples) > 1 else [med] * 3
    return {"scale": reference_s / med, "n": len(samples), "median_s": med, "iqr_share": (q[2] - q[0]) / med}


def setup_seconds(run: Run, probes: int = SETUP_PROBES) -> tuple[list[float], list[float]]:
    """Fresh interpreter until `import lockqual` returns, after one untimed import.

    Returns the raw times and the same in reference seconds.
    """
    code = "import lockqual; import time; print(repr(time.time()))"
    out: list[float] = []
    ref: list[float] = []
    for i in range(probes + 1):
        before = last_probe(run)
        t0 = time.time()
        rc, _, _ = run.child(["-c", code], "setup.log")
        if rc != 0:
            raise RuntimeError("import lockqual failed:\n" + run.log_tail("setup.log"))
        if i:
            with open(os.path.join(run.work, "setup.log"), encoding="utf-8") as fh:
                out.append(float(fh.read().split()[-1]) - t0)
            ref.append(scaled(run, out[-1], before))
    return out, ref


_IMPORTTIME = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|(\s*)(\S+)")


def import_seconds(run: Run) -> dict[str, float]:
    """Cumulative import time of lockqual and scipy.stats from `-X importtime`, median of probes."""
    found: dict[str, list[float]] = {"lockqual": [], "scipy.stats": []}
    for _ in range(IMPORT_PROBES):
        rc, _, _ = run.child(["-X", "importtime", "-c", "import lockqual"], "importtime.log")
        if rc != 0:
            raise RuntimeError("import lockqual failed:\n" + run.log_tail("importtime.log"))
        seen = dict.fromkeys(found, 0.0)
        with open(os.path.join(run.work, "importtime.log"), encoding="utf-8") as fh:
            for m in _IMPORTTIME.finditer(fh.read()):
                if m.group(3) in seen:
                    seen[m.group(3)] = int(m.group(1)) / 1e6
        for name, value in seen.items():
            found[name].append(value)
    return {
        "import.lockqual_s": statistics.median(found["lockqual"]),
        "import.scipy_stats_s": statistics.median(found["scipy.stats"]),
    }


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# warm workloads


def warm(run: Run, survey: str, judgments: str, ref: dict | None, seconds: float, traced: bool, ticks: bool) -> dict:
    """Run the worker; check every call's bundle; return its timings and trace."""
    out_dir = os.path.join(run.work, "out")
    cfg = {
        "survey": survey,
        "judgments": judgments,
        "warmup_survey": FIXTURE_SURVEY,
        "warmup_judgments": FIXTURE_JUDGMENTS,
        "warmup_runs": 2,
        "warmup_dir": os.path.join(run.work, "warmup"),
        "out_dir": out_dir,
        "seconds": seconds,
        "traced": traced,
        "ticks": ticks,
        "result": os.path.join(run.work, "worker.json"),
    }
    with open(os.path.join(run.work, "worker_cfg.json"), "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    rc, _, _ = run.child([os.path.join(HERE, "worker.py"), "worker_cfg.json"], "worker.log")
    if rc != 0:
        raise RuntimeError(f"worker exited {rc}:\n" + run.log_tail("worker.log"))
    with open(cfg["result"], encoding="utf-8") as fh:
        res = json.load(fh)
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        problems = checks.check_doc(SCHEMAS, "report", json.load(fh), ref)
    last = res["hashes"][-1]
    for err in res["errors"]:
        run.problems.append("run_pipeline raised:\n" + err)
    for i, h in enumerate(res["hashes"]):
        if h is None:
            run.job(False)
        elif h != last:
            run.job(False, f"call {i} wrote a bundle that differs from the last call's")
        else:
            run.job(not problems)
    run.problems += problems
    return res


def warm_metrics(run: Run, res: dict, traced: bool) -> dict[str, float]:
    plain = [t for t, k in zip(res["times"], res["traced"]) if not k]
    if not traced:
        # each call is scaled by the ticks taken during it, which tracked the
        # host's speed better than one factor for the run (see calib.py)
        samples = [u for call in res["speed_samples"] for u in call]
        ref_times = plain
        if samples:
            run.details["speed"] = scale_record(samples, calib.REFERENCE_UNIT_S)
            ref_times = [t * calib.REFERENCE_UNIT_S / statistics.median(own or samples) for t, own in zip(plain, res["speed_samples"])]
        run.details["raw_report_s"] = summary(plain)
        rep = run.details["report_s"] = summary(ref_times)
        return {"report_s": rep["median"], "job_s": rep["median"], "peak_rss_mb": res["peak_rss_kb"] / 1024}
    with_trace = [t for t, k in zip(res["times"], res["traced"]) if k]
    parts = tracing.split_runs(res["trace"])
    layers = tracing.median_metrics([tracing.run_metrics([p]) for p in parts])
    run.details["report_s"] = summary(plain)
    run.details["traced_report_s"] = summary(with_trace)
    run.details["accounted_share"] = layers["pipeline.run_s"] / statistics.median(with_trace)
    run.details["trace"] = res["trace"]
    layers["trace.overhead_s"] = statistics.median(with_trace) - statistics.median(plain)
    return layers


def survey_inputs(run: Run, n: int, seed: int, ref: dict) -> tuple[str, str]:
    """Generate the survey workload's inputs and check them against their pins."""
    gen_seed = seed % INPUT_SEEDS
    key = f"{n}:{gen_seed}"
    out = os.path.join(run.work, "inputs")
    rc, wall, _ = run.child([os.path.join(HERE, "inputs.py"), "--n", str(n), "--seed", str(gen_seed), "--out-dir", out], "inputs.log")
    if rc != 0:
        raise RuntimeError("input generation failed:\n" + run.log_tail("inputs.log"))
    run.details["inputs"] = {"key": key, "generate_s": wall}
    paths = (os.path.join(out, "survey.csv"), os.path.join(out, "judgments.csv"))
    pins = ref["inputs"].get(key)
    if pins is None:
        raise RuntimeError(f"no pinned inputs for n={n}, input seed {gen_seed} in {REFERENCE}")
    got = {os.path.basename(p): checks.file_sha256(p) for p in paths}
    if pins != got:
        raise RuntimeError(
            f"generated inputs for n={n}, input seed {gen_seed} do not match their pinned SHA-256 "
            f"(pinned {pins}, got {got}); lockqual.synth or perfbench/inputs.py changed what they draw"
        )
    return paths


# ---------------------------------------------------------------------------
# one-shot chain


def step(run: Run, ref: dict, d: str, sub: str, args, traced: bool, tag: str) -> tuple[float, int, str | None, list]:
    """One fresh `lockqual <sub>` process writing into `d`, checked.

    Returns its wall time, its peak RSS in KiB, the hash of what it wrote
    (None if it failed a check) and its trace parts.
    """
    fill = {"survey": FIXTURE_SURVEY, "judgments": FIXTURE_JUDGMENTS, "dir": d}
    argv = [a.format(**fill) for a in args]
    if sub != "report":
        argv += ["--out", os.path.join(d, f"{sub}.json")]
    log = f"{tag}_{sub}.log"
    spans = os.path.join(d, f"{sub}.spans.json")
    if traced:
        rc, wall, rss = run.child([os.path.join(HERE, "tracing.py"), spans, sub, *argv], log)
    else:
        rc, wall, rss = run.child(["-m", "lockqual.cli", sub, *argv], log)
    if rc != 0:
        run.problems.append(f"lockqual {sub} exited {rc}:\n" + run.log_tail(log))
        return wall, rss, None, []
    parts = []
    if traced:
        with open(spans, encoding="utf-8") as fh:
            parts = tracing.split_runs(json.load(fh))
    if sub == "report":
        written = [os.path.join(d, "report", n) for n in os.listdir(os.path.join(d, "report"))]
        doc_path = os.path.join(d, "report", "report.json")
    else:
        doc_path = argv[-1]
        written = [doc_path]
    with open(doc_path, encoding="utf-8") as fh:
        problems = checks.check_doc(SCHEMAS, sub, json.load(fh), ref["cli"].get(sub))
    run.problems += problems
    return wall, rss, None if problems else checks.bundle_hash(written), parts


def chain(run: Run, ref: dict, traced: bool, tag: str) -> dict:
    """One pass of the README's subcommand chain, one fresh process per step.

    `docs` maps each step to the hash of what it wrote, or None if it failed.
    """
    d = os.path.join(run.work, tag)
    os.makedirs(d)
    steps: dict[str, float] = {}
    peak = 0
    parts = []
    ref_steps: dict[str, float] = {}
    docs: dict[str, str | None] = {}
    for sub, args in CHAIN:
        before = last_probe(run)
        steps[sub], rss, docs[sub], step_parts = step(run, ref, d, sub, args, traced, tag)
        ref_steps[sub] = scaled(run, steps[sub], before)
        peak = max(peak, rss)
        parts += step_parts
    return {
        "steps": steps,
        "chain_s": sum(steps.values()),
        "ref_chain_s": sum(ref_steps.values()),
        "peak_rss_kb": peak,
        "parts": parts,
        "docs": docs,
        "ref_report_s": ref_steps["report"],
    }


def chains(run: Run, ref: dict, seconds: float, traced: bool, at_least: int = 2) -> list[dict]:
    """Chains until `seconds` have passed: untraced, or alternating U T T U when traced.

    Each step is a job. It passes if it exited 0, passed its checks and wrote
    the same bytes as in the first chain.
    """
    order = (False, True, True, False) if traced else (False,)
    done: list[dict] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(done) % (2 if traced else 1) or len(done) < at_least:
        kind = order[len(done) % len(order)]
        c = chain(run, ref, kind, f"chain{len(done)}")
        c["traced"] = kind
        done.append(c)
    first = done[0]["docs"]
    for i, c in enumerate(done):
        for sub, h in c["docs"].items():
            if h is not None and first[sub] is not None and h != first[sub]:
                run.job(False, f"chain {i}: lockqual {sub} wrote different bytes than chain 0")
            else:
                run.job(h is not None)
    return done


def extra_reports(run: Run, ref: dict, want: str | None) -> list[tuple[float, int, float]]:
    """More cold `lockqual report` processes, each a job checked against chain 0's bundle.

    Returns (wall seconds, peak RSS in KiB, reference seconds) for each.
    """
    out = []
    for i in range(REPORT_REPEATS):
        d = os.path.join(run.work, f"report{i}")
        os.makedirs(d)
        before = last_probe(run)
        wall, rss, h, _ = step(run, ref, d, "report", dict(CHAIN)["report"], False, f"report{i}")
        same = h is not None and h == want
        run.job(same, "" if h is None or same else f"extra report {i} wrote different bytes than chain 0")
        out.append((wall, rss, scaled(run, wall, before)))
    return out


def cli_step_metrics(done: list[dict]) -> dict[str, float]:
    plain = [c for c in done if not c["traced"]]
    return {f"cli.{sub}_s": statistics.median(c["steps"][sub] for c in plain) for sub, _ in CHAIN}


# ---------------------------------------------------------------------------
# workloads


def run_workload(run: Run, workload: str, seed: int, seconds: float, traced: bool, survey_n: int) -> dict[str, float]:
    ref = load_reference()
    metrics: dict[str, float] = {}
    if traced:
        metrics.update(import_seconds(run))
    else:
        setup, ref_setup = setup_seconds(run)
        run.details["raw_setup_s"] = setup
        metrics["setup_s"] = statistics.median(ref_setup)
    if workload == "cli_oneshot":
        done = chains(run, ref, seconds, traced)
        plain = [c for c in done if not c["traced"]]
        run.details["chains"] = [{k: c[k] for k in ("steps", "chain_s", "ref_chain_s", "peak_rss_kb", "traced")} for c in done]
        if traced:
            metrics.update(cli_step_metrics(done))
            runs = [tracing.run_metrics(c["parts"]) for c in done if c["traced"]]
            metrics.update(tracing.median_metrics(runs))
            traced_chain = statistics.median(c["chain_s"] for c in done if c["traced"])
            metrics["trace.overhead_s"] = traced_chain - statistics.median(c["chain_s"] for c in plain)
        else:
            extra = extra_reports(run, ref, done[0]["docs"]["report"])
            reports = [c["steps"]["report"] for c in plain] + [e[0] for e in extra]
            run.details.update(raw_job_s=summary([c["chain_s"] for c in plain]), raw_report_s=summary(reports))
            run.details["report_s"] = summary([c["ref_report_s"] for c in plain] + [e[2] for e in extra])
            run.details["job_s"] = summary([c["ref_chain_s"] for c in plain])
            metrics["report_s"] = run.details["report_s"]["median"]
            metrics["job_s"] = run.details["job_s"]["median"]
            metrics["peak_rss_mb"] = max([c["peak_rss_kb"] for c in plain] + [e[1] for e in extra]) / 1024
        return metrics
    if workload == "fixture":
        survey, judgments, wref = FIXTURE_SURVEY, FIXTURE_JUDGMENTS, ref["fixture"]
    else:
        survey, judgments = survey_inputs(run, survey_n, seed, ref)
        wref = ref["survey"].get(f"{survey_n}:{seed % INPUT_SEEDS}")
    # The sibling's unit tracks the fixture's calls. It did not track the 100k
    # run (ten seeds: 16.3% spread raw, 16.8% scaled), whose times stay raw.
    res = warm(run, survey, judgments, wref, seconds, traced, ticks=workload == "fixture")
    metrics.update(warm_metrics(run, res, traced))
    if traced:
        # the CLI layer is always the fixture chain: a 100k chain would not fit in one run
        metrics.update(cli_step_metrics(chains(run, ref, 0, False, at_least=1)))
    return metrics


def declared(traced: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if traced else "end_to_end"]}


def source_digest() -> str:
    paths = []
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "lockqual")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    return checks.bundle_hash(paths)


def environment(run: Run) -> dict:
    env: dict[str, object] = {"source_sha256": source_digest(), "commit": None}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        env["commit"] = out.stdout.strip() or None
    rc, _, _ = run.child([os.path.join(HERE, "worker.py"), "--env"], "env.log")
    if rc == 0:
        env.update(json.loads(run.log_tail("env.log").strip().splitlines()[-1]))
    env["thread_env"] = {k: run.env[k] for k in THREAD_VARS}
    return env


def one(workload: str, seed: int, seconds: float, traced: bool, survey_n: int = SURVEY_N) -> dict:
    """Run one workload; return its result line, after writing its results file.

    A smaller `survey_n` is for the smoke run, which calls this directly.
    """
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    run = Run(work)
    metrics: dict[str, float] = {}
    try:
        metrics = run_workload(run, workload, seed, seconds, traced, survey_n)
        if run.probes:
            run.details["startup_probe"] = scale_record(run.probes, REFERENCE_STARTUP_S)
        env = environment(run)
    except Exception as exc:  # one workload's failure must not stop the others
        detail = "" if isinstance(exc, RuntimeError) else "\n" + traceback.format_exc(limit=4)
        run.problems.append(f"{workload}: {exc}{detail}")
        run.attempted = max(run.attempted, 1)
        run.failed = max(run.failed, 1)
        metrics, env = {}, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    unit = declared(traced)
    want = list(unit)
    missing = [m for m in want if m not in metrics]
    if metrics and missing:
        run.problems.append("metrics not produced: " + ", ".join(missing))
    correct = not run.problems and run.failed == 0
    line = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": metrics[m], "unit": unit[m]} for m in want if m in metrics},
    }
    os.makedirs(RESULTS, exist_ok=True)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "survey_n": survey_n,
        "result": line,
        "error_rate": run.failed / run.attempted if run.attempted else None,
        "problems": run.problems,
        "details": run.details,
        "environment": env,
    }
    name = f"{workload}-seed{seed}-trace{int(traced)}.json"
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for p in run.problems:
        print(f"[{workload}] CHECK FAILED: {p}", file=sys.stderr)
    for m, v in line["metrics"].items():
        print(f"[{workload}] {m} = {v['value']:.6g} {v['unit']}")
    rep = run.details.get("report_s")
    if rep and not traced:
        tail = next((f"{k} {rep[k]:.4g}" for k in ("p99", "p95", "p90", "p75") if k in rep), f"max {rep['max']:.4g}")
        print(f"[{workload}] report_s median {rep['median']:.4g} min {rep['min']:.4g} {tail} (n={rep['n']})")
    print(f"[{workload}] error_rate = {record['error_rate']} ({run.failed}/{run.attempted})")
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    needed = (os.path.join(SRC, "lockqual", "__init__.py"), FIXTURE_SURVEY, FIXTURE_JUDGMENTS, REFERENCE)
    absent = [p for p in needed if not os.path.isfile(p)]
    if absent:
        print("perfbench: run it from a lockqual checkout; missing " + ", ".join(absent), file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {w: one(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    if args.workload == "all":
        for w, line in lines.items():
            print(json.dumps({"workload": w, **line}))
        line = {
            "correct": all(x["correct"] for x in lines.values()),
            "attempted": sum(x["attempted"] for x in lines.values()),
            "failed": sum(x["failed"] for x in lines.values()),
            "metrics": {f"{w}.{m}": v for w, x in lines.items() for m, v in x["metrics"].items()},
        }
    else:
        line = lines[args.workload]
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
