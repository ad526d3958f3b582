"""Warm-process worker: times repeated `run_pipeline` calls in one interpreter.

    python perfbench/worker.py CONFIG.json   # writes the result JSON CONFIG names
    python perfbench/worker.py --env         # prints the library versions as JSON

The config names the inputs, the warm-up inputs, the output directory, the
seconds to measure, whether to trace and whether to sample the machine's
speed with `calib.Ticker` during an untraced run.
Traced, untraced and traced calls alternate (U T T U ...), so the two medians
see the same machine state; spans are recorded on the traced calls only.
After each call the bundle is hashed outside the timed region, so the caller
can check that every call, traced or not, wrote the same bytes.
"""
from __future__ import annotations

import contextlib
import ctypes
import glob
import itertools
import json
import os
import platform
import resource
import sys
import time
import traceback


def env_info() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(config_path: str) -> None:
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    import calib
    from checks import bundle_hash
    from lockqual import pipeline

    def job(survey: str, judgments: str, out_dir: str):
        # looked up on the module at each call, so the tracer's wrapper is seen
        return pipeline.run_pipeline(pipeline.PipelineConfig(survey_path=survey, judgments_path=judgments, out_dir=out_dir))

    for _ in range(cfg["warmup_runs"]):
        job(cfg["warmup_survey"], cfg["warmup_judgments"], cfg["warmup_dir"])

    tracer = uninstall = None
    if cfg["traced"]:
        from tracing import Tracer, install

        tracer = Tracer()
    kinds = itertools.cycle((False, True, True, False)) if cfg["traced"] else itertools.repeat(False)
    times: list[float] = []
    traced: list[bool] = []
    hashes: list[str | None] = []
    errors: list[str] = []
    call_samples: list[list[float]] = []
    # when asked, untraced runs sample the machine's speed throughout; traced
    # runs never do, so that the ticks stay out of the spans
    tick = calib.Ticker()
    with tick if cfg["ticks"] and not cfg["traced"] else contextlib.nullcontext():
        start = time.perf_counter()
        while time.perf_counter() - start < cfg["seconds"] or len(times) % (2 if cfg["traced"] else 1):
            kind = next(kinds)
            if kind:
                tracer.run = len(times)
                uninstall = install(tracer)
            spent, ticked = tick.spent, len(tick.samples)
            t0 = time.perf_counter()
            try:
                res = job(cfg["survey"], cfg["judgments"], cfg["out_dir"])
            except Exception:
                res = None
                errors.append(traceback.format_exc(limit=3))
            finally:
                times.append(time.perf_counter() - t0 - (tick.spent - spent))
                call_samples.append(tick.samples[ticked:])
                if kind:
                    uninstall()
            hashes.append(bundle_hash(res.out_paths.values()) if res else None)
            traced.append(kind)
    result = {
        "times": times,
        "traced": traced,
        "hashes": hashes,
        "errors": errors,
        "speed_samples": call_samples,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.dump() if tracer else None,
    }
    with open(cfg["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if sys.argv[1:] == ["--env"]:
        print(json.dumps(env_info()))
    else:
        main(sys.argv[1])
