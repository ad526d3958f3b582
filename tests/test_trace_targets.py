"""Every function the benchmark's tracer wraps still exists under its name.

perfbench/tracing.py replaces each (module, attribute) of its TARGETS with a
timing wrapper and fails with KeyError on one that is gone, which would break
the traced benchmark run. A rename in the package fails here first.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves():
    missing = []
    for module_name, path, _span, _counter in _targets():
        owner = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        # install() looks the name up in the owner's own namespace
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(f"{module_name}.{path}")
    assert not missing, f"trace targets no longer in the package: {missing}"
