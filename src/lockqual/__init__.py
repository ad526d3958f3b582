"""Two-perspective service quality evaluation for waterway locks.

Demand side: survey screening, reliability and adequacy checks,
exploratory factoring, covariance-structure estimation, satisfaction
scoring with holdout validation, and entropy/delay profiling.
Supplier side: AHP weighting of expert judgments. The two weightings
meet in a bias comparison, and an ordered probit prunes the
questionnaire to its informative core.

The names below resolve on first access (PEP 562): `import lockqual`
loads no submodule and no NumPy, and `lockqual.sem` or
`from lockqual import run_pipeline` imports the module that holds it.
"""
from __future__ import annotations

import sys

__version__ = "0.1.0"

_SUBMODULES = ("ahp", "catalog", "dataset", "efa", "oprobit", "pipeline", "psychometrics", "scoring", "sem", "synth")

# re-exported name -> the submodule that defines it
_OWNERS = {
    "GateThresholds": "pipeline",
    "PipelineConfig": "pipeline",
    "run_pipeline": "pipeline",
    "DEFAULT_CATALOG": "catalog",
    "VariableCatalog": "catalog",
    "SurveyDataset": "dataset",
    "load_survey": "dataset",
    "write_survey": "dataset",
    "describe": "dataset",
    "split": "dataset",
    "cronbach_alpha": "psychometrics",
    "kmo": "psychometrics",
    "bartlett": "psychometrics",
    "adequacy": "psychometrics",
    "extract_pca": "efa",
    "rotate_varimax": "efa",
    "prune": "efa",
    "MeasurementModel": "sem",
    "implied_sigma": "sem",
    "fit_ml": "sem",
    "standardize": "sem",
    "fit_indices": "sem",
    "construct_validity": "sem",
}

__all__ = ["__version__", *_SUBMODULES, *_OWNERS]


def __getattr__(name: str):
    if name not in _SUBMODULES and name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{_OWNERS.get(name, name)}"
    # the import statement's own path: -X importtime records it, which
    # importlib.import_module's does not
    __import__(module)
    return sys.modules[module] if name in _SUBMODULES else getattr(sys.modules[module], name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
