"""Each fresh process loads only the lockqual modules its work runs.

`import lockqual` resolves its names on first access, and each command-line
subcommand imports the analysis modules of its own stages. A stray top-level
import would undo that without failing any other test, so these tests read
the module set of a fresh interpreter: `sys.modules` after `import lockqual`,
and after running `lockqual.cli` as `__main__`, as `python -m` does.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lockqual

DATA = Path(__file__).resolve().parent.parent / "data"
SURVEY, JUDGMENTS = str(DATA / "fixture_survey.csv"), str(DATA / "fixture_judgments.csv")

# every process that runs a subcommand loads these (cli itself runs as __main__)
BASE = {"lockqual", "pipeline", "catalog", "dataset", "moments"}


def _run(args: list[str]) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(lockqual.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True)


def _cli_modules(argv: list[str]) -> set[str]:
    """The lockqual modules that running `lockqual.cli` as `__main__` with argv loads.

    Read from `sys.modules` at exit and from the `-X importtime` record, which
    must agree; names come without the package prefix.
    """
    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print('modules:', *(m for m in sys.modules if m.split('.')[0] == 'lockqual')))\n"
        f"sys.argv = ['lockqual', *{argv!r}]\n"
        "runpy.run_module('lockqual.cli', run_name='__main__', alter_sys=True)\n"
    )
    out = _run(["-X", "importtime", "-c", code])
    timed = {line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines() if line.startswith("import time:")}
    loaded = set(out.stdout.splitlines()[-1].split()[1:])  # after what the subcommand printed
    assert loaded == {name for name in timed if name.split(".")[0] == "lockqual"}
    return {name.removeprefix("lockqual.") for name in loaded}


def test_import_loads_no_submodule_and_no_numpy():
    out = _run(["-c", "import sys, lockqual\nprint(sorted(m for m in sys.modules if m.startswith(('lockqual.', 'numpy'))))"])
    assert out.stdout.strip() == "[]"


def test_lazy_names_are_the_submodules_objects():
    code = """
import sys, lockqual
from lockqual import *
assert lockqual.__version__ == __version__ == "0.1.0"
assert lockqual.sem is sys.modules["lockqual.sem"]
assert lockqual.run_pipeline is sys.modules["lockqual.pipeline"].run_pipeline
assert lockqual.fit_ml is lockqual.sem.fit_ml and lockqual.split is lockqual.dataset.split
assert all(globals()[name] is getattr(lockqual, name) for name in lockqual.__all__)
assert set(lockqual.__all__) <= set(dir(lockqual))
try:
    lockqual.no_such_name
except AttributeError:
    print("ok")
"""
    assert _run(["-c", code]).stdout.strip() == "ok"


# the analysis modules each subcommand loads beyond BASE (its own stages and their imports)
STAGE_MODULES = [
    (["validate", "--input", SURVEY], set()),
    (["describe", "--input", SURVEY], set()),
    (["reliability", "--input", SURVEY], {"psychometrics", "_dist"}),
    (["efa", "--input", SURVEY], {"efa", "psychometrics", "_dist"}),
    (["entropy", "--input", SURVEY], {"scoring"}),
    (["ahp", "--judgments", JUDGMENTS], {"ahp"}),
    (["probit", "--input", SURVEY], {"oprobit", "_dist"}),
    # "--out" abbreviates synth's --out-file
    (["synth", "--kind", "sem", "--n", "50"], {"synth", "sem", "optimize", "ahp", "_dist"}),
]


@pytest.mark.parametrize("argv, extra", STAGE_MODULES, ids=[argv[0] for argv, _ in STAGE_MODULES])
def test_subcommand_loads_only_its_stage_modules(argv, extra, tmp_path):
    loaded = _cli_modules([*argv, "--out", str(tmp_path / "out.json")])
    assert loaded == BASE | extra
