"""The walkthrough scripts in demos/ run to the end on the bundled fixtures."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, last_heading",
    [
        ("full_evaluation.py", "rank correlation (Spearman)"),
        ("questionnaire_reduction.py", "simplified questionnaire:"),
    ],
)
def test_demo_exits_0(script, last_heading):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert last_heading in run.stdout
