"""Smoke tests: each experiment script runs to completion on small arguments.

The scripts check their own results (twist_scan.py, for one, compares every
walk with the closed-form product), so exit status 0 is the assertion.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("mult_growth.py", ["--sizes", "3", "6"]),
        ("parabolic_survey.py", ["--samples", "10", "--radius", "2"]),
        ("root_census.py", ["--radius", "2"]),
        ("twist_scan.py", ["--kmax", "2", "--span", "1"]),
    ],
)
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout
