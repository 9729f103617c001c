"""Smoke tests: each experiment script runs to completion on small arguments.

The scripts check their own results (twist_scan.py, for one, compares every
walk with the closed-form product), so exit status 0 is the assertion.
"""

import importlib.util
import json
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


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _canned_run(digest, rate, p50):
    # the tail of what perfbench/run.py --trace 0 prints
    metrics = {"items_per_s": {"value": rate, "unit": "1/s"}, "item_p50_ms": {"value": p50, "unit": "ms"}}
    return "\n".join([
        "workload twist seed 7 trace 0",
        "items 120 failed 0 fail_frac 0.0000 skipped_routes 3",
        f"digest {digest} over the first 20 items",
        "machine slowdown 1.2500 against the reference (median of 40 calibration runs)",
        f"items_per_s = {rate} 1/s (raw {rate}, n=120)",
        json.dumps({"correct": True, "attempted": 120, "failed": 0, "metrics": metrics}),
    ])


def test_bench_pairs_summary_on_canned_runs():
    bp = _bench_pairs()
    base = [bp.parse_run(_canned_run("ab12", r, p)) for r, p in ((10, 30), (12, 28), (11, 33), (9, 31))]
    change = [bp.parse_run(_canned_run("ab12", r, p)) for r, p in ((15, 20), (11, 29), (14, 21), (16, 19))]
    assert base[0]["digest"] == "ab12" and base[0]["slowdown"] == 1.25
    assert (base[0]["attempted"], base[0]["failed"], base[0]["correct"]) == (120, 0, True)
    out = bp.summarize(list(zip(base, change)), {"items_per_s": "higher", "item_p50_ms": "lower"})
    rate = out["items_per_s"]
    assert (rate["pairs_won"], rate["pairs"]) == (3, 4)  # 11 against 12 is lost
    assert rate["base"]["median"] == 10.5 and rate["change"]["median"] == 14.5
    assert rate["base"]["q1"] <= rate["base"]["median"] <= rate["base"]["q3"]
    # statistics.quantiles' exclusive method on 9, 10, 11, 12
    assert (rate["base"]["q1"], rate["base"]["q3"]) == (9.25, 11.75)
    assert out["item_p50_ms"]["pairs_won"] == 3 and out["item_p50_ms"]["better"] == "lower"
    one = bp.summarize([(base[0], change[0])], {})
    assert one["items_per_s"]["base"] == {"median": 10, "q1": 10, "q3": 10}
