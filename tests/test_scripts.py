"""Smoke tests: each experiment script runs to completion on small arguments.

The scripts check their own results (twist_scan.py, for one, compares every
walk with the closed-form product), so exit status 0 is the assertion.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import types
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
        ("twist_scan.py", ["--lam", "1/2", "--kmax", "2", "--span", "1"]),
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


def _perfbench_source(name):
    """perfbench/<name>.py executed from its source text, so nothing is
    written under perfbench/ (no bytecode cache)."""
    path = ROOT / "perfbench" / f"{name}.py"
    mod = types.ModuleType(name)
    exec(compile(path.read_text(), str(path), "exec"), vars(mod))
    return mod


# the layers of src/affinekit, lowest first: a module imports only the ones
# before it
LAYERS = ["exact", "finlie", "affine", "rootpar", "modrep", "locfun", "cli"]


def test_modules_import_only_lower_layers():
    src = ROOT / "src" / "affinekit"
    assert sorted(LAYERS) == sorted(p.stem for p in src.glob("*.py") if p.stem != "__init__")
    for pos, layer in enumerate(LAYERS):
        tree = ast.parse((src / f"{layer}.py").read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                full = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # from .x import y and from . import x, or their absolute forms
                pkg = "affinekit." if node.level else ""
                full = [pkg + node.module] if node.module else []
                if node.module in (None, "affinekit"):
                    full = ["affinekit." + alias.name for alias in node.names]
            else:
                continue
            imported |= {n.split(".")[1] for n in full if n.startswith("affinekit.")}
        assert imported <= set(LAYERS[:pos]), (layer, imported - set(LAYERS[:pos]))


def test_benchmark_names_resolve_in_affinekit():
    # A deletion or rename in src/ that breaks perfbench/run.py --trace 1
    # fails here, not only in the slow perfbench suite.  Each name is looked
    # up the way the tracer binds it: in the layer module's or class's own
    # namespace.
    tracer, workloads = _perfbench_source("tracer"), _perfbench_source("workloads")
    metrics = set()
    for layer in tracer.LAYERS:
        mod = importlib.import_module(f"affinekit.{layer}")
        for qual in tracer.NAMED[layer]:
            obj = mod
            for part in qual.split("."):
                obj = getattr(obj, "__dict__", {}).get(part)
            assert inspect.isfunction(obj) and obj.__module__ == mod.__name__, f"{layer}.{qual}"
            metrics.add(tracer.metric_name(layer, qual))
    assert {f"modrep.{b}" for b in tracer.MODULE_CONSTRUCTORS} <= metrics
    for w in workloads.WORKLOADS.values():
        assert set(w.must_reach) <= metrics, (w.name, set(w.must_reach) - metrics)


def test_tracer_counts_the_band_solves_of_a_twist():
    # The benchmark counts band solves by the length of the cache _f_inverse
    # fills, so a store layout it would miscount fails here, not only in the
    # slow perfbench suite.
    from fractions import Fraction

    from affinekit import locfun
    from affinekit.affine import DegreeWindow
    from affinekit.modrep import DenseSL2Params, dense_sl2

    M = dense_sl2(DenseSL2Params(Fraction(1, 2), Fraction(3)), DegreeWindow(-6, 6))
    spec = locfun.make_twist_spec(M, (Fraction(2),), Fraction(1, 2))
    tracer = _perfbench_source("tracer").Tracer()
    tracer.install()
    try:
        with tracer.root("bench.item"):
            dict(locfun.twist_module(M, spec).action)  # rows are filled on first read
    finally:
        tracer.uninstall()
    counters = tracer.counters
    assert counters.band_solves == len(M.twist_tables[spec.alpha][0].bands) > 0
    assert counters.theta_calls > 0


def test_traced_cli_round_reaches_every_must_reach_name():
    # One round of the cli workload (seed 0, one item per command) under the
    # tracer.  A refactor that stops a command from reaching a function the
    # workload must exercise (efloc_walk reaching localize, say) fails here,
    # not only in perfbench/run.py --trace 1.
    tracer_mod, workloads = _perfbench_source("tracer"), _perfbench_source("workloads")
    wl = workloads.WORKLOADS["cli"]
    ak = types.SimpleNamespace(
        **{layer: importlib.import_module(f"affinekit.{layer}") for layer in tracer_mod.LAYERS}
    )
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        state = wl.setup(ak)
        items = wl.items(0, state)
        for _ in wl.pattern:
            it = next(items)
            with tracer.root(tracer_mod.ROOT_ITEM):
                ok = wl.run(state, it)[0]
            assert ok, it
    finally:
        tracer.uninstall()
    calls = tracer.summary(tracer_mod.ROOT_ITEM)
    assert [name for name in wl.must_reach if not calls.get(name, (0, 0))[0]] == []
