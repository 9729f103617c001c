"""Self-tests of the benchmark (run with: python3 -m pytest perfbench -q).

They check the benchmark, not the library: that a digest sees a single
changed rational, does not depend on the interpreter's hash seed, agrees
between traced and untraced runs, and that the tracer rebinds every module
that holds a traced function.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from digest import module_digest  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(workload, *extra, env=None, cwd=ROOT):
    # a traced run with --seconds 0 runs just the digest prefix, twice: once
    # untraced and once traced, and fails if the two digests differ
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "0", "--trace", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def _digest_line(stdout):
    return next(line for line in stdout.splitlines() if line.startswith("digest "))


def _dense():
    from affinekit.affine import DegreeWindow
    from affinekit.modrep import DenseSL2Params, dense_sl2

    return dense_sl2(DenseSL2Params(Fraction(1, 2), Fraction(3)), DegreeWindow(-4, 4))


def test_flipping_one_rational_changes_the_digest():
    M = _dense()
    before = module_digest(M)
    key = next(k for k, row in M.action.items() if row)
    lab, c = next(iter(M.action[key].items()))
    M.action[key] = {**M.action[key], lab: c + Fraction(1, 7)}
    assert module_digest(M) != before


def test_masking_one_more_label_changes_the_digest():
    M = _dense()
    before = module_digest(M)
    M.boundary.add(next(lab for lab in M.weight_of if lab not in M.boundary))
    assert module_digest(M) != before


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_digest_does_not_depend_on_hash_seed(workload):
    lines = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        res = _run(workload, "--seed", "3", env=env)
        assert res.returncode == 0, res.stderr
        lines.append(_digest_line(res.stdout))
    assert lines[0] == lines[1]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_matches_untraced_and_reaches_its_layers(workload):
    # the traced run exits nonzero when its digest differs from the untraced
    # phase, differs from reference.json (seed 0), or a must-reach function
    # shows zero calls
    res = _run(workload, "--seed", "0")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    for name in WORKLOADS[workload].must_reach:
        assert result["metrics"][f"{name}.calls"]["value"] > 0


def test_tracer_rebinds_every_module_that_holds_a_function():
    import affinekit.exact as exact
    import affinekit.locfun as locfun
    import affinekit.modrep as modrep
    import affinekit.rootpar as rootpar

    original = exact.invert
    member = rootpar.ParabolicSet.member
    tracer = Tracer()
    tracer.install()
    try:
        assert exact.invert is not original
        assert locfun.invert is exact.invert and modrep.invert is exact.invert
        assert locfun.induced_truncated is modrep.induced_truncated
        assert rootpar.ParabolicSet.member is not member
        with tracer.root("bench.item"):
            locfun.invert([[Fraction(2)]])
        assert tracer.summary("bench.item")["exact.invert"][0] == 1
    finally:
        tracer.uninstall()
    assert exact.invert is original and locfun.invert is original
    assert rootpar.ParabolicSet.member is member


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    res = _run("structure", cwd=tmp_path)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
