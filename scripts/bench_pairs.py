#!/usr/bin/env python3
"""Run the benchmark in alternating base/change pairs and write BENCH_<sha>.json.

    python3 scripts/bench_pairs.py --base HEAD --seeds 101 102 103 104 105

The base commit is exported with ``git archive`` into a temporary directory,
which leaves no worktree entry behind in the repository; the change is the
working tree of this checkout.  For every workload and seed the script runs
each tree's own ``perfbench/run.py --trace 0`` once, base first on even
pairs and change first on odd ones, so a drift in machine speed favours
neither side.  It reads only what the runs print: the digest line, the item
counts and the final JSON line of end-to-end metrics.

The output file is named after the base commit, the one the change is
measured against.  Per workload and metric it holds the median and
quartiles of each side and the number of pairs the change won; it also
keeps every run's digest and metrics, both commit ids, the seeds, the run
length (``run_seconds`` of BENCHMARK.json, passed to every run as
``--seconds``) and the number of usable cores.  The exit code is 1 when any
run failed or a seed's digests differ between the two sides.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("twist", "structure", "induce", "cli")


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True
    ).stdout


def export_commit(rev, dest):
    """Write the committed files of rev into dest; returns the full commit id."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", sha), check=True)
    return sha


def parse_run(stdout):
    """The digest, item counts, slowdown and metrics printed by one run."""
    out = {"digest": None, "slowdown": None}
    lines = stdout.strip().splitlines()
    for line in lines:
        if line.startswith("digest "):
            out["digest"] = line.split()[1]
        elif line.startswith("machine slowdown "):
            out["slowdown"] = float(line.split()[2])
    result = json.loads(lines[-1])
    out["correct"] = result["correct"]
    out["attempted"] = result["attempted"]
    out["failed"] = result["failed"]
    out["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return out


def _spread(values):
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3}


def summarize(pairs, better):
    """Per metric: each side's median and quartiles and the pairs the change won.

    pairs is a list of (base, change) runs as parse_run returns them; better
    maps a metric name to "higher" or "lower".  A pair is won when the
    change is strictly better.
    """
    out = {}
    for name in pairs[0][0]["metrics"]:
        base = [b["metrics"][name] for b, _ in pairs]
        change = [c["metrics"][name] for _, c in pairs]
        sign = 1 if better.get(name, "lower") == "higher" else -1
        out[name] = {
            "better": better.get(name, "lower"),
            "base": _spread(base),
            "change": _spread(change),
            "pairs_won": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
            "pairs": len(pairs),
        }
    return out


def run_bench(tree, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if not proc.stdout.strip():
        raise SystemExit(f"{tree}: {workload} seed {seed} printed nothing:\n{proc.stderr[-2000:]}")
    res = parse_run(proc.stdout)
    res["exit"] = proc.returncode
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="commit the change is measured against")
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    with tempfile.TemporaryDirectory() as tmp:
        base_tree = Path(tmp) / "base"
        base_sha = export_commit(args.base, base_tree)

        report = {
            "base": base_sha,
            "change": git("rev-parse", "HEAD").decode().strip() + " + working tree",
            "seeds": args.seeds,
            "seconds": seconds,
            "nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "workloads": {},
        }
        ok = True
        for wl in args.workloads:
            pairs, runs = [], []
            for k, seed in enumerate(args.seeds):
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                got = {}
                for side in order:
                    tree = base_tree if side == "base" else ROOT
                    got[side] = run_bench(tree, wl, seed, seconds)
                    print(f"{wl} seed {seed} {side}: items_per_s "
                          f"{got[side]['metrics']['items_per_s']:.4g}"
                          f" digest {got[side]['digest'][:12]}", flush=True)
                same = got["base"]["digest"] == got["change"]["digest"]
                ok &= same and all(got[s]["exit"] == 0 and got[s]["correct"] for s in got)
                pairs.append((got["base"], got["change"]))
                runs.append({"seed": seed, "order": list(order), "digests_equal": same, **got})
            report["workloads"][wl] = {"summary": summarize(pairs, better), "runs": runs}

    path = ROOT / f"BENCH_{base_sha[:7]}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    for wl, data in report["workloads"].items():
        for name, s in data["summary"].items():
            print(f"{wl:10s} {name:12s} base {s['base']['median']:10.4g}"
                  f" change {s['change']['median']:10.4g}"
                  f" won {s['pairs_won']}/{s['pairs']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
