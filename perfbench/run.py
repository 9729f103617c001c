"""affinekit benchmark: seeded, self-checking workloads through the public API.

    python3 perfbench/run.py --workload twist --seed 0 --seconds 25 --trace 0

Run from a checkout: the library is imported from ``src/`` next to this
directory.  With ``--trace 0`` the last line of stdout is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced phase, measured after an untraced phase over the same items, and
the spans are written to ``perfbench/out/``.  End-to-end times are scaled to
a reference machine speed measured by a calibration kernel between items
(see ``CAL_REF_S``); the raw figures are printed too.  The exit code is nonzero when
any item fails, when the digest of the default seed differs from
``reference.json``, or when a traced run's digest differs from its untraced
one.
"""

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from digest import Digest  # noqa: E402
from tracer import HOOK, LAYERS, ROOT_ITEM, ROOT_SETUP, Tracer, named_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
MIN_ITEMS_FOR_P90 = 100

# The machine is shared: load on the host changes how fast identical work runs
# by up to 1.8x from one minute to the next.  Each end-to-end run therefore
# times a fixed kernel in the library's idiom between items and divides every
# latency by the slowdown the kernel showed just before it (the median of its
# last CAL_WINDOW runs against CAL_REF_S); the raw figures are printed as well.
CAL_REF_S = 0.006  # kernel time on a 2-vCPU Xeon VM under Python 3.11.7
CAL_EVERY_S = 0.1
CAL_WINDOW = 5


def calibration_kernel():
    """Fixed work: Fraction arithmetic and tuple-keyed dict updates."""
    d, s = {}, Fraction(0)
    for i in range(300):
        q = Fraction(i % 7 + 1, i % 5 + 2) * Fraction(3, 4) - Fraction(i % 3, 7)
        key = (q, i % 11)
        d[key] = d.get(key, Fraction(0)) + q
        s += q
    return s


class Calibration:
    def __init__(self):
        self.samples = []
        self.last = float("-inf")

    def sample(self):
        t0 = time.perf_counter()
        calibration_kernel()
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)

    def due(self):
        return time.perf_counter() - self.last >= CAL_EVERY_S

    def local(self):
        """How much slower than the reference the machine is just now."""
        return statistics.median(self.samples[-CAL_WINDOW:]) / CAL_REF_S

    def slowdown(self):
        """How much slower than the reference the machine was over the run."""
        return statistics.median(self.samples) / CAL_REF_S


def fresh_import():
    """Import every affinekit module afresh, as a new process would."""
    for name in [n for n in sys.modules if n == "affinekit" or n.startswith("affinekit.")]:
        del sys.modules[name]
    return SimpleNamespace(**{layer: importlib.import_module(f"affinekit.{layer}") for layer in LAYERS})


def measure(wl, state, seed, seconds, min_items, tracer=None, cal=None):
    """Run items until `seconds` have passed and at least `min_items` are done.

    With `cal`, the calibration kernel runs between items (outside their
    latencies) at most every CAL_EVERY_S, and `norm` holds each latency at
    reference speed.
    """
    stream = wl.items(seed, state)
    digest = Digest()
    lat, norm, failures, prefix = [], [], [], []
    counts = {}
    clock = time.perf_counter
    deadline = clock() + seconds
    i = 0
    min_items = max(min_items, wl.digest_items)
    while i < min_items or clock() < deadline:
        it = next(stream)
        if cal is not None and cal.due():
            cal.sample()
        t0 = clock()
        try:
            if tracer is None:
                ok, out, item_counts = wl.run(state, it)
            else:
                with tracer.root(ROOT_ITEM):
                    ok, out, item_counts = wl.run(state, it)
        except Exception:
            dt = clock() - t0
            ok, out, item_counts = False, None, {}
            failures.append((i, it, traceback.format_exc()))
        else:
            dt = clock() - t0
            if not ok:
                failures.append((i, it, "identity does not hold"))
        lat.append(dt)
        if cal is not None:
            norm.append(dt / cal.local())
        for key, n in item_counts.items():
            counts[key] = counts.get(key, 0) + n
        if i < wl.digest_items:
            prefix.append((it, out if ok else None))
        i += 1
    if tracer is not None:
        tracer.uninstall()
    # digest work stays out of the item latencies, the time window and the trace
    for j, (it, out) in enumerate(prefix):
        digest.add(j, wl.artifacts(state, it, out) if out is not None else [("failed", True)])
    return {
        "lat": lat,
        "norm": norm,
        "failures": failures,
        "counts": counts,
        "digest": digest.hexdigest(),
    }


def e2e_metrics(setups, lat):
    """End-to-end metrics from set-up times and item latencies, in seconds."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (len(lat) / sum(lat), "1/s"),
        "item_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "item_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


OTHER = [f"{layer}.other" for layer in LAYERS if layer != "cli"]


def layer_metrics(tracer, untraced, traced):
    """Per-layer metrics averaged per traced item.

    Runs are time-bounded, so totals would grow with speed; per-item values
    compare across commits however many items a run completed.
    """
    n = len(traced["lat"])
    items = tracer.summary(ROOT_ITEM)
    out = {}
    for name in named_metrics() + OTHER:
        calls, secs = items.get(name, (0, 0.0))
        out[f"{name}.calls"] = (calls / n, "calls/item")
        out[f"{name}.self_s"] = (secs / n, "s/item")
    for layer in LAYERS:
        secs = sum(s for k, (_, s) in items.items() if k.startswith(layer + "."))
        out[f"{layer}.self_s"] = (secs / n, "s/item")
    out["bench.self_s"] = (items[ROOT_ITEM][1] / n, "s/item")
    out["trace.hook_s"] = (items[HOOK][1] / n, "s/item")
    out["trace.item_ms"] = (sum(traced["lat"]) / n * 1e3, "ms")
    out["trace.items"] = (n, "count")
    out["trace.setup_s"] = (sum(e - s for s, e in tracer.root_spans(ROOT_SETUP)), "s")
    k = min(len(untraced["lat"]), n)
    out["trace.overhead_frac"] = (1.0 - sum(untraced["lat"][:k]) / sum(traced["lat"][:k]), "ratio")
    out.update(tracer.counters.metrics(n))
    out["cli.report_bytes"] = (traced["counts"].get("report_bytes", 0) / n, "bytes/item")
    out["bench.skipped_routes"] = (traced["counts"].get("skipped_routes", 0) / n, "routes/item")
    return out


def print_layer_tables(tracer, metrics):
    item_s = metrics["trace.item_ms"][0] / 1e3
    print(f"per traced item ({metrics['trace.items'][0]} items, {item_s * 1e3:.2f} ms each):")
    print(f"  {'function':40s} {'calls':>10s} {'self ms':>10s} {'share':>7s}")
    for name in named_metrics() + OTHER:
        calls, secs = metrics[f"{name}.calls"][0], metrics[f"{name}.self_s"][0]
        if calls:
            print(f"  {name:40s} {calls:10.1f} {secs * 1e3:10.3f} {secs / item_s:7.1%}")
    parts = [f"{layer}.self_s" for layer in LAYERS] + ["bench.self_s", "trace.hook_s"]
    for name in parts:
        secs = metrics[name][0]
        print(f"  {name:40s} {'':10s} {secs * 1e3:10.3f} {secs / item_s:7.1%}")
    total = sum(metrics[name][0] for name in parts)
    print(f"  accounting: layers + bench + hooks = {total * 1e3:.3f} ms of {item_s * 1e3:.3f} ms per item")
    setup = tracer.summary(ROOT_SETUP)
    print(f"traced set-up ({metrics['trace.setup_s'][0]:.4f} s):")
    for name, (calls, secs) in sorted(setup.items(), key=lambda kv: -kv[1][1]):
        if calls:
            print(f"  {name:40s} {calls:10d} {secs * 1e3:10.3f}")


def load_reference(name, seed):
    path = HERE / "reference.json"
    ref = json.loads(path.read_text())
    if seed != ref["seed"]:
        return None
    return ref["digests"].get(name)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "affinekit" / "__init__.py").is_file():
        print(f"error: no affinekit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]

    cal = Calibration()
    setups, setups_norm = [], []
    for _ in range(SETUP_REPEATS):
        cal.sample()
        t0 = time.perf_counter()
        state = wl.setup(fresh_import())
        setups.append(time.perf_counter() - t0)
        cal.sample()
        setups_norm.append(setups[-1] / cal.local())
    gc.collect()

    problems = []
    seconds = args.seconds / 2 if args.trace else args.seconds
    # an end-to-end run needs ten samples beyond its 90th percentile
    if args.trace:
        res = measure(wl, state, args.seed, seconds, 0)
    else:
        res = measure(wl, state, args.seed, seconds, MIN_ITEMS_FOR_P90, cal=cal)
    if args.trace:
        untraced = res
        state = None
        ak = fresh_import()
        tracer = Tracer()
        tracer.install()
        with tracer.root(ROOT_SETUP):
            state = wl.setup(ak)
        tracer.counters.reset()
        gc.collect()
        res = measure(wl, state, args.seed, seconds, 0, tracer)
        if res["digest"] != untraced["digest"]:
            problems.append(f"traced digest {res['digest']} != untraced {untraced['digest']}")
        metrics = layer_metrics(tracer, untraced, res)
        for name in wl.must_reach:
            if not metrics[f"{name}.calls"][0]:
                problems.append(f"{name} shows zero calls on {wl.name}; a rebinding was missed")

    lat = res["lat"]
    attempted, failed = len(lat), len(res["failures"])
    for i, it, why in res["failures"][:5]:
        print(f"FAILED item {i} {it!r}:\n{why}", file=sys.stderr)
    ref = load_reference(wl.name, args.seed)
    if ref is not None and ref != res["digest"]:
        problems.append(f"digest {res['digest']} != reference {ref} for seed {args.seed}")
    if failed:
        problems.append(f"{failed} of {attempted} items failed")
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}")
    print(f"items {attempted} failed {failed} fail_frac {failed / attempted:.4f}"
          f" skipped_routes {res['counts'].get('skipped_routes', 0)}")
    print(f"digest {res['digest']} over the first {wl.digest_items} items"
          + ("" if ref is None else (" (matches reference)" if ref == res["digest"] else " (MISMATCH)")))
    if args.trace:
        print_layer_tables(tracer, metrics)
        for name in sorted(metrics):
            if not (name.endswith(".calls") or name.endswith(".self_s")):
                print(f"{name} = {metrics[name][0]:.6g} {metrics[name][1]}")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        # spans run to megabytes, so only the latest traced run of a workload keeps them
        tracer.write(out_dir / f"trace-{wl.name}.tsv.gz")
        (out_dir / f"layers-{wl.name}-s{args.seed}.json").write_text(
            json.dumps({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, indent=1, sort_keys=True)
        )
    else:
        metrics = e2e_metrics(setups_norm, res["norm"])
        raw = e2e_metrics(setups, res["lat"])
        print(f"machine slowdown {cal.slowdown():.4f} against the reference"
              f" (median of {len(cal.samples)} calibration runs)")
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit} (raw {raw[name][0]:.6g}, n={attempted})")
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
