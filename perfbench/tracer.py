"""Outside-in span tracer for the affinekit layers.

The library is never edited.  `Tracer.install` replaces each traced function
by a wrapper in every ``affinekit`` module that holds it (modules import many
names directly, e.g. ``locfun`` imports ``invert`` from ``exact``), and
patches traced methods on their classes.  Install refuses to finish if an
original is still held where rebinding cannot reach it (a module-level dict,
list or tuple, or a default argument), and a traced run fails if a function
its workload must reach shows zero calls, so a missed rebinding cannot
silently undercount a layer.

A span is (name, start, end, parent).  Spans are kept in memory in flat
arrays and written out once, after the measured phase.  Every item and the
traced set-up run under a root span, so each item is one trace, and the
self times of all spans add up to the traced item time:

    sum(layer self times) + bench self time + hook time == root time

Counters that need the arguments or results of a call (repeat ratios, band
solves, masked labels) run in hooks.  A hook's time is recorded as its own
``trace.hook`` span, so tracer work is not charged to a layer.
"""

import functools
import gzip
import importlib
import inspect
import sys
import time
import weakref
from array import array

LAYERS = ("exact", "finlie", "affine", "rootpar", "modrep", "locfun", "cli")

# Functions reported one by one.  Every other public function a layer module
# defines (except in cli, whose handlers sit in a dispatch dict) is traced too
# and reported as <layer>.other, so library time never lands in bench.self_s.
NAMED = {
    "exact": ("invert", "solve_unique", "det", "integer_solve", "gen_binom", "gen_multinom"),
    "finlie": ("build_simple", "SimpleLieAlgebra.bracket"),
    "affine": ("build_affine", "aff_bracket", "roots_window"),
    "rootpar": (
        "assemble_parabolic",
        "check_parabolic_axioms",
        "verify_classification",
        "phi_P",
        "in_QP",
        "ParabolicSet.member",
    ),
    "modrep": (
        "dense_sl2",
        "loop_module",
        "imaginary_verma",
        "levi_dense_module",
        "induced_truncated",
        "GradedModule.apply_elt",
        "check_bracket_compat",
    ),
    "locfun": (
        "twist_module",
        "theta_action",
        "_f_inverse",
        "localize",
        "imverma_localized",
        "induction_commutes_probe",
    ),
    "cli": ("main",),
}

MODULE_CONSTRUCTORS = (
    "dense_sl2",
    "loop_module",
    "imaginary_verma",
    "levi_dense_module",
    "induced_truncated",
)

ROOT_ITEM = "bench.item"
ROOT_SETUP = "bench.setup"
HOOK = "trace.hook"


def metric_name(layer, qualname):
    """`finlie.SimpleLieAlgebra.bracket` is reported as `finlie.bracket`."""
    return f"{layer}.{qualname.rsplit('.', 1)[-1]}"


def named_metrics():
    return [metric_name(layer, q) for layer in LAYERS for q in NAMED[layer]]


def _hashable(x):
    try:
        hash(x)
        return x
    except TypeError:
        return repr(x)


class Counters:
    """Ratios measured at the layer boundaries, each with its base count."""

    def __init__(self):
        self.member_calls = 0
        self.member_repeats = 0
        self._member_seen = weakref.WeakKeyDictionary()
        self.theta_calls = 0
        self.theta_repeats = 0
        self.theta_raised = 0
        self._theta_seen = set()
        self._theta_specs = []
        self.band_lookups = 0
        self.band_solves = 0
        self.twisted_labels = 0
        self.twist_masked = 0
        self.built_labels = 0
        self.built_masked = 0

    def reset(self):
        """Forget what the set-up trace counted; hooks keep this object."""
        self.__init__()

    def end_trace(self):
        # a TwistSpec lives for one twist, so (spec, generator) repeats are
        # counted per item; specs are held until then so ids stay unique
        self._theta_seen.clear()
        self._theta_specs.clear()

    # hooks: post(args, kwargs, result, exc) or pre(args, kwargs) -> state

    def member_post(self, args, kwargs, result, exc):
        P, fin, n = args[0], args[1], args[2]
        # equal ints and Fractions hash alike, so no normalisation is needed
        key = (tuple(fin), n)
        seen = self._member_seen.get(P)
        if seen is None:
            seen = self._member_seen[P] = set()
        self.member_calls += 1
        if key in seen:
            self.member_repeats += 1
        else:
            seen.add(key)

    def theta_post(self, args, kwargs, result, exc):
        spec, X = args[1], args[2]
        key = (id(spec), _hashable(X))
        self.theta_calls += 1
        if key in self._theta_seen:
            self.theta_repeats += 1
        else:
            self._theta_seen.add(key)
            self._theta_specs.append(spec)
        if isinstance(exc, ValueError):  # BandError subclasses ValueError
            self.theta_raised += 1

    def f_inverse_pre(self, args, kwargs):
        M, vec, cache = args[0], args[2], args[3]
        self.band_lookups += len({M.weight_of[lab] for lab in vec})
        return cache, len(cache) - ("_disp" in cache)

    def f_inverse_post(self, state, result, exc):
        cache, before = state
        self.band_solves += len(cache) - ("_disp" in cache) - before

    def twist_post(self, args, kwargs, result, exc):
        if result is not None:
            M = args[0]
            self.twisted_labels += len(M.weight_of)
            self.twist_masked += len(result.boundary - M.boundary)

    def constructor_post(self, args, kwargs, result, exc):
        if result is not None:
            self.built_labels += len(result.weight_of)
            self.built_masked += len(result.boundary)

    def metrics(self, n_items):
        """Ratios with their bases; counts per item."""

        def frac(a, b):
            return a / b if b else 0.0

        return {
            "rootpar.member.repeat_ratio": (frac(self.member_repeats, self.member_calls), "ratio"),
            "locfun.theta_action.repeat_ratio": (frac(self.theta_repeats, self.theta_calls), "ratio"),
            "locfun.theta_action.raised": (self.theta_raised / n_items, "calls/item"),
            "locfun.band_lookups": (self.band_lookups / n_items, "bands/item"),
            "locfun.band_solves": (self.band_solves / n_items, "bands/item"),
            "locfun.band_cache_hit_ratio": (
                frac(self.band_lookups - self.band_solves, self.band_lookups),
                "ratio",
            ),
            "locfun.twisted_labels": (self.twisted_labels / n_items, "labels/item"),
            "locfun.masked_frac": (frac(self.twist_masked, self.twisted_labels), "ratio"),
            "modrep.labels": (self.built_labels / n_items, "labels/item"),
            "modrep.masked_frac": (frac(self.built_masked, self.built_labels), "ratio"),
        }


class Tracer:
    def __init__(self):
        self.names = []
        self._fid = {}
        self.fids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.roots = []
        self.counters = Counters()
        self._undo = []
        self._hook_fid = self._name_id(HOOK)

    def _name_id(self, name):
        fid = self._fid.get(name)
        if fid is None:
            fid = self._fid[name] = len(self.names)
            self.names.append(name)
        return fid

    # ------------------------------------------------------------ spans

    def _open(self, fid):
        idx = len(self.starts)
        self.fids.append(fid)
        self.parents.append(self._stack[-1])
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def root(self, name):
        return _Root(self, self._name_id(name))

    def _wrap(self, fid, fn, pre=None, post=None):
        fids, parents, starts, ends = self.fids, self.parents, self.starts, self.ends
        stack, clock, hook_fid = self._stack, time.perf_counter, self._hook_fid

        def hook_span(call, *a):
            fids.append(hook_fid)
            parents.append(stack[-1])
            t0 = clock()
            out = call(*a)
            starts.append(t0)
            ends.append(clock())
            return out

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = hook_span(pre, args, kwargs) if pre is not None else None
            idx = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            result = exc = None
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
                if pre is not None:
                    hook_span(post, state, result, exc)
                elif post is not None:
                    hook_span(post, args, kwargs, result, exc)

        return wrapper

    # ---------------------------------------------------------- install

    def install(self):
        mods = {layer: importlib.import_module(f"affinekit.{layer}") for layer in LAYERS}
        c = self.counters
        hooks = {
            "rootpar.ParabolicSet.member": (None, c.member_post),
            "locfun.theta_action": (None, c.theta_post),
            "locfun._f_inverse": (c.f_inverse_pre, c.f_inverse_post),
            "locfun.twist_module": (None, c.twist_post),
        }
        for b in MODULE_CONSTRUCTORS:
            hooks[f"modrep.{b}"] = (None, c.constructor_post)
        originals = {}  # id(function) -> (function, wrapper)
        for layer, mod in mods.items():
            targets = list(NAMED[layer])
            if layer != "cli":
                targets += sorted(
                    name
                    for name, obj in vars(mod).items()
                    if inspect.isfunction(obj)
                    and not inspect.isgeneratorfunction(obj)
                    and getattr(obj, "__module__", None) == mod.__name__
                    and not name.startswith("_")
                    and name not in NAMED[layer]
                )
            for qual in targets:
                metric = metric_name(layer, qual) if qual in NAMED[layer] else f"{layer}.other"
                pre, post = hooks.get(f"{layer}.{qual}", (None, None))
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name)
                    fn = cls.__dict__[meth]
                    self._set(cls, meth, self._wrap(self._name_id(metric), fn, pre, post))
                    continue
                fn = getattr(mod, qual)
                originals[id(fn)] = (fn, self._wrap(self._name_id(metric), fn, pre, post))
        # rebind every module-level reference, wherever it was imported to
        for name, mod in list(sys.modules.items()):
            if not (name == "affinekit" or name.startswith("affinekit.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    self._set(mod, attr, originals[id(obj)][1])
        self._check_complete(originals)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _check_complete(self, originals):
        """Fail if an original is still held where rebinding cannot reach it:
        a module-level dict, list or tuple, or a function's defaults."""
        for name, mod in list(sys.modules.items()):
            if not (name == "affinekit" or name.startswith("affinekit.")):
                continue
            for attr, obj in vars(mod).items():
                if attr == "__builtins__":
                    continue
                if isinstance(obj, dict):
                    held = obj.values()
                elif isinstance(obj, (list, tuple)):
                    held = obj
                elif inspect.isfunction(obj):
                    held = (obj, *(obj.__defaults__ or ()))
                else:
                    held = (obj,)
                for h in held:
                    if id(h) in originals:
                        raise RuntimeError(f"{name}.{attr} still holds untraced {h.__qualname__}")

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # --------------------------------------------------------- results

    def self_times(self):
        """Per-span self time: duration minus what its child spans cover."""
        n = len(self.starts)
        child = [0.0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        return [ends[i] - starts[i] - child[i] for i in range(n)]

    def summary(self, root_name):
        """calls and self seconds per span name, over the traces under root_name."""
        selfs = self.self_times()
        calls = [0] * len(self.names)
        secs = [0.0] * len(self.names)
        names, fids, parents = self.names, self.fids, self.parents
        inside = False
        for i, fid in enumerate(fids):
            if parents[i] < 0:
                inside = names[fid] == root_name
            if inside:
                calls[fid] += 1
                secs[fid] += selfs[i]
        return {name: (calls[i], secs[i]) for i, name in enumerate(names)}

    def root_spans(self, root_name):
        fid = self._fid.get(root_name)
        return [(self.starts[i], self.ends[i]) for i, f in self.roots if f == fid]

    def write(self, path):
        """Spans as gzip'd TSV: trace, span, parent, name, start, end."""
        names, fids, parents, starts, ends = self.names, self.fids, self.parents, self.starts, self.ends
        trace_of = {}
        for t, (idx, _) in enumerate(self.roots):
            trace_of[idx] = t
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("trace\tspan\tparent\tname\tstart\tend\n")
            trace = -1
            rows = []
            for i in range(len(starts)):
                if parents[i] < 0:
                    trace = trace_of.get(i, trace)
                rows.append(f"{trace}\t{i}\t{parents[i]}\t{names[fids[i]]}\t{starts[i]:.9f}\t{ends[i]:.9f}\n")
                if len(rows) >= 65536:
                    fh.writelines(rows)
                    rows.clear()
            fh.writelines(rows)


class _Root:
    def __init__(self, tracer, fid):
        self.tracer, self.fid = tracer, fid

    def __enter__(self):
        tr = self.tracer
        self.idx = tr._open(self.fid)
        tr.starts[self.idx] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.ends[self.idx] = time.perf_counter()
        tr._stack.pop()
        tr.roots.append((self.idx, self.fid))
        tr.counters.end_trace()
        return False
