"""Command line front end: exact verification reports over the toolkit.

Each subcommand assembles its objects from flags (optionally merged with a
JSON config file), runs exact checks, and writes a schema-versioned report.
JSON reports carry {schema_version, command, config_echo, records}; matrix
and table payloads go to CSV.  Rational values are rendered as fraction
strings "p/q", never as floats.

Exit codes: 0 when every verification record passes, 2 when at least one
record fails, 1 when the input is unusable (unknown command, malformed
value, zero samples, window or band exhaustion, a generator the module
does not tabulate).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from collections.abc import Callable
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction

from .affine import (
    AffWeight,
    DegreeWindow,
    build_affine,
    heisenberg_check,
    roots_window,
)
from .exact import det, multinom_convolution_check
from .finlie import build_simple, sigma_aut
from .locfun import (
    TWIST_LAWS,
    BandError,
    _wshift,
    efloc_product,
    efloc_walk,
    make_twist_spec,
    twist_laws,
    twist_module,
)
from .modrep import (
    DenseSL2Params,
    IncompatibleData,
    NothingCompared,
    UntabulatedGenerator,
    adjoint_rep,
    boundedness_probe,
    build_PM,
    check_bracket_compat,
    check_level,
    check_weight_additivity,
    dense_sl2,
    finite_dim_sl2,
    imaginary_verma,
    loop_module,
    natural_rep,
    prop42_matrix,
    shadow_detect,
)
from .rootpar import (
    ImproperParabolic,
    assemble_parabolic,
    check_parabolic_axioms,
    classify_parabolic,
    in_QP,
    make_flag,
    phi_P,
    random_flag,
    verify_classification,
)

SCHEMA_VERSION = 1
_Z = Fraction(0)
_ONE = Fraction(1)


class UsageError(Exception):
    """Unusable input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    """One fully merged invocation: flags over config-file values over defaults."""

    command: str
    algebra: str | None
    window: str | None
    params: dict
    seed: int
    out: str | None
    fmt: str


# ------------------------------------------------------------ flag parsing


def _int(value, name):
    try:
        return int(str(value))
    except ValueError:
        raise UsageError(f"{name} wants an integer, got {value!r}")


def _count(value, name):
    n = _int(value, name)
    if n < 0:
        raise UsageError(f"{name} wants a nonnegative integer, got {value!r}")
    return n


def _samples(cfg):
    n = _count(cfg.params["samples"], "samples")
    if n == 0:
        raise UsageError("samples wants at least 1: zero samples verify nothing")
    return n


def _frac(value, name):
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{name} wants a fraction like 5/2, got {value!r}")


def _frac_list(value, name):
    parts = [p.strip() for p in str(value).split(",") if p.strip()]
    if not parts:
        raise UsageError(f"{name} wants a comma separated fraction list")
    return tuple(_frac(p, name) for p in parts)


def _int_list(value, name):
    parts = [p.strip() for p in str(value).split(",") if p.strip()]
    if not parts:
        raise UsageError(f"{name} wants a comma separated integer list")
    return tuple(_int(p, name) for p in parts)


def _window(value, name="window"):
    text = str(value)
    lo, sep, hi = text.partition(":")
    if not sep:
        raise UsageError(f"{name} wants lo:hi, got {text!r}")
    lo, hi = _int(lo, name), _int(hi, name)
    if lo > hi:
        raise UsageError(f"{name} is empty: {text!r}")
    return DegreeWindow(lo, hi)


def _algebra(spec):
    """Affine algebra from a spec like A2x1 (untwisted) or A2x2 (twisted)."""
    label, sep, order = str(spec).partition("x")
    if not sep or order not in ("1", "2"):
        raise UsageError(f"algebra wants <type>x<twist order>, got {spec!r}")
    try:
        g = build_simple(label)
    except (KeyError, ValueError) as exc:
        raise UsageError(f"unknown finite type {label!r}: {exc}")
    if order == "1":
        return build_affine(g)
    try:
        return build_affine(g, sigma_aut(g))
    except (KeyError, ValueError) as exc:
        raise UsageError(f"no diagram involution for {label!r}: {exc}")


# --------------------------------------------------------------- rendering


def _wstr(w):
    fins = ",".join(str(c) for c in w.fin)
    return f"({fins})|d={w.d}|k={w.k}"


def _render(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, AffWeight):
        return _wstr(value)
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, dict):
        return {str(_render(k)): _render(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_render(v) for v in value]
    return str(value)


def _info(name, actual):
    return {"name": name, "status": "info", "expected": None, "actual": _render(actual)}


def _verify(name, expected, actual):
    status = "pass" if expected == actual else "fail"
    return {
        "name": name,
        "status": status,
        "expected": _render(expected),
        "actual": _render(actual),
    }


def _mult_table(M, fin_rank, name="multiplicity"):
    rows = []
    for w in M.support_sorted():
        rows.append(
            [str(c) for c in w.fin] + [str(w.d), str(w.k), str(len(M.weights[w]))]
        )
    header = [f"fin{i}" for i in range(fin_rank)] + ["d", "k", "mult"]
    return (name, header, rows)


# ---------------------------------------------------------------- handlers


def cmd_algebra_info(cfg):
    A = _algebra(cfg.algebra)
    W = _window(cfg.window)
    simples = A.affine_simple_roots()
    records = [
        _info("fin_rank", A.fin_rank),
        _info("twist_order", A.s),
        _info("delta_marks", list(A.delta_marks())),
        _info("affine_simple_roots", [list(fin) + [n] for fin, n in simples]),
        _verify("heisenberg_window", True, heisenberg_check(A, W)),
    ]
    return records, []


def cmd_roots(cfg):
    A = _algebra(cfg.algebra)
    W = _window(cfg.window)
    roots = sorted(roots_window(A, W), key=lambda r: (r.kind, r.n, r.fin))
    reals = [r for r in roots if r.kind == "real"]
    imags = [r for r in roots if r.kind == "imaginary"]
    records = [
        _info("real_count", len(reals)),
        _info("imaginary_count", len(imags)),
    ]
    rows = []
    for r in roots:
        fins = ",".join(str(c) for c in r.fin)
        records.append(_info(f"root ({fins})+{r.n}d", {"kind": r.kind, "mult": r.mult}))
        rows.append([r.kind] + [str(c) for c in r.fin] + [str(r.n), str(r.mult)])
    header = ["kind"] + [f"fin{i}" for i in range(A.fin_rank)] + ["n", "mult"]
    return records, [("roots", header, rows)]


def _flag_parabolic(A, phi1, phi2, W):
    p1 = _frac_list(phi1, "phi1")
    p2 = _frac_list(phi2, "phi2") if phi2 is not None else None
    try:
        fl = make_flag(A, p1, p2)
        return assemble_parabolic(A, fl, W)
    except ValueError as exc:
        raise UsageError(f"flag phi1={phi1} phi2={phi2}: {exc}")


def cmd_parabolic_classify(cfg):
    A = _algebra(cfg.algebra)
    W = _window(cfg.window)
    if cfg.params["phi1"] is not None:
        P = _flag_parabolic(A, cfg.params["phi1"], cfg.params["phi2"], W)
        P2 = assemble_parabolic(A, P.flag, W.doubled())
        records = [
            _info("tag", P.tag),
            _verify("axioms", True, check_parabolic_axioms(P)),
            _verify("certificate", True, verify_classification(P)),
            _verify("window_doubling_stable", P.tag, classify_parabolic(P2)),
        ]
        return records, []
    samples = _samples(cfg)
    rng = random.Random(cfg.seed)
    tags, ax_ok, cert_ok = {}, 0, 0
    for _ in range(samples):
        # an improper draw (P = Delta on the window) is redrawn; a window
        # always holds roots, so some draws leave one out and are proper
        while True:
            try:
                P = assemble_parabolic(A, random_flag(A, rng), W)
                break
            except ImproperParabolic:
                pass
        tags[P.tag] = tags.get(P.tag, 0) + 1
        ax_ok += bool(check_parabolic_axioms(P))
        cert_ok += bool(verify_classification(P))
    records = [
        _info("samples", samples),
        _info("tags", {k: tags[k] for k in sorted(tags)}),
        _verify("axioms_all_pass", samples, ax_ok),
        _verify("certificates_all_pass", samples, cert_ok),
    ]
    return records, []


def cmd_cone_certificate(cfg):
    A = _algebra(cfg.algebra)
    W = _window(cfg.window)
    P = _flag_parabolic(A, cfg.params["phi1"], cfg.params["phi2"], W)
    if P.tag != "standard":
        raise UsageError(
            f"cone data needs a standard parabolic set; "
            f"phi1={cfg.params['phi1']} gives tag {P.tag}"
        )
    try:
        cone = phi_P(P)
    except ValueError as exc:
        rec = {
            "name": "cone_certificate",
            "status": "fail",
            "expected": "positive delta decomposition",
            "actual": str(exc),
        }
        return [rec], []
    dim = A.fin_rank + 1
    tot = [_Z] * dim
    for b, db in cone.d.items():
        vec = list(b[0]) + [Fraction(b[1])]
        for i in range(dim):
            tot[i] += db * vec[i]
    expect = [_Z] * A.fin_rank + [Fraction(cone.wl_order)]
    records = [
        _info("levi_weyl_order", cone.wl_order),
        _info("lattice_rank", cone.lattice_rank),
        _info("NG", cone.NG),
        _verify("coefficients_positive", True, all(db > 0 for db in cone.d.values())),
        _verify("delta_decomposition", expect, tot),
    ]
    samples = _samples(cfg)
    rng = random.Random(cfg.seed)
    simples = A.affine_simple_roots()
    ok = 0
    for _ in range(samples):
        nu = [_Z] * dim
        for fin, n in simples:
            cf = rng.randint(-5, 5)
            for i in range(A.fin_rank):
                nu[i] += cf * fin[i]
            nu[-1] += cf * n
        ok += bool(in_QP(cone, [cone.NG * x for x in nu]))
    records.append(_verify("scaled_lattice_membership", samples, ok))
    rows = [
        [str(c) for c in b[0]] + [str(b[1]), str(cone.d[b])] for b in sorted(cone.d)
    ]
    header = [f"fin{i}" for i in range(A.fin_rank)] + ["n", "d"]
    return records, [("delta_decomposition", header, rows)]


def _loop_factors(A, factors_text, jwindow):
    out = []
    for part in [p.strip() for p in str(factors_text).split(",") if p.strip()]:
        bits = part.split(":")
        kind = bits[0]
        if kind == "fin" and len(bits) == 2:
            Fm = finite_dim_sl2(_count(bits[1], "factor fin:m"))
        elif kind == "natural" and len(bits) == 1:
            Fm = natural_rep(A.g)
        elif kind == "adjoint" and len(bits) == 1:
            Fm = adjoint_rep(A.g)
        elif kind == "dense" and len(bits) == 3:
            Fm = dense_sl2(
                DenseSL2Params(_frac(bits[1], "dense b"), _frac(bits[2], "dense c")),
                jwindow,
            )
        else:
            raise UsageError(
                f"factor {part!r}: want fin:m, natural, adjoint or dense:b:c"
            )
        if sorted(Fm.algebra.basis) != sorted(A.g.basis):
            raise UsageError(f"factor {part!r} is not a module over the finite part")
        out.append(Fm)
    if not out:
        raise UsageError("need at least one loop factor")
    return out


def _loop_module(A, factors, scalars, window):
    try:
        return loop_module(A, factors, scalars, window)
    except ValueError as exc:
        raise UsageError(f"loop module: {exc}")


def cmd_loop_mult(cfg):
    A = _algebra(cfg.algebra)
    W = _window(cfg.window)
    jwindow = _window(cfg.params["jwindow"], "jwindow")
    factors = _loop_factors(A, cfg.params["factors"], jwindow)
    scalars = _frac_list(cfg.params["scalars"], "scalars")
    M = _loop_module(A, factors, scalars, W)
    records = [
        _info("labels", len(M.weight_of)),
        _info("masked", len(M.boundary)),
        _verify("bracket_compat", 0, len(check_bracket_compat(M))),
        _verify("weight_additivity", 0, len(check_weight_additivity(M))),
        _verify("level_zero", 0, len(check_level(M))),
        _verify(
            "degree_reader",
            True,
            all(
                M.action[("D", lab)] == ({lab: w.d} if w.d else {})
                for lab, w in M.weight_of.items()
            ),
        ),
    ]
    return records, [_mult_table(M, A.fin_rank)]


def cmd_imverma_mult(cfg):
    lam = _frac(cfg.params["lam"], "lambda")
    depth = _count(cfg.params["depth"], "depth")
    raw_cap = cfg.params["length_cap"]
    length_cap = depth if raw_cap is None else _count(raw_cap, "length-cap")
    raw_mode = cfg.params["mode_cap"]
    mode_cap = None if raw_mode is None else _count(raw_mode, "mode-cap")
    M = imaginary_verma(lam, depth, length_cap, mode_cap)
    top = AffWeight((lam,), _Z, _Z)
    records = [
        _info("labels", len(M.weight_of)),
        _info("masked", len(M.boundary)),
        _verify("bracket_compat", 0, len(check_bracket_compat(M))),
        _verify("vacuum_line", 1, len(M.weights.get(top, []))),
    ]
    return records, [_mult_table(M, 1)]


def cmd_prop42(cfg):
    n = _int(cfg.params["n"], "n")
    lam = _frac(cfg.params["lam"], "lambda")
    if n < 2:
        raise UsageError(f"n must be at least 2, got {n}")
    mat = prop42_matrix(n, lam)
    # block case split: 4 lam above the diagonal outside the k+l <= n wedge,
    # -4 lam on or below it inside, zero elsewhere
    mismatches = 0
    for k in range(1, n):
        for l in range(1, n):
            if l > k and n < k + l:
                want = 4 * lam
            elif l <= k and n >= k + l:
                want = -4 * lam
            else:
                want = _Z
            if mat[k - 1][l - 1] != want:
                mismatches += 1
    half = (n - 1) // 2
    sub = [row[:half] for row in mat[:half]]
    invertible = True if half == 0 else det(sub) != 0
    records = [
        _verify("case_split", 0, mismatches),
        _verify("corner_submatrix_invertible", True, invertible),
        _info("weight_dim_lower_bound", half),
    ]
    header = ["k"] + [f"l={l}" for l in range(1, n)]
    rows = [[str(k)] + [str(v) for v in mat[k - 1]] for k in range(1, n)]
    return records, [("pairing_matrix", header, rows)]


def cmd_localize_demo(cfg):
    b = _frac(cfg.params["b"], "b")
    c = _frac(cfg.params["c"], "c")
    x = _frac(cfg.params["x"], "x")
    W = _window(cfg.params["jwindow"], "jwindow")
    M = dense_sl2(DenseSL2Params(b, c), W)
    spec = make_twist_spec(M, (Fraction(2),), x)
    T = twist_module(M, spec)
    if len(T.boundary) == len(T.weight_of):
        raise UsageError(
            f"localize-demo: twist x={x} exhausted jwindow "
            f"{cfg.params['jwindow']}; every label is masked"
        )
    shift_ok = all(
        T.weight_of[lab] == _wshift(w, spec.weight, x)
        for lab, w in M.weight_of.items()
    )
    records = [
        _info("labels", len(M.weight_of)),
        _info("masked_before", len(M.boundary)),
        _info("masked_after", len(T.boundary)),
        _verify("weights_shift_by_x_alpha", True, shift_ok),
        _verify("bracket_compat_after", 0, len(check_bracket_compat(T))),
    ]
    tables = [_mult_table(M, 1, "before"), _mult_table(T, 1, "after")]
    return records, tables


def _support_module(cfg):
    kind = cfg.params["module"]
    A = build_affine(build_simple("A1"))
    if kind == "loop-fin":
        W = _window(cfg.window)
        M = loop_module(A, [finite_dim_sl2(1), finite_dim_sl2(2)], [_ONE, Fraction(2)], W)
    elif kind == "loop-dense":
        W = _window(cfg.window)
        dense = dense_sl2(
            DenseSL2Params(Fraction(1, 2), Fraction(3)),
            DegreeWindow(W.nmin - 2, W.nmax + 2),
        )
        M = loop_module(A, [dense, finite_dim_sl2(1)], [_ONE, Fraction(2)], W)
    elif kind == "imverma":
        lam = _frac(cfg.params["lam"], "lambda")
        depth = _count(cfg.params["depth"], "depth")
        M = imaginary_verma(lam, depth, depth, algebra=A)
    else:
        raise UsageError(f"module wants loop-fin, loop-dense or imverma, got {kind!r}")
    return A, M


def cmd_shadow(cfg):
    A, M = _support_module(cfg)
    fin = _frac_list(cfg.params["fin"], "fin")
    nn = _int(cfg.params["n"], "n")
    if len(fin) != A.fin_rank or not any(fin) or not A.is_root(fin, nn):
        fins = ",".join(str(c) for c in fin)
        raise UsageError(f"shadow direction ({fins})+{nn}d is not a real root of A1")
    rep = shadow_detect(M, fin, nn)
    records = [
        _info("module", cfg.params["module"]),
        _info("start", rep.start),
        _info("steps", rep.steps),
    ]
    expect = cfg.params["expect"]
    if expect is None:
        records.append(_info("tag", rep.tag))
    elif expect in ("f", "i"):
        records.append(_verify("tag", expect, rep.tag))
    else:
        raise UsageError(f"expect wants f or i, got {expect!r}")
    return records, []


def cmd_pm_build(cfg):
    A, M = _support_module(cfg)
    W = _window(cfg.window)
    table, rows = {}, []
    for r in sorted(roots_window(A, W), key=lambda r: (r.n, r.fin)):
        if r.kind != "real":
            continue
        rep = shadow_detect(M, r.fin, r.n)
        if rep.tag not in ("f", "i"):
            fins = ",".join(str(c) for c in r.fin)
            raise UsageError(
                f"shadow inconclusive at root ({fins})+{r.n}d; module "
                f"{cfg.params['module']} needs a larger window or depth"
            )
        table[(r.fin, r.n)] = rep.tag
        rows.append([str(c) for c in r.fin] + [str(r.n), rep.tag])
    try:
        P = build_PM(A, table, W)
    except ValueError as exc:
        raise UsageError(f"pm-build on window {cfg.window}: {exc}")
    records = [
        _info("tag", P.tag),
        _verify("axioms", True, check_parabolic_axioms(P)),
    ]
    header = [f"fin{i}" for i in range(A.fin_rank)] + ["n", "tag"]
    return records, [("shadow_table", header, rows)]


# ------------------------------------------------------------- identities


def _localization_suite(cfg):
    samples = _samples(cfg)
    target = cfg.params["target"]
    rng = random.Random(cfg.seed)
    if target == "dense":
        M = dense_sl2(DenseSL2Params(Fraction(1, 2), Fraction(3)), DegreeWindow(-8, 8))
    elif target == "loop":
        A = build_affine(build_simple("A1"))
        M = loop_module(
            A,
            [
                dense_sl2(DenseSL2Params(Fraction(1, 2), Fraction(3)), DegreeWindow(-4, 4)),
                finite_dim_sl2(1),
            ],
            [_ONE, Fraction(2)],
            DegreeWindow(-2, 2),
            gen_window=1,
        )
    else:
        raise UsageError(f"target wants dense or loop, got {target!r}")
    all_labs = sorted(M.weight_of)
    # per law: samples that compared at least one pair, and those that held
    tally = {law: [0, 0] for law in TWIST_LAWS}
    for _ in range(samples):
        x = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
        y = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
        labs = rng.sample(all_labs, min(8, len(all_labs)))
        m, p, q = rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2)
        laws = twist_laws(M, (Fraction(2),), x, y, m, p, q, labs)
        for law, (compared, failed) in laws.items():
            if compared:
                tally[law][0] += 1
                tally[law][1] += not failed
    records = [_info("target", target), _info("samples", samples)]
    for law, (checked, held) in tally.items():
        rec = _verify(law, checked, held)
        if not checked:
            rec["status"] = "fail"  # no sample compared a pair: nothing was verified
        records.append(rec)
    return records


def _efloc_suite(cfg):
    samples = _samples(cfg)
    rng = random.Random(cfg.seed)
    ok = 0
    for _ in range(samples):
        lam = Fraction(rng.randint(-3, 4))
        x = Fraction(rng.randint(-5, 5), 2)
        ok += efloc_walk(lam, x, 3) == [efloc_product(lam, x, k) for k in range(1, 4)]
    return [
        _info("samples", samples),
        _verify("lowering_product_walk", samples, ok),
    ]


def cmd_identities(cfg):
    suite = cfg.params["suite"]
    if suite == "multinomial":
        top = _count(cfg.params["max"], "max")
        records = []
        for N in range(top + 1):
            for K in range(top + 2):
                for k in range(1, 4):
                    ok = multinom_convolution_check(N, K, k)
                    records.append(_verify(f"multinomial N={N} K={K} k={k}", True, ok))
        return records, []
    if suite == "localization":
        return _localization_suite(cfg), []
    if suite == "efloc":
        return _efloc_suite(cfg), []
    raise UsageError(f"suite wants multinomial, localization or efloc, got {suite!r}")


def cmd_probe_bounded(cfg):
    factors_text = cfg.params["factors"]
    scalars = _frac_list(cfg.params["scalars"], "scalars")
    sizes = _int_list(cfg.params["sizes"], "sizes")
    if any(s < 1 for s in sizes):
        raise UsageError("sizes wants positive integers like 3,6,9")
    A = build_affine(build_simple("A1"))

    def make_module(N):
        W = DegreeWindow(-N, N)
        return _loop_module(A, _loop_factors(A, factors_text, W), scalars, W)

    result = boundedness_probe(make_module, sizes)
    maxima = [m for _, m in result["max_mult"]]
    records = [
        _info("sizes", list(sizes)),
        _info("max_mult", {str(N): m for N, m in result["max_mult"]}),
        _info("bounded", result["bounded"]),
    ]
    expect = cfg.params["expect"]
    if expect == "bounded":
        records.append(_verify("dichotomy", True, result["bounded"]))
    elif expect == "increasing":
        inc = all(a < b for a, b in zip(maxima, maxima[1:]))
        records.append(_verify("dichotomy", True, inc and not result["bounded"]))
    elif expect is not None:
        raise UsageError(f"expect wants bounded or increasing, got {expect!r}")
    rows = [[str(N), str(m)] for N, m in result["max_mult"]]
    return records, [("max_multiplicity", ["window", "max_mult"], rows)]


# ----------------------------------------------------------- orchestration


@dataclass(frozen=True)
class Flag:
    """One --name flag.  Its dest and config key is the name with dashes turned
    into underscores, except --lambda, whose dest is lam; a config file may
    also spell a key with dashes, or as its dest (the config_echo spelling)."""

    name: str
    default: str | None = None
    help: str | None = None
    choices: tuple | None = None

    @property
    def dest(self):
        return "lam" if self.name == "lambda" else self.name.replace("-", "_")


@dataclass(frozen=True)
class Command:
    """One subcommand: everything the parser, config merge and run need."""

    handler: Callable
    help: str
    flags: tuple
    tabled: bool = True  # the report carries a table, so CSV is allowed
    fmt: str = "json"  # format when neither --format nor the config sets one


# added to every command after --config (which is never a config key)
_COMMON = (
    Flag("out", help="report path (default stdout)"),
    Flag("format", choices=("json", "csv")),
    Flag("seed", "0", "integer seed fixing all sampling"),
)
_MODULES = ("loop-fin", "loop-dense", "imverma")

_COMMANDS = {
    "algebra-info": Command(cmd_algebra_info, "ranks, twist data, simple roots", (
        Flag("algebra", "A1x1", "spec like A1x1 or A2x2"),
        Flag("window", "-2:2", "t-degree window lo:hi"),
    ), tabled=False),
    "roots": Command(cmd_roots, "list the windowed affine roots", (
        Flag("algebra", "A1x1"), Flag("window", "-2:2"),
    )),
    "parabolic-classify": Command(cmd_parabolic_classify, "classify flag-cut root subsets", (
        Flag("algebra", "A1x1"), Flag("window", "-3:3"),
        Flag("phi1", help="comma separated fractions, length fin_rank+1"), Flag("phi2"),
        Flag("samples", "25", "random flags to audit when --phi1 is absent"),
    ), tabled=False),
    "cone-certificate": Command(
        cmd_cone_certificate, "positive delta decomposition and lattice test", (
            Flag("algebra", "A2x1"), Flag("window", "-3:3"),
            Flag("phi1", "0,0,1"), Flag("phi2"), Flag("samples", "50"),
        ),
    ),
    "loop-mult": Command(cmd_loop_mult, "loop module table and structure checks", (
        Flag("algebra", "A1x1"), Flag("window", "-3:3"),
        Flag("factors", "fin:1,fin:2", "comma separated: fin:m, natural, adjoint, dense:b:c"),
        Flag("scalars", "1,2", "comma separated nonzero evaluation points"),
        Flag("jwindow", "-4:4", "weight window for dense factors"),
    )),
    "imverma-mult": Command(cmd_imverma_mult, "truncated imaginary Verma table", (
        Flag("lambda", "3"), Flag("depth", "3"), Flag("length-cap"), Flag("mode-cap"),
    )),
    "prop42": Command(cmd_prop42, "pairing matrix and its case split", (
        Flag("n", "6"), Flag("lambda", "1"),
    ), fmt="csv"),
    "localize-demo": Command(cmd_localize_demo, "before/after tables for a twisted dense line", (
        Flag("b", "1/2"), Flag("c", "3"), Flag("x", "1/2"), Flag("jwindow", "-6:6"),
    )),
    "shadow": Command(cmd_shadow, "f/i direction tag read off a module support", (
        Flag("module", "loop-fin", choices=_MODULES), Flag("lambda", "3"), Flag("depth", "3"),
        Flag("fin", "2", "root direction, comma separated fractions"),
        Flag("n", "0"), Flag("window", "-6:6"), Flag("expect", choices=("f", "i")),
    ), tabled=False),
    "pm-build": Command(cmd_pm_build, "parabolic set attached to a module shadow table", (
        Flag("module", "imverma", choices=_MODULES), Flag("lambda", "3"), Flag("depth", "4"),
        Flag("window", "-2:2"),
    )),
    "identities": Command(cmd_identities, "exact identity suites", (
        Flag("suite", "multinomial", choices=("multinomial", "localization", "efloc")),
        Flag("max", "4", "multinomial bound"), Flag("samples", "8"),
        Flag("target", "dense", choices=("dense", "loop")),
    ), tabled=False),
    "probe-bounded": Command(cmd_probe_bounded, "multiplicity growth across windows", (
        Flag("factors", "dense:1/2:3,fin:1"), Flag("scalars", "1,2"), Flag("sizes", "3,6,9"),
        Flag("expect", choices=("bounded", "increasing")),
    )),
}


@functools.cache
def _build_parser():
    """The argument parser, built once per process from _COMMANDS.

    It reads only names, help and flags; run looks each handler up in
    _COMMANDS at call time.
    """
    ap = _Parser(
        prog="affinekit",
        description="exact reports over affine root systems and weight modules",
    )
    sub = ap.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON file supplying flag defaults")
        for flag in _COMMON + command.flags:
            p.add_argument(f"--{flag.name}", dest=flag.dest, help=flag.help, choices=flag.choices)
    return ap


def _load_config(path, flags):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    dests = {}
    for flag in flags:
        dests[flag.name.replace("-", "_")] = dests[flag.dest] = flag.dest
    out = {}
    for key, value in raw.items():
        norm = dests.get(key.replace("-", "_"))
        if norm is None:
            raise UsageError(f"config {path} has an unknown key {key!r}")
        out[norm] = value
    return out


def _resolve(args):
    command = _COMMANDS[args.command]
    flags = _COMMON + command.flags
    defaults = {flag.dest: flag.default for flag in flags}
    merged = dict(defaults)
    if args.config:
        merged.update(_load_config(args.config, flags))
    for key in defaults:
        given = getattr(args, key)
        if given is not None:
            merged[key] = given
    fmt = merged.pop("format") or command.fmt
    if fmt not in ("json", "csv"):
        raise UsageError(f"format wants json or csv, got {fmt!r}")
    seed = _int(merged.pop("seed"), "seed")
    out = merged.pop("out")
    algebra = merged.pop("algebra", None)
    window = merged.pop("window", None)
    return RunConfig(args.command, algebra, window, merged, seed, out, fmt)


def _echo(cfg):
    out = {}
    if cfg.algebra is not None:
        out["algebra"] = cfg.algebra
    if cfg.window is not None:
        out["window"] = cfg.window
    for key in sorted(cfg.params):
        out[key] = _render(cfg.params[key])
    out["seed"] = cfg.seed
    out["format"] = cfg.fmt
    return out


def _write_report(cfg, records, tables):
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    if cfg.fmt == "csv":
        lines = [f"# affinekit-report {cfg.command} generated {stamp}"]
        for name, header, rows in tables:
            lines.append(f"# table {name}")
            lines.append(",".join(header))
            lines.extend(",".join(row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        doc = {
            "generated": stamp,
            "schema_version": SCHEMA_VERSION,
            "command": cfg.command,
            "config_echo": _echo(cfg),
            "records": records,
        }
        text = json.dumps(doc, indent=2) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run(cfg):
    command = _COMMANDS[cfg.command]
    if cfg.fmt == "csv" and not command.tabled:
        raise UsageError(f"{cfg.command} has no tabular payload; use --format json")
    try:
        records, tables = command.handler(cfg)
    except (BandError, IncompatibleData, NothingCompared, UntabulatedGenerator) as exc:
        raise UsageError(f"{cfg.command}: {exc} (parameters: {_echo(cfg)})")
    _write_report(cfg, records, tables)
    return 2 if any(r["status"] == "fail" for r in records) else 0


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve(args)
        return run(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
