"""The four seeded workloads.

Each workload is a closed loop: one client, one process, no threads, and an
item starts only after the previous one has returned.  A workload has

* ``setup(ak)``: builds the long-lived algebras and base modules from the
  freshly imported library namespace ``ak`` (timed as set-up);
* ``items(seed, state)``: an endless, seed-determined stream of item inputs
  (plain data; the library sees nothing else);
* ``run(state, item)``: one timed item, returning ``(ok, outputs, counts)``
  where ``counts`` holds per-item tallies: ``skipped_routes`` (truncated
  routes the item deliberately left out) and ``report_bytes``;
* ``artifacts(state, item, outputs)``: untimed ``(tag, value)`` pairs fed to
  the digest, for the first ``digest_items`` items only.

Items are laid out in fixed rounds (``pattern``) so every seed runs the same
mix of item kinds; the seed only draws the parameters.  That keeps the
median and the 90th percentile inside one kind of item each, which is what
makes them steady from seed to seed.

``must_reach`` lists the traced functions a workload exists to exercise; a
traced run fails if any of them shows zero calls.
"""

import contextlib
import io
import json
import random
from fractions import Fraction as F

_Z = F(0)
_ONE = F(1)


def _rat(rng, lo, hi, dens=(1, 2)):
    return F(rng.randint(lo, hi), rng.choice(dens))


def _twist_param(rng, cls):
    """A twist exponent of class cls % 4: integer >= 0, integer < 0, half > 0, half < 0.

    A twist series stops early at a nonnegative integer exponent, so the
    class sets most of an item's cost.  Workloads cycle through the classes
    by item position and let the seed draw the value inside the class: every
    seed then runs the same mix of cheap and dear items.
    """
    cls %= 4
    if cls == 0:
        return F(rng.randint(0, 4))
    if cls == 1:
        return F(-rng.randint(1, 4))
    half = F(2 * rng.randint(0, 3) + 1, 2)
    return half if cls == 2 else -half


# ------------------------------------------------------------------ twist


class Twist:
    """Localization laws on one dense sl2 line and one loop module.

    Per item: twist by x then y against x + y, an integer twist against
    honest conjugation, the inverse power law, and bracket compatibility of
    a twisted module -- the four laws of the acceptance gate.
    """

    name = "twist"
    pattern = ("dense", "dense", "dense", "dense", "loop")
    digest_items = 20
    must_reach = (
        "locfun.twist_module",
        "locfun.theta_action",
        "locfun._f_inverse",
        "modrep.apply_elt",
        "modrep.check_bracket_compat",
        "exact.gen_binom",
        "exact.invert",
        "affine.aff_bracket",
        "finlie.bracket",
    )

    def setup(self, ak):
        m, aff = ak.modrep, ak.affine
        A = aff.build_affine(ak.finlie.build_simple("A1"))
        dense = m.dense_sl2(m.DenseSL2Params(F(1, 2), F(3)), aff.DegreeWindow(-8, 8))
        loop = m.loop_module(
            A,
            [m.dense_sl2(m.DenseSL2Params(F(1, 2), F(3)), aff.DegreeWindow(-4, 4)), m.finite_dim_sl2(1)],
            [_ONE, F(2)],
            aff.DegreeWindow(-2, 2),
            gen_window=1,
        )
        return {
            "ak": ak,
            "modules": {"dense": dense, "loop": loop},
            "labels": {"dense": sorted(dense.weight_of), "loop": sorted(loop.weight_of)},
        }

    def items(self, seed, state):
        rng = random.Random(seed)
        seen = {"dense": 0, "loop": 0}
        i = 0
        while True:
            target = self.pattern[i % len(self.pattern)]
            j = seen[target]  # position among the items on this module
            seen[target] += 1
            n = len(state["labels"][target])
            yield {
                "target": target,
                "x": _twist_param(rng, j),
                "y": _twist_param(rng, j // 4),
                "m": j % 5 - 2,
                "p": rng.randint(-2, 2),
                "q": rng.randint(-2, 2),
                "labs": rng.sample(range(n), min(6, n)),
            }
            i += 1

    def run(self, state, it):
        lf, mr = state["ak"].locfun, state["ak"].modrep
        M = state["modules"][it["target"]]
        labs = [state["labels"][it["target"]][k] for k in it["labs"]]
        alpha, x, y, m, p, q = (F(2),), it["x"], it["y"], it["m"], it["p"], it["q"]
        bad = skipped = 0

        def clean(vec):
            return all(lab not in M.boundary for lab in vec)

        def guarded_power(f_elt, vec, k):
            # honest steps refuse masked routes: a masked label has an empty
            # row, which would silently drop terms
            if k >= 0:
                for _ in range(k):
                    if not clean(vec):
                        raise lf.BandError("truncated route")
                    vec = M.apply_elt(f_elt, vec)
                return vec
            return lf.f_power(M, f_elt, vec, k)

        T1 = lf.twist_module(M, lf.make_twist_spec(M, alpha, x))
        T1 = lf.twist_module(T1, lf.make_twist_spec(T1, alpha, y))
        T2 = lf.twist_module(M, lf.make_twist_spec(M, alpha, x + y))
        if T1.weight_of != T2.weight_of:
            bad += 1
        for lab in M.weight_of:
            if lab in T1.boundary or lab in T2.boundary:
                continue
            for gk in M.gens:
                if T1.action[(gk, lab)] != T2.action[(gk, lab)]:
                    bad += 1

        spec = lf.make_twist_spec(M, alpha, F(m))
        T = lf.twist_module(M, spec)
        for lab in labs:
            if lab in T.boundary:
                skipped += len(M.gens)
                continue
            for gk in M.gens:
                try:
                    down = guarded_power(spec.f_elt, {lab: _ONE}, -m)
                    mid = M.apply_gen(gk, down) if clean(down) else None
                    want = guarded_power(spec.f_elt, mid, m) if mid is not None and clean(mid) else None
                except ValueError:  # BandError or an untabulated generator
                    want = None
                if want is None:
                    skipped += 1
                elif T.action[(gk, lab)] != want:
                    bad += 1

        spec0 = lf.make_twist_spec(M, alpha, _Z)
        for lab in labs:
            try:
                inner = guarded_power(spec0.f_elt, {lab: _ONE}, q)
                two = guarded_power(spec0.f_elt, inner, p)
                one = guarded_power(spec0.f_elt, {lab: _ONE}, p + q)
            except ValueError:
                skipped += 1
                continue
            if two != one:
                bad += 1

        Tc = lf.twist_module(M, lf.make_twist_spec(M, alpha, x))
        if mr.check_bracket_compat(Tc) != []:
            bad += 1
        return bad == 0, (T1, T2, T, Tc), {"skipped_routes": skipped}

    def artifacts(self, state, it, out):
        T1, T2, T, Tc = out
        return [("item", it), ("composed", T1), ("sum", T2), ("integer", T), ("conjugated", Tc)]


# -------------------------------------------------------------- structure

_ALGEBRAS = ("A1u", "A2u", "A3u", "C2u", "A2t")
_FLAG_ALGEBRAS = ("A1u", "A2u", "C2u", "A2t")  # rank-3 flags are too slow per item


class Structure:
    """Jacobi and form-invariance triples, random flags, cone data, multinomials.

    No modules and no localization: affine, finlie, rootpar and exact do all
    the work.
    """

    name = "structure"
    pattern = (
        tuple(("triple", a) for a in _ALGEBRAS for _ in range(4))
        + tuple(("flag", a) for a in _FLAG_ALGEBRAS)
        + (("cone", "A2u"), ("multinomial", None))
    )
    digest_items = 2 * len(pattern)
    must_reach = (
        "affine.aff_bracket",
        "finlie.bracket",
        "rootpar.assemble_parabolic",
        "rootpar.check_parabolic_axioms",
        "rootpar.verify_classification",
        "rootpar.phi_P",
        "rootpar.in_QP",
        "rootpar.member",
        "exact.gen_multinom",
        "affine.roots_window",
    )
    span = 4

    def setup(self, ak):
        aff, fl = ak.affine, ak.finlie
        algebras = {}
        for t in ("A1", "A2", "A3", "C2"):
            algebras[t + "u"] = aff.build_affine(fl.build_simple(t))
        g = fl.build_simple("A2")
        algebras["A2t"] = aff.build_affine(g, twist=fl.sigma_aut(g))
        labels = {
            key: {m: list(A.class_labels(m)) for m in range(-self.span, self.span + 1)}
            for key, A in algebras.items()
        }
        simples = algebras["A2u"].affine_simple_roots()
        return {"ak": ak, "algebras": algebras, "labels": labels, "simples": simples}

    def _elt(self, rng, labels):
        terms = []
        for _ in range(rng.randint(1, 3)):
            m = rng.randint(-self.span, self.span)
            terms.append((rng.choice(labels[m]), m, F(rng.randint(-4, 4))))
        return (tuple(terms), F(rng.randint(-2, 2)), F(rng.randint(-2, 2)))

    def items(self, seed, state):
        rng = random.Random(seed)
        i = 0
        while True:
            kind, key = self.pattern[i % len(self.pattern)]
            it = {"kind": kind, "algebra": key}
            if kind == "triple":
                it["elts"] = [self._elt(rng, state["labels"][key]) for _ in range(3)]
            elif kind == "flag":
                it["flag_seed"] = rng.getrandbits(64)
            elif kind == "cone":
                it["phi1"] = (F(rng.randint(-2, 2)), F(rng.randint(-2, 2)), F(rng.randint(1, 7)))
                it["lattice"] = [
                    [rng.randint(-5, 5) for _ in state["simples"]] for _ in range(10)
                ]
            else:
                it["nkk"] = (rng.randint(0, 3), rng.randint(0, 4), rng.randint(1, 3))
            yield it
            i += 1

    def run(self, state, it):
        A = state["algebras"].get(it["algebra"])
        return getattr(self, "_" + it["kind"])(state["ak"], state, A, it)

    def _triple(self, ak, state, A, it):
        aff = ak.affine
        x, y, z = (
            aff.AffElt({(lab, m): c for lab, m, c in terms}, d=d, k=k) for terms, d, k in it["elts"]
        )
        xy = aff.aff_bracket(A, x, y)
        jac = (
            aff.aff_bracket(A, x, aff.aff_bracket(A, y, z))
            + aff.aff_bracket(A, y, aff.aff_bracket(A, z, x))
            + aff.aff_bracket(A, z, xy)
        )
        f_xy, f_yx = aff.aff_form(A, x, y), aff.aff_form(A, y, x)
        inv_l = aff.aff_form(A, xy, z)
        inv_r = -aff.aff_form(A, y, aff.aff_bracket(A, x, z))
        ok = jac.is_zero() and f_xy == f_yx and inv_l == inv_r
        return ok, (xy, f_xy, inv_l), {}

    def _flag(self, ak, state, A, it):
        rp = ak.rootpar
        W = ak.affine.DegreeWindow(-3, 3)
        fl = rp.random_flag(A, random.Random(it["flag_seed"]))
        P = rp.assemble_parabolic(A, fl, W)
        axioms = bool(rp.check_parabolic_axioms(P))
        tag = P.tag
        psi = rp.principal_witness(P)
        imag_in = all(P.member(tuple([_Z] * A.fin_rank), n) for n in W if n != 0)
        if tag == "standard":
            crit = psi is not None and psi[-1] != 0 and not imag_in
        elif tag == "imaginary":
            crit = psi is not None and psi[-1] == 0 and imag_in
        else:
            crit = psi is None and not imag_in
        doubled = rp.classify_parabolic(rp.assemble_parabolic(A, fl, W.doubled()))
        cert = bool(rp.verify_classification(P))
        ok = axioms and crit and doubled == tag and cert
        return ok, (fl.phi1, fl.phi2, tag, psi, P.members), {}

    def _cone(self, ak, state, A, it):
        rp = ak.rootpar
        P = rp.assemble_parabolic(A, rp.make_flag(A, it["phi1"]), ak.affine.DegreeWindow(-3, 3))
        if P.tag != "standard":
            return False, (P.tag,), {}
        cone = rp.phi_P(P)
        dim = A.fin_rank + 1
        tot = [_Z] * dim
        ok = True
        for b, db in cone.d.items():
            ok &= db > 0
            vec = list(b[0]) + [F(b[1])]
            for i in range(dim):
                tot[i] += db * vec[i]
        ok &= tot == [_Z] * A.fin_rank + [F(cone.wl_order)]
        members = []
        for cfs in it["lattice"]:
            nu = [_Z] * dim
            for cf, (fin, n) in zip(cfs, state["simples"]):
                for j in range(A.fin_rank):
                    nu[j] += cf * fin[j]
                nu[-1] += cf * n
            inside = bool(rp.in_QP(cone, [cone.NG * v for v in nu]))
            ok &= inside
            members.append(inside)
        return ok, (cone.d, cone.NG, cone.wl_order, cone.lattice_rank, members), {}

    def _multinomial(self, ak, state, A, it):
        ok = bool(ak.exact.multinom_convolution_check(*it["nkk"]))
        return ok, (ok,), {}

    def artifacts(self, state, it, out):
        return [("item", it), ("out", out)]


# ----------------------------------------------------------------- induce


class Induce:
    """Induction/localization commutation probes on the sl2 Levi of A2.

    One long-lived standard parabolic answers every membership query; each
    item builds a seeded dense Levi module and probes at monomial depth 1.
    """

    name = "induce"
    pattern = ("probe",)
    digest_items = 4
    depth = 1
    must_reach = (
        "locfun.induction_commutes_probe",
        "modrep.induced_truncated",
        "modrep.levi_dense_module",
        "rootpar.member",
        "affine.aff_bracket",
        "locfun.twist_module",
        "locfun.theta_action",
    )

    def setup(self, ak):
        aff, rp = ak.affine, ak.rootpar
        A = aff.build_affine(ak.finlie.build_simple("A2"))
        P = rp.assemble_parabolic(A, rp.make_flag(A, (F(1), F(2), F(5))), aff.DegreeWindow(-1, 1))
        pos = [
            k for k in P.levi_keys() if any(k[0]) and aff.is_positive_root(A, k[0], k[1])
        ]
        root = aff.AffRoot("real", pos[0][0], pos[0][1])
        return {"ak": ak, "P": P, "root": root}

    def items(self, seed, state):
        rng = random.Random(seed)
        j = 0
        while True:
            yield {
                "b": _rat(rng, -5, 5, (2, 3)),
                "c": _rat(rng, 1, 9, (1, 2)),
                "x": _twist_param(rng, j),
            }
            j += 1

    def _levi(self, state, it):
        ak = state["ak"]
        mr = ak.modrep
        return mr.levi_dense_module(
            state["P"],
            mr.DenseSL2Params(it["b"], it["c"]),
            ak.affine.DegreeWindow(-3, 3),
            base_fin=(it["b"], F(4)),
        )

    def run(self, state, it):
        S = self._levi(state, it)
        res = state["ak"].locfun.induction_commutes_probe(state["P"], S, it["x"], self.depth)
        return res is True, (S, res), {}

    def artifacts(self, state, it, out):
        # the two inductions the probe compared, rebuilt outside the timed item
        S, res = out
        ak, P = state["ak"], state["P"]
        SB = ak.locfun.twist_module(S, ak.locfun.make_twist_spec(S, state["root"], it["x"]))
        MA = ak.modrep.induced_truncated(P, S, self.depth)
        MB = ak.modrep.induced_truncated(P, SB, self.depth)
        return [("item", it), ("levi", S), ("twisted", SB), ("induced", MA), ("induced_twisted", MB), ("result", res)]


# -------------------------------------------------------------------- cli


_TABLED = {"loop-mult", "imverma-mult", "localize-demo", "pm-build", "cone-certificate", "probe-bounded"}


class Cli:
    """In-process ``affinekit.cli.main(argv)`` invocations.

    Every item parses flags, builds fresh algebras and modules, uses them
    once and renders a report; tabled commands alternate JSON and CSV by
    round so both renderers are digested.
    """

    name = "cli"
    pattern = (
        "loop-mult",
        "imverma-mult",
        "localize-demo",
        "shadow",
        "pm-build",
        "parabolic-classify",
        "cone-certificate",
        "probe-bounded",
        "efloc",
        "localization",
    )
    digest_items = 2 * len(pattern)
    must_reach = (
        "cli.main",
        "modrep.loop_module",
        "modrep.imaginary_verma",
        "locfun.twist_module",
        "locfun.localize",
        "rootpar.assemble_parabolic",
        "rootpar.phi_P",
        "finlie.build_simple",
        "affine.build_affine",
    )

    def setup(self, ak):
        return {"ak": ak}

    def _argv(self, kind, rng, rnd):
        """Flags as --name=value, so negative windows parse as values.

        Sizes (windows, depths, sample counts) are fixed per kind, and the
        choices that change the amount of work rotate with the round index
        rnd; the seed draws only values.  So every seed runs the same work
        mix, which keeps the latency percentiles steady across seeds.
        """
        if kind == "loop-mult":
            a, b = rng.sample(range(1, 6), 2)
            flags = {"algebra": "A1x1", "window": "-2:2", "factors": "fin:1,fin:2", "scalars": f"{a},{b}"}
        elif kind == "imverma-mult":
            flags = {"lambda": _rat(rng, -4, 4), "depth": 3}
        elif kind == "localize-demo":
            flags = {"b": _rat(rng, -3, 3, (2, 3)), "c": F(rng.randint(1, 6)),
                     "x": _rat(rng, -3, 3), "jwindow": "-6:6"}
        elif kind == "shadow":
            flags = {"module": ("loop-fin", "loop-dense", "imverma")[rnd % 3],
                     "lambda": F(rng.randint(1, 4)), "depth": 3, "fin": rng.choice(("2", "-2")),
                     "n": rng.randint(-1, 1), "window": "-4:4"}
        elif kind == "pm-build":
            flags = {"module": "imverma", "lambda": F(rng.randint(1, 5)), "depth": 3, "window": "-1:1"}
        elif kind == "parabolic-classify":
            flags = {"algebra": ("A1x1", "A2x1", "C2x1", "A2x2")[rnd % 4], "window": "-2:2",
                     "samples": 3, "seed": rng.randint(0, 10**6)}
        elif kind == "cone-certificate":
            flags = {"algebra": "A2x1", "window": "-3:3",
                     "phi1": f"{rng.randint(-2, 2)},{rng.randint(-2, 2)},{rng.randint(1, 7)}",
                     "samples": 20, "seed": rng.randint(0, 10**6)}
        elif kind == "probe-bounded":
            b, c = _rat(rng, -3, 3, (2, 3)), F(rng.randint(1, 6))
            flags = {"factors": f"dense:{b}:{c},fin:1", "scalars": "1,2", "sizes": "2,3,4",
                     "expect": "bounded"}
        elif kind == "efloc":
            kind = "identities"
            flags = {"suite": "efloc", "samples": 1, "seed": rng.randint(0, 10**6)}
        else:
            kind = "identities"
            flags = {"suite": "localization", "target": "dense", "samples": 1,
                     "seed": rng.randint(0, 10**6)}
        return [kind] + [f"--{k}={v}" for k, v in flags.items()]

    def items(self, seed, state):
        rng = random.Random(seed)
        i = 0
        while True:
            kind = self.pattern[i % len(self.pattern)]
            rnd = i // len(self.pattern)
            argv = self._argv(kind, rng, rnd)
            if argv[0] in _TABLED and rnd % 2:
                argv.append("--format=csv")
            yield {"argv": argv}
            i += 1

    def run(self, state, it):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = state["ak"].cli.main(list(it["argv"]))
        text = out.getvalue()
        return rc == 0 and bool(text), (rc, text, err.getvalue()), {"report_bytes": len(text.encode())}

    def artifacts(self, state, it, out):
        rc, text, _ = out
        if "--format=csv" in it["argv"]:
            # first line carries the timestamp
            body = text.split("\n", 1)[1] if "\n" in text else ""
        else:
            doc = json.loads(text)
            body = json.dumps(
                {k: v for k, v in doc.items() if k not in ("generated", "config_echo")},
                sort_keys=True,
            )
        return [("argv", tuple(it["argv"])), ("rc", rc), ("report", body)]


WORKLOADS = {w.name: w for w in (Twist(), Structure(), Induce(), Cli())}
