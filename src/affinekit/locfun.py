"""Twisted localization along a real root direction.

Everything runs on the tabulated windowed modules: the lowering generator
f_alpha is inverted band by band (one exact linear solve per weight space),
the conjugation series

    Theta_x(u) = sum_i binom(x, i) ad(f_alpha)^i(u) f_alpha^{-i}

is a finite sum because repeated ad(f_alpha) kills every generator, and a
twisted module stores Theta_x(u) . v as the new action row of u at v.  Rows
whose series leaves the window are replaced by empty rows and the label is
masked, the same drop discipline the module constructors use.

Conventions: f_alpha lowers weights by alpha, so inverse powers extend
supports in the +alpha direction; a label of a twisted module built with
parameter x stands for the old vector carried by the formal power f^{-x}.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .exact import Poly, det, gen_binom, gen_multinom, invert, kernel, solve_unique
from .finlie import LieElt, build_simple
from .affine import (
    AffElt,
    AffRoot,
    AffWeight,
    DegreeWindow,
    aff_bracket,
    build_affine,
    is_positive_root,
    sl2_triple,
)
from .modrep import GradedModule, IncompatibleData, _acc, _scaled, induced_truncated

_Z = Fraction(0)
_ONE = Fraction(1)


class BandError(ValueError):
    """A bandwise inverse of the lowering generator does not exist."""


@dataclass
class TwistSpec:
    """A real root direction, a rational twist exponent, and its sl2 data."""

    alpha: object
    x: Fraction
    e_elt: object
    f_elt: object
    weight: AffWeight


def make_twist_spec(M, alpha, x):
    """Resolve alpha to a lowering pair on M and freeze the twist exponent.

    For an affine module alpha is an AffRoot, a (fin, n) key or a bare fin
    tuple (read at degree zero); for a finite-algebra module it is the fin
    tuple of a root.  The pair (e, f) is normalised so that [[e, f], e] = 2e.
    """
    x = Fraction(x)
    if M.kind == "aff":
        if isinstance(alpha, AffRoot):
            root = alpha
        elif len(alpha) == 2 and isinstance(alpha[0], tuple):
            root = AffRoot("real", tuple(Fraction(a) for a in alpha[0]), int(alpha[1]))
        else:
            root = AffRoot("real", tuple(Fraction(a) for a in alpha), 0)
        e, f, _ = sl2_triple(M.algebra, root)
        key = (root.fin, root.n)
        w = AffWeight(root.fin, Fraction(root.n), _Z)
        return TwistSpec(key, x, e, f, w)
    g = M.algebra
    fin = tuple(Fraction(a) for a in alpha)
    neg = tuple(-a for a in fin)
    enames = [n for n in g.basis if tuple(g.weight_of[n]) == fin]
    fnames = [n for n in g.basis if tuple(g.weight_of[n]) == neg]
    if len(enames) != 1 or len(fnames) != 1:
        raise IncompatibleData(f"{fin} is not a root with one-dimensional spaces")
    e = LieElt({enames[0]: _ONE})
    f0 = LieElt({fnames[0]: _ONE})
    h = g.bracket(e, f0)
    br = g.bracket(h, e)
    c = br.c.get(enames[0], _Z)
    if not c or br != e.scale(c):
        raise IncompatibleData("degenerate sl2 data for the given root")
    f = f0.scale(Fraction(2) / c)
    return TwistSpec(fin, x, e, f, AffWeight(fin, _Z, _Z))


# ------------------------------------------------------- bandwise inverses


def _as_vec(v):
    if isinstance(v, dict):
        return {lab: Fraction(c) for lab, c in v.items() if c}
    return {v: _ONE}


def _gen_elt(M, X):
    if isinstance(X, (LieElt, AffElt)):
        return X
    if X == "D":
        return AffElt(d=1)
    if X == "K":
        return AffElt(k=1)
    if X[0] == "fin":
        return LieElt({X[1]: _ONE})
    return AffElt({(X[1], X[2]): _ONE})


def _bracket(M, a, b):
    if M.kind == "fin":
        return M.algebra.bracket(a, b)
    return aff_bracket(M.algebra, a, b)


def _elt_disp(M, elt):
    """Common weight displacement of a homogeneous lowering element."""
    if M.kind == "fin":
        ws = {tuple(M.algebra.weight_of[name]) for name in elt.c}
        if len(ws) != 1:
            raise IncompatibleData("lowering element is not weight homogeneous")
        return AffWeight(next(iter(ws)), _Z, _Z)
    if elt.d or elt.k:
        raise IncompatibleData("lowering element must be a pure loop vector")
    A = M.algebra
    ws = {
        AffWeight(A.fin_weight(m, lab), Fraction(m), _Z) for (lab, m) in elt.c
    }
    if len(ws) != 1:
        raise IncompatibleData("lowering element is not weight homogeneous")
    return next(iter(ws))


def _wshift(w, aw, x):
    return AffWeight(
        tuple(a + x * b for a, b in zip(w.fin, aw.fin)),
        w.d + x * aw.d,
        w.k + x * aw.k,
    )


def _f_inverse(M, f_elt, vec, cache):
    """Solve f_elt . u = vec one weight band at a time."""
    disp = cache.get("_disp")
    if disp is None:
        disp = cache["_disp"] = _elt_disp(M, f_elt)
    out = {}
    bands = {}
    for lab, c in vec.items():
        bands.setdefault(M.weight_of[lab], {})[lab] = c
    for w, sub in bands.items():
        entry = cache.get(w)
        if entry is None:
            src_w = _wshift(w, disp, -1)
            src = M.weights.get(src_w)
            if not src:
                raise BandError(
                    f"band exhausted (window too small); f_alpha not invertible at {w}"
                )
            tgt = M.weights[w]
            cols = [M.apply_elt(f_elt, {s: _ONE}) for s in src]
            mat = [[cols[j].get(t, _Z) for j in range(len(src))] for t in tgt]
            inv = invert(mat) if len(src) == len(tgt) else None
            entry = cache[w] = (src, tgt, mat, inv)
        src, tgt, mat, inv = entry
        rhs = [sub.get(t, _Z) for t in tgt]
        if inv is not None:
            sol = [
                sum(inv[i][j] * rhs[j] for j in range(len(rhs)))
                for i in range(len(src))
            ]
        else:
            # truncation can clip a band; the solve is still usable as long
            # as the preimage exists and is unique
            sol = solve_unique(mat, rhs)
            if sol is None:
                raise BandError(f"f_alpha is not bandwise invertible at {w}")
        for i, s in enumerate(src):
            if sol[i]:
                _acc(out, {s: sol[i]})
    return out


def f_power(M, f_elt, v, p, cache=None):
    """Apply f_elt p times; negative p applies the bandwise inverse."""
    vec = _as_vec(v)
    if p >= 0:
        for _ in range(p):
            vec = M.apply_elt(f_elt, vec)
        return vec
    if cache is None:
        cache = {}
    for _ in range(-p):
        vec = _f_inverse(M, f_elt, vec, cache)
    return vec


# ----------------------------------------------------- conjugation series


def _lowering_chain(M, f_elt, u, length=None):
    """The nonzero terms u, ad(f)u, ad(f)^2 u, ..., at most length of them."""
    chain = []
    while not u.is_zero() and len(chain) != length:
        if len(chain) > 40:
            raise IncompatibleData("the lowering chain did not terminate")
        chain.append(u)
        u = _bracket(M, f_elt, u)
    return chain


def _theta_series(M, spec, u):
    """The terms (binom(x, i), ad(f)^i u) of Theta_x(u), cut at i = x for x in N."""
    x = spec.x
    length = int(x) + 1 if x.denominator == 1 and x >= 0 else None
    chain = _lowering_chain(M, spec.f_elt, u, length)
    return [(gen_binom(x, i), ui) for i, ui in enumerate(chain)]


def _rung(M, f_elt, ladder, i, cache):
    """ladder[i] = f^{-i} ladder[0], extending the ladder one solve at a time."""
    while len(ladder) <= i:
        ladder.append(_f_inverse(M, f_elt, ladder[-1], cache))
    return ladder[i]


def theta_action(M, spec, X, v, cache=None, touched=None):
    """Theta_{spec.x}(X) . v evaluated through the stored action tables.

    Raises BandError when an inverse power falls off the window and
    ValueError when the series needs an untabulated generator.  When a set
    is passed as touched it collects every label the series read a row at,
    so callers can tell whether a masked (possibly incomplete) row was used.

    A cache may be shared by calls on one module with one f_alpha: besides
    the band inverses it keeps the series of each generator key and the
    ladder f^{-i} v of each v, so repeated calls redo neither.
    """
    if cache is None:
        cache = {}
    if isinstance(X, (LieElt, AffElt)):
        series = _theta_series(M, spec, X)
    else:
        memo = cache.setdefault("_series", {})
        series = memo.get((spec.x, X))
        if series is None:
            series = memo[(spec.x, X)] = _theta_series(M, spec, _gen_elt(M, X))
    fv = _as_vec(v)
    ladder = cache.setdefault("_ladders", {}).setdefault(frozenset(fv.items()), [fv])
    out = {}
    for i, (c, u) in enumerate(series):
        rung = _rung(M, spec.f_elt, ladder, i, cache)
        if touched is not None:
            touched.update(rung)
        _acc(out, M.apply_elt(u, rung), c)
    return out


def twist_module(M, spec):
    """The module with the same labels, actions conjugated by f_alpha^x.

    A label of the result stands for the old vector behind the formal power
    f_alpha^{-x}, so its weight gains x alpha and the row of u becomes
    Theta_x(u).  Labels whose series leaves the window keep an empty row and
    join the mask, as do labels whose series routed through a masked row.
    Any other error, such as an untabulated generator, propagates.  All rows
    share one cache, so each generator's series and each label's ladder of
    inverse powers are built once per call.
    """
    x = spec.x
    weight_of = {lab: _wshift(w, spec.weight, x) for lab, w in M.weight_of.items()}
    action = {}
    boundary = set(M.boundary)
    cache = {}
    for lab in M.weight_of:
        for gk in M.gens:
            if gk == "K":
                action[(gk, lab)] = dict(M.action[(gk, lab)])
                continue
            touched = set()
            try:
                row = theta_action(M, spec, gk, {lab: _ONE}, cache, touched)
            except BandError:
                action[(gk, lab)] = {}
                boundary.add(lab)
                continue
            action[(gk, lab)] = row
            if touched & M.boundary:
                boundary.add(lab)
    T = GradedModule(
        M.algebra, M.kind, M.window, weight_of, action, boundary,
        M.k_value, list(M.gens), dict(M.gen_disp),
    )
    T.twist = spec
    T.twist_base = M
    return T


# ------------------------------------------------------------ localization


def localize(M, alpha, n0_ext=None):
    """Invert f_alpha on M.

    Bandwise bijective f_alpha means M is its own localization.  A module
    carrying its construction data (the truncated rank-one vacuum modules)
    is rebuilt with the zero-mode letter running over negative powers, down
    to -n0_ext.  Non-injective f_alpha or a module without a rebuild recipe
    is an error.
    """
    spec = make_twist_spec(M, alpha, _Z)
    if getattr(M, "loc_root", None) == spec.alpha:
        return M
    disp = _elt_disp(M, spec.f_elt)
    injective = True
    bijective = True
    for w_src, src in M.weights.items():
        if any(l in M.boundary for l in src):
            continue
        cols = [M.apply_elt(spec.f_elt, {s: _ONE}) for s in src]
        tgt = M.weights.get(_wshift(w_src, disp, 1))
        if not tgt:
            if any(cols):
                raise IncompatibleData("action escaped its weight band")
            injective = False
            continue
        mat = [[cols[j].get(t, _Z) for j in range(len(src))] for t in tgt]
        if kernel(mat):
            injective = False
    if not injective:
        raise IncompatibleData("f_alpha is not injective on the stored window")
    for w, tgt in M.weights.items():
        if all(l in M.boundary for l in tgt):
            continue
        src = M.weights.get(_wshift(w, disp, -1))
        if not src:
            bijective = False
            continue
        if any(l in M.boundary for l in src):
            continue
        if len(src) != len(tgt):
            bijective = False
            continue
        cols = [M.apply_elt(spec.f_elt, {s: _ONE}) for s in src]
        mat = [[cols[j].get(t, _Z) for j in range(len(src))] for t in tgt]
        if invert(mat) is None:
            bijective = False
    if bijective:
        M.loc_root = spec.alpha
        return M
    vd = getattr(M, "verma_data", None)
    if vd is None:
        raise IncompatibleData("no localisation rule for this module family")
    if spec.alpha != ((Fraction(2),), 0):
        raise IncompatibleData(
            "localisation of the vacuum module needs the zero-mode real root"
        )
    if n0_ext is None:
        n0_ext = vd["length_cap"] + 1
    L = imverma_localized(
        vd["lam"], vd["depth"], vd["length_cap"], mode_cap=vd["mode_cap"],
        gen_window=vd["gen_window"], n0_ext=n0_ext, algebra=vd["algebra"],
    )
    L.loc_base = M
    return L


def imverma_localized(
    lam, depth, length_cap, mode_cap=None, gen_window=2, n0_ext=2, algebra=None
):
    """Vacuum module with the zero-mode lowering letter raised to any power.

    The basis is ("m", n0, mon) with mon an ordered monomial in the nonzero
    modes f t^k and n0 an integer exponent of f t^0, subject to
    |degree| <= depth, sum of mon powers <= length_cap,
    n0 + length <= length_cap, |modes| <= mode_cap and n0 >= -n0_ext.  The
    n0 >= 0 slice is the untruncated-letter module; commuting a generator
    past the f t^0 block uses the exact two-step chain
    [X, f_0], [[X, f_0], f_0] which closes after two brackets.
    """
    lam = Fraction(lam)
    if mode_cap is None:
        mode_cap = depth
    A = algebra or build_affine(build_simple("A1"))

    modes = [k for k in range(-mode_cap, mode_cap + 1) if k]
    mons = []

    def rec(i, cur, length):
        if i == len(modes):
            if abs(sum(k * nk for k, nk in cur)) <= depth:
                mons.append(tuple(cur))
            return
        k = modes[i]
        rec(i + 1, cur, length)
        for nk in range(1, length_cap - length + 1):
            cur.append((k, nk))
            rec(i + 1, cur, length + nk)
            cur.pop()

    rec(0, [], 0)

    def length_of(mon):
        return sum(nk for _, nk in mon)

    def grade_of(mon):
        return sum(k * nk for k, nk in mon)

    basis = set()
    weight_of = {}
    for mon in mons:
        L = length_of(mon)
        for n0 in range(-n0_ext, length_cap - L + 1):
            lab = ("m", n0, mon)
            basis.add(lab)
            weight_of[lab] = AffWeight(
                (lam - 2 * (n0 + L),), Fraction(grade_of(mon)), _Z
            )

    def bump(mon, k, delta):
        d = dict(mon)
        d[k] = d.get(k, 0) + delta
        if d[k] < 0:
            return None
        return tuple(sorted((m, n) for m, n in d.items() if n))

    action, boundary = {}, set()

    for lab in basis:
        _, n0, mon = lab
        L = length_of(mon)
        g = grade_of(mon)
        occ = dict(mon)
        drops = []

        def put(vec, np, nm, coeff):
            if nm is None:
                return
            tg = ("m", np, nm)
            if tg in basis:
                _acc(vec, {tg: Fraction(coeff)})
            else:
                drops.append(tg)

        def put_mode(vec, np, base, k, coeff):
            # insert a factor f t^k, folding mode zero into the n0 exponent
            if base is None:
                return
            if k == 0:
                put(vec, np + 1, base, coeff)
            else:
                put(vec, np, bump(base, k, +1), coeff)

        action[("D", lab)] = {lab: Fraction(g)} if g else {}
        action[("K", lab)] = {}
        for m in range(-gen_window, gen_window + 1):
            # f_m
            vec = {}
            put_mode(vec, n0, mon, m, _ONE)
            action[(("t", "E21", m), lab)] = vec
            # h_m
            if m == 0:
                val = lam - 2 * (n0 + L)
                action[(("t", "H1", 0), lab)] = {lab: val} if val else {}
            else:
                vec = {}
                for k, nk in mon:
                    put_mode(vec, n0, bump(mon, k, -1), k + m, -2 * nk)
                if n0:
                    put_mode(vec, n0 - 1, mon, m, -2 * n0)
                action[(("t", "H1", m), lab)] = vec
            # e_m: act on mon, then push the two-step chain past f_0^{n0}
            vec = {}
            if occ.get(-m, 0) and lam:
                put(vec, n0, bump(mon, -m, -1), lam * occ[-m])
            ks = sorted(occ)
            for ai in range(len(ks)):
                for bi in range(ai, len(ks)):
                    ka, kb = ks[ai], ks[bi]
                    cnt = (
                        occ[ka] * (occ[ka] - 1) // 2
                        if ai == bi
                        else occ[ka] * occ[kb]
                    )
                    if not cnt:
                        continue
                    base = bump(bump(mon, ka, -1), kb, -1)
                    put_mode(vec, n0, base, m + ka + kb, -2 * cnt)
            if n0:
                if m == 0:
                    put(vec, n0 - 1, mon, n0 * (lam - 2 * L))
                else:
                    for k, nk in mon:
                        put_mode(vec, n0 - 1, bump(mon, k, -1), k + m, -2 * n0 * nk)
            c3 = -n0 * (n0 - 1)
            if c3:
                put_mode(vec, n0 - 2, mon, m, c3)
            action[(("t", "E12", m), lab)] = vec
        if drops:
            boundary.add(lab)

    gens = []
    for m in range(-gen_window, gen_window + 1):
        gens.extend((("t", "E12", m), ("t", "E21", m), ("t", "H1", m)))
    gens += ["D", "K"]
    gen_disp = {}
    for gk in gens:
        if gk in ("D", "K"):
            gen_disp[gk] = AffWeight((_Z,), _Z, _Z)
        else:
            gen_disp[gk] = AffWeight(A.fin_weight(gk[2], gk[1]), Fraction(gk[2]), _Z)
    M = GradedModule(
        A, "aff", DegreeWindow(-depth, depth), weight_of, action, boundary,
        _Z, gens, gen_disp,
    )
    M.loc_root = ((Fraction(2),), 0)
    M.loc_data = dict(
        lam=lam, depth=depth, length_cap=length_cap, mode_cap=mode_cap,
        gen_window=gen_window, n0_ext=n0_ext,
    )
    return M


# -------------------------------------------------------- twist parameters


class TwistRoots(list):
    """Rational roots of the lowering quadratic, with diagnostics attached."""

    def __init__(self, roots, quadratic, discriminant):
        super().__init__(roots)
        self.quadratic = quadratic
        self.discriminant = discriminant


def _neg_binom_poly(i):
    # binom(-x, i) as a polynomial in x
    p = Poly([_ONE])
    fact = 1
    for j in range(i):
        p = p * Poly([Fraction(-j), Fraction(-1)])
        fact *= j + 1
    return p * Poly([Fraction(1, fact)])


def _sqrt_fraction(q):
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _poly_roots(q):
    """Rational roots of a polynomial of degree at most two, ascending."""
    deg = q.degree()
    if deg <= 0:
        return [], None
    if deg == 1:
        a0, a1 = q.coeffs
        return [-a0 / a1], None
    a0, a1, a2 = q.coeffs
    disc = a1 * a1 - 4 * a2 * a0
    s = _sqrt_fraction(disc)
    if s is None:
        return [], disc
    roots = sorted({(-a1 + s) / (2 * a2), (-a1 - s) / (2 * a2)})
    return roots, disc


def find_twist_parameter(M, alpha, lam, v):
    """Rational x with e_alpha (f_alpha^x . v) = 0, for an eigenvector v.

    v must satisfy f_alpha e_alpha v = c v; the coefficient of the image
    along f_alpha^{x-1} v is then a quadratic in x assembled from the
    lowering chain of e_alpha.  Returns the rational roots (possibly none)
    with the quadratic and its discriminant attached; every root is checked
    by evaluating the chain at it.
    """
    spec = make_twist_spec(M, alpha, _Z)
    vec = _as_vec(v)
    ws = {M.weight_of[lab] for lab in vec}
    if len(ws) != 1:
        raise IncompatibleData("v must be weight homogeneous")
    if lam is not None and next(iter(ws)) != lam:
        raise IncompatibleData("v does not lie in the stated weight space")
    cache = {}
    ref = _f_inverse(M, spec.f_elt, vec, cache)

    def ratio(wv):
        if not wv:
            return _Z
        k0 = next(iter(wv))
        if k0 not in ref:
            raise IncompatibleData("the lowering chain left the f_alpha^{-1} line")
        c = wv[k0] / ref[k0]
        if _scaled(ref, c) != wv:
            raise IncompatibleData("the lowering chain left the f_alpha^{-1} line")
        return c

    ladder = [vec, ref]
    chain = [
        M.apply_elt(u, _rung(M, spec.f_elt, ladder, i, cache))
        for i, u in enumerate(_lowering_chain(M, spec.f_elt, spec.e_elt))
    ]

    q = Poly()
    for i, wv in enumerate(chain):
        q = q + _neg_binom_poly(i) * Poly([ratio(wv)])
    roots, disc = _poly_roots(q)
    for x0 in roots:
        total = {}
        for i, wv in enumerate(chain):
            _acc(total, wv, gen_binom(-x0, i))
        if total:
            raise IncompatibleData("a computed root failed direct evaluation")
    return TwistRoots(roots, q, disc)


# ------------------------------------------------- e against inverse powers


_EF_CACHE = {}


def efloc_quadratic(lam):
    """p(x) with e_0 (f_0^x vac) = p(x) f_0^{x-1} vac on the vacuum module."""
    lam = Fraction(lam)
    if lam not in _EF_CACHE:
        L = imverma_localized(
            lam, depth=1, length_cap=1, mode_cap=1, gen_window=1, n0_ext=3
        )
        roots = find_twist_parameter(
            L, AffRoot("real", (Fraction(2),), 0),
            AffWeight((lam,), _Z, _Z), ("m", 0, ()),
        )
        _EF_CACHE[lam] = roots.quadratic
    return _EF_CACHE[lam]


def efloc_product(lam, x, k):
    """prod_{j=0}^{k-1} p(x - j): the coefficient of e_0^k across f_0^x."""
    q = efloc_quadratic(lam)
    x = Fraction(x)
    out = _ONE
    for j in range(k):
        out *= q(x - j)
    return out


def efloc_admissible(lam, x):
    """True when no factor of any efloc_product(lam, x, k) vanishes."""
    q = efloc_quadratic(lam)
    if q.is_zero():
        return False
    roots, _ = _poly_roots(q)
    x = Fraction(x)
    return all((x - r).denominator != 1 for r in roots)


# ------------------------------------------------ loop modules, inverted


@dataclass
class LoopLocData:
    """A loop module together with one lowering letter f t^r to invert.

    factors[0] must carry a bandwise invertible action of the root lowering
    operator (a dense line); the remaining factors must be nilpotent under
    it.  nil[t] is the least m with f^m = 0 on factors[t + 1].
    """

    A: object
    factors: list
    scalars: list
    alpha_fin: tuple
    r: int
    window: object
    M: object
    f_fin: object
    F_aff: object
    nil: list


def make_loop_data(A, factors, scalars, alpha, r, window, gen_window=2):
    from .modrep import loop_module

    scalars = [Fraction(a) for a in scalars]
    M = loop_module(A, factors, scalars, window, gen_window=gen_window)
    fin = tuple(Fraction(a) for a in alpha)
    neg = tuple(-a for a in fin)
    g = A.g
    fnames = [n for n in g.basis if tuple(g.weight_of[n]) == neg]
    if len(fnames) != 1:
        raise IncompatibleData(f"{fin} is not a root with a one-dimensional space")
    f_fin = LieElt({fnames[0]: _ONE})
    F_aff = AffElt({(fnames[0], r): _ONE})
    nil = []
    for Ft in factors[1:]:
        vecs = [{lab: _ONE} for lab in Ft.weight_of]
        m = 0
        while any(vecs):
            vecs = [Ft.apply_elt(f_fin, v) for v in vecs]
            m += 1
            if m > len(Ft.weight_of) + 1:
                raise IncompatibleData("a loop factor is not lowering nilpotent")
        nil.append(m)
    return LoopLocData(
        A, list(factors), scalars, fin, int(r), window, M, f_fin, F_aff, nil
    )


def loop_loc_iso(data, N, vec):
    """Honest vector represented by (f t^r)^{-N} . vec in the loop module.

    For N <= 0 the power is applied directly.  For N > 0 the inverse is
    pushed into the factors: the nilpotent factors absorb finitely many
    lowering letters and the first factor absorbs the rest through its
    bandwise inverse, weighted by generalized multinomials and by the
    evaluation scalars a_t^{i_t r}.
    """
    vec = _as_vec(vec)
    if N <= 0:
        out = dict(vec)
        for _ in range(-N):
            out = data.M.apply_elt(data.F_aff, out)
        return out
    out = {}
    caches = [{} for _ in data.factors]
    for (tlab, s), c0 in vec.items():
        sp = s - N * data.r
        if sp not in data.window:
            raise BandError("loop degree left the window; enlarge it")
        for itup in itertools.product(*[range(m) for m in data.nil]):
            i0 = -N - sum(itup)
            coef = c0 * gen_multinom(Fraction(-N), list(itup))
            coef *= data.scalars[0] ** (i0 * data.r)
            for t, it in enumerate(itup):
                coef *= data.scalars[t + 1] ** (it * data.r)
            parts = [
                f_power(data.factors[0], data.f_fin, {tlab[0]: _ONE}, i0, caches[0])
            ]
            for t, it in enumerate(itup):
                pt = f_power(data.factors[t + 1], data.f_fin, {tlab[t + 1]: _ONE}, it)
                if not pt:
                    parts = None
                    break
                parts.append(pt)
            if parts is None:
                continue
            for combo in itertools.product(*[p.items() for p in parts]):
                cc = coef
                for _, c in combo:
                    cc *= c
                _acc(out, {(tuple(l for l, _ in combo), sp): cc})
    return out


def loop_pair_act(data, elt, N, vec):
    """Action of elt on the formal pair (N, vec), as a list of pairs.

    Commuting elt across the inverse letters gives
    elt . (N, w) = sum_i (-1)^i binom(-N, i) (N + i, ad(F)^i(elt) . w).
    """
    vec = _as_vec(vec)
    out = []
    u = elt
    i = 0
    while not u.is_zero():
        if i > 12:
            raise IncompatibleData("the lowering chain did not terminate")
        c = gen_binom(Fraction(-N), i)
        if i % 2:
            c = -c
        applied = data.M.apply_elt(u, vec)
        if applied and c:
            out.append((N + i, _scaled(applied, c)))
        u = aff_bracket(data.A, data.F_aff, u)
        i += 1
    return out


def loop_loc_iso_inv(data, vec, n=0, N=None):
    """A pair (N, w) representing the honest vector vec.

    N defaults to the sum of the factor nilpotency degrees plus n, enough
    for every term of the expansion to carry nonnegative honest powers.
    """
    vec = _as_vec(vec)
    if N is None:
        N = sum(data.nil) + n
    out = {}
    for (tlab, s), c0 in vec.items():
        sp = s + N * data.r
        if sp not in data.window:
            raise BandError("loop degree left the window; enlarge it")
        for itup in itertools.product(*[range(m) for m in data.nil]):
            i0 = N - sum(itup)
            if i0 < 0:
                continue
            coef = c0 * gen_multinom(Fraction(N), list(itup))
            if not coef:
                continue
            coef *= data.scalars[0] ** (i0 * data.r)
            for t, it in enumerate(itup):
                coef *= data.scalars[t + 1] ** (it * data.r)
            parts = [f_power(data.factors[0], data.f_fin, {tlab[0]: _ONE}, i0)]
            for t, it in enumerate(itup):
                pt = f_power(data.factors[t + 1], data.f_fin, {tlab[t + 1]: _ONE}, it)
                if not pt:
                    parts = None
                    break
                parts.append(pt)
            if not parts:
                continue
            for combo in itertools.product(*[p.items() for p in parts]):
                cc = coef
                for _, c in combo:
                    cc *= c
                _acc(out, {(tuple(l for l, _ in combo), sp): cc})
    return N, out


# ------------------------------------------- induction versus localization


def _interp(points):
    out = Poly()
    for i, (xi, yi) in enumerate(points):
        term = Poly([yi])
        for j, (xj, _) in enumerate(points):
            if i != j:
                term = term * Poly([-xj, _ONE]) * Poly([Fraction(1, xi - xj)])
        out = out + term
    return out


def _charpoly(mat):
    n = len(mat)
    if n == 0:
        return Poly([_ONE])
    pts = []
    for t in range(n + 1):
        m2 = [
            [(Fraction(t) if i == j else _Z) - mat[i][j] for j in range(n)]
            for i in range(n)
        ]
        pts.append((Fraction(t), det(m2)))
    return _interp(pts)


def induction_commutes_probe(P, S, x, depth, max_bands=6):
    """Compare inducing a twisted Levi module against twisting the induction.

    Both sides are materialized to the given monomial depth: weight
    multiplicities must match after the x alpha shift, and on sampled fully
    unmasked weight bands the characteristic polynomials of e f (twisted by
    conjugation on one side, plain on the other) must agree.  Raises when no
    band is clean enough to compare.
    """
    A = P.algebra
    x = Fraction(x)
    real_levi = [k for k in P.levi_keys() if any(c for c in k[0])]
    if len(real_levi) != 2:
        raise IncompatibleData("the probe needs an sl2 Levi")
    pos = [k for k in real_levi if is_positive_root(A, k[0], k[1])]
    if len(pos) != 1:
        raise IncompatibleData("degenerate Levi root data")
    root = AffRoot("real", pos[0][0], pos[0][1])

    specS = make_twist_spec(S, root, x)
    MA = induced_truncated(P, S, depth)
    SB = twist_module(S, specS)
    MB = induced_truncated(P, SB, depth)

    aw = specS.weight
    shifted = {
        _wshift(w, aw, x): n for w, n in MA.multiplicity_table().items()
    }
    if shifted != MB.multiplicity_table():
        return False
    if x == 0:
        return MA.weight_of == MB.weight_of and MA.action == MB.action

    specA = make_twist_spec(MA, root, x)
    cache = {}

    def clean(Mod, w):
        labs = Mod.weights.get(w)
        return bool(labs) and all(l not in Mod.boundary for l in labs)

    compared = 0
    order = sorted(MA.weights, key=lambda w: (len(MA.weights[w]), w.fin, w.d, w.k))
    for w in order:
        band = MA.weights[w]
        if len(band) > 8:
            continue
        # f e maps the band to itself; the raising series on the plain side
        # reads rows two bands up, the twisted side one band up
        if not (
            clean(MA, w)
            and clean(MA, _wshift(w, aw, 1))
            and clean(MA, _wshift(w, aw, 2))
            and clean(MB, _wshift(w, aw, x))
            and clean(MB, _wshift(w, aw, x + 1))
        ):
            continue
        try:
            cols_a = []
            for l in band:
                ta = theta_action(MA, specA, specA.e_elt, {l: _ONE}, cache)
                va = MA.apply_elt(specA.f_elt, ta)
                if any(t not in set(band) for t in va):
                    raise IncompatibleData("band endomorphism left its band")
                cols_a.append(va)
        except BandError:
            continue
        bandB = MB.weights[_wshift(w, aw, x)]
        cols_b = []
        for l in bandB:
            vb = MB.apply_elt(specA.e_elt, {l: _ONE})
            cols_b.append(MB.apply_elt(specA.f_elt, vb))
        ea = [[cols_a[j].get(t, _Z) for j in range(len(band))] for t in band]
        eb = [[cols_b[j].get(t, _Z) for j in range(len(bandB))] for t in bandB]
        if _charpoly(ea) != _charpoly(eb):
            return False
        compared += 1
        if compared >= max_bands:
            break
    if not compared:
        raise IncompatibleData("depth too small to compare the two inductions")
    return True
