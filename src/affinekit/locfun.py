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

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from .exact import Poly, det, gen_binom, invert, kernel, solve_unique
from .finlie import LieElt, sl2_normalise
from .affine import AffRoot, AffWeight, sl2_triple
from .modrep import (
    GradedModule,
    IncompatibleData,
    NothingCompared,
    UntabulatedGenerator,
    _acc,
    _band_matrix,
    _scaled,
    check_bracket_compat,
    imaginary_verma,
    induced_truncated,
    levi_sl2_root,
)

_Z = Fraction(0)
_ONE = Fraction(1)


class BandError(ValueError):
    """A bandwise inverse of the lowering generator does not exist."""


# the zero-mode real root of the affine sl2, as make_twist_spec keys it
_ZERO_MODE = ((Fraction(2),), 0)
# clean weight bands induction_commutes_probe compares before it stops
_PROBE_BANDS = 6


@dataclass(frozen=True)
class TwistSpec:
    """A real root direction, a rational twist exponent, and its sl2 data.

    Build it with make_twist_spec: twist_table keeps the x-independent work
    on the module under alpha, and checks that f_elt is the one that work
    was done with.
    """

    alpha: object
    x: Fraction
    e_elt: object
    f_elt: object
    weight: AffWeight

    @cached_property
    def _binoms(self):
        return []

    @cached_property
    def cut(self):
        """How many series terms count at x: x + 1 for x in N, as binom(x, i) = 0
        for i > x; None for any other x, whose series runs to the chain's end."""
        x = self.x
        return int(x) + 1 if x.denominator == 1 and x >= 0 else None

    def binom(self, i):
        """binom(x, i), computed once per spec; i runs up from 0."""
        binoms = self._binoms
        while len(binoms) <= i:
            binoms.append(gen_binom(self.x, len(binoms)))
        return binoms[i]


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
    ename, fname = g.root_vector.get(fin), g.root_vector.get(neg)
    if ename is None or fname is None:
        raise IncompatibleData(f"{fin} is not a root")
    e, f, _ = sl2_normalise(g.bracket, LieElt({ename: _ONE}), LieElt({fname: _ONE}))
    return TwistSpec(fin, x, e, f, AffWeight(fin, _Z, _Z))


# ------------------------------------------------------- bandwise inverses


def _as_vec(v):
    if isinstance(v, dict):
        return {lab: Fraction(c) for lab, c in v.items() if c}
    return {v: _ONE}


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
    ws = {A.loop_weight(key) for key in elt.c}
    if len(ws) != 1:
        raise IncompatibleData("lowering element is not weight homogeneous")
    return next(iter(ws))


def _wshift(w, aw, x):
    """w + x aw; a zero component of aw leaves w's as it is."""
    return AffWeight(
        tuple(a + x * b if b else a for a, b in zip(w.fin, aw.fin)),
        w.d + x * aw.d if aw.d else w.d,
        w.k + x * aw.k if aw.k else w.k,
    )


def _f_inverse(M, f_elt, vec, cache):
    """Solve f_elt . u = vec one weight band at a time.

    cache keeps each band's inverse under the band's first target label: a
    label lies in exactly one band, and a twist along f_alpha shifts every
    weight by the same x alpha, so the key stays valid on M's twists.
    """
    disp = _elt_disp(M, f_elt)
    out = {}
    bands = {}
    for lab, c in vec.items():
        w = M.weight_of[lab]
        bands.setdefault(M.weights[w][0], (w, {}))[1][lab] = c
    for key, (w, sub) in bands.items():
        entry = cache.get(key)
        if entry is None:
            src_w = _wshift(w, disp, -1)
            src = M.weights.get(src_w)
            if not src:
                raise BandError(
                    f"band exhausted (window too small); f_alpha not invertible at {w}"
                )
            tgt = M.weights[w]
            mat = _band_matrix(M, f_elt, src, tgt)
            inv = invert(mat) if len(src) == len(tgt) else None
            entry = cache[key] = (src, tgt, mat, inv)
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
        # the bands of one call have disjoint sources
        for i, s in enumerate(src):
            if sol[i]:
                out[s] = sol[i]
    return out


def _rung(M, f_elt, ladder, i, cache):
    """ladder[i] = f^{-i} ladder[0], extending the ladder one solve at a time.

    A failed solve ends the ladder: its BandError is kept as the last rung
    and raised again for that rung and every deeper one, never retried.
    The kept error holds no traceback and each raise is a fresh copy, so
    no frame, and no cache a frame holds, stays alive through the ladder.
    """
    while len(ladder) <= i and not isinstance(ladder[-1], BandError):
        try:
            ladder.append(_f_inverse(M, f_elt, ladder[-1], cache))
        except BandError as exc:
            ladder.append(exc.with_traceback(None))
    rung = ladder[min(i, len(ladder) - 1)]
    if isinstance(rung, BandError):
        raise BandError(*rung.args)
    return rung


def _clean(M, vec):
    return all(lab not in M.boundary for lab in vec)


@dataclass(eq=False)
class TwistStore:
    """The f_alpha^{-1} work along one root, made with one f_alpha = f_elt.

    bands maps a band's first target label to its inverse (see _f_inverse),
    ladders a label v to its ladder f^{-i} v (see _rung), and chains a
    generator key to its lowering chain under f_elt.
    """

    f_elt: object
    bands: dict = field(default_factory=dict)
    ladders: dict = field(default_factory=dict)
    chains: dict = field(default_factory=dict)


def twist_table(M, spec):
    """M's table for twists along spec.alpha: a pair (store, terms).

    terms keeps M's own series terms W_i, keyed by (generator key, label);
    store is the TwistStore of band inverses, ladders and lowering chains.
    A spec whose f_elt differs from the store's raises IncompatibleData.
    M's twists along spec.alpha read M's store (see twist_module), so it is
    made here only, for a module that has none.
    """
    table = M.twist_tables.get(spec.alpha)
    if table is None:
        table = M.twist_tables[spec.alpha] = (TwistStore(spec.f_elt), {})
    elif table[0].f_elt != spec.f_elt:
        raise IncompatibleData(f"the twist table of {spec.alpha} was built with another f_alpha")
    return table


def f_power(M, f_elt, v, p, cache=None):
    """Apply f_elt p times; negative p applies the bandwise inverse.

    Honest steps refuse masked routes: a masked label has an empty
    tabulated row, which would silently drop terms, so a step from a vector
    on a masked label raises BandError.  Inverse steps raise BandError when
    a solve fails.  cache holds band inverses made with f_elt, such as
    twist_table(M, spec)[0].bands; without it every band is solved afresh.
    """
    vec = _as_vec(v)
    if p >= 0:
        for _ in range(p):
            if not _clean(M, vec):
                raise BandError("truncated route")
            vec = M.apply_elt(f_elt, vec)
        return vec
    return _rung(M, f_elt, [vec], -p, {} if cache is None else cache)


# ----------------------------------------------------- conjugation series


def _lowering_chain(M, f_elt, u):
    """The nonzero terms u, ad(f)u, ad(f)^2 u, ...

    A root vector f ends the chain within the algebra's longest root string;
    a longer chain means f is no root vector, and raises IncompatibleData.
    """
    bound = M.algebra.longest_root_string
    chain = []
    while not u.is_zero():
        if len(chain) == bound:
            raise IncompatibleData(
                f"ad(f)^{bound} of {chain[0]!r} is not zero for f = {f_elt!r}: the "
                f"lowering chain outruns the longest root string, {bound} terms"
            )
        chain.append(u)
        u = M.bracket(f_elt, u)
    return chain


def theta_action(M, spec, X, v, cache=None):
    """Theta_{spec.x}(X) . v evaluated through the stored action tables.

    Theta_x(X) . v = sum_i binom(x, i) W_i with W_i = ad(f)^i(X) . f^{-i} v,
    the sum cut at i = x for x in N.  X is a generator key of M and v a
    label; any other argument follows from these rows by linearity.  Raises
    BandError when an inverse power falls off the window and
    UntabulatedGenerator when the series needs a generator M lacks.

    cache is M's table twist_table(M, spec), read when it is None.  Nothing
    in it depends on x, so one table serves every twist of M along one
    f_alpha = spec.f_elt (specs come from make_twist_spec).  Its store keeps
    the band inverses, the ladder f^{-i} v of each label v and the lowering
    chain of each generator key; its terms keep, per (X, v), the terms W_i,
    each computed the first time an x needs it.  The first term X . v is
    M's row itself, shared and never written to.
    """
    store, terms_of = twist_table(M, spec) if cache is None else cache
    ladder = store.ladders.get(v)
    if ladder is None:
        ladder = store.ladders[v] = [{v: _ONE}]
    chain = store.chains.get(X)
    if chain is None:
        chain = store.chains[X] = _lowering_chain(M, spec.f_elt, M.gen_elt(X))
    terms = terms_of.get((X, v))
    if terms is None:
        try:
            terms = terms_of[(X, v)] = [M.action[(X, v)]]
        except KeyError:
            raise UntabulatedGenerator(f"generator {X!r} is not tabulated") from None
    n = len(chain)
    if spec.cut is not None and spec.cut < n:
        n = spec.cut
    out = {}
    for i in range(n):
        if i == len(terms):
            terms.append(M.apply_elt(chain[i], _rung(M, spec.f_elt, ladder, i, store.bands)))
        if i:
            _acc(out, terms[i], spec.binom(i))
        else:
            out = dict(terms[0])  # binom(x, 0) = 1
    return out


def twist_module(M, spec):
    """The module with the same labels, actions conjugated by f_alpha^x.

    A label of the result stands for the old vector behind the formal power
    f_alpha^{-x}, so its weight gains x alpha and the row of u becomes
    Theta_x(u).  Labels whose series leaves the window keep an empty row and
    join the mask, as do labels whose series routed through a masked row.
    Any other error, such as an untabulated generator, propagates.

    The rows of a label read the rungs f^{-i} v, i < depth, of one ladder,
    where depth is the longest lowering chain of M's generators, cut at
    spec.cut; so the label is masked when a rung 1 <= i < depth meets M's
    mask (rung 0 is the label itself).

    Every row reads twist_table(M, spec), so a twist of M by a new x along
    a root M was twisted along before solves no band and applies no term
    again: it only re-weights the kept terms by binom(x, i).  spec must come
    from make_twist_spec, whose f_elt is the one the store records.

    The result reads M's store for its own twists along spec.alpha.  That is
    exact when ad(f) kills each generator f_elt is made of (a one-term
    lowering chain, which every f from make_twist_spec has): then the f rows
    of the result are M's at every label, masked ones included, its labels
    fall into the same bands, and so its band inverses and ladders are M's.
    Only the terms W_i, which read the other rows, are the result's own.
    """
    # one shift per weight band; fromkeys keeps M's label order
    weight_of = dict.fromkeys(M.weight_of)
    for w, labs in M.weights.items():
        tw = _wshift(w, spec.weight, spec.x)
        for lab in labs:
            weight_of[lab] = tw
    action = {}
    boundary = set(M.boundary)
    table = twist_table(M, spec)
    store = table[0]
    depth = None  # read off the chains once the first label made them
    for lab in M.weight_of:
        failed = False
        for gk in M.gens:
            if gk == "K":
                action[(gk, lab)] = dict(M.action[(gk, lab)])
                continue
            try:
                action[(gk, lab)] = theta_action(M, spec, gk, lab, table)
            except BandError:
                action[(gk, lab)] = {}
                failed = True
        if depth is None:
            depth = max((len(store.chains[gk]) for gk in M.gens if gk != "K"), default=1)
            if spec.cut is not None and spec.cut < depth:
                depth = spec.cut
        # an earlier x may have run the ladder deeper than this one reads
        if failed or depth > 1 and any(
            not M.boundary.isdisjoint(rung) for rung in store.ladders[lab][1:depth]
        ):
            boundary.add(lab)
    T = GradedModule(M.algebra, weight_of, action, boundary, M.k_value, list(M.gens))
    f_keys = [("fin", key) if M.kind == "fin" else ("t",) + key for key in spec.f_elt.c]
    if all(len(store.chains.get(gk, ())) == 1 for gk in f_keys):
        T.twist_tables[spec.alpha] = (store, {})
    return T


# ------------------------------------------------------------- twist laws


TWIST_LAWS = (
    "twist_composition",
    "integer_twist_is_conjugation",
    "inverse_power_law",
    "twist_respects_brackets",
)


def twist_laws(M, alpha, x, y, m, p, q, labs):
    """Check the four twist laws on M along alpha; (compared, failed) per law.

    Keys are TWIST_LAWS, in order:
      twist_composition: twisting by x then y against twisting by x + y;
        the weight tables count as one pair, then every row at a label
        unmasked in both;
      integer_twist_is_conjugation: the rows of the twist by the integer m
        at labs against f^m u f^{-m}, computed with honest powers;
      inverse_power_law: f^p f^q against f^{p+q} at labs;
      twist_respects_brackets: bracket compatibility of the twist by x,
        one pair for the whole module, none if the check had no clean
        label pair to compare.
    A pair whose route meets a masked label or a failed band solve is not
    compared.  Any other error propagates.
    """
    Tx = twist_module(M, make_twist_spec(M, alpha, x))
    T1 = twist_module(Tx, make_twist_spec(Tx, alpha, y))
    T2 = twist_module(M, make_twist_spec(M, alpha, x + y))
    comp = [1, int(T1.weight_of != T2.weight_of)]
    for lab in M.weight_of:
        if lab in T1.boundary or lab in T2.boundary:
            continue
        for gk in M.gens:
            comp[0] += 1
            comp[1] += T1.action[(gk, lab)] != T2.action[(gk, lab)]

    spec = make_twist_spec(M, alpha, Fraction(m))
    T = twist_module(M, spec)
    bands = twist_table(M, spec)[0].bands
    conj = [0, 0]
    for lab in labs:
        if lab in T.boundary:
            continue
        try:
            down = f_power(M, spec.f_elt, {lab: _ONE}, -m, bands)
        except BandError:
            continue
        if not _clean(M, down):
            continue
        for gk in M.gens:
            mid = M.apply_gen(gk, down)
            if not _clean(M, mid):
                continue
            try:
                want = f_power(M, spec.f_elt, mid, m, bands)
            except BandError:
                continue
            conj[0] += 1
            conj[1] += T.action[(gk, lab)] != want

    power = [0, 0]
    for lab in labs:
        try:
            inner = f_power(M, spec.f_elt, {lab: _ONE}, q, bands)
            two = f_power(M, spec.f_elt, inner, p, bands)
            one = f_power(M, spec.f_elt, {lab: _ONE}, p + q, bands)
        except BandError:
            continue
        power[0] += 1
        power[1] += two != one

    try:
        brackets = (1, int(check_bracket_compat(Tx) != []))
    except NothingCompared:
        brackets = (0, 0)
    return dict(zip(TWIST_LAWS, (tuple(comp), tuple(conj), tuple(power), brackets)))


# ------------------------------------------------------------ localization


def _weight_text(w):
    return "(" + ", ".join(map(str, w.fin)) + f"; d={w.d}, k={w.k})"


def localize(M, alpha):
    """Invert f_alpha on M: M is returned when f_alpha is bandwise bijective.

    Every unmasked source band must map injectively, and every target band
    with an unmasked label must have a preimage band of its own size.
    Otherwise IncompatibleData names the band's weight and why: f_alpha
    kills the band, has a kernel on it, the band has no preimage band, or
    the pair is not square.  M itself is never modified.
    """
    spec = make_twist_spec(M, alpha, _Z)
    disp = _elt_disp(M, spec.f_elt)
    for w_src, src in M.weights.items():
        if any(l in M.boundary for l in src):
            continue
        tgt = M.weights.get(_wshift(w_src, disp, 1))
        if not tgt:
            if any(M.apply_elt(spec.f_elt, {s: _ONE}) for s in src):
                raise IncompatibleData("action escaped its weight band")
            raise IncompatibleData(f"f_alpha kills the band at weight {_weight_text(w_src)}")
        if kernel(_band_matrix(M, spec.f_elt, src, tgt)):
            raise IncompatibleData(
                f"f_alpha has a kernel on the band at weight {_weight_text(w_src)}"
            )
    for w, tgt in M.weights.items():
        if all(l in M.boundary for l in tgt):
            continue
        src = M.weights.get(_wshift(w, disp, -1))
        if not src:
            raise IncompatibleData(f"the band at weight {_weight_text(w)} has no preimage band")
        if any(l in M.boundary for l in src):
            continue
        # the injectivity pass found this pair's kernel trivial: square means invertible
        if len(src) != len(tgt):
            raise IncompatibleData(
                f"the band at weight {_weight_text(w)} is not square: {len(src)} source "
                f"labels, {len(tgt)} target labels"
            )
    return M


def imverma_localized(lam, depth, length_cap, gen_window=2, n0_ext=2):
    """Vacuum module with the zero-mode lowering letter raised to any power.

    This is imaginary_verma with the zero-mode exponent n0 running down to
    -n0_ext; see there for the basis ("m", n0, mon) and the caps.  The
    result has passed localize's bijectivity check along the zero-mode root.
    """
    L = imaginary_verma(lam, depth, length_cap, gen_window=gen_window, n0_ext=n0_ext)
    return localize(L, _ZERO_MODE)


# ------------------------------------------------- e against inverse powers


def efloc_quadratic(lam):
    """p(x) = x(lam + 1 - x), with e_0 (f_0^x vac) = p(x) f_0^{x-1} vac on the
    vacuum module: the sl2 string e f^n v = n(lam + 1 - n) f^{n-1} v."""
    return Poly([_Z, Fraction(lam) + 1, -_ONE])


def efloc_product(lam, x, k):
    """prod_{j=0}^{k-1} p(x - j): the coefficient of e_0^k across f_0^x."""
    q = efloc_quadratic(lam)
    x = Fraction(x)
    out = _ONE
    for j in range(k):
        out *= q(x - j)
    return out


def efloc_admissible(lam, x):
    """True when x avoids the cosets 0 + Z and lam + 1 + Z of the roots of p.

    These are exactly the x for which no efloc_product(lam, x + l, k)
    vanishes, for any integer shift l and any k >= 0.
    """
    x = Fraction(x)
    return x.denominator != 1 and (x - Fraction(lam)).denominator != 1


def efloc_walk(lam, x, k):
    """Coefficients of e_0^j (f_0^x vac) for j = 1..k on the twisted localized
    vacuum module; None for a step that leaves the line ("m", -j, ()).

    Each step reads only the e_0 rows of the labels it stands on, each the
    row twist_module would store: theta_action's, or {} where a band solve
    fails.  Rows are read at masked labels too: at k = 1 every label of the
    twist is masked, and at k = 2 the step from ("m", -1, ()) reads a masked
    row.  The label masks are coarse, so those rows still hold the values of
    efloc_product; a walk of length 3 reads no masked label.
    """
    if not k:
        return []
    L = imverma_localized(lam, 2, 2, gen_window=1, n0_ext=2 * k)
    spec = make_twist_spec(L, _ZERO_MODE, -Fraction(x))
    table = twist_table(L, spec)
    e0 = ("t", "E12", 0)
    vec = {("m", 0, ()): _ONE}
    out = []
    for j in range(1, k + 1):
        step = {}
        for lab, c in vec.items():
            try:
                _acc(step, theta_action(L, spec, e0, lab, table), c)
            except BandError:
                pass  # twist_module stores this row as {}
        vec = step
        lab = ("m", -j, ())
        out.append(vec.get(lab, _Z) if vec.keys() <= {lab} else None)
    return out


# ------------------------------------------- induction versus localization


def _charpoly_values(mat):
    """det(t I - mat) at t = 0..n: n + 1 values fix the monic degree-n polynomial."""
    n = len(mat)
    return [
        det([[(Fraction(t) if i == j else _Z) - mat[i][j] for j in range(n)] for i in range(n)])
        for t in range(n + 1)
    ]


def induction_commutes_probe(P, S, x, depth):
    """Compare inducing a twisted Levi module against twisting the induction.

    Both sides are materialized to the given monomial depth: weight
    multiplicities must match after the x alpha shift, and on sampled fully
    unmasked weight bands the characteristic polynomials of e f (twisted by
    conjugation on one side, plain on the other) must agree at t = 0..n for
    n x n bands.  Raises when no band is clean enough to compare.
    """
    x = Fraction(x)
    root = levi_sl2_root(P)

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
    # make_twist_spec gives e as one root vector: Theta(e) is a scaled generator row
    ((ekey, ecoef),) = specA.e_elt.c.items()
    egen = ("t",) + ekey

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
        band_set = set(band)
        try:
            cols_a = []
            for l in band:
                ta = _scaled(theta_action(MA, specA, egen, l), ecoef)
                va = MA.apply_elt(specA.f_elt, ta)
                if not va.keys() <= band_set:
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
        if _charpoly_values(ea) != _charpoly_values(eb):
            return False
        compared += 1
        if compared >= _PROBE_BANDS:
            break
    if not compared:
        raise IncompatibleData("depth too small to compare the two inductions")
    return True
