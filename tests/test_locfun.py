"""Twisted localization: conjugation series, twisted modules, inverse letters.

Oracles: the three-term lowering chain on the dense sl2 line is evaluated by
hand (ad(f)e = -h, ad(f)^2 e = -2f, ad(f)^3 e = 0), the twist parameter
quadratics are read off theta_action and efloc_walk against their closed
forms, and the inverse letters of a loop module are pinned by an explicit
multinomial expansion plus the defining property that the honest generator
undoes them.
"""

import copy
import dataclasses
import gc
import random
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from affinekit.exact import gen_binom
from affinekit.finlie import LieElt, build_simple, sigma_aut
from affinekit.affine import (
    AffElt,
    AffRoot,
    AffWeight,
    DegreeWindow,
    build_affine,
    roots_window,
    sl2_triple,
)
from affinekit.rootpar import assemble_parabolic, make_flag
from affinekit.modrep import (
    DenseSL2Params,
    GradedModule,
    IncompatibleData,
    adjoint_rep,
    check_bracket_compat,
    check_level,
    check_weight_additivity,
    dense_sl2,
    finite_dim_sl2,
    imaginary_verma,
    levi_dense_module,
    loop_module,
    UntabulatedGenerator,
)
from affinekit import locfun
from affinekit.locfun import (
    BandError,
    efloc_admissible,
    efloc_product,
    efloc_walk,
    f_power,
    imverma_localized,
    induction_commutes_probe,
    localize,
    make_twist_spec,
    theta_action,
    twist_module,
)

_Z = F(0)
A1 = build_simple("A1")
A1aff = build_affine(A1)
ALPHA = AffRoot("real", (F(2),), 0)


def _dense(b, c, lo=-6, hi=6):
    return dense_sl2(DenseSL2Params(F(b), F(c)), DegreeWindow(lo, hi))


def _vac_loc(n0_ext=3, depth=2, lam=F(3)):
    return imverma_localized(lam, depth, 2, gen_window=1, n0_ext=n0_ext)


# ------------------------------------------------------------ twist specs


def test_finite_twist_spec_is_an_sl2_triple():
    # every root of four adjoint modules (28 roots): with h = [e, f] the
    # pair satisfies [h, e] = 2e, [h, f] = -2f, and f spans the root space
    # of -alpha
    seen = 0
    for label in ("A1", "A2", "A3", "C2"):
        g = build_simple(label)
        M = adjoint_rep(g)
        for alpha in g.roots:
            spec = make_twist_spec(M, alpha, F(1, 3))
            e, f = spec.e_elt, spec.f_elt
            h = g.bracket(e, f)
            assert g.bracket(h, e) == e.scale(2), (label, alpha)
            assert g.bracket(h, f) == f.scale(-2), (label, alpha)
            neg = tuple(-a for a in alpha)
            assert [g.weight_of[name] for name in f.c] == [neg], (label, alpha)
            seen += 1
    assert seen == 28


# ------------------------------------------------------------ theta series


def test_twist_spec_dense():
    M = _dense(F(1, 2), 3)
    spec = make_twist_spec(M, (F(2),), F(5, 2))
    assert spec.x == F(5, 2)
    assert spec.f_elt.c == {"E21": 1}
    assert spec.e_elt.c == {"E12": 1}
    assert spec.weight == AffWeight((F(2),), _Z, _Z)


def test_f_power_dense():
    M = _dense(F(1, 2), 3)
    spec = make_twist_spec(M, (F(2),), _Z)
    v = {("w", 0): F(1)}
    assert f_power(M, spec.f_elt, v, 2) == {("w", -2): F(1)}
    assert f_power(M, spec.f_elt, v, -2) == {("w", 2): F(1)}
    down = f_power(M, spec.f_elt, v, -3)
    assert f_power(M, spec.f_elt, down, 3) == v
    # an honest step from a masked label raises instead of dropping the
    # terms its empty row would lose: ("w", -3) is masked on -3..3
    edge = _dense(F(1, 2), 3, -3, 3)
    with pytest.raises(BandError, match="truncated route"):
        f_power(edge, spec.f_elt, {("w", -2): F(1)}, 2)


def test_theta_x_zero_is_plain_action():
    M = _dense(F(1, 2), 3)
    spec = make_twist_spec(M, (F(2),), _Z)
    for name in ("E12", "E21", "H1"):
        assert theta_action(M, spec, ("fin", name), ("w", 0)) == M.apply_gen(
            ("fin", name), {("w", 0): F(1)}
        )


def test_theta_integer_is_conjugation():
    # Theta_x(u) v = f^x (u (f^{-x} v)) for integer x, and the twisted module
    # rows agree with that conjugation label by label
    M = _dense(F(1, 2), 3)
    for x in (1, 2):
        spec = make_twist_spec(M, (F(2),), F(x))
        T = twist_module(M, spec)
        for j in (-2, -1, 0, 1):
            v = {("w", j): F(1)}
            for name in ("E12", "E21", "H1"):
                lhs = theta_action(M, spec, ("fin", name), ("w", j))
                inner = M.apply_gen(("fin", name), f_power(M, spec.f_elt, v, -x))
                assert lhs == f_power(M, spec.f_elt, inner, x)
                assert T.action[(("fin", name), ("w", j))] == lhs


def test_theta_half_integer_pin():
    # b = 1/2, c = 3, x = 5/2 at w_0:
    #   e w_0 = 3 w_1, binom(5/2,1)(-h)w_1 = -(5/2)(5/2) w_1,
    #   binom(5/2,2)(-2f)w_2 = (15/8)(-2) w_1, total -7 w_1
    M = _dense(F(1, 2), 3)
    spec = make_twist_spec(M, (F(2),), F(5, 2))
    out = theta_action(M, spec, ("fin", "E12"), ("w", 0))
    assert out == {("w", 1): F(-7)}


def test_theta_band_exhaustion_raises():
    M = _dense(F(1, 2), 3)
    spec = make_twist_spec(M, (F(2),), F(1, 2))
    with pytest.raises(BandError):
        theta_action(M, spec, ("fin", "E12"), ("w", 5))


@pytest.mark.parametrize("label, twisted, bound", [
    ("A1", False, 3), ("A2", False, 3), ("C2", False, 3), ("A2", True, 5),
])
def test_lowering_chains_fill_the_longest_root_string(label, twisted, bound):
    # every generator in degrees -2..2 under every real root vector f of
    # degree -1..1: no chain is longer than the bound, and one is that long
    # (e, h, f on sl2; on twisted A2 a 2 alpha vector down to -2 alpha)
    g = build_simple(label)
    A = build_affine(g, sigma_aut(g) if twisted else None)
    assert A.longest_root_string == bound
    M = GradedModule(A, {}, {}, set(), _Z, [])
    gens = [AffElt(d=1)] + [AffElt({(lab, m): 1}) for m in range(-2, 3) for lab in A.class_labels(m)]
    lengths = {
        len(locfun._lowering_chain(M, sl2_triple(A, root)[1], u))
        for root in roots_window(A, DegreeWindow(-1, 1)) if root.kind == "real"
        for u in gens
    }
    assert max(lengths) == bound
    if not twisted:
        assert g.longest_root_string == bound
        V = adjoint_rep(g)
        assert max(
            len(locfun._lowering_chain(V, make_twist_spec(V, alpha, _Z).f_elt, LieElt({n: 1})))
            for alpha in g.roots for n in g.basis
        ) == bound


def test_a_cartan_f_runs_past_the_bound():
    # a hand-built spec whose f is h: ad(h) e = 2e never dies, and the
    # chain stops at the longest root string of the algebra, named
    M = _dense(F(1, 2), 3)
    good = make_twist_spec(M, (F(2),), F(1, 2))
    spec = dataclasses.replace(good, f_elt=LieElt({"H1": 1}))
    with pytest.raises(IncompatibleData, match=r"ad\(f\)\^3 of LieElt\(1\*E12\).*3 terms"):
        theta_action(M, spec, ("fin", "E12"), ("w", 0))
    with pytest.raises(IncompatibleData, match="longest root string"):
        twist_module(_dense(F(1, 2), 3), spec)
    L = _loop_line()
    h0 = AffElt({("H1", 0): 1})
    spec = dataclasses.replace(make_twist_spec(L, (F(2),), F(1, 2)), f_elt=h0)
    with pytest.raises(IncompatibleData, match=r"ad\(f\)\^3"):
        theta_action(L, spec, ("t", "E12", 1), next(iter(L.weight_of)))


# ---------------------------------------------------------- twisted modules


def test_twist_zero_changes_nothing():
    M = _dense(F(1, 2), 3)
    T = twist_module(M, make_twist_spec(M, (F(2),), _Z))
    assert T.weight_of == M.weight_of
    assert T.action == M.action
    assert T.boundary == M.boundary


def test_twist_module_dense_structure():
    M = _dense(F(1, 2), 3)
    T = twist_module(M, make_twist_spec(M, (F(2),), F(1, 3)))
    for j in range(-6, 7):
        assert T.weight_of[("w", j)] == AffWeight((F(1, 2) + 2 * j + F(2, 3),), _Z, _Z)
    assert check_bracket_compat(T) == []
    assert check_weight_additivity(T) == []
    assert M.boundary <= T.boundary


@settings(max_examples=12, deadline=None)
@given(
    st.fractions(min_value=-2, max_value=2, max_denominator=2),
    st.fractions(min_value=-2, max_value=2, max_denominator=2),
)
def test_twist_composition(x, y):
    # twisting by x then y matches twisting by x + y wherever both stay clean
    M = _dense(F(1, 2), 3)
    T1 = twist_module(twist_module(M, make_twist_spec(M, (F(2),), x)),
                      make_twist_spec(M, (F(2),), y))
    T2 = twist_module(M, make_twist_spec(M, (F(2),), x + y))
    assert T1.weight_of == T2.weight_of
    for lab in M.weight_of:
        if lab in T1.boundary or lab in T2.boundary:
            continue
        for name in ("E12", "E21", "H1"):
            assert T1.action[(("fin", name), lab)] == T2.action[(("fin", name), lab)]


def _loop_line():
    # a dense line tensored with the trivial module, one mode either side
    L0 = _dense(F(1, 2), 3, -4, 4)
    return loop_module(
        A1aff, [L0, finite_dim_sl2(1)], [F(1), F(2)], DegreeWindow(-2, 2),
        gen_window=1,
    )


_BUILDS = pytest.mark.parametrize(
    "build", [lambda: _dense(F(1, 2), 3), _loop_line, _vac_loc],
    ids=["dense", "loop", "vacuum"],
)


def test_twist_untabulated_generator_raises():
    # ad(f t) carries the degree -1 generators to degree -2, which the
    # loop module does not tabulate: an error, not a fully masked module
    M = _loop_line()
    spec = make_twist_spec(M, ((F(2),), 1), F(1, 2))
    with pytest.raises(UntabulatedGenerator, match="not tabulated"):
        twist_module(M, spec)


def test_twist_keeps_a_failed_rung(monkeypatch):
    # a band solve that failed ends the label's ladder and is raised again
    # for every later generator that needs the rung, never retried: one
    # raising solve per label whose rows raise
    M = _loop_line()
    raised, raising_labels = [], set()
    solve, theta = locfun._f_inverse, locfun.theta_action

    def counting_solve(M, f_elt, vec, cache):
        try:
            return solve(M, f_elt, vec, cache)
        except BandError:
            raised.append(vec)
            raise

    def counting_theta(M, spec, X, v, cache=None):
        try:
            return theta(M, spec, X, v, cache)
        except BandError:
            raising_labels.add(v)
            raise

    monkeypatch.setattr(locfun, "_f_inverse", counting_solve)
    monkeypatch.setattr(locfun, "theta_action", counting_theta)
    T = twist_module(M, make_twist_spec(M, (F(2),), F(5, 2)))
    dict(T.action)  # rows are filled on first read
    assert raising_labels <= T.boundary
    assert len(raised) == len(raising_labels) > 0
    # the module's table keeps the failed rungs for every later x
    raised.clear()
    T = twist_module(M, make_twist_spec(M, (F(2),), F(-3, 2)))
    assert raising_labels <= T.boundary
    assert raised == []


@_BUILDS
def test_twist_table_matches_a_fresh_table(build):
    # one module twisted at eight x in turn, its table kept throughout,
    # against the same twist of a freshly built module: rows agree in value
    # and in dict order
    M = build()
    for x in (_Z, F(3, 2), F(2), F(-1), F(-1, 2), F(2), F(5), F(-7, 2)):
        T = twist_module(M, make_twist_spec(M, (F(2),), x))
        N = build()
        assert not N.twist_tables
        U = twist_module(N, make_twist_spec(N, (F(2),), x))
        assert T.weight_of == U.weight_of, x
        assert T.boundary == U.boundary, x
        assert list(T.action) == list(U.action), x
        for key, row in T.action.items():
            assert list(row.items()) == list(U.action[key].items()), (x, key)


@_BUILDS
def test_twist_table_solves_each_band_once(build, monkeypatch):
    # a non-integer x runs every ladder as deep as any x needs, so later
    # twists of the same module by new x solve no band
    M = build()
    twist_module(M, make_twist_spec(M, (F(2),), F(1, 2)))
    solves = []
    solve = locfun._f_inverse

    def counting_solve(M, f_elt, vec, cache):
        solves.append(vec)
        return solve(M, f_elt, vec, cache)

    monkeypatch.setattr(locfun, "_f_inverse", counting_solve)
    for x in (F(-3, 2), F(4), F(-2), F(7, 3), _Z):
        twist_module(M, make_twist_spec(M, (F(2),), x))
    assert solves == []
    N = build()
    twist_module(N, make_twist_spec(N, (F(2),), F(-3, 2)))
    assert solves  # the counter sees the solves of an empty table


@_BUILDS
def test_twist_table_is_outside_equality_and_repr(build):
    M = build()
    # algebras compare by identity, so the copy shares M's
    copy_of_M = copy.deepcopy(M, {id(M.algebra): M.algebra})
    before = repr(M)
    spec = make_twist_spec(M, (F(2),), F(1, 2))
    twist_module(M, spec)
    assert list(M.twist_tables) == [spec.alpha]
    assert M == copy_of_M
    assert repr(M) == before
    assert dataclasses.replace(M, boundary=set(M.boundary)).twist_tables == {}


def test_twist_table_refuses_another_f():
    # the table is keyed by the root alone, so a spec built by hand with a
    # rescaled sl2 pair along that root must not read what the first f filled
    M = _dense(F(1, 2), 3)
    spec = make_twist_spec(M, (F(2),), F(1, 2))
    T = twist_module(M, spec)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.x = F(3, 2)
    other = dataclasses.replace(spec, e_elt=spec.e_elt.scale(2), f_elt=spec.f_elt.scale(F(1, 2)))
    with pytest.raises(IncompatibleData):
        twist_module(M, other)
    with pytest.raises(IncompatibleData):
        theta_action(M, other, ("fin", "E12"), ("w", 0))
    # a spec replaced with a new x keeps no binomials of the old one
    assert spec.binom(3) == gen_binom(F(1, 2), 3)
    again = dataclasses.replace(spec, x=F(1, 2))
    assert again.binom(3) == spec.binom(3)
    assert dataclasses.replace(spec, x=F(5, 2)).binom(3) == gen_binom(F(5, 2), 3)
    assert twist_module(M, again).action == T.action


@_BUILDS
@pytest.mark.parametrize("x, y", [
    (F(1, 2), F(3, 2)), (F(-1, 2), F(2)), (F(3), F(-3, 2)), (F(-2), F(1, 2)),
])
def test_twist_of_a_twist_shares_the_store(build, x, y, monkeypatch):
    # the twist Tx reads M's store, so twisting Tx again gives what a fresh
    # store gives and, with M's store warm, solves no band
    M = build()
    twist_module(M, make_twist_spec(M, (F(2),), F(1, 2)))  # every ladder at full depth
    spec = make_twist_spec(M, (F(2),), x)
    Tx = twist_module(M, spec)
    added = []  # band entries each _f_inverse call adds to its cache
    solve = locfun._f_inverse

    def counting_solve(M, f_elt, vec, cache):
        before = len(cache)
        try:
            return solve(M, f_elt, vec, cache)
        finally:
            added.append(len(cache) - before)

    monkeypatch.setattr(locfun, "_f_inverse", counting_solve)
    T = twist_module(Tx, make_twist_spec(Tx, (F(2),), y))
    assert sum(added) == 0
    assert Tx.twist_tables[spec.alpha][0] is M.twist_tables[spec.alpha][0]
    fresh = dataclasses.replace(Tx)
    assert not fresh.twist_tables
    U = twist_module(fresh, make_twist_spec(fresh, (F(2),), y))
    assert sum(added) > 0  # the counter sees the solves of an empty store
    assert T.weight_of == U.weight_of
    assert T.boundary == U.boundary
    assert list(T.action) == list(U.action)
    for key, row in T.action.items():
        assert list(row.items()) == list(U.action[key].items()), key


def _oracle_twist(M, spec):
    """Weights, rows and mask of M's twist by spec.x, summed term by term.

    The row of u at v is sum_i binom(x, i) ad(f)^i(u) . f^{-i} v, cut after
    i = x for x in N: ad(f)^i(u) by M.bracket, f^{-i} v by f_power with a
    fresh store for every power, the sum a plain one.  A failed power gives
    an empty row and masks v; so does a power that reads a masked label.
    """
    x, f, aw = spec.x, spec.f_elt, spec.weight
    weight_of = {
        lab: AffWeight(tuple(a + x * b for a, b in zip(w.fin, aw.fin)), w.d + x * aw.d, w.k + x * aw.k)
        for lab, w in M.weight_of.items()
    }
    chains = {}
    for gk in M.gens:
        chain = [M.gen_elt(gk)]
        while not (u := M.bracket(f, chain[-1])).is_zero():
            chain.append(u)
        chains[gk] = chain[: int(x) + 1] if x.denominator == 1 and x >= 0 else chain
    depth = max(len(chain) for chain in chains.values())
    action, boundary = {}, set(M.boundary)
    for lab in M.weight_of:
        downs = []
        for i in range(depth):
            try:
                downs.append(f_power(M, f, {lab: F(1)}, -i))
            except BandError:
                break
        for gk, chain in chains.items():
            if gk == "K":
                action[(gk, lab)] = M.action[(gk, lab)]
                continue
            if len(chain) > len(downs):
                action[(gk, lab)] = {}
                boundary.add(lab)
                continue
            row = {}
            for i, u in enumerate(chain):
                if downs[i].keys() & M.boundary:
                    boundary.add(lab)
                for t, c in M.apply_elt(u, downs[i]).items():
                    row[t] = row.get(t, _Z) + gen_binom(x, i) * c
            action[(gk, lab)] = {t: c for t, c in row.items() if c}
    return weight_of, action, boundary


def _assert_twist_is_the_oracle(T, M, spec):
    weight_of, action, boundary = _oracle_twist(M, spec)
    assert list(T.weight_of.items()) == list(weight_of.items())
    assert list(T.action) == list(action)
    for key, row in T.action.items():
        assert row == action[key], key
        assert all(type(c) is F and c for c in row.values()), key
    assert T.boundary == boundary


_ORACLE_BUILDS = {
    "dense": (lambda: _dense(F(1, 2), 3, -5, 5), (F(2),)),
    "dense_b2": (lambda: _dense(2, 1, -4, 4), (F(2),)),
    "loop": (_loop_line, (F(2),)),
    "imaginary_verma": (_vac_loc, ALPHA),
    "finite_dim": (lambda: finite_dim_sl2(4), (F(2),)),
}


@pytest.mark.parametrize("name", list(_ORACLE_BUILDS))
@pytest.mark.parametrize(
    "x, y", [(F(2), F(-1, 2)), (F(-3, 2), F(1)), (_Z, F(5, 2)), (F(-1), F(3, 2))]
)
def test_twist_rows_match_the_term_by_term_oracle(name, x, y):
    # every row, weight and masked label of twist_module, from a cold table,
    # from a warm one and on a twist of a twist, against the plain series
    build, alpha = _ORACLE_BUILDS[name]
    M = build()
    spec_x, spec_y = make_twist_spec(M, alpha, x), make_twist_spec(M, alpha, y)
    Tx = twist_module(M, spec_x)  # cold table
    _assert_twist_is_the_oracle(Tx, M, spec_x)
    assert Tx.boundary - M.boundary or not x  # the window edge really truncates
    _assert_twist_is_the_oracle(twist_module(M, spec_y), M, spec_y)  # warm
    _assert_twist_is_the_oracle(twist_module(M, spec_x), M, spec_x)
    spec_xy = make_twist_spec(Tx, alpha, y)
    _assert_twist_is_the_oracle(twist_module(Tx, spec_xy), Tx, spec_xy)


def _eager_twist(M, spec):
    """M's twist by spec.x with every row evaluated up front, as twist_module
    did before its rows were filled on first read; kept here as the oracle.
    A row whose series leaves the window is {} and masks its label, as does
    a rung 1 <= i < depth of the label's ladder that meets M's mask."""
    weight_of = dict.fromkeys(M.weight_of)
    for w, labs in M.weights.items():
        tw = locfun._wshift(w, spec.weight, spec.x)
        for lab in labs:
            weight_of[lab] = tw
    action = {}
    boundary = set(M.boundary)
    table = locfun.twist_table(M, spec)
    store = table[0]
    depth = None
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
        if failed or depth > 1 and any(
            not M.boundary.isdisjoint(rung) for rung in store.ladders[lab][1:depth]
        ):
            boundary.add(lab)
    T = GradedModule(M.algebra, weight_of, action, boundary, M.k_value, list(M.gens))
    f_keys = [("fin", key) if M.kind == "fin" else ("t",) + key for key in spec.f_elt.c]
    if all(len(store.chains.get(gk, ())) == 1 for gk in f_keys):
        T.twist_tables[spec.alpha] = (store, {})
    return T


def _assert_same_twist(T, U, rng):
    # rows are read in a shuffled order, each compared with its key order
    assert list(T.weight_of.items()) == list(U.weight_of.items())
    assert T.boundary == U.boundary
    keys = list(U.action)
    rng.shuffle(keys)
    for key in keys:
        assert list(T.action[key].items()) == list(U.action[key].items()), key
    assert list(T.action) == list(U.action)


@_BUILDS
def test_twisted_rows_equal_the_eager_twist(build):
    # T on one module, its table kept from x to x; U on a fresh module
    rng = random.Random(3)
    M, N = build(), build()
    for x in (_Z, F(2), F(-1), F(3, 2), F(-5, 2)):
        T = twist_module(M, make_twist_spec(M, (F(2),), x))
        U = _eager_twist(N, make_twist_spec(N, (F(2),), x))
        _assert_same_twist(T, U, rng)
    # a twist of a twist reads its parent's rows on first read too
    Tx = twist_module(M, make_twist_spec(M, (F(2),), F(3, 2)))
    Ux = _eager_twist(N, make_twist_spec(N, (F(2),), F(3, 2)))
    T = twist_module(Tx, make_twist_spec(Tx, (F(2),), F(-5, 2)))
    U = _eager_twist(Ux, make_twist_spec(Ux, (F(2),), F(-5, 2)))
    _assert_same_twist(T, U, rng)


def test_building_a_twisted_module_fills_no_row(monkeypatch):
    M = _loop_line()
    calls = []
    theta = locfun.theta_action

    def counting_theta(M, spec, X, v, cache=None):
        calls.append((X, v))
        return theta(M, spec, X, v, cache)

    monkeypatch.setattr(locfun, "theta_action", counting_theta)
    T = twist_module(M, make_twist_spec(M, (F(2),), F(1, 2)))
    assert T.boundary - M.boundary and len(T.boundary) < len(T.weight_of)
    assert calls == [] and T.action._rows == {}
    # iteration yields keys, and membership and len read no row
    assert len(list(T.action)) == len(T.action) and T.action._rows == {}
    lab = next(l for l in T.weight_of if l not in T.boundary)
    assert (("t", "E21", 1), lab) in T.action and T.action._rows == {}
    # one read fills exactly that row, and a second read fills nothing more
    gk = ("t", "E12", 0)
    row = T.action[(gk, lab)]
    assert calls == [(gk, lab)] and list(T.action._rows) == [(gk, lab)]
    assert T.action[(gk, lab)] is row and len(calls) == 1
    # the K row is M's, with no series
    assert T.action[("K", lab)] == M.action[("K", lab)] and len(calls) == 1


def test_an_empty_module_twists_without_error():
    # no label reads a row, so even an f whose lowering chains never end
    # (h, as in test_a_cartan_f_runs_past_the_bound) raises nothing
    M = _dense(F(1, 2), 3)
    spec = dataclasses.replace(make_twist_spec(M, (F(2),), F(1, 2)), f_elt=LieElt({"H1": 1}))
    E = dataclasses.replace(M, weight_of={}, action={}, boundary=set())
    T = twist_module(E, spec)
    assert T.weight_of == {} and dict(T.action) == {} and T.boundary == set()


def test_a_fully_read_twist_releases_its_parent():
    M = _dense(F(1, 2), 3)
    Tx = twist_module(M, make_twist_spec(M, (F(2),), F(1, 2)))
    T = twist_module(Tx, make_twist_spec(Tx, (F(2),), F(3, 2)))
    parent = weakref.ref(Tx)
    del Tx
    gc.collect()
    assert parent() is not None  # T's unread rows still need it
    dict(T.action)
    gc.collect()
    assert parent() is None


def test_bracket_check_finds_a_planted_row_on_a_twist():
    # doubling f t^0 at ((w, -3), (u, 0)) in degree -1 breaks exactly one
    # pair: f t^-1 carries the clean label ((w, -2), (u, 0)) in degree 0
    # there, where f t^0 reads the planted row, and [f t^-1, f t^0] = 0
    M = _loop_line()
    T = twist_module(M, make_twist_spec(M, (F(2),), F(1, 2)))
    assert check_bracket_compat(T) == []
    f0, f_1 = ("t", "E21", 0), ("t", "E21", -1)
    planted = (f0, ((("w", -3), ("u", 0)), -1))
    assert planted[1] not in T.boundary and T.action[planted]
    action = dict(T.action)
    action[planted] = {k: 2 * c for k, c in T.action[planted].items()}
    bad = check_bracket_compat(dataclasses.replace(T, action=action))
    assert bad == [(f_1, f0, ((("w", -2), ("u", 0)), 0))]


# ---------------------------------------------------------------- localize


def test_localize_bijective_returns_module():
    M = _dense(F(1, 2), 3)
    assert localize(M, (F(2),)) is M


def test_localize_builds_each_band_pair_once(monkeypatch):
    # dense line, window -8..8: 15 distinct (src, tgt) band pairs
    M = _dense(F(1, 2), 3, -8, 8)
    built = []
    band_matrix = locfun._band_matrix

    def counting(M, f_elt, src, tgt):
        built.append((tuple(src), tuple(tgt)))
        return band_matrix(M, f_elt, src, tgt)

    monkeypatch.setattr(locfun, "_band_matrix", counting)
    assert localize(M, (F(2),)) is M
    assert len(built) == len(set(built)) == 15


def test_localize_rejects_noninjective():
    with pytest.raises(IncompatibleData):
        localize(finite_dim_sl2(2), (F(2),))


def test_localize_imverma_basis_oracle():
    # basis (n0, mon): mon over nonzero modes |k| <= 2, sum of powers <= 2,
    # |degree| <= 2, n0 >= -3, n0 + length <= 2; weights read lam - 2(n0 + L)
    M = imaginary_verma(F(3), depth=2, length_cap=2, gen_window=1)
    L = _vac_loc()

    mons = [()]
    for k in (-2, -1, 1, 2):
        mons.append(((k, 1),))
        mons.append(((k, 2),))
    for i, ka in enumerate((-2, -1, 1, 2)):
        for kb in (-2, -1, 1, 2)[i + 1:]:
            mons.append(tuple(sorted([(ka, 1), (kb, 1)])))
    expected = {}
    for mon in mons:
        g = sum(k * n for k, n in mon)
        ln = sum(n for _, n in mon)
        if abs(g) > 2 or ln > 2:
            continue
        for n0 in range(-3, 2 - ln + 1):
            w = AffWeight((F(3) - 2 * (n0 + ln),), F(g), _Z)
            expected[w] = expected.get(w, 0) + 1
    assert L.multiplicity_table() == expected

    # the n0 >= 0 slice carries the multiplicities of the unlocalized module
    slice_table = {}
    for lab, w in L.weight_of.items():
        if lab[1] >= 0:
            slice_table[w] = slice_table.get(w, 0) + 1
    assert slice_table == M.multiplicity_table()

    assert check_bracket_compat(L) == []
    assert check_weight_additivity(L) == []
    assert check_level(L) == []


def test_localize_idempotent():
    # imverma_localized hands out only modules the bijectivity check accepts
    for n0_ext in (2, 3, 6):
        L = _vac_loc(n0_ext)
        assert localize(L, ALPHA) is L


def test_localize_refuses_a_short_extent():
    # at n0_ext = 1 a band with one preimage label still has three labels
    reason = r"band at weight \(1; d=0, k=0\) is not square: 1 source labels, 3 target"
    M = imaginary_verma(F(3), depth=2, length_cap=2, gen_window=1, n0_ext=1)
    with pytest.raises(IncompatibleData, match=reason):
        localize(M, ALPHA)
    with pytest.raises(IncompatibleData, match=reason):
        _vac_loc(1)


def test_localized_commutation_line():
    # e_0 f_0^{n0} vac = n0 (lam + 1 - n0) f_0^{n0-1} vac for any integer n0
    L = _vac_loc()
    for n0 in (-2, -1, 0, 1):
        out = L.apply_gen(("t", "E12", 0), {("m", n0, ()): F(1)})
        c = n0 * (F(3) + 1 - n0)
        assert out == ({("m", n0 - 1, ()): F(c)} if c else {})


def test_localize_needs_a_rule():
    # non-bijective lowering is an error, never a rebuilt module: the
    # vacuum's band has no preimage band without negative zero-mode powers
    M = imaginary_verma(F(3), depth=2, length_cap=2, gen_window=1)
    with pytest.raises(IncompatibleData, match=r"band at weight \(3; d=0, k=0\) has no preimage"):
        localize(M, ALPHA)


# ------------------------------------------------------- twist parameters


def _w1_coefficient(M, x):
    """The coefficient at w_1 of Theta_{-x}(e) . w_0 on a dense line M, that
    is of e (f^x w_0) along f^{x-1} w_0; raises if the row leaves w_1."""
    row = theta_action(M, make_twist_spec(M, (F(2),), -x), ("fin", "E12"), ("w", 0))
    assert row.keys() <= {("w", 1)}, (x, row)
    return row.get(("w", 1), _Z)


_X_GRID = sorted({F(n, d) for d in (1, 2, 3, 4) for n in range(-4 * d, 4 * d + 1)})


def test_find_twist_parameter_dense():
    # e(f^x w_0) carries c + (b+1)x - x^2; b = 1/2, c = 55/16 has the roots
    # -5/4 and 11/4, and no other x of the grid kills the row
    M = _dense(F(1, 2), F(55, 16))
    assert _w1_coefficient(M, F(1, 2)) == F(63, 16)
    roots = []
    for x in _X_GRID:
        got = _w1_coefficient(M, x)
        assert got == F(55, 16) + F(3, 2) * x - x * x, x
        if not got:
            roots.append(x)
    assert roots == [F(-5, 4), F(11, 4)]


def test_find_twist_parameter_irrational():
    # b = 0, c = 1: the quadratic 1 + x - x^2 has discriminant 5, so no
    # rational x kills the row
    M = _dense(F(0), F(1))
    for x in _X_GRID:
        got = _w1_coefficient(M, x)
        assert got == 1 + x - x * x and got, x


_VAC_LAMS = [F(3), F(0), F(-1), F(-2), F(1, 2), F(-7, 3), F(5)]


@pytest.mark.parametrize("lam", _VAC_LAMS, ids=str)
def test_find_twist_parameter_vacuum(lam):
    # one e_0 step across f_0^x on the localized vacuum must carry the closed
    # form x(lam + 1 - x): e_0 vac = 0 makes x = 0 a root, the other is
    # lam + 1 (a double root at lam = -1), and the walk vanishes at both
    for x in (F(0), lam + 1, F(5, 2), F(-3, 2)):
        want = x * (lam + 1 - x)
        assert efloc_walk(lam, x, 1) == [efloc_product(lam, x, 1)] == [want], x
        assert want or x in (0, lam + 1)


# ------------------------------------------------------------ e-f products


def test_efloc_product_values():
    x = F(5, 2)
    assert efloc_product(F(3), x, 0) == 1
    assert efloc_product(F(3), x, 1) == F(15, 4)
    assert efloc_product(F(3), x, 2) == F(225, 16)
    assert efloc_product(F(3), x, 3) == F(1575, 64)
    assert efloc_product(F(3), x, 4) == F(-14175, 256)


def test_efloc_product_rejects_a_negative_length():
    # the same input efloc_walk refuses
    for side in (efloc_product, efloc_walk):
        with pytest.raises(ValueError, match="nonnegative"):
            side(F(3), F(5, 2), -1)


def test_efloc_admissible():
    assert efloc_admissible(F(3), F(5, 2)) is True
    assert efloc_admissible(F(3), F(1, 2)) is True
    assert efloc_admissible(F(3), F(4)) is False   # 4 in (lam + 1) + Z
    assert efloc_admissible(F(3), F(-2)) is False  # -2 in 0 + Z


@pytest.mark.parametrize("lam", _VAC_LAMS, ids=str)
def test_efloc_admissible_is_nonvanishing_along_shifts(lam):
    # admissible x: no product vanishes for any shift x + l; inadmissible x:
    # some shift and length in the same range hit a root of p
    for den in (1, 2, 3):
        for num in range(-3 * den, 3 * den + 1):
            x = F(num, den)
            zero = any(
                efloc_product(lam, x + l, k) == 0
                for l in range(-5, 6)
                for k in range(1, 7)
            )
            assert zero is not efloc_admissible(lam, x), x


def test_efloc_two_paths_agree():
    # walk e_0 through the twisted localized module and compare each step
    # against the closed product of quadratic values
    x = F(5, 2)
    assert efloc_walk(F(3), x, 4) == [efloc_product(F(3), x, k) for k in range(1, 5)]


def _whole_module_walk(L, x, k):
    """efloc_walk's reference: twist every label of the localized vacuum L by
    -x, then walk e_0 k times through the twisted module's stored rows."""
    T = twist_module(L, make_twist_spec(L, locfun._ZERO_MODE, -x))
    vec, out = {("m", 0, ()): F(1)}, []
    for j in range(1, k + 1):
        vec = T.apply_gen(("t", "E12", 0), vec)
        lab = ("m", -j, ())
        out.append(vec.get(lab, F(0)) if vec.keys() <= {lab} else None)
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_efloc_walk_reads_the_rows_of_the_whole_twisted_module(k):
    # the walk reads only the rows it stands on, and must give the same
    # coefficients and the same None as the walk through the whole module
    xs = [F(s * n, 2) for n in (1, 3, 5) for s in (1, -1)]
    for lam in range(-3, 5):
        L = imverma_localized(F(lam), 2, 2, gen_window=1, n0_ext=2 * k)
        for x in xs:
            assert efloc_walk(F(lam), x, k) == _whole_module_walk(L, x, k), (lam, x)


def test_efloc_walk_reads_a_failed_band_solve_as_an_empty_row(monkeypatch):
    # twist_module stores {} for a row whose band solve fails; the walk
    # reads such a row the same way
    real = locfun.theta_action

    def failing(M, spec, X, v, cache=None):
        if (X, v) == (("t", "E12", 0), ("m", -1, ())):
            raise BandError("planted")
        return real(M, spec, X, v, cache)

    monkeypatch.setattr(locfun, "theta_action", failing)
    x = F(5, 2)
    L = imverma_localized(F(3), 2, 2, gen_window=1, n0_ext=4)
    got = efloc_walk(F(3), x, 2)
    assert got == _whole_module_walk(L, x, 2) == [efloc_product(F(3), x, 1), 0]


def test_efloc_walk_builds_the_vacuum_once(monkeypatch):
    calls = []
    real = locfun.imaginary_verma

    def counting(*args, **kwargs):
        calls.append(kwargs.get("n0_ext"))
        return real(*args, **kwargs)

    monkeypatch.setattr(locfun, "imaginary_verma", counting)
    x = F(5, 2)
    assert efloc_walk(F(3), x, 3) == [efloc_product(F(3), x, k) for k in range(1, 4)]
    assert calls == [6]


def test_efloc_walk_of_length_zero_is_empty():
    assert efloc_walk(F(3), F(5, 2), 0) == []


def test_efloc_walk_rejects_a_negative_length():
    with pytest.raises(ValueError, match="nonnegative"):
        efloc_walk(F(3), F(5, 2), -1)


def test_efloc_walk_reports_a_step_off_the_line(monkeypatch):
    # a twisted e_0 row that leaves the line ("m", -j, ()) gives None at that
    # step, not the coefficient it happens to carry there
    real = locfun.theta_action

    def noisy(M, spec, X, v, cache=None):
        row = real(M, spec, X, v, cache)
        if (X, v) == (("t", "E12", 0), ("m", -1, ())):
            row = {**row, ("m", -1, ((1, 1),)): F(1)}
        return row

    monkeypatch.setattr(locfun, "theta_action", noisy)
    x = F(5, 2)
    got = efloc_walk(F(3), x, 2)
    assert got[0] == efloc_product(F(3), x, 1)
    assert got[1] is None


# --------------------------------------------------- loop module inversion


def _loop_module(r):
    """The loop module of a dense line and the 3-dimensional sl2 module at
    the scalars 3 and 2, with the lowering letter E21 t^r."""
    L0 = dense_sl2(DenseSL2Params(F(1, 2), F(3)), DegreeWindow(-8, 8))
    M = loop_module(A1aff, [L0, finite_dim_sl2(2)], [F(3), F(2)], DegreeWindow(-6, 6), gen_window=3)
    return M, AffElt({("E21", r): F(1)})


def test_loop_iso_nonpositive_is_honest():
    M, f = _loop_module(1)
    w = ((("w", 0), ("u", 0)), 0)
    assert f_power(M, f, {w: F(1)}, 0) == {w: F(1)}
    two = M.apply_elt(f, M.apply_elt(f, {w: F(1)}))
    assert f_power(M, f, {w: F(1)}, 2) == two


def test_loop_iso_single_inverse_pin():
    # (f t)^{-1}(w_0 x u_0 x t^0) expands along f-powers in the second factor:
    # multinom(-1; i) = (-1)^i, evaluation scalars 3 and 2
    M, f = _loop_module(1)
    w = ((("w", 0), ("u", 0)), 0)
    out = f_power(M, f, {w: F(1)}, -1)
    assert out == {
        ((("w", 1), ("u", 0)), -1): F(1, 3),
        ((("w", 2), ("u", 1)), -1): F(-2, 9),
        ((("w", 3), ("u", 2)), -1): F(4, 27),
    }
    # the honest generator undoes the formal inverse
    assert M.apply_elt(f, out) == {w: F(1)}


def test_loop_iso_equivariance():
    # u . f^{-1} w = f^{-1} (Theta_1(u) . w) over a grid of generators and
    # basis vectors (243 checks for each r), f = f_alpha of the root
    # (alpha, -r); acceptance check 8 runs the same rule on a smaller factor
    for r in (0, 1):
        M, _ = _loop_module(r)
        spec = make_twist_spec(M, ((F(2),), -r), 1)
        bands = locfun.twist_table(M, spec)[0].bands
        for name in ("E12", "E21", "H1"):
            for n in (-1, 0, 1):
                gk = ("t", name, n)
                for j in (-1, 0, 1):
                    for i in (0, 1, 2):
                        for s in (-1, 0, 1):
                            w = ((("w", j), ("u", i)), s)
                            lhs = M.apply_gen(gk, f_power(M, spec.f_elt, {w: F(1)}, -1, bands))
                            theta = theta_action(M, spec, gk, w)
                            assert lhs == f_power(M, spec.f_elt, theta, -1, bands), (r, gk, w)


def test_loop_iso_inverse_roundtrip():
    # f^N f^{-N} w = w and f^{-N} f^N w = w for N = 0..2 on every interior
    # label of the -8..8 dense factor; at N = 3 the honest steps would meet
    # masked labels, which f_power refuses
    M, f = _loop_module(1)
    for N in range(3):
        for j in range(-2, 3):
            for i in range(3):
                for s in (-1, 0, 1):
                    v = {((("w", j), ("u", i)), s): F(1)}
                    assert f_power(M, f, f_power(M, f, v, -N), N) == v
                    assert f_power(M, f, f_power(M, f, v, N), -N) == v


# ------------------------------------------------- induction and twisting


A2 = build_simple("A2")
A2aff = build_affine(A2)


def _probe_setup(jlo=-3, jhi=3):
    P = assemble_parabolic(
        A2aff, make_flag(A2aff, (F(1), F(2), F(5))), DegreeWindow(-1, 1)
    )
    S = levi_dense_module(
        P, DenseSL2Params(F(1, 2), F(3)), DegreeWindow(jlo, jhi),
        base_fin=(F(1, 2), F(4)),
    )
    return P, S


def test_induction_commutes_zero_and_integer():
    P, S = _probe_setup()
    assert induction_commutes_probe(P, S, F(0), 3) is True
    assert induction_commutes_probe(P, S, F(1), 3) is True


def test_induction_commutes_half():
    P, S = _probe_setup()
    assert induction_commutes_probe(P, S, F(1, 2), 3) is True


@pytest.mark.parametrize("scale", [F(2), F(-1)])
def test_induction_probe_sees_a_wrong_theta_row(scale, monkeypatch):
    # a negative control: with every Theta row scaled (the Levi twist's and
    # the probe's own series alike) the two sides no longer agree, so the
    # probe that passes above must fail
    theta = locfun.theta_action

    def scaled_theta(*args):
        return {lab: scale * c for lab, c in theta(*args).items()}

    monkeypatch.setattr(locfun, "theta_action", scaled_theta)
    P, S = _probe_setup()
    assert induction_commutes_probe(P, S, F(1), 3) is False
    assert induction_commutes_probe(P, S, F(1, 2), 3) is False


def test_induction_probe_needs_depth():
    P, S = _probe_setup(-1, 1)
    with pytest.raises(IncompatibleData):
        induction_commutes_probe(P, S, F(1, 2), 2)


# ------------------------------------------------------- support geometry


def test_twisted_localized_support():
    # Supp of the twisted localization sits in (Supp M + Z_{>=0} alpha) + x alpha
    x = F(1, 3)
    M = imaginary_verma(F(3), depth=2, length_cap=2, gen_window=1)
    L = _vac_loc()
    T = twist_module(L, make_twist_spec(L, ALPHA, x))
    allowed = set()
    for w in M.weights:
        for k in range(0, 4):
            allowed.add(AffWeight((w.fin[0] + 2 * k + 2 * x,), w.d, w.k))
    assert set(T.weights) <= allowed
    assert check_bracket_compat(T) == []
    assert check_weight_additivity(T) == []


# ------------------------------------------------------------- twist laws


def test_twist_laws_compare_no_brackets_on_an_all_masked_twist():
    # a one-label dense line is all mask: its twist has no clean label pair
    M = _dense(F(1, 2), F(3), 0, 0)
    assert set(M.weight_of) == M.boundary
    laws = locfun.twist_laws(M, (F(2),), F(1, 2), F(3, 2), 2, -2, -1, list(M.weight_of))
    assert laws["twist_respects_brackets"] == (0, 0)


def test_twist_laws_powers_reuse_the_twist_table(monkeypatch):
    # one twist_laws sample on the acceptance dense line; band solves are
    # counted as new band entries in the cache each _f_inverse call fills
    import affinekit.locfun as lf

    real_inverse, real_power = lf._f_inverse, lf.f_power
    solves = {"all": 0, "f_power": 0}
    in_power = []

    def counting_inverse(M, f_elt, vec, cache):
        before = len(cache)
        try:
            return real_inverse(M, f_elt, vec, cache)
        finally:
            new = len(cache) - before
            solves["all"] += new
            if in_power:
                solves["f_power"] += new

    def run(power):
        def counting_power(*args):
            in_power.append(1)
            try:
                return power(*args)
            finally:
                in_power.pop()

        monkeypatch.setattr(lf, "f_power", counting_power)
        M = dense_sl2(DenseSL2Params(F(1, 2), F(3)), DegreeWindow(-8, 8))
        labs = sorted(M.weight_of)[3:15:2]
        solves.update(all=0, f_power=0)
        laws = lf.twist_laws(M, (F(2),), F(1, 2), F(3, 2), 2, -2, -1, labs)
        return laws, dict(solves)

    monkeypatch.setattr(lf, "_f_inverse", counting_inverse)
    fresh, fresh_solves = run(lambda M, f_elt, v, p, cache=None: real_power(M, f_elt, v, p))
    reused, reused_solves = run(real_power)
    assert reused == fresh
    assert [n for n, failed in fresh.values()] == [34, 17, 6, 1]
    assert all(failed == 0 for _, failed in fresh.values())
    # every band the honest inverse powers need was solved for the twists,
    # and the twist of the twist solves none: it reads its parent's store
    assert fresh_solves == {"all": 64, "f_power": 48}
    assert reused_solves == {"all": 16, "f_power": 0}
