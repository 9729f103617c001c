"""Tests for affine Lie algebras over degree windows, untwisted and twisted."""

import random
from fractions import Fraction as F

import pytest

from affinekit.affine import (
    AffElt,
    DegreeWindow,
    aff_bracket,
    aff_form,
    build_affine,
    heisenberg_check,
    root_space,
    roots_window,
    sl2_triple,
)
from affinekit.finlie import LieElt, build_simple, sigma_aut


@pytest.fixture(scope="module")
def algebras():
    out = {}
    for t in ("A1", "A2", "A3", "C2"):
        out[t + "u"] = build_affine(build_simple(t))
    g = build_simple("A2")
    out["A2t"] = build_affine(g, twist=sigma_aut(g))
    return out


def _gen(A, label, m, coeff=1):
    return AffElt({(label, m): coeff})


# ------------------------------------------------------------- brackets


def test_bracket_examples_a1(algebras):
    A = algebras["A1u"]
    e_t = _gen(A, "E12", 1)
    f_mt = _gen(A, "E21", -1)
    out = aff_bracket(A, e_t, f_mt)
    # [e x t, f x t^-1] = h + (e,f) K with (e,f) = 1
    assert out == AffElt({("H1", 0): 1}, k=1)
    h2 = _gen(A, "H1", 2)
    hm2 = _gen(A, "H1", -2)
    assert aff_bracket(A, h2, hm2) == AffElt({}, k=4)  # 2 (h,h) K = 4 K
    # D acts as the degree derivation, K is central
    x = _gen(A, "E12", 3)
    assert aff_bracket(A, AffElt({}, d=1), x) == x.scale(3)
    assert aff_bracket(A, x, AffElt({}, d=1)) == x.scale(-3)
    assert aff_bracket(A, AffElt({}, k=1), x).is_zero()
    assert aff_bracket(A, AffElt({}, d=1), AffElt({}, k=1)).is_zero()


@pytest.mark.parametrize("key", ["A1u", "A2u", "A2t"])
def test_basis_bracket_matches_aff_bracket(algebras, key):
    A = algebras[key]
    basis = [(lab, m) for m in range(-2, 3) for lab in A.class_labels(m)]
    for a in basis:
        for b in basis:
            want = aff_bracket(A, AffElt({a: F(1)}), AffElt({b: F(1)}))
            assert A.basis_bracket(a, b) == want, (a, b)
            assert A.basis_bracket(a, b) is A.basis_bracket(a, b)


def _random_elt(A, rng, span=3):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        m = rng.randint(-span, span)
        label = rng.choice(A.class_labels(m))
        terms[(label, m)] = F(rng.randint(-4, 4))
    return AffElt(terms, d=F(rng.randint(-2, 2)), k=F(rng.randint(-2, 2)))


def _fin_part(A, z, p):
    """The degree-p loop part of z as a finite-algebra element."""
    out = LieElt({})
    for (lab, m), c in z.c.items():
        if m == p:
            out = out + A.label_elt(m, lab).scale(c)
    return out


@pytest.mark.parametrize("key", ["A1u", "A2u", "C2u", "A2t"])
def test_aff_bracket_matches_untabulated_formula(key):
    # a fresh algebra, so the table is filled by the elements below
    g = build_simple(key[:2])
    A = build_affine(g, twist=sigma_aut(g) if key == "A2t" else None)
    rng = random.Random(13)
    for _ in range(40):
        x, y = _random_elt(A, rng), _random_elt(A, rng)
        # [x, y] written out term by term, with no table and no expansion
        loops, k = {}, F(0)
        for (la, m), cx in x.c.items():
            u = A.label_elt(m, la)
            for (lb, n), cy in y.c.items():
                v = A.label_elt(n, lb)
                loops[m + n] = loops.get(m + n, LieElt({})) + g.bracket(u, v).scale(cx * cy)
                if m == -n:
                    k += cx * cy * m * g.form(u, v)
        for (lb, n), cy in y.c.items():
            loops[n] = loops.get(n, LieElt({})) + A.label_elt(n, lb).scale(x.d * n * cy)
        for (la, m), cx in x.c.items():
            loops[m] = loops.get(m, LieElt({})) + A.label_elt(m, la).scale(-y.d * m * cx)
        z = aff_bracket(A, x, y)
        assert z.d == 0 and z.k == k
        assert {m for _, m in z.c} <= set(loops)
        for p, want in loops.items():
            assert _fin_part(A, z, p) == want, (key, x, y, p)
        form = x.d * y.k + x.k * y.d
        for (la, m), cx in x.c.items():
            for (lb, n), cy in y.c.items():
                if m == -n:
                    form += cx * cy * g.form(A.label_elt(m, la), A.label_elt(n, lb))
        assert aff_form(A, x, y) == form


def test_twisted_expand_rejects_other_class(algebras):
    A = algebras["A2t"]
    assert A.expand(1, LieElt({"E13": 1})) == [("E13", 1)]
    assert A.expand(0, LieElt({"H1": 1, "H2": 1})) == [("H1+H2", 1)]
    for m, v in ((0, LieElt({"E13": 1})), (1, LieElt({"H1": 1})), (2, LieElt({"E12": 1}))):
        with pytest.raises(ValueError, match="does not lie in degree class"):
            A.expand(m, v)


def test_antisymmetry_and_jacobi_random(algebras):
    rng = random.Random(7)
    for key in ("A1u", "A2u", "C2u", "A2t"):
        A = algebras[key]
        for _ in range(60):
            x, y, z = (_random_elt(A, rng) for _ in range(3))
            assert (aff_bracket(A, x, y) + aff_bracket(A, y, x)).is_zero()
            s = (
                aff_bracket(A, x, aff_bracket(A, y, z))
                + aff_bracket(A, y, aff_bracket(A, z, x))
                + aff_bracket(A, z, aff_bracket(A, x, y))
            )
            assert s.is_zero(), key


def test_form_examples_and_invariance(algebras):
    A = algebras["A1u"]
    assert aff_form(A, _gen(A, "E12", 2), _gen(A, "E21", -2)) == 1
    assert aff_form(A, _gen(A, "E12", 2), _gen(A, "E21", -1)) == 0
    assert aff_form(A, AffElt({}, d=1), AffElt({}, k=1)) == 1
    assert aff_form(A, AffElt({}, d=1), AffElt({}, d=1)) == 0
    assert aff_form(A, AffElt({}, k=1), AffElt({}, k=1)) == 0
    assert aff_form(A, AffElt({}, d=1), _gen(A, "H1", 0)) == 0
    rng = random.Random(11)
    for key in ("A1u", "A2u", "A2t"):
        B = algebras[key]
        for _ in range(40):
            x, y, z = (_random_elt(B, rng) for _ in range(3))
            assert aff_form(B, x, y) == aff_form(B, y, x)
            lhs = aff_form(B, aff_bracket(B, x, y), z)
            rhs = aff_form(B, y, aff_bracket(B, x, z))
            assert lhs + rhs == 0, key


def test_twisted_class_content(algebras):
    A = algebras["A2t"]
    assert A.s == 2
    assert len(A.class_labels(0)) == 3
    assert len(A.class_labels(1)) == 5
    # even class closes under bracket, odd x odd lands in even
    x = _gen(A, A.class_labels(1)[0], 1)
    y = _gen(A, A.class_labels(1)[1], 1)
    out = aff_bracket(A, x, y)
    for (lab, m) in out.c:
        assert m == 2
        assert lab in A.class_labels(0)


# ------------------------------------------------------------- roots


def test_roots_window_a1(algebras):
    A = algebras["A1u"]
    roots = roots_window(A, DegreeWindow(-2, 2))
    real = [r for r in roots if r.kind == "real"]
    imag = [r for r in roots if r.kind == "imaginary"]
    assert len(real) == 10
    assert len(imag) == 4
    assert all(r.mult == 1 for r in real)
    assert all(r.mult == 1 for r in imag)
    assert all(r.n != 0 for r in imag)


def test_roots_window_a2_rank_mult(algebras):
    A = algebras["A2u"]
    roots = roots_window(A, DegreeWindow(-1, 1))
    imag = [r for r in roots if r.kind == "imaginary"]
    assert {r.n for r in imag} == {-1, 1}
    assert all(r.mult == 2 for r in imag)
    real = [r for r in roots if r.kind == "real"]
    assert len(real) == 6 * 3


def _a2_twisted_oracle(window):
    """Expected twisted root pattern straight from the sigma eigenspaces.

    Works on matrices: class m uses the (-1)^m eigenspace of sigma, the
    weight is the ad-eigenvalue on the coroot 2(H1+H2).
    """
    g = build_simple("A2")
    aut = sigma_aut(g)
    fixed, anti = aut.eigenbasis(g)
    hbeta = LieElt({"H1": 2, "H2": 2})
    expected = {}
    for n in range(window[0], window[1] + 1):
        vecs = fixed if n % 2 == 0 else anti
        weight_counts = {}
        for v in vecs:
            br = g.bracket(hbeta, v)
            if br.is_zero():
                w = F(0)
            else:
                name = next(iter(v.c))
                w = br.c.get(name, F(0)) / v.c[name]
                assert br == v.scale(w)
            weight_counts[w] = weight_counts.get(w, 0) + 1
        for w, cnt in weight_counts.items():
            if w == 0 and n == 0:
                continue  # Cartan, not a root
            if w == 0:
                expected[("imaginary", (F(0),), n)] = cnt
            else:
                expected[("real", (w,), n)] = cnt
    return expected


def test_roots_window_a2_twisted_pattern(algebras):
    A = algebras["A2t"]
    window = (-3, 3)
    got = {
        (r.kind, r.fin, r.n): r.mult for r in roots_window(A, DegreeWindow(*window))
    }
    assert got == _a2_twisted_oracle(window)
    # spot checks: 2beta only at odd n, imaginary mult 1 everywhere
    assert ("real", (F(4),), 1) in got
    assert ("real", (F(4),), 2) not in got
    assert ("real", (F(2),), 2) in got
    assert got[("imaginary", (F(0),), 2)] == 1
    assert got[("imaginary", (F(0),), 3)] == 1


@pytest.mark.parametrize("key", ["A1u", "A2u", "A3u", "C2u", "A2t"])
def test_root_family_degrees_match_is_root(algebras, key):
    A = algebras[key]
    # twisted: a weight can carry one line per degree class
    lines = {}
    for fam in A.root_families():
        lines.setdefault(fam.fin, []).append(fam)
    for fin, fams in lines.items():
        for n in range(-6, 7):
            hits = [fam for fam in fams if fam.degrees(n, n) == [n]]
            assert all(fam.degrees(n, n) in ([], [n]) for fam in fams)
            assert len(hits) == int(A.is_root(fin, n)), (fin, n)
        merged = sorted(n for fam in fams for n in fam.degrees(-6, 6))
        assert merged == [n for n in range(-6, 7) if A.is_root(fin, n)]


@pytest.mark.parametrize("key", ["A1u", "A2u", "A3u", "C2u", "A2t"])
@pytest.mark.parametrize("lo,hi", [(-3, 3), (0, 0), (-1, 4)])
def test_root_families_cover_roots_window(algebras, key, lo, hi):
    A = algebras[key]
    from_families = {
        (fam.fin, n) for fam in A.root_families() for n in fam.degrees(lo, hi)
    }
    assert from_families == {(r.fin, r.n) for r in roots_window(A, DegreeWindow(lo, hi))}


def test_root_space_dims(algebras):
    A = algebras["A2u"]
    for r in roots_window(A, DegreeWindow(-2, 2)):
        gens = root_space(A, r)
        assert len(gens) == r.mult
        for (lab, m) in gens:
            assert m == r.n


def test_real_roots_primitive(algebras):
    # no real root in the window is a rational multiple of another
    # except via negation
    for key in ("A1u", "A2u", "A2t"):
        A = algebras[key]
        real = [r for r in roots_window(A, DegreeWindow(-3, 3)) if r.kind == "real"]
        vecs = [tuple(list(r.fin) + [F(r.n)]) for r in real]
        for i, v in enumerate(vecs):
            for j, w in enumerate(vecs):
                if i == j:
                    continue
                # w = q v for scalar q?
                qs = {wx / vx for vx, wx in zip(v, w) if vx != 0}
                if len(qs) == 1:
                    q = qs.pop()
                    if all(wx == q * vx for vx, wx in zip(v, w)):
                        assert q == -1, (key, v, w)


# ------------------------------------------------------------- sl2 and heisenberg


def test_sl2_triples(algebras):
    for key in ("A1u", "A2u", "C2u", "A2t"):
        A = algebras[key]
        for r in roots_window(A, DegreeWindow(-2, 2)):
            if r.kind != "real":
                continue
            e, f, h = sl2_triple(A, r)
            assert aff_bracket(A, e, f) == h
            assert aff_bracket(A, h, e) == e.scale(2)
            assert aff_bracket(A, h, f) == f.scale(-2)
            # e spans the root space of r
            assert set(m for (_, m) in e.c) == {r.n}
            # h is Cartan plus central
            assert h.d == 0
            for (lab, m) in h.c:
                assert m == 0
                assert A.fin_weight(0, lab) == tuple([F(0)] * A.fin_rank)


def test_sl2_triple_negative_root_convention(algebras):
    A = algebras["A1u"]
    pos = next(
        r for r in roots_window(A, DegreeWindow(0, 0)) if r.fin == (F(2),)
    )
    neg = next(
        r for r in roots_window(A, DegreeWindow(0, 0)) if r.fin == (F(-2),)
    )
    ep, fp, hp = sl2_triple(A, pos)
    en, fn, hn = sl2_triple(A, neg)
    # the generator attached to the negative root is minus the lowering
    # generator of the positive one
    assert en == fp.scale(-1)
    assert hn == hp.scale(-1)


def test_heisenberg(algebras):
    for key in ("A1u", "A2u", "A2t"):
        A = algebras[key]
        assert heisenberg_check(A, DegreeWindow(-3, 3))


def test_heisenberg_values(algebras):
    A = algebras["A1u"]
    h3 = _gen(A, "H1", 3)
    hm3 = _gen(A, "H1", -3)
    assert aff_bracket(A, h3, hm3) == AffElt({}, k=6)
    assert aff_bracket(A, h3, _gen(A, "H1", -2)).is_zero()


def test_degree_window():
    w = DegreeWindow(-2, 3)
    assert list(w) == [-2, -1, 0, 1, 2, 3]
    assert -2 in w and 3 in w and 4 not in w
    with pytest.raises(ValueError):
        DegreeWindow(2, -2)
