"""Tests for the finite-dimensional simple Lie algebras, the A2 involution and
their Weyl groups."""

import itertools
from fractions import Fraction as F

import pytest

from affinekit.affine import DegreeWindow, build_affine
from affinekit.exact import det
from affinekit.finlie import LieElt, build_simple, sigma_aut
from affinekit.rootpar import assemble_parabolic, make_flag, phi_P

TYPES = ["A1", "A2", "A3", "C2"]
DIMS = {"A1": 3, "A2": 8, "A3": 15, "C2": 10}


@pytest.fixture(scope="module")
def algebras():
    return {t: build_simple(t) for t in TYPES}


def test_structure_tables_match_matrix_commutators(algebras):
    # [a, b] = ab - ba and (a, b) = tr(ab) on the defining matrices, with the
    # coordinates of [a, b] solved by sympy against the basis matrices
    sympy = pytest.importorskip("sympy")
    for t in TYPES:
        g = algebras[t]
        mats = {a: sympy.Matrix(g.mats[a]) for a in g.basis}
        B = sympy.Matrix.hstack(*[mats[a].reshape(len(mats[a]), 1) for a in g.basis])
        left_inv = (B.T * B).inv() * B.T
        for a, b in itertools.product(g.basis, repeat=2):
            z = mats[a] * mats[b] - mats[b] * mats[a]
            z = z.reshape(len(z), 1)
            x = left_inv * z
            assert B * x == z
            want = {n: F(int(v.p), int(v.q)) for n, v in zip(g.basis, x) if v}
            row = g.bracket_table[(a, b)]
            assert row == want
            assert list(row) == [n for n in g.basis if n in row]
            form = g.form_table[(a, b)]
            assert type(form) is F
            tr = (mats[a] * mats[b]).trace()
            assert form == F(int(tr.p), int(tr.q))


def test_dimensions(algebras):
    for t in TYPES:
        g = algebras[t]
        assert g.dim == DIMS[t]
        assert len(g.basis) == DIMS[t]


def test_unsupported_label():
    # raised on every call: a failed label is never stored
    for _ in range(2):
        with pytest.raises(ValueError, match="unsupported type label: B2"):
            build_simple("B2")


def test_one_algebra_per_label():
    assert build_simple("A2") is build_simple("A2")
    assert build_simple("A2") is not build_simple("A3")


def test_antisymmetry_exhaustive(algebras):
    for g in algebras.values():
        for a in g.basis:
            for b in g.basis:
                lhs = g.bracket(LieElt({a: 1}), LieElt({b: 1}))
                rhs = g.bracket(LieElt({b: 1}), LieElt({a: 1}))
                assert (lhs + rhs).is_zero()


def test_jacobi_exhaustive(algebras):
    for g in algebras.values():
        elts = {a: LieElt({a: 1}) for a in g.basis}
        for a, b, c in itertools.product(g.basis, repeat=3):
            s = (
                g.bracket(elts[a], g.bracket(elts[b], elts[c]))
                + g.bracket(elts[b], g.bracket(elts[c], elts[a]))
                + g.bracket(elts[c], g.bracket(elts[a], elts[b]))
            )
            assert s.is_zero(), (g.label, a, b, c)


def test_form_symmetric_invariant(algebras):
    for g in algebras.values():
        elts = {a: LieElt({a: 1}) for a in g.basis}
        for a in g.basis:
            for b in g.basis:
                assert g.form(elts[a], elts[b]) == g.form(elts[b], elts[a])
        for a, b, c in itertools.product(g.basis, repeat=3):
            # ([a,b],c) + (b,[a,c]) = 0
            lhs = g.form(g.bracket(elts[a], elts[b]), elts[c])
            rhs = g.form(elts[b], g.bracket(elts[a], elts[c]))
            assert lhs + rhs == 0, (g.label, a, b, c)


def test_form_nondegenerate(algebras):
    for g in algebras.values():
        gram = [[g.form(LieElt({a: 1}), LieElt({b: 1})) for b in g.basis] for a in g.basis]
        assert det(gram) != 0


def test_long_root_normalization(algebras):
    # the invariant form is scaled so that long roots have (alpha,alpha) = 2;
    # untwisted, fin_form reads weights on the coroots of g
    expect_norms = {"A1": {2}, "A2": {2}, "A3": {2}, "C2": {1, 2}}
    for t, g in algebras.items():
        form = build_affine(g).fin_form
        norms = {form(r, r) for r in g.roots}
        assert norms == {F(n) for n in expect_norms[t]}
        assert max(norms) == 2


def test_a1_form_values(algebras):
    g = algebras["A1"]
    e, f = LieElt({"E12": 1}), LieElt({"E21": 1})
    h = g.bracket(e, f)
    assert g.form(e, f) == 1
    assert g.form(e, e) == 0
    assert g.form(h, h) == 2


def test_root_count_and_root_spaces(algebras):
    counts = {"A1": 2, "A2": 6, "A3": 12, "C2": 8}
    for t, g in algebras.items():
        assert len(g.roots) == counts[t]
        assert len(set(g.roots)) == counts[t]
        for r in g.roots:
            name = g.root_vector[r]
            assert g.weight_of[name] == r


def test_chevalley_sl2_relations(algebras):
    for g in algebras.values():
        for r in g.roots:
            e = LieElt({g.root_vector[r]: 1})
            f = LieElt({g.root_vector[tuple(-c for c in r)]: 1})
            h = g.bracket(e, f)
            # h lies in the Cartan
            assert set(h.c) <= set(g.cartan)
            assert g.bracket(h, e) == e.scale(2)
            assert g.bracket(h, f) == f.scale(-2)


# closed-form Cartan matrices a_ij = alpha_j(h_i); C2 has alpha_1 short
CARTAN = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "C2": [[2, -2], [-1, 2]],
}


def test_cartan_matrix_consistency(algebras):
    for t, g in algebras.items():
        form = build_affine(g).fin_form
        for j, alpha in enumerate(g.simple_roots):
            # fw-coordinates of alpha_j are the j-th Cartan matrix column
            assert list(alpha) == [CARTAN[t][i][j] for i in range(g.rank)]
            # and the form gives a_ij = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i)
            for i, beta in enumerate(g.simple_roots):
                assert 2 * form(beta, alpha) / form(beta, beta) == CARTAN[t][i][j]


# ------------------------------------------------------------------- sigma


def test_sigma_order_two(algebras):
    g = algebras["A2"]
    sigma = sigma_aut(g).apply
    for a in g.basis:
        x = LieElt({a: 1})
        assert sigma(sigma(x)) == x


def test_sigma_wrong_algebra(algebras):
    with pytest.raises(ValueError):
        sigma_aut(algebras["A1"]).apply(LieElt({"E12": 1}))


def test_sigma_preserves_bracket_and_form(algebras):
    g = algebras["A2"]
    sigma = sigma_aut(g).apply
    for a in g.basis:
        for b in g.basis:
            x, y = LieElt({a: 1}), LieElt({b: 1})
            assert sigma(g.bracket(x, y)) == g.bracket(sigma(x), sigma(y))
            assert g.form(sigma(x), sigma(y)) == g.form(x, y)


def test_sigma_eigenspace_dims(algebras):
    g = algebras["A2"]
    aut = sigma_aut(g)
    fixed, anti = aut.eigenbasis(g)
    assert len(fixed) == 3
    assert len(anti) == 5
    assert len(fixed) + len(anti) == g.dim


def test_sigma_permutes_roots_fixes_highest_pair(algebras):
    g = algebras["A2"]
    images = set()
    for r in g.roots:
        img = sigma_aut(g).apply(LieElt({g.root_vector[r]: 1}))
        # image is a single basis vector up to sign, hence a root vector
        assert len(img.c) == 1
        name = next(iter(img.c))
        images.add(g.weight_of[name])
    assert images == set(g.roots)
    theta = max(g.roots, key=lambda r: sum(r))  # highest root
    neg_theta = tuple(-c for c in theta)
    for r in (theta, neg_theta):
        img = sigma_aut(g).apply(LieElt({g.root_vector[r]: 1}))
        name = next(iter(img.c))
        assert g.weight_of[name] in (theta, neg_theta)


# ------------------------------------------------------------------- Weyl
# Weyl groups and orbits are the ones phi_P builds for a Levi: the group is
# closed from the Levi base reflections, and Phi_P is the orbit of the other
# base roots.  phi1 = delta^* makes the Levi the whole finite root system, with
# alpha_0 = delta - theta the one base root outside it.


def _full_levi_cone(g):
    A = build_affine(g)
    flag = make_flag(A, (F(0),) * g.rank + (F(1),))
    return A, phi_P(assemble_parabolic(A, flag, DegreeWindow(-1, 1)))


def test_weyl_group_orders(algebras):
    orders = {"A1": 2, "A2": 6, "A3": 24, "C2": 8}
    for t, g in algebras.items():
        assert _full_levi_cone(g)[1].wl_order == orders[t]


def test_weyl_orbit_regular(algebras):
    # theta is regular in A2: its orbit has |W| elements, each reached once;
    # theta is singular in C2: 4 of 8, each reached by its stabilizer of order 2
    for t, size in (("A2", 6), ("C2", 4)):
        cone = _full_levi_cone(algebras[t])[1]
        assert len(cone.phi_P) == size
        assert set(cone.d.values()) == {F(cone.wl_order, size)}


def test_weyl_orbit_closed_and_preserves_form(algebras):
    for t in ("A2", "C2"):
        g = algebras[t]
        A, cone = _full_levi_cone(g)
        (j,) = cone.J
        neg_theta = cone.base[j][0]  # alpha_0 = delta - theta
        for fin, n in cone.phi_P:
            # W fixes delta, permutes the finite roots and keeps their norms
            assert n == 1 and fin in g.roots
            assert A.fin_form(fin, fin) == A.fin_form(neg_theta, neg_theta)


def test_weyl_subgroup(algebras):
    # (1, 2, 5) vanishes on alpha_1 alone: the Levi Weyl group is <s_1>
    g = algebras["A2"]
    A = build_affine(g)
    cone = phi_P(assemble_parabolic(A, make_flag(A, (F(1), F(2), F(5))), DegreeWindow(-1, 1)))
    assert cone.wl_order == 2
    assert [cone.base[i] for i in cone.I] == [(g.simple_roots[0], 0)]
