"""Tests for triangular decompositions, parabolic sets, and the cone certificate."""

import dataclasses
import math
import random
from fractions import Fraction as F

import pytest

from affinekit import rootpar
from affinekit.affine import DegreeWindow, build_affine, roots_window
from affinekit.exact import integer_solve
from affinekit.finlie import build_simple, sigma_aut
from affinekit.rootpar import (
    FunctionalFlag,
    ImproperParabolic,
    ParabolicSet,
    _band_roots,
    assemble_parabolic,
    check_parabolic_axioms,
    classification_certificate,
    classify_parabolic,
    compute_NG,
    flag_value,
    in_QP,
    make_flag,
    phi_P,
    principal_witness,
    random_flag,
    simple_roots_of_positive_system,
    triangular_decomposition,
    verify_classification,
)

W3 = DegreeWindow(-3, 3)


@pytest.fixture(scope="module")
def algebras():
    out = {}
    for t in ("A1", "A2", "A3", "C2"):
        out[t + "u"] = build_affine(build_simple(t))
    g = build_simple("A2")
    out["A2t"] = build_affine(g, twist=sigma_aut(g))
    return out


# ---------------------------------------------------- triangular decomposition


def test_tridecomp_delta_projection(algebras):
    A = algebras["A1u"]
    td = triangular_decomposition(A, (F(0), F(1)), W3)
    assert {(r.fin, r.n) for r in td.zero} == {((F(2),), 0), ((F(-2),), 0)}
    assert all(r.n > 0 for r in td.plus)
    assert all(r.n < 0 for r in td.minus)
    total = len(td.plus) + len(td.zero) + len(td.minus)
    assert total == len(roots_window(A, W3))


def test_tridecomp_generic_empty_kernel(algebras):
    A = algebras["A2u"]
    td = triangular_decomposition(A, (F(1), F(100), F(10007)), W3)
    assert td.zero == []
    assert {(r.fin, r.n) for r in td.minus} == {
        (tuple(-c for c in r.fin), -r.n) for r in td.plus
    }


def test_tridecomp_delta_killed(algebras):
    A = algebras["A1u"]
    td = triangular_decomposition(A, (F(1), F(0)), W3)
    imag = [r for r in roots_window(A, W3) if r.kind == "imaginary"]
    zero_keys = {(r.fin, r.n) for r in td.zero}
    assert all((r.fin, r.n) in zero_keys for r in imag)


# ---------------------------------------------------- root bands


@pytest.mark.parametrize("key", ["A1u", "A2u", "A3u", "C2u", "A2t"])
def test_band_roots_match_window_filter(algebras, key):
    A = algebras[key]
    # |phi(delta)| >= 1 and small entries keep every band inside degrees -30..30
    keys = [(r.fin, r.n) for r in roots_window(A, DegreeWindow(-30, 30))]
    rng = random.Random(31)
    for i in range(60):
        phi = tuple(F(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(A.fin_rank))
        phi += ((1 if i % 2 else -1) * F(rng.randint(2, 6), 2),)
        lo = F(rng.randint(-6, 6), 2)
        hi = lo if i % 3 == 0 else lo + F(rng.randint(0, 8), 2)
        want = [k for k in keys if lo <= flag_value(phi, k[0], k[1]) <= hi]
        assert sorted(_band_roots(A, phi, lo, hi)) == sorted(want), (phi, lo, hi)


# ---------------------------------------------------- flag validation


def test_flag_rejects_zero_phi1(algebras):
    A = algebras["A1u"]
    with pytest.raises(ValueError):
        make_flag(A, (F(0), F(0)))


def test_flag_rejects_phi2_vanishing_on_kernel_span(algebras):
    A = algebras["A1u"]
    # phi1 kills delta; its kernel contains all imaginary roots, and a
    # phi2 proportional to phi1 vanishes on their span
    with pytest.raises(ValueError):
        make_flag(A, (F(1), F(0)), (F(2), F(0)))


def test_flag_accepts_valid(algebras):
    A = algebras["A1u"]
    fl = make_flag(A, (F(1), F(0)), (F(0), F(1)))
    assert isinstance(fl, FunctionalFlag)


# ---------------------------------------------------- assembling parabolics


def test_assemble_without_phi2(algebras):
    A = algebras["A1u"]
    fl = make_flag(A, (F(0), F(1)))
    P = assemble_parabolic(A, fl, W3)
    td = triangular_decomposition(A, fl.phi1, W3)
    expect = {(r.fin, r.n) for r in td.plus} | {(r.fin, r.n) for r in td.zero}
    assert {k for k in P.keys() if P.member_key(k)} == expect


def test_assemble_borel_demand(algebras):
    A = algebras["A1u"]
    fl = make_flag(A, (F(0), F(1)))
    with pytest.raises(ValueError):
        assemble_parabolic(A, fl, W3, require_borel=True)
    # with a refining phi2 the Levi part is empty and the demand is met
    fl2 = make_flag(A, (F(0), F(1)), (F(1), F(0)))
    P = assemble_parabolic(A, fl2, W3, require_borel=True)
    assert P.levi_keys() == []


def test_assemble_generic_no_levi(algebras):
    A = algebras["A2u"]
    fl = make_flag(A, (F(1), F(100), F(10007)))
    P = assemble_parabolic(A, fl, W3)
    assert P.levi_keys() == []
    assert check_parabolic_axioms(P)


# ---------------------------------------------------- axioms


def test_axioms_positive_system(algebras):
    A = algebras["A1u"]
    P = assemble_parabolic(A, make_flag(A, (F(1), F(5))), W3)
    assert check_parabolic_axioms(P)


def test_axioms_fail_on_doctored_set(algebras):
    A = algebras["A1u"]
    P = assemble_parabolic(A, make_flag(A, (F(1), F(5))), W3)
    members = {k: P.member_key(k) for k in P.keys()}
    # remove an interior sum: alpha + delta = (alpha) + (delta)
    key = ((F(2),), 1)
    assert members[key]
    members[key] = False
    from affinekit.rootpar import ParabolicSet

    Q = ParabolicSet(A, None, P.window, members=members)
    assert not check_parabolic_axioms(Q)


def test_axioms_random_flags(algebras):
    rng = random.Random(23)
    for key in ("A1u", "A2u", "C2u", "A2t"):
        A = algebras[key]
        for _ in range(30):
            fl = random_flag(A, rng)
            P = assemble_parabolic(A, fl, W3)
            assert check_parabolic_axioms(P), (key, fl)


@pytest.mark.parametrize("key,phi1", [("A2u", (1, 2, 5)), ("C2u", (1, 0, 3))])
def test_basis_kind_matches_membership(algebras, key, phi1):
    A = algebras[key]
    P = assemble_parabolic(A, make_flag(A, tuple(F(c) for c in phi1)), DegreeWindow(-1, 1))
    assert P.tag == "standard"
    members = dict(P.members)
    seen = set()
    # degrees -3..3 reach past the window, where member falls back to the flag
    for m in range(-3, 4):
        for lab in A.class_labels(m):
            fin = A.fin_weight(m, lab)
            key_in = P.member(fin, m)
            neg_in = P.member(tuple(-c for c in fin), -m)
            if (not any(fin) and m == 0) or (key_in and neg_in):
                want = "levi"
            else:
                want = "nplus" if key_in else "letter"
            # the second call is answered from the memo
            assert P.basis_kind(lab, m) == P.basis_kind(lab, m) == want, (lab, m)
            seen.add(want)
    assert seen == {"levi", "nplus", "letter"}
    assert P.members == members


# ---------------------------------------------------- classification


def test_classify_standard(algebras):
    A = algebras["A1u"]
    P = assemble_parabolic(A, make_flag(A, (F(1), F(3))), W3)
    assert classify_parabolic(P) == "standard"
    assert verify_classification(P)


def test_classify_imaginary(algebras):
    A = algebras["A1u"]
    # phi1 kills delta and no refinement is given: every imaginary root
    # sits inside P
    P = assemble_parabolic(A, make_flag(A, (F(1), F(0))), W3)
    assert classify_parabolic(P) == "imaginary"


def test_classify_imaginary_membership(algebras):
    A = algebras["A2u"]
    # phi1 kills delta and the highest root; phi2 orders the kernel line
    # without touching the imaginary roots
    fl = make_flag(A, (F(1), F(-1), F(0)), (F(0), F(1), F(0)))
    P = assemble_parabolic(A, fl, W3)
    assert classify_parabolic(P) == "imaginary"
    for n in W3:
        if n != 0:
            assert P.member((F(0), F(0)), n)
    assert verify_classification(P)


def test_classify_mixed_splits_imaginary(algebras):
    A = algebras["A1u"]
    # phi2 is delta-positive on the kernel of phi1: the two halves of the
    # imaginary line land on different sides, so neither alternative (i)
    # nor (ii) of the trichotomy applies
    fl = make_flag(A, (F(1), F(0)), (F(0), F(1)))
    P = assemble_parabolic(A, fl, W3)
    assert classify_parabolic(P) == "mixed"
    assert P.member((F(0),), 1)
    assert not P.member((F(0),), -1)
    assert verify_classification(P)


def test_tag_is_read_only_and_classified_on_first_read(algebras):
    A = algebras["A1u"]
    # phi1 vanishes on both roots of the degree-0 window, so P = Delta there
    improper = make_flag(A, (F(0), F(1)))
    P = ParabolicSet(A, improper, DegreeWindow(0, 0))  # construction never classifies
    with pytest.raises(ImproperParabolic):
        P.tag
    with pytest.raises(ImproperParabolic):
        assemble_parabolic(A, improper, DegreeWindow(0, 0))
    Q = ParabolicSet(A, make_flag(A, (F(1), F(1))), W3)
    assert Q.tag == "standard" == classify_parabolic(Q)
    with pytest.raises(AttributeError):
        Q.tag = "imaginary"
    assert ParabolicSet(A, None, W3, members=Q.members, tag="imaginary").tag == "imaginary"
    assert ParabolicSet(A, None, W3, members=Q.members).tag is None


def test_classify_tags_match_direct_criteria(algebras):
    rng = random.Random(5)
    for key in ("A1u", "A2u", "A2t"):
        A = algebras[key]
        for _ in range(40):
            fl = random_flag(A, rng)
            P = assemble_parabolic(A, fl, W3)
            tag = classify_parabolic(P)
            imag_in = all(
                P.member(tuple([F(0)] * A.fin_rank), n) for n in W3 if n != 0
            )
            psi = principal_witness(P)
            if tag == "standard":
                assert psi is not None
                assert psi[-1] != 0
                assert not imag_in
            elif tag == "imaginary":
                assert psi is not None
                assert psi[-1] == 0
                assert imag_in
            else:
                assert psi is None
                assert not imag_in
            assert verify_classification(P)


def test_principal_witness_realizes_P(algebras):
    rng = random.Random(17)
    for key in ("A1u", "A2u", "C2u", "A2t"):
        A = algebras[key]
        found = 0
        for _ in range(60):
            fl = random_flag(A, rng)
            P = assemble_parabolic(A, fl, W3)
            psi = principal_witness(P)
            if psi is None:
                continue
            found += 1
            for w in (W3, W3.doubled()):
                for r in roots_window(A, w):
                    val = sum(
                        (psi[i] * r.fin[i] for i in range(A.fin_rank)),
                        psi[-1] * r.n,
                    )
                    assert P.member(r.fin, r.n) == (val >= 0), (key, fl, r)
        assert found >= 10


def test_window_doubling_stability(algebras):
    rng = random.Random(29)
    for key in ("A1u", "A2u", "A2t"):
        A = algebras[key]
        for _ in range(25):
            fl = random_flag(A, rng)
            P1 = assemble_parabolic(A, fl, W3)
            P2 = assemble_parabolic(A, fl, W3.doubled())
            assert classify_parabolic(P1) == classify_parabolic(P2)
            for k in P1.keys():
                assert P1.member_key(k) == P2.member_key(k)


# ---------------------------------------------------- bases and the cone


def test_simple_roots_a1(algebras):
    A = algebras["A1u"]
    td = triangular_decomposition(A, (F(1), F(5)), W3)
    base = simple_roots_of_positive_system(td)
    assert set(base) == {((F(2),), 0), ((F(-2),), 1)}


def test_simple_roots_a2(algebras):
    A = algebras["A2u"]
    td = triangular_decomposition(A, (F(2), F(3), F(20)), W3)
    base = simple_roots_of_positive_system(td)
    assert set(base) == {
        ((F(2), F(-1)), 0),
        ((F(-1), F(2)), 0),
        ((F(-1), F(-1)), 1),
    }


def test_simple_roots_requires_borel(algebras):
    A = algebras["A1u"]
    td = triangular_decomposition(A, (F(0), F(1)), W3)
    with pytest.raises(ValueError):
        simple_roots_of_positive_system(td)


def test_phi_P_borel_case(algebras):
    A = algebras["A1u"]
    P = assemble_parabolic(A, make_flag(A, (F(1), F(5))), W3)
    cone = phi_P(P)
    assert cone.wl_order == 1
    assert sorted(cone.phi_P) == sorted(cone.base)
    assert cone.c == [F(1), F(1)]
    for b, cb in zip(cone.base, cone.c):
        assert cone.d[b] == cb


def test_phi_P_finite_levi(algebras):
    A = algebras["A1u"]
    # delta projection: Levi is the finite sl2
    P = assemble_parabolic(A, make_flag(A, (F(0), F(1))), W3)
    cone = phi_P(P)
    assert cone.wl_order == 2
    assert set(cone.phi_P) == {((F(-2),), 1), ((F(2),), 1)}
    assert all(cone.d[b] == 1 for b in cone.phi_P)
    # |W_L| delta = (delta - alpha) + (delta + alpha)
    tot = [F(0), F(0)]
    for b in cone.phi_P:
        tot[0] += cone.d[b] * b[0][0]
        tot[1] += cone.d[b] * b[1]
    assert tot == [F(0), F(2)]


def test_phi_P_identity_sampled_a2(algebras):
    A = algebras["A2u"]
    flags = [
        make_flag(A, (F(0), F(0), F(1))),
        make_flag(A, (F(1), F(0), F(2))),
        make_flag(A, (F(0), F(1), F(3))),
        make_flag(A, (F(1), F(1), F(1))),
        make_flag(A, (F(2), F(-1), F(7))),
    ]
    for fl in flags:
        P = assemble_parabolic(A, fl, W3)
        assert classify_parabolic(P) == "standard"
        cone = phi_P(P)
        dim = A.fin_rank + 1
        tot = [F(0)] * dim
        for b, db in cone.d.items():
            assert db > 0
            vec = list(b[0]) + [F(b[1])]
            for i in range(dim):
                tot[i] += db * vec[i]
        expect = [F(0)] * A.fin_rank + [F(cone.wl_order)]
        assert tot == expect


def test_phi_P_rejects_non_standard(algebras):
    A = algebras["A1u"]
    P = assemble_parabolic(A, make_flag(A, (F(1), F(0)), (F(0), F(1))), W3)
    with pytest.raises(ValueError):
        phi_P(P)


def test_compute_NG_frozen_values(algebras):
    def oracle(roots, form):
        # direct lcm over all root pairs with nonzero pairing
        denoms = []
        for a in roots:
            for b in roots:
                p = form(a, b)
                if p != 0:
                    denoms.append((form(a, a) / (2 * p)).denominator)
        return math.lcm(*denoms)

    expected = {"A1": 2, "A2": 2, "A3": 2, "C2": 2}
    for t, want in expected.items():
        g = build_simple(t)
        assert oracle(g.roots, g.weight_form) == want
        assert compute_NG(build_affine(g)) == want
    # twisted A2: the real root directions are +-beta and +-2beta
    A = algebras["A2t"]
    dirs = {r.fin for r in roots_window(A, W3) if r.kind == "real"}
    assert oracle(dirs, A.fin_form) == 4
    assert compute_NG(A) == 4


def test_NG_scaled_lattice_membership(algebras):
    rng = random.Random(41)
    A2u, A2t = algebras["A2u"], algebras["A2t"]
    cases = [
        (A2u, (F(0), F(0), F(1))),
        (A2u, (F(1), F(0), F(2))),
        (A2u, (F(1), F(1), F(1))),
        (A2t, (F(0), F(1))),
    ]
    for A, phi1 in cases:
        simples = A.affine_simple_roots()
        P = assemble_parabolic(A, make_flag(A, phi1), W3)
        cone = phi_P(P)
        assert cone.lattice_rank == A.fin_rank + 1
        for _ in range(20):
            coeffs = [rng.randint(-5, 5) for _ in simples]
            nu = [F(0)] * (A.fin_rank + 1)
            for cf, (fin, n) in zip(coeffs, simples):
                for i in range(A.fin_rank):
                    nu[i] += cf * fin[i]
                nu[-1] += cf * n
            scaled = [cone.NG * x for x in nu]
            assert in_QP(cone, scaled)


def test_in_QP_checks_its_lattice_matrix_once(algebras, monkeypatch):
    A = algebras["A2u"]
    cone = phi_P(assemble_parabolic(A, make_flag(A, (F(1), F(2), F(5))), W3))
    delta = [F(0), F(0), cone.NG]
    reductions = []
    reduce = rootpar.hermite_reduce
    monkeypatch.setattr(rootpar, "hermite_reduce", lambda m: reductions.append(m) or reduce(m))
    assert in_QP(cone, delta)
    matrix = vars(cone)["_lattice_matrix"]
    assert in_QP(cone, delta) and vars(cone)["_lattice_matrix"] is matrix
    assert not in_QP(cone, [F(1), F(0), F(0)])
    # the Hermite reduction is made once per cone, whatever the right-hand side
    assert reductions == [matrix]
    assert in_QP(cone, [F(1, 2), F(0), F(0)]) is False
    # a non-integer root is refused on every call, not only the first
    bad = dataclasses.replace(cone, phi_P=[((F(1, 2), F(0)), 0), *cone.phi_P])
    for _ in range(2):
        with pytest.raises(ValueError, match="non-integer coordinates"):
            in_QP(bad, delta)


def test_NG_is_computed_once_per_algebra(algebras):
    A = build_affine(build_simple("C2"))
    assert "NG" not in vars(A)
    assert compute_NG(A) == 2
    assert vars(A)["NG"] == 2  # kept on the algebra, read by every later call
    assert compute_NG(A) == A.NG


# ---------------------------------------------------- line values and closure
# Oracles sharing no code with rootpar's line tables: a flag value written out
# as a sum over coordinates, and the closure axioms checked on Fraction tuples.


def _phi(phi, fin, n):
    out = phi[-1] * n
    for i, c in enumerate(fin):
        out += phi[i] * c
    return out


def _rule(flag, fin, n):
    v1 = _phi(flag.phi1, fin, n)
    if v1 != 0:
        return v1 > 0
    return flag.phi2 is None or _phi(flag.phi2, fin, n) >= 0


def _closed(members):
    for (fin, n), m in members.items():
        neg = (tuple(-c for c in fin), -n)
        if neg in members and not (m or members[neg]):
            return False
    chosen = [k for k, m in members.items() if m]
    for f1, n1 in chosen:
        for f2, n2 in chosen:
            s = (tuple(a + b for a, b in zip(f1, f2)), n1 + n2)
            if s in members and not members[s]:
                return False
    return True


def _seeded_flags(A, rng, count):
    """count flags from random_flag, at least one with and one without phi2."""
    flags = []
    while len(flags) < count or len({fl.phi2 is None for fl in flags}) < 2:
        flags.append(random_flag(A, rng))
    return flags


@pytest.mark.parametrize("key", ["A1u", "A2u", "A3u", "C2u", "A2t"])
def test_member_table_matches_flag_value_rule(algebras, key):
    A = algebras[key]
    rng = random.Random(61)
    off_line = tuple(F(7, 3) for _ in range(A.fin_rank))
    for fl in _seeded_flags(A, rng, 4 if key == "A3u" else 8):
        for W in (W3, W3.doubled()):
            P = ParabolicSet(A, fl, W)
            assert list(P.members) == [(r.fin, r.n) for r in roots_window(A, W)]
            for (fin, n), m in P.members.items():
                assert m is _rule(fl, fin, n), (key, fl, fin, n)
            # out of the window, on root lines and on no root line
            for fam in A.root_families():
                for n in (W.nmin - 3, W.nmin - 1, W.nmax + 1, W.nmax + 4):
                    assert P.member(fam.fin, n) is _rule(fl, fam.fin, n)
            for n in (W.nmin - 1, 0, W.nmax + 2):
                assert P.member(off_line, n) is _rule(fl, off_line, n)


@pytest.mark.parametrize("key", ["A1u", "A2u", "C2u", "A2t"])
def test_axioms_match_brute_force_closure(algebras, key):
    A = algebras[key]
    rng = random.Random(67)
    W = DegreeWindow(-2, 2)
    rejected = 0
    for fl in _seeded_flags(A, rng, 5):
        P = assemble_parabolic(A, fl, W)
        assert check_parabolic_axioms(P) and _closed(P.members)
        keys = list(P.members)
        # a member that is the sum of two others: removing it breaks closure
        sums = [
            k for k in keys
            if P.members[k] and any(
                P.members[k1]
                and P.members.get((tuple(a - b for a, b in zip(k[0], k1[0])), k[1] - k1[1]))
                for k1 in keys
            )
        ]
        for k in rng.sample(sums, min(2, len(sums))) + rng.sample(keys, 3):
            members = dict(P.members)
            members[k] = not members[k]
            Q = ParabolicSet(A, None, W, members=members)
            assert check_parabolic_axioms(Q) == _closed(members), (key, fl, k)
            if k in sums:
                assert not check_parabolic_axioms(Q), (key, fl, k)
                rejected += 1
    assert rejected >= 5


def test_explicit_member_table_must_cover_the_window(algebras):
    A = algebras["A1u"]
    P = assemble_parabolic(A, make_flag(A, (F(1), F(5))), W3)
    members = dict(P.members)
    members.pop(next(iter(members)))
    with pytest.raises(ValueError, match="cover exactly the window"):
        ParabolicSet(A, None, W3, members=members)
    members = dict(P.members)
    members[((F(2),), 9)] = True
    with pytest.raises(ValueError, match="cover exactly the window"):
        ParabolicSet(A, None, W3, members=members)
