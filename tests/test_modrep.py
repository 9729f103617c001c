import dataclasses
import gc
import itertools
import random
import re
import weakref
from collections import Counter
from fractions import Fraction
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from affinekit.finlie import LieElt, build_simple, sigma_aut
from affinekit.affine import (
    AffElt,
    AffRoot,
    AffWeight,
    DegreeWindow,
    build_affine,
    root_space,
    sl2_triple,
)
from affinekit import modrep
from affinekit.rootpar import assemble_parabolic, make_flag, random_flag
from affinekit.modrep import (
    _MAX_REPORT,
    _ONE,
    _Z,
    DenseSL2Params,
    GradedModule,
    IncompatibleData,
    NothingCompared,
    ShadowReport,
    Support,
    UntabulatedGenerator,
    _acc,
    _cartan_value,
    _induction_push,
    _loop_gens,
    _scaled,
    adjoint_rep,
    boundedness_probe,
    build_PM,
    check_bracket_compat,
    check_level,
    check_weight_additivity,
    dense_sl2,
    finite_dim_sl2,
    imaginary_verma,
    induced_truncated,
    levi_dense_module,
    levi_sl2_root,
    loop_module,
    loop_support,
    natural_rep,
    prop42_matrix,
    shadow_detect,
    sigma_intertwiner,
    twisted_loop_fixed_points,
    vacuum_support,
)
from affinekit.exact import kernel, rref


A1 = build_simple("A1")
A2 = build_simple("A2")
A1aff = build_affine(A1)
A2aff = build_affine(A2)
A2tw = build_affine(A2, sigma_aut(A2))
C2 = build_simple("C2")
C2aff = build_affine(C2)

JW = DegreeWindow(-4, 4)


def fin_weight_of(M, label):
    return M.weight_of[label].fin


# ------------------------------------------------------------ dense sl2


def test_dense_spectrum_and_mults():
    M = dense_sl2(DenseSL2Params(F(1, 2), F(3)), JW)
    hvals = sorted(w.fin[0] for w in M.weights)
    assert hvals == [F(1, 2) + 2 * j for j in range(-4, 5)]
    assert all(len(labs) == 1 for labs in M.weights.values())


def test_dense_ef_bracket_forced():
    # [e,f] w_j = (b+2j) w_j is forced by the construction.
    M = dense_sl2(DenseSL2Params(F(1, 2), F(3)), JW)
    e, f, h = ("fin", "E12"), ("fin", "E21"), ("fin", "H1")
    for j in range(-3, 4):
        v = {("w", j): F(1)}
        lhs = _vsub(M.apply_gen(e, M.apply_gen(f, v)), M.apply_gen(f, M.apply_gen(e, v)))
        assert lhs == M.apply_gen(h, v)


def test_dense_coefficient_pins():
    # c pins the e-coefficient at j = 0; the recurrence then forces the rest.
    M = dense_sl2(DenseSL2Params(F(1, 2), F(3)), JW)
    e = ("fin", "E12")
    assert M.apply_gen(e, {("w", 0): F(1)}) == {("w", 1): F(3)}
    mu = {}
    for j in range(-3, 4):
        out = M.apply_gen(e, {("w", j): F(1)})
        mu[j] = out.get(("w", j + 1), F(0))
    for j in range(-2, 4):
        assert mu[j - 1] - mu[j] == F(1, 2) + 2 * j


def test_dense_casimir_constant():
    # ef + fe + h^2/2 acts by 2c + b + b^2/2 on every interior label, on the
    # dense line and on the Levi module of _standard_P() through sl2_triple
    P = _standard_P()
    aff = sl2_triple(A2aff, levi_sl2_root(P))
    fin = tuple(LieElt({n: 1}) for n in ("E12", "E21", "H1"))
    for b in (F(1, 2), F(0), F(-3, 2)):
        for c in (F(3), F(0), F(5, 7), F(-2)):
            params = DenseSL2Params(b, c)
            M = dense_sl2(params, JW)
            N = levi_dense_module(P, params, DegreeWindow(-2, 2), base_fin=(b, F(4)))
            want = 2 * c + b + b * b / 2
            for mod, (e, f, h), js in ((M, fin, range(-3, 4)), (N, aff, range(-1, 2))):
                for j in js:
                    v = {("w", j): F(1)}
                    cas = _vadd(
                        mod.apply_elt(e, mod.apply_elt(f, v)),
                        mod.apply_elt(f, mod.apply_elt(e, v)),
                    )
                    cas = _vadd(cas, _vscale(mod.apply_elt(h, mod.apply_elt(h, v)), F(1, 2)))
                    assert cas == ({("w", j): want} if want else {}), (b, c, j)


def test_dense_injectivity_window():
    M = dense_sl2(DenseSL2Params(F(1, 2), F(3)), JW)
    e = ("fin", "E12")
    for j in range(-4, 4):
        assert M.apply_gen(e, {("w", j): F(1)}) != {}
    # b = 0, c = 6 kills mu_2 = 6 - 2*3.
    M0 = dense_sl2(DenseSL2Params(F(0), F(6)), JW)
    assert M0.apply_gen(e, {("w", 2): F(1)}) == {}
    assert M0.apply_gen(e, {("w", 1): F(1)}) != {}


# ------------------------------------------------------------ small reps


def test_finite_dim_sl2():
    M = finite_dim_sl2(2)
    assert len(M.weight_of) == 3
    assert sorted(w.fin[0] for w in M.weights) == [-2, 0, 2]
    assert M.boundary == set()
    with pytest.raises(ValueError):
        finite_dim_sl2(-1)


def test_natural_and_adjoint():
    assert len(natural_rep(A2).weight_of) == 3
    assert len(adjoint_rep(A2).weight_of) == 8
    assert len(natural_rep(build_simple("C2")).weight_of) == 4


def _tensor(M1, M2):
    """M1 x M2 as the degree-0 loop module at scalars (1, 1)."""
    return loop_module(A1aff, [M1, M2], [F(1), F(1)], DegreeWindow(0, 0), gen_window=0)


def test_tensor_dims():
    M1, M2 = finite_dim_sl2(1), finite_dim_sl2(2)
    M = _tensor(M1, M2)
    assert len(M.weight_of) == 6
    # X t^0 acts by the Leibniz rule X v1 x v2 + v1 x X v2
    for name in A1.basis:
        for lab in M.weight_of:
            (l1, l2), s = lab
            want = {((t1, l2), s): c for t1, c in M1.action[(("fin", name), l1)].items()}
            for t2, c in M2.action[(("fin", name), l2)].items():
                _acc(want, {((l1, t2), s): c})
            assert M.action[(("t", name, 0), lab)] == want
    # Clebsch-Gordan check on weight multiplicities.
    table = {w.fin[0]: len(l) for w, l in M.weights.items()}
    assert table == {-3: 1, -1: 2, 1: 2, 3: 1}


def test_bracket_compat_across_constructors():
    mods = [
        dense_sl2(DenseSL2Params(F(1, 3), F(2)), JW),
        finite_dim_sl2(3),
        natural_rep(A2),
        adjoint_rep(A1),
        _tensor(finite_dim_sl2(1), finite_dim_sl2(1)),
    ]
    for M in mods:
        assert check_bracket_compat(M) == []
        assert check_weight_additivity(M) == []


@settings(max_examples=25, deadline=None)
@given(
    st.integers(-6, 6),
    st.integers(1, 3),
    st.integers(-6, 6),
    st.integers(1, 3),
)
def test_dense_bracket_compat_random_params(bp, bq, cp, cq):
    M = dense_sl2(DenseSL2Params(F(bp, bq), F(cp, cq)), DegreeWindow(-3, 3))
    assert check_bracket_compat(M) == []


# ------------------------------------------------------------ loop modules


def _loop_small():
    return loop_module(
        A1aff,
        [finite_dim_sl2(1), finite_dim_sl2(2)],
        [F(1), F(2)],
        DegreeWindow(-3, 3),
    )


def test_loop_d_and_k_action():
    M = _loop_small()
    lab = next(l for l in M.weight_of if l[1] == 3)
    assert M.apply_gen("D", {lab: F(1)}) == {lab: F(3)}
    assert M.apply_gen("K", {lab: F(1)}) == {}
    assert check_level(M) == []


def test_loop_multiplicity_convolution():
    M = _loop_small()
    # Independent convolution count of the tensor weight dimensions.
    conv = {}
    for w1 in [-1, 1]:
        for w2 in [-2, 0, 2]:
            conv[w1 + w2] = conv.get(w1 + w2, 0) + 1
    for w, labs in M.weights.items():
        assert len(labs) == conv[w.fin[0]]
    for s in range(-3, 4):
        for lam, cnt in conv.items():
            assert len(M.weights[AffWeight((F(lam),), F(s), F(0))]) == cnt


def test_loop_bracket_compat():
    M = _loop_small()
    assert check_bracket_compat(M) == []
    assert check_weight_additivity(M) == []


@pytest.mark.parametrize(
    "make, gen, lab, wrong",
    [
        (_loop_small, ("t", "E12", 0), ((("u", 1), ("u", 1)), 0), ((("u", 1), ("u", 1)), 1)),
        (lambda: dense_sl2(DenseSL2Params(F(1, 3), F(2)), JW), ("fin", "E21"), ("w", 0), ("w", 1)),
    ],
    ids=["loop", "dense"],
)
def test_weight_additivity_catches_a_bad_row(make, gen, lab, wrong):
    # one row pointed at a label of the wrong weight is reported, and only it
    M = make()
    assert check_weight_additivity(M) == []
    action = dict(M.action)
    action[(gen, lab)] = {wrong: F(1)}
    bad = dataclasses.replace(M, action=action)
    assert check_weight_additivity(bad) == [(gen, lab, wrong)]


def test_check_level_catches_a_wrong_central_row():
    M = _loop_small()
    lab = next(iter(M.weight_of))
    bad = dataclasses.replace(M, action={**M.action, ("K", lab): {lab: F(1)}})
    assert check_level(bad) == [lab]
    # a module over a finite-dimensional algebra has no central row to check,
    # so the check compares nothing and refuses to pass
    with pytest.raises(NothingCompared, match="fin module"):
        check_level(finite_dim_sl2(2))


def test_checkers_stop_at_the_report_cap():
    # K reads the degree on every label: a level fault wherever the degree is
    # nonzero, and a bracket fault, K f t - f t K = f t against [K, f t] = 0,
    # wherever f t acts; D rows aimed at one fixed label break additivity on
    # every label of another weight
    M = _loop_small()
    top = next(iter(M.weight_of))
    k_rows = {("K", lab): dict(M.action[("D", lab)]) for lab in M.weight_of}
    d_rows = {("D", lab): {top: F(1)} for lab in M.weight_of}
    off_weight = [lab for lab in M.weight_of if M.weight_of[lab] != M.weight_of[top]]
    assert len(off_weight) > _MAX_REPORT
    graded = [lab for lab in M.weight_of if M.weight_of[lab].d]
    assert len(graded) > _MAX_REPORT
    K_bad = dataclasses.replace(M, action={**M.action, **k_rows})
    D_bad = dataclasses.replace(M, action={**M.action, **d_rows})
    assert check_level(K_bad) == graded[:_MAX_REPORT]
    assert len(check_bracket_compat(K_bad)) == _MAX_REPORT
    assert check_weight_additivity(D_bad) == [("D", lab, top) for lab in off_weight][:_MAX_REPORT]


def test_loop_rejects_zero_scalar():
    with pytest.raises(ValueError):
        loop_module(A1aff, [finite_dim_sl2(1)], [F(0)], DegreeWindow(-2, 2))


_LOOP_ORACLE_CASES = [
    # fractional and negative scalars; the pair a, -a cancels h on the diagonal
    ([finite_dim_sl2(2), natural_rep(A1)], [F(-2, 3), F(5, 2)]),
    ([natural_rep(A1), natural_rep(A1)], [F(3, 2), F(-3, 2)]),
    ([dense_sl2(DenseSL2Params(F(1, 2), F(3)), DegreeWindow(-2, 2)), natural_rep(A1)],
     [F(-1), F(1, 3)]),
]


@pytest.mark.parametrize("factors,scalars", _LOOP_ORACLE_CASES)
def test_loop_module_matches_the_evaluation_formula(factors, scalars):
    # (X t^m)(v_1 x ... x v_k) t^s = sum_i a_i^m (... X v_i ...) t^{s+m}, read
    # straight off the factors' finite tables
    W, gw = DegreeWindow(-2, 2), 2
    M = loop_module(A1aff, factors, scalars, W, gen_window=gw)
    tlabels = list(itertools.product(*[list(Fm.weight_of) for Fm in factors]))
    assert set(M.weight_of) == {(t, s) for t in tlabels for s in W}
    mask = set()
    for tlab in tlabels:
        for s in W:
            lab = (tlab, s)
            if any(tlab[i] in Fm.boundary for i, Fm in enumerate(factors)):
                mask.add(lab)
            assert M.action[("D", lab)] == ({lab: F(s)} if s else {})
            assert M.action[("K", lab)] == {}
            for m in range(-gw, gw + 1):
                for X in A1.basis:
                    row = M.action[(("t", X, m), lab)]
                    if s + m not in W:
                        mask.add(lab)
                        assert row == {}
                        continue
                    want = {}
                    for i, Fm in enumerate(factors):
                        for tgt, c in Fm.action[(("fin", X), tlab[i])].items():
                            key = (tlab[:i] + (tgt,) + tlab[i + 1 :], s + m)
                            want[key] = want.get(key, 0) + scalars[i] ** m * c
                    assert row == {k: v for k, v in want.items() if v}
    assert len(M.action) == len(M.weight_of) * (3 * (2 * gw + 1) + 2)
    assert M.boundary == mask


_SUPPORT_CASES = {
    "A1 fin": (A1aff, [finite_dim_sl2(1), finite_dim_sl2(2)]),
    "A1 dense": (A1aff, [dense_sl2(DenseSL2Params(F(1, 2), F(3)), DegreeWindow(-2, 2)),
                         finite_dim_sl2(1)]),
    "A1 natural": (A1aff, [natural_rep(A1)]),
    "A2 fin": (A2aff, [adjoint_rep(A2)]),
    "A2 natural": (A2aff, [natural_rep(A2), natural_rep(A2)]),
    "C2 fin": (C2aff, [adjoint_rep(C2)]),
    "C2 natural": (C2aff, [natural_rep(C2)]),
    "twisted A2 fin": (A2tw, [adjoint_rep(A2)]),
    "twisted A2 natural": (A2tw, [natural_rep(A2), adjoint_rep(A2)]),
}


@pytest.mark.parametrize("case", sorted(_SUPPORT_CASES))
def test_loop_support_is_the_support_of_loop_module(case):
    # loop_module is the oracle: the same labels in the same order, the same
    # weights, and a mask that is exactly the tainted labels plus those with
    # a generator row cut at the window's edge
    A, factors = _SUPPORT_CASES[case]
    scalars = [F(3, 2), F(-2)][: len(factors)]
    for n in range(1, 5):
        W = DegreeWindow(-n, n)
        for gw in (1, 2):
            S = loop_support(A, factors, scalars, W, gen_window=gw)
            M = loop_module(A, factors, scalars, W, gen_window=gw)
            assert list(S.weight_of.items()) == list(M.weight_of.items())
            assert S.boundary == M.boundary
            assert S.weights == M.weights
            cut = {lab for (gk, lab) in M.action if gk[0] == "t" and lab[1] + gk[2] not in W}
            tainted = {
                lab for lab in M.weight_of
                if any(t in Fm.boundary for t, Fm in zip(lab[0], factors))
            }
            assert S.boundary == cut | tainted
            assert all(M.action[(gk, lab)] == {} for (gk, lab) in M.action
                       if gk[0] == "t" and lab[1] + gk[2] not in W)


@pytest.mark.parametrize(
    "factors,scalars",
    [
        ([finite_dim_sl2(1)], [F(1), F(2)]),
        ([finite_dim_sl2(1), finite_dim_sl2(2)], [F(1)]),
        ([], []),
        ([finite_dim_sl2(1)], [F(0)]),
        ([loop_module(A1aff, [finite_dim_sl2(1)], [F(1)], DegreeWindow(0, 0))], [F(1)]),
    ],
)
def test_loop_support_makes_the_input_checks_of_loop_module(factors, scalars):
    W = DegreeWindow(-1, 1)
    with pytest.raises(ValueError) as want:
        loop_module(A1aff, factors, scalars, W)
    with pytest.raises(ValueError) as got:
        loop_support(A1aff, factors, scalars, W)
    assert str(got.value) == str(want.value)


# ------------------------------------------------------------ twisted loops


def test_sigma_intertwiner_adjoint_and_natural():
    T = sigma_intertwiner(A2, A2tw.aut, adjoint_rep(A2))
    lab = ("a", "E13")
    assert _vsub(_mat_apply(T, _mat_apply(T, {lab: F(1)})), {lab: F(1)}) == {}
    with pytest.raises(IncompatibleData):
        sigma_intertwiner(A2, A2tw.aut, natural_rep(A2))


def test_twisted_fixed_points():
    V = adjoint_rep(A2)
    M = twisted_loop_fixed_points(
        A2tw, [V, V], [F(1), F(-1)], DegreeWindow(-2, 2), gen_window=1
    )
    # swapping the slots through the diagram intertwiner fixes a subspace of
    # the symmetric-square dimension 8 * 9 / 2 of the adjoint tensor square;
    # the slot scalars already carry the twist sign, so every degree has it
    per_grade = {}
    for w, labs in M.weights.items():
        per_grade[w.d] = per_grade.get(w.d, 0) + len(labs)
    for s in range(-2, 3):
        assert per_grade[F(s)] == 36 == 8 * 9 // 2
    assert check_bracket_compat(M) == []
    assert check_weight_additivity(M) == []


def test_twisted_rejects_bad_scalars():
    V = adjoint_rep(A2)
    with pytest.raises(IncompatibleData):
        twisted_loop_fixed_points(A2tw, [V, V], [F(1), F(2)], DegreeWindow(-2, 2))
    with pytest.raises(IncompatibleData):
        twisted_loop_fixed_points(
            A2tw, [adjoint_rep(A2), natural_rep(A2)], [F(1), F(-1)], DegreeWindow(-2, 2)
        )


@pytest.mark.parametrize("gen_window", [1, 2])
def test_loop_module_over_twisted_a2(gen_window):
    M = loop_module(
        A2tw, [natural_rep(A2), adjoint_rep(A2)], [F(2), F(3)], DegreeWindow(-3, 3),
        gen_window=gen_window,
    )
    assert len(M.boundary) < len(M.weight_of)
    assert check_bracket_compat(M) == []
    assert check_weight_additivity(M) == []
    assert check_level(M) == []


def test_twisted_loop_module_restricts_the_untwisted_one():
    # a class-basis generator acts as its expansion in the untwisted loop
    # module, and weights are the untwisted ones read on the twisted coroot
    factors, scalars, W = [natural_rep(A2), adjoint_rep(A2)], [F(2), F(3)], DegreeWindow(-1, 1)
    M = loop_module(A2tw, factors, scalars, W, gen_window=1)
    U = loop_module(A2aff, factors, scalars, W, gen_window=1)
    (h,) = A2tw.tw_coroots
    for lab, w in M.weight_of.items():
        fin = U.weight_of[lab].fin
        assert w.fin == (sum(h.c.get(x, 0) * fin[i] for i, x in enumerate(A2.cartan)),)
    for m in (-1, 0, 1):
        for cl in A2tw.class_labels(m):
            u = AffElt({(x, m): c for x, c in A2tw.label_elt(m, cl).c.items()})
            for lab in M.weight_of:
                assert M.apply_gen(("t", cl, m), {lab: F(1)}) == U.apply_elt(u, {lab: F(1)})


def test_twisted_fixed_points_include_into_the_loop_module():
    V = adjoint_rep(A2)
    a, W = F(3, 2), DegreeWindow(-2, 2)
    M = twisted_loop_fixed_points(A2tw, [V, V], [a, -a], W, gen_window=1)
    L = loop_module(A2tw, [V, V], [a, -a], W, gen_window=1)
    # the fixed basis: +1 eigenvectors of (l1, l2) -> (T l2, T l1), in the
    # order kernel returns them, over pairs of sorted labels
    T = sigma_intertwiner(A2, A2tw.aut, V)
    vlabs = sorted(V.weight_of)
    pairs = [(l1, l2) for l1 in vlabs for l2 in vlabs]
    swap_minus_one = [
        [T[l2].get(m1, 0) * T[l1].get(m2, 0) - int((m1, m2) == (l1, l2)) for (l1, l2) in pairs]
        for (m1, m2) in pairs
    ]
    plus = kernel(swap_minus_one)
    combos = {
        ("s", s, i): {(p, s): v[j] for j, p in enumerate(pairs) if v[j]}
        for s in W
        for i, v in enumerate(plus)
    }
    assert set(combos) == set(M.weight_of)
    checked = 0
    for lab, combo in combos.items():
        assert {L.weight_of[key] for key in combo} == {M.weight_of[lab]}
        if lab in M.boundary or any(key in L.boundary for key in combo):
            continue
        for gk in M.gens:
            image = {}
            for tgt, c in M.action[(gk, lab)].items():
                image = _vadd(image, _vscale(combos[tgt], c))
            assert L.apply_gen(gk, combo) == image
            checked += 1
    assert checked == 3 * len(plus) * len(M.gens)


# ------------------------------------------------------------ imaginary Verma


def test_imverma_vacuum_relations():
    lam = F(5, 2)
    M = imaginary_verma(lam, depth=3, length_cap=3)
    vac = ("m", 0, ())
    assert M.apply_gen(("t", "H1", 0), {vac: F(1)}) == {vac: lam}
    for m in (-2, -1, 0, 1, 2):
        assert M.apply_gen(("t", "E12", m), {vac: F(1)}) == {}
        if m != 0:
            assert M.apply_gen(("t", "H1", m), {vac: F(1)}) == {}
    assert M.apply_gen("D", {vac: F(1)}) == {}
    assert M.apply_gen("K", {vac: F(1)}) == {}


def test_imverma_weight_of_monomial():
    lam = F(5, 2)
    M = imaginary_verma(lam, depth=3, length_cap=3)
    lab = ("m", 0, ((-1, 2), (2, 1)))  # f_{-1}^2 f_2 . v
    w = M.weight_of[lab]
    assert w.fin == (lam - 6,)
    assert w.d == 0


def test_imverma_ef_pairing():
    lam = F(5, 2)
    M = imaginary_verma(lam, depth=3, length_cap=3)
    out = M.apply_gen(("t", "E12", 1), {("m", 0, ((-1, 1),)): F(1)})
    assert out == {("m", 0, ()): lam}


def _imverma_count_oracle(depth, length_cap, mode_cap):
    """Brute-force monomial enumeration, independent of the module code."""
    counts = {}
    modes = list(range(-mode_cap, mode_cap + 1))

    def rec(idx, mults):
        if idx == len(modes):
            length = sum(mults)
            grade = sum(m * k for m, k in zip(mults, modes))
            if abs(grade) <= depth:
                key = (length, grade)
                counts[key] = counts.get(key, 0) + 1
            return
        for n in range(0, length_cap - sum(mults) + 1):
            rec(idx + 1, mults + [n])

    rec(0, [])
    return counts


def test_imverma_dims_match_enumeration():
    lam = F(3)
    depth, cap = 2, 3
    M = imaginary_verma(lam, depth=depth, length_cap=cap)
    oracle = _imverma_count_oracle(depth, cap, depth)
    table = {}
    for w, labs in M.weights.items():
        length = (lam - w.fin[0]) / 2
        table[(int(length), int(w.d))] = len(labs)
    assert table == {k: v for k, v in oracle.items() if v}


def test_imverma_grade_symmetry():
    M = imaginary_verma(F(3), depth=2, length_cap=3)
    dims = {}
    for w, labs in M.weights.items():
        dims[(w.fin[0], w.d)] = len(labs)
    for (h, d), c in dims.items():
        assert dims[(h, -d)] == c


def test_imverma_bracket_compat():
    M = imaginary_verma(F(5, 2), depth=3, length_cap=3)
    assert check_bracket_compat(M) == []
    assert check_weight_additivity(M) == []
    assert check_level(M) == []


def test_bracket_compat_refuses_to_pass_on_nothing():
    # depth 1 masks all 4 labels, so no generator pair has a clean label
    M = imaginary_verma(F(3), depth=1, length_cap=1)
    assert len(M.weight_of) == len(M.boundary) == 4
    with pytest.raises(NothingCompared, match=r"\(4 labels, 4 masked\)"):
        check_bracket_compat(M)


def _vacuum_rows_with_drops(lam, depth, length_cap, mode_cap, gen_window, n0_ext):
    """imaginary_verma's labels and rows, built with the drop tracking of its
    old row path, kept as the oracle of vacuum_support: a row term whose
    target is not a label is dropped, and a label is masked iff one of its
    terms was dropped.  Labels come in lexicographic order of the power
    vectors over the modes -mode_cap..mode_cap.  Returns (weight_of,
    action, boundary)."""
    modes = [k for k in range(-mode_cap, mode_cap + 1) if k]
    weight_of = {}
    for pw in itertools.product(range(length_cap + 1), repeat=len(modes)):
        L, g = sum(pw), sum(k * p for k, p in zip(modes, pw))
        if L <= length_cap and abs(g) <= depth:
            mon = tuple((k, p) for k, p in zip(modes, pw) if p)
            for n0 in range(-n0_ext, length_cap - L + 1):
                weight_of[("m", n0, mon)] = AffWeight((lam - 2 * (n0 + L),), F(g), F(0))

    action, boundary = {}, set()
    for lab in weight_of:
        _, n0, mon = lab
        occ = Counter(dict(mon))
        L, g = sum(occ.values()), sum(k * p for k, p in mon)
        drops = []

        def put(vec, n, out, into, c):
            # n0 -> n, mon less the letters out plus the letter into (mode 0
            # raises n), with coefficient c
            new = occ.copy()
            new.subtract(out)
            if into == 0:
                n += 1
            elif into is not None:
                new[into] += 1
            tg = ("m", n, tuple(sorted((k, p) for k, p in new.items() if p)))
            if tg not in weight_of:
                drops.append(tg)
                return
            vec[tg] = vec.get(tg, 0) + c
            if not vec[tg]:
                del vec[tg]

        action[("D", lab)] = {lab: F(g)} if g else {}
        action[("K", lab)] = {}
        for m in range(-gen_window, gen_window + 1):
            f, h, e = {}, {}, {}
            put(f, n0, (), m, 1)
            if m == 0:
                h0 = lam - 2 * (n0 + L)
                h = {lab: h0} if h0 else {}
            else:
                for k, p in mon:
                    put(h, n0, (k,), k + m, -2 * p)
                if n0:
                    put(h, n0 - 1, (), m, -2 * n0)
            if lam and occ[-m]:
                put(e, n0, (-m,), None, lam * occ[-m])
            for ka, kb in itertools.combinations_with_replacement(sorted(occ), 2):
                cnt = occ[ka] * (occ[ka] - 1) // 2 if ka == kb else occ[ka] * occ[kb]
                if cnt:
                    put(e, n0, (ka, kb), m + ka + kb, -2 * cnt)
            if n0 and m == 0:
                put(e, n0 - 1, (), None, n0 * (lam - 2 * L))
            if n0 and m:
                for k, p in mon:
                    put(e, n0 - 1, (k,), k + m, -2 * n0 * p)
            if n0 not in (0, 1):
                put(e, n0 - 2, (), m, -n0 * (n0 - 1))
            action[(("t", "E21", m), lab)] = f
            action[(("t", "H1", m), lab)] = h
            action[(("t", "E12", m), lab)] = e
        if drops:
            boundary.add(lab)
    return weight_of, action, boundary


# (lam, depth, length_cap, mode_cap, gen_window, n0_ext)
_VACUUM_GRID = [
    (lam, depth, cap, None, gw, ext)
    for lam in (F(3), F(0), F(1, 2))
    for depth in (1, 2, 3)
    for cap in (1, 2, 3)
    for gw in (1, 2)
    for ext in (0, 2)
] + [
    (F(3), 3, 3, 2, 1, 0),  # mode cap below depth
    (F(3), 3, 3, 1, 2, 0),  # gen_window above the mode cap
    (F(1), 3, 2, None, 1, 3),
    (F(-2), 3, 2, 2, 3, 1),
    (F(3), 1, 3, 3, 1, 0),  # mode cap above depth
    (F(0), 2, 3, 3, 2, 3),
    (F(1), 2, 2, 2, 0, 2),  # f_0, h_0 and e_0 only
    (F(5, 2), 4, 2, 2, 1, 1),
]


def test_vacuum_support_is_the_support_of_imaginary_verma():
    for lam, depth, cap, mode_cap, gw, ext in _VACUUM_GRID:
        args = (lam, depth, cap, mode_cap, gw, ext)
        S = vacuum_support(*args)
        M = imaginary_verma(*args)
        weight_of, action, boundary = _vacuum_rows_with_drops(
            lam, depth, cap, depth if mode_cap is None else mode_cap, gw, ext
        )
        assert list(S.weight_of.items()) == list(weight_of.items()), args
        assert S.boundary == boundary, args
        assert S.weights == M.weights
        assert S.gens == M.gens == _loop_gens(A1aff, gw)
        assert list(M.weight_of.items()) == list(weight_of.items())
        assert M.boundary == boundary
        assert M.action == action, args


def test_vacuum_support_rejects_a_negative_n0_ext():
    # n0 would start at 1, leaving out the vacuum ("m", 0, ())
    assert ("m", 0, ()) in vacuum_support(F(3), 2, 2, n0_ext=0).weight_of
    for build in (vacuum_support, imaginary_verma):
        with pytest.raises(ValueError, match="n0_ext"):
            build(F(3), 2, 2, n0_ext=-1)


def test_vacuum_support_rejects_a_negative_depth_or_length_cap():
    # either cap below zero leaves no label at all, the vacuum included
    for build in (vacuum_support, imaginary_verma):
        with pytest.raises(ValueError, match="length_cap"):
            build(F(3), 2, -1)
        with pytest.raises(ValueError, match="depth"):
            build(F(3), -1, 2)


# ------------------------------------------------------------ Prop-4.2 pairing


def _prop42_expected(n, lam):
    out = []
    for k in range(1, n):
        row = []
        for l in range(1, n):
            if l > k and n < k + l:
                row.append(4 * lam)
            elif l <= k and n >= k + l:
                row.append(-4 * lam)
            else:
                row.append(F(0))
        out.append(row)
    return out


def test_prop42_case_split():
    for n in (2, 3, 4, 5, 6):
        lam = F(3)
        assert prop42_matrix(n, lam) == _prop42_expected(n, lam)


def test_prop42_zero_lambda():
    assert prop42_matrix(4, F(0)) == [[F(0)] * 3 for _ in range(3)]


def test_prop42_submatrix_invertible():
    from affinekit.exact import det

    for n in (6, 7, 9):
        lam = F(3)
        mat = prop42_matrix(n, lam)
        half = [r[: (n - 1) // 2] for r in mat[: (n - 1) // 2]]
        assert det(half) != 0


def _cartan_levi_module(lam, k):
    """C_lam: one label, h t^0 -> lam, D -> 0, K -> k, over the Levi of the
    natural Borel of affine A1 (its degree-zero Cartan, D and K)."""
    h, v = ("t", "H1", 0), "v"
    action = {(h, v): _scaled({v: _ONE}, F(lam)), ("D", v): {}, ("K", v): _scaled({v: _ONE}, F(k))}
    return GradedModule(
        A1aff, {v: AffWeight((F(lam),), _Z, F(k))}, action, set(), F(k), [h, "D", "K"]
    )


def _prop42_read_off_the_engine(n, lam, k):
    """prop42_matrix(n, lam) read off the Verma module induced from C_lam at
    level k along the natural Borel of A1: entry (k', l) applies f_{l-n},
    e_{-l}, h_{n-k'} and h_{k'} to the top label, checking that every vector
    read lies on unmasked labels and that the result lies on the top label."""
    window = DegreeWindow(1 - 2 * n, 2 * n - 1)
    P = assemble_parabolic(A1aff, make_flag(A1aff, (F(1), F(5))), window)
    assert P.tag == "standard" and P.levi_root_keys() == []
    M = induced_truncated(P, _cartan_levi_module(lam, k), 3, gen_window=n - 1)
    top = ((), "v")
    out = []
    for kk in range(1, n):
        row = []
        for l in range(1, n):
            vec = {top: _ONE}
            for gk in (("t", "E21", l - n), ("t", "E12", -l), ("t", "H1", n - kk), ("t", "H1", kk)):
                assert not vec.keys() & M.boundary, (kk, l, gk)
                vec = M.apply_gen(gk, vec)
            assert vec.keys() <= {top} and top not in M.boundary, (kk, l)
            row.append(vec.get(top, _Z))
        out.append(row)
    return out


@pytest.mark.parametrize("n,lam", [(2, F(1)), (2, F(-3, 2)), (3, F(1))], ids=str)
def test_prop42_matrix_is_read_off_the_induced_verma_module(n, lam):
    assert _prop42_read_off_the_engine(n, lam, 0) == prop42_matrix(n, lam)


def test_prop42_read_off_the_engine_sees_the_level():
    # prop42 is a level-zero pairing: at level 1 the central terms of the
    # brackets of h's survive
    assert _prop42_read_off_the_engine(2, F(1), 1) != prop42_matrix(2, F(1))


# ------------------------------------------------------------ induced modules


def _standard_P():
    flag = make_flag(A2aff, (F(1), F(2), F(5)))
    return assemble_parabolic(A2aff, flag, DegreeWindow(-1, 1))


def _levi_N():
    P = _standard_P()
    return levi_dense_module(
        P,
        DenseSL2Params(F(1, 2), F(3)),
        DegreeWindow(-2, 2),
        base_fin=(F(1, 2), F(4)),
    )


def test_levi_dense_module_consistency():
    N = _levi_N()
    # H1 reads off b+2j, H2 drops by 1 per e-step up.
    labs = sorted(N.weight_of)
    for lab in labs:
        j = lab[1]
        assert N.weight_of[lab].fin == (F(1, 2) + 2 * j, F(4) - j)
    assert check_bracket_compat(N) == []
    assert check_weight_additivity(N) == []


def test_levi_dense_module_rejects_a_base_fin_of_the_wrong_length():
    # A2 has two finite coordinates: one is too few, three too many
    P = _standard_P()
    params = DenseSL2Params(F(1, 2), F(3))
    for base_fin in ((F(1, 2),), (F(1, 2), F(4), F(7))):
        with pytest.raises(ValueError, match="base_fin needs 2 coordinates"):
            levi_dense_module(P, params, DegreeWindow(-2, 2), base_fin)


def test_cartan_value_untwisted_and_twisted():
    from affinekit.modrep import _cartan_value

    fin = (F(3), F(-1))
    assert _cartan_value(A2aff, AffElt({("H1", 0): 2, ("H2", 0): 1}), fin) == 5
    # the twisted coroot is 2(H1 + H2), so H1 + H2 reads half its coordinate
    assert A2tw.tw_coroots == [LieElt({"H1": 2, "H2": 2})]
    assert _cartan_value(A2tw, AffElt({("H1+H2", 0): 1}), (F(3),)) == F(3, 2)
    with pytest.raises(ValueError):
        _cartan_value(A2aff, AffElt({("E12", 0): 1}), fin)


def test_levi_sl2_root():
    assert levi_sl2_root(_standard_P()) == AffRoot("real", (F(2), F(-1)), 0)
    # real Levi roots: none, then all six of the finite A2
    for phi1 in ((F(1), F(1), F(5)), (F(0), F(0), F(1))):
        P = assemble_parabolic(A2aff, make_flag(A2aff, phi1), DegreeWindow(-1, 1))
        with pytest.raises(IncompatibleData):
            levi_sl2_root(P)


@pytest.mark.parametrize(
    "rank_type,phi1",
    [("A2", (2, -3, 1)), ("C2", (-1, 1, 1)), ("A3", (-3, 1, 0, 1))],
)
def test_levi_sl2_root_reads_the_levi_beyond_the_window(rank_type, phi1):
    # on the window -1..1 these Levis show one root pair; the whole Levi
    # {psi = 0} is sl3 (A2), 8 roots (C2) or 12 roots (A3)
    A = build_affine(build_simple(rank_type))
    P = assemble_parabolic(A, make_flag(A, tuple(F(c) for c in phi1)), DegreeWindow(-1, 1))
    assert P.tag == "standard"
    assert len([k for k in P.levi_keys() if any(k[0])]) == 2
    with pytest.raises(IncompatibleData, match="needs an sl2 Levi"):
        levi_sl2_root(P)


def test_induced_truncated_rejects_a_negative_depth():
    # depth -1 would leave out even the top layer N
    P, N = _standard_P(), _levi_N()
    assert len(induced_truncated(P, N, 0).weight_of) == len(N.weight_of)
    with pytest.raises(ValueError, match="depth"):
        induced_truncated(P, N, -1)


def test_induced_layers_and_top():
    P = _standard_P()
    N = _levi_N()
    M = induced_truncated(P, N, depth=2)
    # depth-0 layer is N
    layer0 = [l for l in M.weight_of if l[0] == ()]
    assert len(layer0) == len(N.weight_of)
    # positive radical generators kill the top layer
    # radical keys: k in P with -k outside P
    rad = [
        (fin, n) for fin, n in P.keys()
        if any(fin) and P.member(fin, n)
        and not P.member(tuple(-c for c in fin), -n)
    ]
    for fin, n in rad[:6]:
        from affinekit.affine import canonical_generator

        x = canonical_generator(A2aff, fin, n)
        ((lab, m),) = [k for k in x.c]
        for l0 in layer0:
            assert M.apply_gen(("t", lab, m), {l0: F(1)}) == {}


def test_induced_layer_dims_match_pbw():
    P = _standard_P()
    N = _levi_N()
    M = induced_truncated(P, N, depth=2)
    letters = _induction_push(P, 2, max(abs(P.window.nmin), abs(P.window.nmax))).letters
    for r in (0, 1, 2):
        # independent count: monomials of length r over the letters, times N
        expect = 0
        for _ in itertools.combinations_with_replacement(letters, r):
            expect += 1
        got = len([l for l in M.weight_of if len(l[0]) == r])
        assert got == expect * len(N.weight_of)


def test_induced_bracket_compat():
    P = _standard_P()
    N = _levi_N()
    M = induced_truncated(P, N, depth=2)
    assert check_bracket_compat(M) == []
    assert check_weight_additivity(M) == []


def test_induced_tables_do_not_leak_between_modules():
    # the push is kept per P and basis_bracket on the algebra: one P
    # inducing N and then a twist of N must agree with fresh ones each time
    from affinekit.affine import AffRoot, is_positive_root
    from affinekit.locfun import make_twist_spec, twist_module

    P = _standard_P()
    N = _levi_N()
    fin, n = next(
        k for k in P.levi_keys() if any(k[0]) and is_positive_root(A2aff, k[0], k[1])
    )
    T = twist_module(N, make_twist_spec(N, AffRoot("real", fin, n), F(1, 2)))
    shared = [induced_truncated(P, S, depth=1) for S in (N, T)]
    for M, S in zip(shared, (N, T)):
        A = build_affine(build_simple("A2"))
        fresh = induced_truncated(
            assemble_parabolic(A, make_flag(A, (F(1), F(2), F(5))), DegreeWindow(-1, 1)),
            S,
            depth=1,
        )
        assert M.weight_of == fresh.weight_of
        assert M.action == fresh.action
        assert M.boundary == fresh.boundary
    assert shared[0].action != shared[1].action


def test_induced_rejects_scattered_support():
    P = _standard_P()
    N = _levi_N()
    bad = dataclasses.replace(
        N,
        weight_of={
            lab: (
                w
                if lab != ("w", 2)
                else AffWeight((w.fin[0] + F(1, 3), w.fin[1]), w.d, w.k)
            )
            for lab, w in N.weight_of.items()
        },
    )
    with pytest.raises(ValueError):
        induced_truncated(P, bad, depth=1)
    # half the Levi root (2, -1) + 0 delta lies in the Levi root span but not
    # in its lattice, so the shifted label sits in another coset
    assert levi_sl2_root(P) == AffRoot("real", (F(2), F(-1)), 0)
    w = N.weight_of[("w", 2)]
    half = AffWeight((w.fin[0] + 1, w.fin[1] - F(1, 2)), w.d, w.k)
    bad = dataclasses.replace(N, weight_of={**N.weight_of, ("w", 2): half})
    with pytest.raises(ValueError, match="several Levi root lattice cosets"):
        induced_truncated(P, bad, depth=1)


# the push re-run per label, as induced_truncated did before it was tabulated


def solve_any(A, b):
    """Some solution of A x = b, or None if inconsistent: one rref of [A | b]."""
    cols = len(A[0])
    m, pivots = rref([list(row) + [bv] for row, bv in zip(A, b)])
    if cols in pivots:
        return None
    sol = [_Z] * cols
    for r, c in enumerate(pivots):
        sol[c] = m[r][cols]
    return sol


def _basis_kind(P, lab, m):
    """"levi", "nplus" or "letter" for the loop basis key (lab, m), read off
    P.member: the degree-zero Cartan or a root in P with its negative, a root
    in P whose negative is not, a root outside P."""
    fin = P.algebra.fin_weight(m, lab)
    if not any(fin) and m == 0:
        return "levi"
    if not P.member(fin, m):
        return "letter"
    return "levi" if P.member(tuple(-c for c in fin), -m) else "nplus"


def _induced_per_label(P, N, depth, gen_window=None):
    """induced_truncated as it was before the push was tabulated: the whole
    push re-run for every label of N, kept here as the oracle.

    Parabolically induced module, truncated at monomial length depth.

    P must be standard with a defining flag.  The coefficient module N is a
    module for the Levi generators (both Levi root directions, the full
    degree-zero Cartan, D and K).  The negative radical supplies the letter
    alphabet; the basis is (nondecreasing letter monomial, N-label) and the
    action is computed by pushing generators through monomials with exact
    brackets.  N must be supported in a single coset of the Levi root
    lattice.
    """
    A = P.algebra
    if P.tag != "standard":
        raise ValueError("induction here needs a standard parabolic")
    if gen_window is None:
        gen_window = max(abs(P.window.nmin), abs(P.window.nmax))

    letters = [
        key for r in P.roots for key in root_space(A, r) if _basis_kind(P, *key) == "letter"
    ]
    letters.sort(key=lambda t: (t[1], t[0]))
    lset = set(letters)
    lorder = {l: i for i, l in enumerate(letters)}

    levi_cols = []
    for k in P.levi_keys():
        if any(c for c in k[0]) or k[1] != 0:
            levi_cols.append(list(k[0]) + [Fraction(k[1])])
    nlabs = list(N.weight_of)
    w0 = N.weight_of[nlabs[0]]
    for nl in nlabs[1:]:
        w = N.weight_of[nl]
        dvec = [a - c for a, c in zip(w.fin, w0.fin)] + [w.d - w0.d]
        if levi_cols:
            mat = [[col[i] for col in levi_cols] for i in range(len(dvec))]
            if solve_any(mat, dvec) is None:
                raise ValueError("N is supported on several Levi root lattice cosets")
        elif any(dvec):
            raise ValueError("N is supported on several Levi root lattice cosets")

    mons = [()]
    for r in range(1, depth + 1):
        mons.extend(itertools.combinations_with_replacement(letters, r))
    weight_of = {}
    for mon in mons:
        wl = AffWeight(tuple([_Z] * A.fin_rank), _Z, _Z)
        for l in mon:
            wl = wl + A.loop_weight(l)
        for nl in nlabs:
            weight_of[(mon, nl)] = wl + N.weight_of[nl]

    cache_act, cache_ins = {}, {}

    def past_first(key, rest, mon, nl):
        """key . (mon[0] mon[1:]) = mon[0] (key . mon[1:]) + [key, mon[0]] . mon[1:],
        given rest = (key . mon[1:], taint)."""
        l1 = mon[0]
        out, taint = {}, rest[1]
        for (mon2, nl2), c in rest[0].items():
            v2, t2 = insert_letter(l1, mon2, nl2)
            taint |= t2
            _acc(out, v2, c)
        v3, t3 = act_elt(A.basis_bracket(key, l1), mon[1:], nl)
        _acc(out, v3)
        return out, taint | t3

    def insert_letter(l, mon, nl):
        key = (l, mon, nl)
        if key in cache_ins:
            return cache_ins[key]
        if len(mon) >= depth:
            res = ({}, True)
        elif not mon or lorder[l] <= lorder[mon[0]]:
            res = ({((l,) + mon, nl): _ONE}, False)
        else:
            res = past_first(l, insert_letter(l, mon[1:], nl), mon, nl)
        cache_ins[key] = res
        return res

    def act_key(lab, m, mon, nl):
        key = (lab, m, mon, nl)
        if key in cache_act:
            return cache_act[key]
        cls = _basis_kind(P, lab, m)
        if cls == "letter":
            if (lab, m) in lset:
                res = insert_letter((lab, m), mon, nl)
            else:
                res = ({}, True)  # letter root outside the stored window
        elif not mon:
            if cls == "nplus":
                res = ({}, False)
            else:
                gk = ("t", lab, m)
                if (gk, nl) not in N.action:
                    raise UntabulatedGenerator(f"Levi generator {gk!r} is not tabulated in N")
                vec = {((), t): c for t, c in N.action[(gk, nl)].items()}
                res = (vec, nl in N.boundary)
        else:
            res = past_first((lab, m), act_key(lab, m, mon[1:], nl), mon, nl)
        cache_act[key] = res
        return res

    def act_elt(x, mon, nl):
        # x is a shared basis bracket (read only here), so it has no D part
        out, taint = {}, False
        for (lab, m), c in x.c.items():
            v, t = act_key(lab, m, mon, nl)
            taint |= t
            _acc(out, v, c)
        if x.k and N.k_value:
            _acc(out, {(mon, nl): N.k_value}, x.k)
        return out, taint

    gens = _loop_gens(A, gen_window)

    action, boundary = {}, set()
    for (mon, nl) in weight_of:
        lab = (mon, nl)
        w = weight_of[lab]
        action[("D", lab)] = {lab: w.d} if w.d else {}
        action[("K", lab)] = _scaled({lab: _ONE}, N.k_value)
        if nl in N.boundary:
            boundary.add(lab)
        for gk in gens:
            if gk in ("D", "K"):
                continue
            vec, taint = act_key(gk[1], gk[2], mon, nl)
            action[(gk, lab)] = dict(vec)
            if taint:
                boundary.add(lab)
    return GradedModule(A, weight_of, action, boundary, N.k_value, gens)


_PUSH_FLAGS = {"A2": (A2aff, (1, 2, 5)), "C2": (build_affine(build_simple("C2")), (1, F(1, 2), -2))}
_PUSH_PS = {}


def _push_P(name):
    """One long-lived P per flag, so the cases after the first reuse its table."""
    if name not in _PUSH_PS:
        A, phi1 = _PUSH_FLAGS[name]
        flag = make_flag(A, tuple(F(c) for c in phi1))
        _PUSH_PS[name] = assemble_parabolic(A, flag, DegreeWindow(-1, 1))
    return _PUSH_PS[name]


def _push_N(P, b, variant):
    """A dense Levi line with h-value b at j = 0, plain, twisted or at level 3."""
    from affinekit.locfun import make_twist_spec, twist_module

    A = P.algebra
    root = levi_sl2_root(P)
    h = sl2_triple(A, root)[2]
    # base_fin = (t, 4, ...) with t chosen so that the Levi coroot reads b
    rest = [F(4)] * (A.fin_rank - 1)
    v0 = _cartan_value(A, h, (F(0), *rest))
    v1 = _cartan_value(A, h, (F(1), *rest)) - v0
    base = ((F(b) - v0) / v1, *rest)
    N = levi_dense_module(P, DenseSL2Params(F(b), F(5, 2)), DegreeWindow(-2, 2), base)
    if variant == "twisted":
        return twist_module(N, make_twist_spec(N, root, F(1, 2)))
    if variant == "level3":
        action = dict(N.action)
        for lab in N.weight_of:
            action[("K", lab)] = {lab: F(3)}
        return dataclasses.replace(N, action=action, k_value=F(3))
    return N


_PUSH_CASES = [
    ("A2", 1, None, F(1, 2), "plain"),
    ("A2", 1, 2, F(2), "level3"),
    ("A2", 2, None, F(2), "plain"),
    ("A2", 2, None, F(1, 2), "twisted"),
    ("A2", 3, None, F(-3, 2), "plain"),
    ("C2", 1, None, F(-1), "twisted"),
    ("C2", 2, None, F(1, 2), "plain"),
    ("C2", 2, 2, F(0), "level3"),
]


@pytest.mark.parametrize(
    "algebra,depth,gen_window,b,variant",
    _PUSH_CASES,
    ids=[f"{a}-depth{d}-gw{g}-b{b}-{v}" for a, d, g, b, v in _PUSH_CASES],
)
def test_induced_push_matches_the_per_label_push(algebra, depth, gen_window, b, variant):
    P = _push_P(algebra)
    N = _push_N(P, b, variant)
    got = induced_truncated(P, N, depth, gen_window)
    want = _induced_per_label(P, N, depth, gen_window)
    assert got.weight_of == want.weight_of
    assert got.action == want.action
    assert got.boundary == want.boundary
    assert got.gens == want.gens


def test_induction_push_is_built_once_per_parabolic(monkeypatch):
    from affinekit.affine import AffineAlgebra
    from affinekit.rootpar import ParabolicSet

    P = _standard_P()
    N = _levi_N()
    first = induced_truncated(P, N, depth=2)
    assert list(modrep._PUSHES[P]) == [(2, 1)]
    push = modrep._PUSHES[P][(2, 1)]
    T = dataclasses.replace(N, action={**N.action, ("D", ("w", 0)): {("w", 0): F(7)}})
    calls = {"basis_bracket": 0, "member": 0}
    for cls, name in ((AffineAlgebra, "basis_bracket"), (ParabolicSet, "member")):
        orig = getattr(cls, name)

        def counted(self, *args, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(self, *args)

        monkeypatch.setattr(cls, name, counted)
    again = induced_truncated(P, T, depth=2)
    assert calls == {"basis_bracket": 0, "member": 0}
    assert _induction_push(P, 2, 1) is push
    assert again.action == first.action and again.boundary == first.boundary
    induced_truncated(P, N, depth=1)
    assert calls["member"] > 0
    assert list(modrep._PUSHES[P]) == [(2, 1), (1, 1)]
    # the table holds P weakly: P and its pushes leave with its last reference
    ref = weakref.ref(P)
    del P
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("key,phi1", [("A2", (1, 2, 5)), ("C2", (1, 0, 3))])
def test_push_letters_are_the_roots_outside_P(key, phi1):
    A = build_affine(build_simple(key))
    P = assemble_parabolic(A, make_flag(A, tuple(F(c) for c in phi1)), DegreeWindow(-1, 1))
    assert P.tag == "standard"
    members = dict(P.members)
    push = _induction_push(P, 1, 1)
    # every basis key of a window root outside P, and nothing else, in
    # (degree, label) order
    outside = [
        key for r in P.roots if not P.member(r.fin, r.n) for key in root_space(A, r)
    ]
    assert push.letters == sorted(outside, key=lambda t: (t[1], t[0]))
    assert set(push.weights) == {()} | {(l,) for l in push.letters}
    kinds = {
        _basis_kind(P, lab, m) for m in range(-3, 4) for lab in A.class_labels(m)
    }
    assert kinds == {"levi", "nplus", "letter"}
    assert P.members == members


def test_induction_reads_the_levi_beyond_the_window():
    # the Levi root of this flag sits at degree 3, outside the window
    A = build_affine(build_simple("C2"))
    P = assemble_parabolic(A, make_flag(A, (F(3), F(1, 2), F(2))), DegreeWindow(-1, 1))
    assert P.tag == "standard" and P.levi_keys() == []
    assert levi_sl2_root(P) == AffRoot("real", (F(-2), F(0)), 3)
    assert P.levi_root_keys() is P.levi_root_keys()
    N = _push_N(P, F(1, 2), "plain")
    for depth, size in ((1, 75), (2, 600)):
        M = induced_truncated(P, N, depth)
        assert len(M.weight_of) == size
        assert check_bracket_compat(M) == []
        assert check_weight_additivity(M) == []


def test_induced_guard_masks_only_where_its_terms_are_nonzero():
    # no table built from a real flag has shown a guard yet, so one is
    # planted: the mask entry of the empty monomial loses a term wherever the
    # e row of N is nonzero, which with c = 0 excludes the interior j = 0
    P = _standard_P()
    N = levi_dense_module(
        P, DenseSL2Params(F(1, 2), F(0)), DegreeWindow(-2, 2), base_fin=(F(1, 2), F(4))
    )
    egen = N.gens[0]
    assert N.action[(egen, ("w", 0))] == {} and ("w", 0) not in N.boundary
    plain = induced_truncated(P, N, depth=1)
    push = _induction_push(P, 1, 1)
    reads, always, guards = push.masks[()]
    assert not always
    planted = (reads + (egen,), False, guards | {((egen, F(1)),)})
    modrep._PUSHES[P][(1, 1)] = dataclasses.replace(push, masks={**push.masks, (): planted})
    M = induced_truncated(P, N, depth=1)
    assert M.action == plain.action
    assert M.boundary - plain.boundary == {((), ("w", -1)), ((), ("w", 1))}
    assert plain.boundary <= M.boundary


def test_induced_untabulated_levi_row_is_named():
    P = _standard_P()
    N = _levi_N()
    fgen = N.gens[1]
    bad = dataclasses.replace(
        N, action={key: row for key, row in N.action.items() if key != (fgen, ("w", 0))}
    )
    with pytest.raises(UntabulatedGenerator, match=re.escape(repr(fgen))):
        induced_truncated(P, bad, depth=1)


# rows on first read, against the push evaluated up front


def _eager_rows(P, N, depth, gen_window=None):
    """Every action row of induced_truncated(P, N, depth, gen_window), each
    push row evaluated at each label up front, as induced_truncated did
    before its rows were filled on first read; kept here as the oracle."""
    if gen_window is None:
        gen_window = max(abs(P.window.nmin), abs(P.window.nmax))
    push = _induction_push(P, depth, gen_window)
    k = N.k_value
    action = {}
    for mon, wl in push.weights.items():
        for nl, wn in N.weight_of.items():
            lab = (mon, nl)
            d = wl.d + wn.d
            action[("D", lab)] = {lab: d} if d else {}
            action[("K", lab)] = {lab: k} if k else {}
            for gk, terms in push.rows[mon].items():
                vec = {}
                for mon2, slot, c in terms:
                    if slot is None:
                        _acc(vec, {(mon2, nl): c})
                    elif slot == "K":
                        _acc(vec, {(mon2, nl): c * k})
                    else:
                        _acc(vec, {(mon2, t): c * v for t, v in N.action[(slot, nl)].items()})
                action[(gk, lab)] = vec
    return action


def _seeded_levi_N(seed, twisted=False):
    """A dense Levi line on the induce flag (1, 2, 5) of A2, drawn as the
    induce benchmark draws it, optionally twisted along the Levi root."""
    from affinekit.locfun import make_twist_spec, twist_module

    rng = random.Random(seed)
    P = _push_P("A2")
    b = F(rng.randint(-5, 5), rng.choice((2, 3)))
    c = F(rng.randint(1, 9), rng.choice((1, 2)))
    N = levi_dense_module(P, DenseSL2Params(b, c), DegreeWindow(-3, 3), base_fin=(b, F(4)))
    if twisted:
        N = twist_module(N, make_twist_spec(N, levi_sl2_root(P), F(rng.randint(-9, 9), 2)))
    return P, N


def _natural_borel_N(k):
    """A one-label Cartan module at level k on the natural Borel of A2,
    whose Levi is the degree-zero Cartan alone."""
    P = assemble_parabolic(A2aff, make_flag(A2aff, (F(1), F(1), F(5))), DegreeWindow(-1, 1))
    lab, fin = ("v", 0), (F(3, 2), F(-2))
    carts = A2aff.cartan_labels(0)
    action = {("D", lab): {}, ("K", lab): {lab: k}}
    for hl in carts:
        val = _cartan_value(A2aff, AffElt({(hl, 0): _ONE}), fin)
        action[(("t", hl, 0), lab)] = {lab: val} if val else {}
    gens = [("t", hl, 0) for hl in carts] + ["D", "K"]
    return P, GradedModule(A2aff, {lab: AffWeight(fin, _Z, _Z)}, action, set(), k, gens)


_LAZY_CASES = {
    "seed0-depth1": lambda: (*_seeded_levi_N(0), 1),
    "seed1-depth2": lambda: (*_seeded_levi_N(1), 2),
    "seed2-twisted-depth1": lambda: (*_seeded_levi_N(2, twisted=True), 1),
    "natural-borel-level3-depth2": lambda: (*_natural_borel_N(F(3)), 2),
}


@pytest.mark.parametrize("case", sorted(_LAZY_CASES))
def test_induced_rows_equal_the_eager_evaluation(case):
    # read in a shuffled order, so rows are filled label by label in between
    P, N, depth = _LAZY_CASES[case]()
    M = induced_truncated(P, N, depth)
    want = _eager_rows(P, N, depth)
    keys = list(want)
    random.Random(7).shuffle(keys)
    for key in keys:
        assert M.action[key] == want[key], key
    assert dict(M.action) == want
    assert M.action == want and want == M.action
    assert len(M.boundary) < len(M.weight_of)


def test_building_an_induced_module_fills_no_row():
    P, N = _seeded_levi_N(0)
    M = induced_truncated(P, N, depth=1)
    assert M.weight_of and M.boundary and M.multiplicity_table()
    assert M.action._rows == {}
    # iteration yields keys and reads no row
    assert len(list(M.action)) == len(M.action) and M.action._rows == {}
    # one read fills exactly that row, and a second read fills nothing more
    lab = next(l for l in M.weight_of if l not in M.boundary)
    want = _eager_rows(P, N, 1)
    for gk in (("t", "E21", -1), "D", "K"):
        before = set(M.action._rows)
        assert M.action[(gk, lab)] == want[(gk, lab)]
        assert set(M.action._rows) == before | {(gk, lab)}
    assert M.action[("D", lab)] is M.action[("D", lab)]
    assert set(M.action._rows) == {(g, lab) for g in (("t", "E21", -1), "D", "K")}


def test_induced_action_behaves_as_a_dict():
    P, N = _seeded_levi_N(3)
    M = induced_truncated(P, N, depth=1)
    want = _eager_rows(P, N, 1)
    lab = next(iter(M.weight_of))
    # membership and len read no row
    assert (("t", "E12", 0), lab) in M.action and ("D", lab) in M.action
    assert (("t", "E12", 7), lab) not in M.action
    assert (("t", "E12", 0), ((), ("w", 99))) not in M.action
    assert "D" not in M.action and ("D", lab, 0) not in M.action
    assert len(M.action) == len(want)
    assert M.action._rows == {}
    with pytest.raises(KeyError):
        M.action[(("t", "E12", 7), lab)]
    with pytest.raises(KeyError):
        M.action[("D", ((), ("w", 99)))]
    assert M.action.get((("t", "E12", 7), lab)) is None
    items = list(M.action.items())
    assert len(items) == len(want) and dict(items) == want
    assert set(M.action) == set(want)
    # one changed row breaks == both ways, as one missing row does
    key = next(k for k, row in want.items() if row)
    for other in ({**want, key: {}}, {k: v for k, v in want.items() if k != key}):
        assert M.action != other and other != M.action


# ------------------------------------------------------------ shadows and P_M


def test_shadow_loop_finite_all_f():
    M = loop_module(
        A1aff,
        [finite_dim_sl2(1), finite_dim_sl2(1)],
        [F(1), F(2)],
        DegreeWindow(-6, 6),
    )
    for n in (-1, 0, 1):
        for fin in ((F(2),), (F(-2),)):
            assert shadow_detect(M, fin, n).tag == "f"


def test_shadow_dense_loop_i_type():
    M = loop_module(
        A1aff,
        [dense_sl2(DenseSL2Params(F(1, 2), F(3)), DegreeWindow(-5, 5)), finite_dim_sl2(1)],
        [F(1), F(2)],
        DegreeWindow(-3, 3),
    )
    assert shadow_detect(M, (F(2),), 0).tag == "i"
    assert shadow_detect(M, (F(-2),), 0).tag == "i"


def test_shadow_imverma_split():
    M = imaginary_verma(F(3), depth=3, length_cap=3)
    assert shadow_detect(M, (F(2),), 1).tag == "f"
    assert shadow_detect(M, (F(-2),), 0).tag == "i"


def _per_start_shadow(M, fin, n):
    """The shadow tag read by walking the whole ray from every start weight,
    kept as the oracle of shadow_detect's one walk per weight."""
    disp = AffWeight(tuple(F(c) for c in fin), F(n), F(0))
    supp = M.weights
    interior, edge = None, None
    for w0 in M.support_sorted():
        k, prev, w = 1, w0, w0 + disp
        while w in supp:
            k += 1
            prev, w = w, w + disp
        if all(l in M.boundary for l in supp[prev]):
            if edge is None:
                edge = ShadowReport("i", w0, k - 1)
        elif interior is None or k - 1 > interior.steps:
            interior = ShadowReport("f", w0, k - 1)
    return edge if interior is None else interior


def _shadow_grid():
    W1, W3 = DegreeWindow(-1, 1), DegreeWindow(-3, 3)
    fins = [finite_dim_sl2(1), finite_dim_sl2(2)]
    dense = [dense_sl2(DenseSL2Params(F(1, 2), F(3)), DegreeWindow(-3, 3)), finite_dim_sl2(1)]
    yield imaginary_verma(F(3), 2, 2)
    yield imaginary_verma(F(1, 2), 3, 3)
    for W in (W1, W3):
        yield loop_support(A1aff, fins, [F(1), F(2)], W)
        yield loop_support(A1aff, dense, [F(1), F(2)], W)
    yield loop_module(A1aff, dense, [F(1), F(2)], W1)
    yield loop_module(A1aff, fins, [F(1), F(2)], W1, gen_window=1)
    yield loop_support(A2aff, [natural_rep(A2)], [F(1)], W1)


def test_shadow_walk_matches_the_per_start_walk():
    directions = 0
    for M in _shadow_grid():
        for d in set(M.gen_disp.values()):
            if any(d.fin) or d.d:
                assert shadow_detect(M, d.fin, d.d) == _per_start_shadow(M, d.fin, d.d)
                directions += 1
    assert directions == 140


@pytest.mark.parametrize(
    "M",
    [
        imaginary_verma(F(3), 4, 4),
        loop_support(A1aff, [finite_dim_sl2(1)], [F(1)], DegreeWindow(-3, 3)),
    ],
    ids=["imverma", "loop"],
)
def test_shadow_refuses_directions_no_tabulated_generator_moves_along(M):
    # generators of degree |m| <= 2 are tabulated, so the mask says
    # nothing about degree 3
    for fin, n in [(2, 3), (2, -3), (-2, 3), (-2, -3), (0, 3), (0, -3)]:
        with pytest.raises(UntabulatedGenerator, match=re.escape(f"({fin})+{n}d")):
            shadow_detect(M, (F(fin),), n)
    assert shadow_detect(M, (F(0),), 2).tag in ("f", "i")
    with pytest.raises(ValueError, match="must be nonzero"):
        shadow_detect(M, (F(0),), 0)


def test_shadow_of_an_empty_support_is_refused():
    with pytest.raises(IncompatibleData, match="empty support"):
        shadow_detect(Support(A1aff, {}, set(), _loop_gens(A1aff, 2)), (F(2),), 0)


def _hw_table(window):
    """Shadow table of the positive roots: f on each positive root, imaginary
    ones included, i on each negative one."""
    from affinekit.affine import is_positive_root, roots_window

    return {
        (r.fin, r.n): "f" if is_positive_root(A1aff, r.fin, r.n) else "i"
        for r in roots_window(A1aff, window)
    }


def test_build_PM_highest_weight_pattern():
    W = DegreeWindow(-3, 3)
    P = build_PM(A1aff, _hw_table(W), W)
    assert P.tag == "standard"
    from affinekit.rootpar import check_parabolic_axioms

    assert check_parabolic_axioms(P)
    table = _hw_table(W)
    for (fin, n), tag in table.items():
        neg = (tuple(-c for c in fin), -n)
        expect = tag == "f" or table[neg] == "i"
        assert P.member(fin, n) == expect


def test_build_PM_pure_tables():
    W = DegreeWindow(-3, 3)
    table = {k: "f" for k in _hw_table(W)}
    P = build_PM(A1aff, table, W)
    assert P.tag == "all"
    assert all(P.member(*k) for k in P.keys())
    table = {k: "i" for k in _hw_table(W)}
    P = build_PM(A1aff, table, W)
    assert P.tag == "all"


def test_build_PM_from_imverma_shadow():
    W = DegreeWindow(-2, 2)
    M = imaginary_verma(F(3), depth=3, length_cap=3)
    from affinekit.affine import roots_window

    # every window root is tagged, the imaginary ones (f, f) on the vacuum
    table = {(r.fin, r.n): shadow_detect(M, r.fin, r.n).tag for r in roots_window(A1aff, W)}
    assert {table[((F(0),), n)] for n in (-2, -1, 1, 2)} == {"f"}
    P = build_PM(A1aff, table, W)
    assert P.tag == "imaginary"
    for n in range(-2, 3):
        assert P.member((F(2),), n)
        assert not P.member((F(-2),), n)


def test_flagless_set_needs_a_flag_for_certificates():
    from affinekit.affine import roots_window
    from affinekit.rootpar import (
        classification_certificate,
        principal_witness,
        verify_classification,
    )

    W = DegreeWindow(-1, 1)
    M = imaginary_verma(F(3), depth=3, length_cap=3)
    table = {(r.fin, r.n): shadow_detect(M, r.fin, r.n).tag for r in roots_window(A1aff, W)}
    sets = [build_PM(A1aff, table, W), build_PM(A1aff, {k: "f" for k in table}, W)]
    assert [P.tag for P in sets] == ["imaginary", "all"]
    for P in sets:
        assert P.flag is None
        for check in (principal_witness, classification_certificate, verify_classification):
            with pytest.raises(ValueError, match="needs a defining flag"):
                check(P)


def _pm_table(P):
    """Shadow table of P on every window root: tag(r) = f iff r is in P and
    -r is not."""
    return {
        (fin, n): "f" if m and not P.member(tuple(-c for c in fin), -n) else "i"
        for (fin, n), m in P.members.items()
    }


def _string_kinds(table):
    """pure / mixed for each real root string of a shadow table."""
    strings = {}
    for (fin, n), t in sorted(table.items(), key=lambda kv: kv[0][1]):
        if any(fin):
            strings.setdefault(fin, []).append(t)
    return {"pure" if len(set(ts)) == 1 else "mixed" for ts in strings.values()}


@pytest.mark.parametrize(
    "phi1,phi2,tag",
    [
        # standard: the theta string is pure on the window, alpha1 and alpha2 mixed
        ((1, 1, 1), None, "standard"),
        # mixed: the alpha1 string is mixed, the others pure; on a window the
        # set is also the standard set of 2 phi1 + phi2, so build_PM says standard
        ((1, 2, 0), (0, 0, 1), "mixed"),
    ],
)
def test_build_PM_pure_and_mixed_strings(phi1, phi2, tag):
    W = DegreeWindow(-1, 1)
    P = assemble_parabolic(A2aff, make_flag(A2aff, phi1, phi2), W)
    assert P.tag == tag
    table = _pm_table(P)
    assert _string_kinds(table) == {"pure", "mixed"}
    Q = build_PM(A2aff, table, W)
    assert Q.members == P.members
    assert Q.tag == "standard"
    if tag == "standard":
        assert Q.tag == P.tag
    else:
        K = assemble_parabolic(A2aff, make_flag(A2aff, (2, 4, 1)), W)
        assert K.tag == "standard" and K.members == P.members


def _survey_sets():
    """(A, W, P) for random_flag seed 5, 60 draws each on A2, C2 and A3, on
    the window -1..1."""
    rng = random.Random(5)
    W = DegreeWindow(-1, 1)
    for name in ("A2", "C2", "A3"):
        A = build_affine(build_simple(name))
        for _ in range(60):
            yield A, W, assemble_parabolic(A, random_flag(A, rng), W)


def test_build_PM_inverts_the_shadow_rule_on_every_survey_flag():
    # the shadow table of P, imaginary roots included, gives P back, whether
    # the flag is standard, mixed or imaginary
    tags = Counter()
    for A, W, P in _survey_sets():
        assert build_PM(A, _pm_table(P), W).members == P.members, P.flag
        tags[P.tag] += 1
    assert tags == {"standard": 152, "mixed": 14, "imaginary": 14}


def test_build_PM_inconsistent_table():
    W = DegreeWindow(-3, 3)
    table = _hw_table(W)
    # f sandwiched between i tags along one string: not convex
    table[((F(2),), 0)] = "i"
    table[((F(2),), 1)] = "f"
    table[((F(2),), 2)] = "i"
    with pytest.raises(ValueError, match="not convex"):
        build_PM(A1aff, table, W)
    # the real strings rise to the f-side while the imaginary line is
    # tagged the other way round: no parabolic set has that shadow
    table = _hw_table(W)
    for n in range(-3, 4):
        if n:
            table[((F(0),), n)] = "i" if n > 0 else "f"
    with pytest.raises(ValueError, match="does not assemble into a parabolic set"):
        build_PM(A1aff, table, W)


# ----------------------------------------------------------- loop eigenvalues


def test_exp_poly_matches_loop_eigenvalues():
    # h t^n eigenvalue on the top tensor vector of a loop module equals
    # the exponential sum sum_i m_i a_i^n, m_i the top weights, a_i the scalars
    a = [F(1), F(3)]
    tops = [1, 2]
    M = loop_module(
        A1aff,
        [finite_dim_sl2(m) for m in tops],
        a,
        DegreeWindow(-3, 3),
        gen_window=3,
    )
    top = ((("u", 0), ("u", 0)), 0)
    for n in range(-3, 4):
        out = M.apply_gen(("t", "H1", n), {top: F(1)})
        tgt = ((("u", 0), ("u", 0)), n)
        assert out.get(tgt, F(0)) == sum(m * ai**n for m, ai in zip(tops, a))


# ------------------------------------------------------------ boundedness


def test_boundedness_probe():
    # the probe reads weights alone, so each family comes as its support
    def finite_family(N):
        return loop_support(
            A1aff,
            [finite_dim_sl2(1), finite_dim_sl2(2)],
            [F(1), F(2)],
            DegreeWindow(-N, N),
        )

    def one_dense(N):
        return loop_support(
            A1aff,
            [dense_sl2(DenseSL2Params(F(1, 2), F(3)), DegreeWindow(-N, N)), finite_dim_sl2(1)],
            [F(1), F(2)],
            DegreeWindow(-N, N),
        )

    def two_dense(N):
        return loop_support(
            A1aff,
            [
                dense_sl2(DenseSL2Params(F(1, 2), F(3)), DegreeWindow(-N, N)),
                dense_sl2(DenseSL2Params(F(1, 3), F(2)), DegreeWindow(-N, N)),
            ],
            [F(1), F(2)],
            DegreeWindow(-N, N),
        )

    r = boundedness_probe(finite_family)
    assert r["bounded"] and all(m == 2 for _, m in r["max_mult"])
    r = boundedness_probe(one_dense)
    assert r["bounded"]
    r = boundedness_probe(two_dense)
    assert not r["bounded"]
    maxima = [m for _, m in r["max_mult"]]
    assert maxima[0] < maxima[1] < maxima[2]


# ------------------------------------------------ sparse sums and stored rows


def _plain_acc(out, vec, c):
    """out += c * vec the long way: every entry multiplied and added to out's."""
    for key, v in vec.items():
        w = out.get(key, F(0)) + v * c
        if w:
            out[key] = w
        else:
            out.pop(key, None)
    return out


_KEYS = st.sampled_from("abcdef")
_FRACS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(_KEYS, _FRACS.filter(bool), max_size=5),
    st.dictionaries(_KEYS, _FRACS, max_size=5),
    st.one_of(
        st.sampled_from([1, F(1), _ONE, 0, F(0), -1, F(-1)]),
        st.integers(-3, 3),
        _FRACS,
    ),
)
def test_acc_is_the_plain_sum(out, vec, c):
    got = _acc(dict(out), vec, c)
    want = _plain_acc(dict(out), vec, c)
    # same values in the same key order, no stored zero, Fractions only
    assert list(got.items()) == list(want.items())
    assert all(type(v) is Fraction and v for v in got.values())


def _standard_induced():
    return induced_truncated(_standard_P(), _levi_N(), depth=1)


def _dense_twist(x):
    from affinekit.locfun import make_twist_spec, twist_module

    M = dense_sl2(DenseSL2Params(F(2), F(1)), DegreeWindow(-3, 3))
    return twist_module(M, make_twist_spec(M, (F(2),), x))


def _localized_vacuum():
    from affinekit.locfun import imverma_localized

    return imverma_localized(F(3), 2, 2, gen_window=1, n0_ext=2)


_EVERY_BUILDER = {
    "dense_half": lambda: dense_sl2(DenseSL2Params(F(1, 2), F(3)), JW),
    # integral even b: h vanishes on one label of the line
    "dense_b0": lambda: dense_sl2(DenseSL2Params(F(0), F(1)), JW),
    "dense_b2": lambda: dense_sl2(DenseSL2Params(F(2), F(0)), JW),
    "dense_b-4": lambda: dense_sl2(DenseSL2Params(F(-4), F(2)), JW),
    **{f"finite_dim_{m}": (lambda m=m: finite_dim_sl2(m)) for m in range(5)},
    "natural_A2": lambda: natural_rep(A2),
    "natural_C2": lambda: natural_rep(build_simple("C2")),
    "adjoint_A2": lambda: adjoint_rep(A2),
    "loop": lambda: loop_module(
        A1aff, [dense_sl2(DenseSL2Params(F(2), F(1)), DegreeWindow(-2, 2)), finite_dim_sl2(2)],
        [F(1), F(2)], DegreeWindow(-1, 1), gen_window=1,
    ),
    "loop_twisted_A2": lambda: loop_module(
        A2tw, [natural_rep(A2), adjoint_rep(A2)], [F(2), F(3)], DegreeWindow(-1, 1),
        gen_window=1,
    ),
    "twisted_fixed_points": lambda: twisted_loop_fixed_points(
        A2tw, [adjoint_rep(A2)] * 2, [F(1), F(-1)], DegreeWindow(-1, 1), gen_window=1
    ),
    "imaginary_verma": lambda: imaginary_verma(F(0), depth=2, length_cap=2, gen_window=1),
    "levi_dense": _levi_N,
    "induced": _standard_induced,
    "twist_integer": lambda: _dense_twist(F(2)),
    "twist_half": lambda: _dense_twist(F(-1, 2)),
    "localize": _localized_vacuum,
}


@pytest.mark.parametrize("build", list(_EVERY_BUILDER.values()), ids=list(_EVERY_BUILDER))
def test_builder_rows_hold_nonzero_fractions(build):
    M = build()
    assert M.action
    for key, row in M.action.items():
        assert all(type(c) is Fraction and c for c in row.values()), (key, row)


# ------------------------------------------------------------ helpers


def _vadd(a, b):
    out = dict(a)
    for k, v in b.items():
        w = out.get(k, F(0)) + v
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


def _vsub(a, b):
    return _vadd(a, {k: -v for k, v in b.items()})


def _vscale(a, c):
    return {k: v * c for k, v in a.items() if v * c}


def _mat_apply(T, v):
    out = {}
    for lab, c in v.items():
        for tgt, w in T[lab].items():
            out = _vadd(out, {tgt: c * w})
    return out
