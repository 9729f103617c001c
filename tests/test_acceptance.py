"""Twelve end-to-end gate checks, one PASS/FAIL line each (run with -s).

Every check is exact: a single rational mismatch anywhere fails the line.
Sampling is seeded, so reruns are deterministic.  Each check is sized to
finish well inside a minute on a laptop.
"""

import random
from fractions import Fraction as F

from affinekit.exact import det, gen_multinom, multinom_convolution_check
from affinekit.finlie import LieElt, build_simple, sigma_aut
from affinekit.affine import (
    AffElt,
    AffWeight,
    DegreeWindow,
    aff_bracket,
    aff_form,
    build_affine,
    root_space,
    roots_window,
)
from affinekit.rootpar import (
    assemble_parabolic,
    check_parabolic_axioms,
    classify_parabolic,
    in_QP,
    make_flag,
    phi_P,
    principal_witness,
    random_flag,
    verify_classification,
)
from affinekit.modrep import (
    DenseSL2Params,
    boundedness_probe,
    dense_sl2,
    finite_dim_sl2,
    levi_dense_module,
    loop_module,
    prop42_matrix,
)
from affinekit.locfun import (
    efloc_admissible,
    efloc_product,
    efloc_walk,
    f_power,
    induction_commutes_probe,
    make_twist_spec,
    theta_action,
    twist_laws,
    twist_table,
)

_Z = F(0)
_ONE = F(1)


def _line(name, failures):
    ok = not failures
    print(("PASS " if ok else "FAIL ") + name)
    assert ok, (name, failures[:5])


def _algebras():
    out = {}
    for t in ("A1", "A2", "A3", "C2"):
        out[t + "u"] = build_affine(build_simple(t))
    g = build_simple("A2")
    out["A2t"] = build_affine(g, twist=sigma_aut(g))
    return out


def _random_elt(A, rng, span):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        m = rng.randint(-span, span)
        label = rng.choice(A.class_labels(m))
        terms[(label, m)] = F(rng.randint(-4, 4))
    return AffElt(terms, d=F(rng.randint(-2, 2)), k=F(rng.randint(-2, 2)))


# 1 ---------------------------------------------------------------------


def test_structure_suite():
    # Jacobi and form invariance, 500 random triples per algebra, modes
    # within |m| <= 4
    rng = random.Random(101)
    bad = []
    for key, A in _algebras().items():
        for i in range(500):
            x, y, z = (_random_elt(A, rng, span=4) for _ in range(3))
            jac = (
                aff_bracket(A, x, aff_bracket(A, y, z))
                + aff_bracket(A, y, aff_bracket(A, z, x))
                + aff_bracket(A, z, aff_bracket(A, x, y))
            )
            if not jac.is_zero():
                bad.append((key, i, "jacobi"))
            if aff_form(A, x, y) != aff_form(A, y, x):
                bad.append((key, i, "symmetry"))
            if aff_form(A, aff_bracket(A, x, y), z) != -aff_form(A, y, aff_bracket(A, x, z)):
                bad.append((key, i, "invariance"))
    _line("structure suite (Jacobi + invariant form, 5 algebras x 500)", bad)


# 2 ---------------------------------------------------------------------


def _twisted_oracle(window):
    # brute force: class n uses the (-1)^n eigenspace of the involution,
    # weights read off ad of the fixed coroot 2(H1 + H2)
    g = build_simple("A2")
    aut = sigma_aut(g)
    fixed, anti = aut.eigenbasis(g)
    hbeta = LieElt({"H1": 2, "H2": 2})
    expected = {}
    for n in range(window[0], window[1] + 1):
        for v in fixed if n % 2 == 0 else anti:
            br = g.bracket(hbeta, v)
            if br.is_zero():
                w = _Z
            else:
                name = next(iter(v.c))
                w = br.c.get(name, _Z) / v.c[name]
            if w == 0 and n == 0:
                continue
            kind = "imaginary" if w == 0 else "real"
            expected[(kind, (w,), n)] = expected.get((kind, (w,), n), 0) + 1
    return expected


def test_root_suite():
    W = DegreeWindow(-3, 3)
    bad = []
    counts = {"A1u": 2 * 7, "A2u": 6 * 7, "A3u": 12 * 7, "C2u": 8 * 7}
    algebras = _algebras()
    for key, A in algebras.items():
        reals = [r for r in roots_window(A, W) if r.kind == "real"]
        if key in counts and len(reals) != counts[key]:
            bad.append((key, "count", len(reals)))
        for r in reals:
            if r.mult != 1 or len(root_space(A, r)) != 1:
                bad.append((key, "dim", r.fin, r.n))
    got = {
        (r.kind, r.fin, r.n): r.mult
        for r in roots_window(algebras["A2t"], W)
    }
    if got != _twisted_oracle((-3, 3)):
        bad.append(("A2t", "pattern"))
    _line("root suite (counts, 1-dim real spaces, twisted pattern)", bad)


# 3 ---------------------------------------------------------------------


def test_parabolic_suite():
    rng = random.Random(103)
    W = DegreeWindow(-3, 3)
    bad = []
    for key, A in _algebras().items():
        if key == "A3u":
            continue  # rank-3 flags are covered by the axioms run below
        for i in range(200):
            fl = random_flag(A, rng)
            P = assemble_parabolic(A, fl, W)
            if not check_parabolic_axioms(P):
                bad.append((key, i, "axioms"))
            tag = P.tag
            psi = principal_witness(P)
            imag_in = all(
                P.member(tuple([_Z] * A.fin_rank), n) for n in W if n != 0
            )
            if tag == "standard":
                okay = psi is not None and psi[-1] != 0 and not imag_in
            elif tag == "imaginary":
                okay = psi is not None and psi[-1] == 0 and imag_in
            else:
                okay = psi is None and not imag_in
            if not okay:
                bad.append((key, i, "criteria", tag))
            if classify_parabolic(assemble_parabolic(A, fl, W.doubled())) != tag:
                bad.append((key, i, "doubling", tag))
            if not verify_classification(P):
                bad.append((key, i, "certificate", tag))
    _line("parabolic suite (200 random flags x 4 algebras)", bad)


# 4 ---------------------------------------------------------------------


def test_cone_certificate():
    A = build_affine(build_simple("A2"))
    W = DegreeWindow(-3, 3)
    rng = random.Random(104)
    flags = [
        (F(0), F(0), F(1)),
        (F(1), F(0), F(2)),
        (F(0), F(1), F(3)),
        (F(1), F(1), F(1)),
        (F(2), F(-1), F(7)),
    ]
    simples = A.affine_simple_roots()
    dim = A.fin_rank + 1
    bad = []
    for phi1 in flags:
        P = assemble_parabolic(A, make_flag(A, phi1), W)
        if P.tag != "standard":
            bad.append((phi1, "tag", P.tag))
            continue
        cone = phi_P(P)
        tot = [_Z] * dim
        for b, db in cone.d.items():
            if db <= 0:
                bad.append((phi1, "coefficient", b, db))
            vec = list(b[0]) + [F(b[1])]
            for i in range(dim):
                tot[i] += db * vec[i]
        if tot != [_Z] * A.fin_rank + [F(cone.wl_order)]:
            bad.append((phi1, "decomposition", tot))
        for i in range(50):
            nu = [_Z] * dim
            for fin, n in simples:
                cf = rng.randint(-5, 5)
                for j in range(A.fin_rank):
                    nu[j] += cf * fin[j]
                nu[-1] += cf * n
            if not in_QP(cone, [cone.NG * v for v in nu]):
                bad.append((phi1, "membership", i))
    _line("cone certificate (5 standard parabolics, 50 lattice points each)", bad)


# 5 ---------------------------------------------------------------------


def test_loop_module_suite():
    A = build_affine(build_simple("A1"))
    W = DegreeWindow(-4, 4)
    M = loop_module(A, [finite_dim_sl2(1), finite_dim_sl2(2)], [F(1), F(2)], W)
    rng = random.Random(105)
    bad = []

    def as_elt(gk):
        if gk == "D":
            return AffElt({}, d=_ONE)
        if gk == "K":
            return AffElt({}, k=_ONE)
        return AffElt({(gk[1], gk[2]): _ONE})

    labels = sorted(M.weight_of)
    compared = 0
    while compared < 200:
        g1, g2 = rng.choice(M.gens), rng.choice(M.gens)
        lab = rng.choice(labels)
        v = {lab: _ONE}
        try:
            inner2 = M.apply_gen(g2, v)
            inner1 = M.apply_gen(g1, v)
            if lab in M.boundary or not all(
                l not in M.boundary for l in list(inner1) + list(inner2)
            ):
                continue
            lhs = {}
            for l, c in M.apply_gen(g1, inner2).items():
                lhs[l] = lhs.get(l, _Z) + c
            for l, c in M.apply_gen(g2, inner1).items():
                lhs[l] = lhs.get(l, _Z) - c
            lhs = {l: c for l, c in lhs.items() if c}
            # bracket of two band-edge generators can leave the tabulated band
            rhs = M.apply_elt(aff_bracket(A, as_elt(g1), as_elt(g2)), v)
        except ValueError:
            continue
        compared += 1
        if lhs != {l: c for l, c in rhs.items() if c}:
            bad.append((g1, g2, lab))
    # tensor weight dims: (-1,1) x (-2,0,2) convolves to 1,2,2,1
    dims = {F(-3): 1, F(-1): 2, F(1): 2, F(3): 1}
    for s in W:
        for h, want in dims.items():
            got = len(M.weights.get(AffWeight((h,), F(s), _Z), []))
            if got != want:
                bad.append(("mult", h, s, got))
    for lab in labels:
        if M.action[("K", lab)] != {}:
            bad.append(("K", lab))
        s = M.weight_of[lab].d
        if M.action[("D", lab)] != ({lab: s} if s else {}):
            bad.append(("D", lab))
    _line("loop module suite (200 bracket pairs, tensor dims, K and D)", bad)


# 6 ---------------------------------------------------------------------


def test_localization_laws():
    rng = random.Random(106)
    dense = dense_sl2(DenseSL2Params(F(1, 2), F(3)), DegreeWindow(-8, 8))
    A = build_affine(build_simple("A1"))
    loop = loop_module(
        A,
        [dense_sl2(DenseSL2Params(F(1, 2), F(3)), DegreeWindow(-4, 4)), finite_dim_sl2(1)],
        [_ONE, F(2)],
        DegreeWindow(-2, 2),
        gen_window=1,
    )
    alpha = (F(2),)
    bad = []
    for tag, M in (("dense", dense), ("loop", loop)):
        labs_all = sorted(M.weight_of)
        for i in range(50):
            x = F(rng.randint(-4, 4), rng.choice((1, 2)))
            y = F(rng.randint(-4, 4), rng.choice((1, 2)))
            m = rng.randint(-2, 2)
            p, q = rng.randint(-2, 2), rng.randint(-2, 2)
            labs = rng.sample(labs_all, min(6, len(labs_all)))
            laws = twist_laws(M, alpha, x, y, m, p, q, labs)
            fails = {law: failed for law, (_, failed) in laws.items() if failed}
            if fails:
                bad.append((tag, i, x, y, fails))
    _line("localization laws (dense + loop, 50 rational pairs each)", bad)


# 7 ---------------------------------------------------------------------


def test_multinomial_identity():
    bad = [
        (N, K, k)
        for N in range(5)
        for K in range(6)
        for k in range(1, 4)
        if not multinom_convolution_check(N, K, k)
    ]
    _line("multinomial convolution (N <= 4, K <= 5, k <= 3)", bad)


# 8 ---------------------------------------------------------------------


def _loop_inverse_oracle(dense, nil, scalars, r, N, v):
    """(E21 t^r)^{-N} v on loop_module(A1, [dense, nil], scalars, ...), as
    the multinomial expansion over the two factors; no band is solved.

    E21 t^r acts as A + B with A = a_0^r E21 on the dense factor and
    B = a_1^r E21 on the nilpotent one; they commute, so
    (A + B)^{-N} = sum_i multinom(-N; i) A^{-N-i} B^i, a finite sum.  On the
    dense line E21 w_j = w_{j-1}, so E21^{-i} w_j = w_{j+i} in closed form;
    the nilpotent factor takes honest powers of its E21 row.
    """
    a0, a1 = (F(a) ** r for a in scalars)
    out = {}
    for ((wlab, ulab), s), c in v.items():
        j = wlab[1]
        for jj in range(j, j + N + len(nil.weight_of) + 1):
            assert dense.action[(("fin", "E21"), ("w", jj))] == {("w", jj - 1): _ONE}
        u, i = {ulab: _ONE}, 0
        while u:
            coef = c * gen_multinom(-N, [i]) * a0 ** (-N - i) * a1**i
            for ul, cu in u.items():
                key = ((("w", j + N + i), ul), s - N * r)
                out[key] = out.get(key, _Z) + coef * cu
            u = nil.apply_gen(("fin", "E21"), u)
            i += 1
    return {k: c for k, c in out.items() if c}


def _theta(L, spec, u, v):
    """Theta_{spec.x}(u) . v for an element u of the loop algebra."""
    out = {}
    for (name, n), c in u.c.items():
        for lab, d in theta_action(L, spec, ("t", name, n), v).items():
            out[lab] = out.get(lab, _Z) + c * d
    return {k: c for k, c in out.items() if c}


def test_loop_localization_isomorphism():
    # (a) the band solve of (E21 t^r)^{-N} on the loop module against the
    # multinomial expansion over its factors; (b) u f^{-N} v = f^{-N}
    # Theta_N(u) v for nine loop generators u and u = f itself, where
    # f = f_alpha of the root (alpha, -r) is -E21 t at r = 1, with the wrong
    # exponents N - 1, N + 1 and 1/2 as controls that must fail; (c)
    # f^N f^{-N} v = v.  Every label of the grid is compared: nothing is
    # skipped, and a failed band solve raises.
    A = build_affine(build_simple("A1"))
    dense = dense_sl2(DenseSL2Params(F(1, 2), F(3)), DegreeWindow(-8, 8))
    nil = finite_dim_sl2(1)
    scalars = [F(3), F(2)]
    L = loop_module(A, [dense, nil], scalars, DegreeWindow(-6, 6), gen_window=3)
    labels = [
        ((("w", j), ("u", i)), s) for j in range(-2, 3) for i in (0, 1) for s in (-1, 0, 1)
    ]
    bad, failed_controls = [], set()
    for r in (0, 1):
        root = ((F(2),), -r)
        plain = AffElt({("E21", r): _ONE})
        plain_bands = {}
        for N in (1, 2):
            spec = make_twist_spec(L, root, N)
            f = spec.f_elt
            bands = twist_table(L, spec)[0].bands
            us = [AffElt({(name, n): _ONE}) for name in ("E12", "E21", "H1") for n in (-1, 0, 1)]
            us.append(f)
            controls = [make_twist_spec(L, root, x) for x in (N - 1, N + 1, F(1, 2))]
            for lab in labels:
                v = {lab: _ONE}
                want = _loop_inverse_oracle(dense, nil, scalars, r, N, v)
                if f_power(L, plain, v, -N, plain_bands) != want:
                    bad.append((r, N, "oracle", lab))
                down = f_power(L, f, v, -N, bands)
                if f_power(L, f, down, N, bands) != v:
                    bad.append((r, N, "round trip", lab))
                for u in us:
                    lhs = L.apply_elt(u, down)
                    if lhs != f_power(L, f, _theta(L, spec, u, lab), -N, bands):
                        bad.append((r, N, "rule", lab, u))
                    for c in controls:
                        if lhs != f_power(L, f, _theta(L, c, u, lab), -N, bands):
                            failed_controls.add((r, N, c.x))
    for r in (0, 1):
        for N in (1, 2):
            for x in (N - 1, N + 1, F(1, 2)):
                if (r, N, x) not in failed_controls:
                    bad.append((r, N, "control passed", x))
    _line("loop localization isomorphism (r in {0,1}, N in {1,2}, 30 labels each)", bad)


# 9 ---------------------------------------------------------------------


def test_lowering_product_law():
    rng = random.Random(109)
    bad = []
    admissible_seen = 0
    for i in range(20):
        lam = F(rng.randint(-6, 6), rng.choice((1, 2)))
        x = F(rng.randint(-9, 9), rng.choice((1, 2)))
        walk = efloc_walk(lam, x, 6)
        for k, got in enumerate(walk, 1):
            if got != efloc_product(lam, x, k):
                bad.append((i, lam, x, k))
                break
        # pick an admissible twist for the same lam and check the product
        # coefficients stay nonzero along integer shifts
        xa = x
        while not efloc_admissible(lam, xa):
            xa = F(rng.randint(-9, 9), rng.choice((2, 3, 4)))
        admissible_seen += 1
        for l in range(-5, 6):
            for k in range(1, 7):
                if efloc_product(lam, xa + l, k) == 0:
                    bad.append((i, lam, xa, l, k, "vanishing"))
    if admissible_seen != 20:
        bad.append(("admissible count", admissible_seen))
    _line("lowering product law (k <= 6, 20 rational pairs + nonvanishing)", bad)


# 10 --------------------------------------------------------------------


def test_prop42_reproduction():
    bad = []
    for lam in (F(1), F(0), F(-3, 2), F(5, 7)):
        for n in range(2, 9):
            mat = prop42_matrix(n, lam)
            for k in range(1, n):
                for l in range(1, n):
                    if l > k and n < k + l:
                        want = 4 * lam
                    elif l <= k and n >= k + l:
                        want = -4 * lam
                    else:
                        want = _Z
                    if mat[k - 1][l - 1] != want:
                        bad.append((lam, n, k, l, mat[k - 1][l - 1]))
            half = (n - 1) // 2
            sub = [row[:half] for row in mat[:half]]
            if lam and det(sub) == 0:
                bad.append((lam, n, "singular corner"))
    _line("pairing matrix case split + corner rank (n = 2..8, four lambdas)", bad)


# 11 --------------------------------------------------------------------


def test_boundedness_dichotomy():
    # the probe reads weights alone, so it fills no row of a loop module
    A = build_affine(build_simple("A1"))

    def one_dense(N):
        return loop_module(
            A,
            [dense_sl2(DenseSL2Params(F(1, 2), F(3)), DegreeWindow(-N, N)), finite_dim_sl2(1)],
            [F(1), F(2)],
            DegreeWindow(-N, N),
        )

    def two_dense(N):
        return loop_module(
            A,
            [
                dense_sl2(DenseSL2Params(F(1, 2), F(3)), DegreeWindow(-N, N)),
                dense_sl2(DenseSL2Params(F(1, 3), F(2)), DegreeWindow(-N, N)),
            ],
            [F(1), F(2)],
            DegreeWindow(-N, N),
        )

    bad = []
    one = boundedness_probe(one_dense, (3, 6, 9))
    if not one["bounded"]:
        bad.append(("one dense", one["max_mult"]))
    two = boundedness_probe(two_dense, (3, 6, 9))
    maxima = [m for _, m in two["max_mult"]]
    if two["bounded"] or not all(a < b for a, b in zip(maxima, maxima[1:])):
        bad.append(("two dense", two["max_mult"]))
    _line("boundedness dichotomy (one dense constant, two dense growing)", bad)


# 12 --------------------------------------------------------------------


def test_induction_commutation_probe():
    A2aff = build_affine(build_simple("A2"))
    P = assemble_parabolic(
        A2aff, make_flag(A2aff, (F(1), F(2), F(5))), DegreeWindow(-1, 1)
    )
    S = levi_dense_module(
        P, DenseSL2Params(F(1, 2), F(3)), DegreeWindow(-3, 3),
        base_fin=(F(1, 2), F(4)),
    )
    bad = []
    for x in (F(0), F(1), F(1, 2)):
        if induction_commutes_probe(P, S, x, 3) is not True:
            bad.append(("x", x))
    _line("induction/localization commutation probe (x in {0, 1, 1/2})", bad)
