"""Tests for exact rationals, generalized binomials and the linear algebra helpers."""

import random
from fractions import Fraction as F
from math import comb

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from affinekit.exact import (
    coordinate_map,
    det,
    gen_binom,
    gen_multinom,
    integer_solve,
    invert,
    kernel,
    mat_rank,
    multinom_convolution_check,
    rational_sqrt,
    solve_unique,
)

# ------------------------------------------------------------------ oracle
# Truncated multivariate power series for (1 + x_1 + ... + x_k)^n.
# Positive powers by repeated multiplication, negative powers by series
# inversion order by order.  No binomial formula is used anywhere here, so
# this is an independent check of gen_multinom and of the convolution
# identity.


def _exps_of_degree(d, k):
    if k == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in _exps_of_degree(d - first, k - 1):
            yield (first,) + rest


def _series_mul(a, b, k, tot):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) <= tot:
                out[e] = out.get(e, F(0)) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def series_pow_one_plus_sum(n, k, tot):
    """Coefficient table of (1 + x_1 + ... + x_k)^n up to total degree tot."""
    zero = (0,) * k
    base = {zero: F(1)}
    for i in range(k):
        e = [0] * k
        e[i] = 1
        base[tuple(e)] = F(1)

    def power(m):
        acc = {zero: F(1)}
        for _ in range(m):
            acc = _series_mul(acc, base, k, tot)
        return acc

    if n >= 0:
        return power(n)
    p = power(-n)
    s = {zero: F(1)}
    for d in range(1, tot + 1):
        for e in _exps_of_degree(d, k):
            acc = F(0)
            for ep, cp in p.items():
                if ep == zero:
                    continue
                rem = tuple(x - y for x, y in zip(e, ep))
                if min(rem) >= 0:
                    acc += cp * s.get(rem, F(0))
            s[e] = -acc
    return {e: c for e, c in s.items() if c != 0}


# ------------------------------------------------------------- gen_binom


def test_gen_binom_examples():
    assert gen_binom(F(5), 2) == 10
    assert gen_binom(F(-3), 2) == 6
    assert gen_binom(F(1, 2), 2) == F(-1, 8)
    assert gen_binom(F(7, 3), 0) == 1


def test_gen_binom_matches_classical():
    for n in range(21):
        for i in range(n + 1):
            assert gen_binom(F(n), i) == comb(n, i)


@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
    st.integers(min_value=1, max_value=10),
)
@settings(max_examples=100, deadline=None)
def test_gen_binom_pascal(x, i):
    assert gen_binom(x, i) == gen_binom(x - 1, i) + gen_binom(x - 1, i - 1)


# ---------------------------------------------------------- gen_multinom


def test_gen_multinom_examples():
    assert gen_multinom(4, [1, 1]) == 12
    assert gen_multinom(-2, [1]) == -2
    # (-1)(-2)/2! = 1, also the x^2 coefficient of 1/(1+x) = 1 - x + x^2 - ...
    assert gen_multinom(-1, [2]) == 1
    assert gen_multinom(3, []) == 1


def test_gen_multinom_against_series_oracle():
    for n in (-4, -3, -2, -1, 0, 1, 2, 3, 5):
        for k in (1, 2, 3):
            table = series_pow_one_plus_sum(n, k, 5)
            for d in range(6):
                for e in _exps_of_degree(d, k):
                    assert gen_multinom(n, list(e)) == table.get(e, F(0))


# ------------------------------------------------- convolution identity


def test_multinom_convolution_examples():
    assert multinom_convolution_check(0, 3, 2)
    assert multinom_convolution_check(2, 3, 1)
    assert multinom_convolution_check(3, 5, 3)


@pytest.mark.parametrize("side", ["left", "right", "target"])
def test_multinom_convolution_sees_one_wrong_multinomial(monkeypatch, side):
    # N, K, k = 2, 1, 2: the l = (1, 0) sum reads multinom(-2; (1, 0)) and
    # multinom(3; (1, 0)), each times a multinomial equal to 1
    import affinekit.exact as exact

    wrong = {"left": (-2, (1, 0)), "right": (3, (1, 0)), "target": (1, (1, 0))}[side]
    real = exact.gen_multinom

    def patched(n, ks):
        value = real(n, ks)
        return value + 1 if (n, tuple(ks)) == wrong else value

    assert exact.multinom_convolution_check(2, 1, 2)
    monkeypatch.setattr(exact, "gen_multinom", patched)
    assert not exact.multinom_convolution_check(2, 1, 2)


def test_multinom_convolution_against_series_oracle():
    # (1+s)^{-N} (1+s)^{N+K} = (1+s)^K as truncated series, s = x_1+...+x_k
    for N in (1, 2, 3):
        for K in (0, 2, 4):
            for k in (1, 2):
                tot = 4
                a = series_pow_one_plus_sum(-N, k, tot)
                b = series_pow_one_plus_sum(N + K, k, tot)
                c = series_pow_one_plus_sum(K, k, tot)
                assert _series_mul(a, b, k, tot) == c


@given(st.integers(0, 50), st.integers(1, 50))
def test_rational_sqrt(p, q):
    assert rational_sqrt(F(p, q) ** 2) == F(p, q)
    assert rational_sqrt(-F(p + 1, q) ** 2) is None
    assert rational_sqrt(2 * F(p + 1, q) ** 2) is None


# ---------------------------------------------------------- linear algebra


def test_solve_unique_and_det():
    A = [[F(2), F(1)], [F(1), F(3)]]
    b = [F(5), F(10)]
    x = solve_unique(A, b)
    assert x == [F(1), F(3)]
    # no solution, many solutions, no equations: None; a consistent
    # overdetermined system keeps its one solution
    singular = [[F(1), F(2)], [F(2), F(4)]]
    assert solve_unique(singular, [F(1), F(3)]) is None
    assert solve_unique(singular, [F(1), F(2)]) is None
    assert solve_unique([], []) is None
    assert solve_unique(A + [[F(1), F(1)]], b + [F(4)]) == [F(1), F(3)]
    assert det(A) == 5
    assert mat_rank(A) == 2


def test_kernel():
    A = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    ker = kernel(A)
    assert len(ker) == 2
    for v in ker:
        for row in A:
            assert sum(r * c for r, c in zip(row, v)) == 0


def test_singular_solve_returns_none():
    A = [[F(1), F(2)], [F(2), F(4)]]
    assert solve_unique(A, [F(1), F(3)]) is None
    assert solve_unique(A, [F(1), F(2)]) is None  # consistent but not unique


def test_coordinate_map_basis_and_span():
    basis = [[F(1), F(2), F(0)], [F(0), F(1), F(-1)]]
    coords = coordinate_map(basis)
    assert coords(basis[0]) == [1, 0]
    assert coords(basis[1]) == [0, 1]
    assert coords([F(3), F(5), F(1)]) == [3, -1]
    assert coords([0, 0, 0]) == [0, 0]
    assert coords([F(0), F(0), F(1)]) is None
    with pytest.raises(ValueError):
        coordinate_map([[1, 2, 3], [0, 1, 1], [1, 3, 4]])
    with pytest.raises(ValueError):
        coordinate_map([[1, 0], [0, 1], [1, 1]])


def _random_system(rng, n):
    while True:
        A = [[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        if det(A) != 0:
            return A, [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]


def test_coordinate_map_agrees_with_solve_unique():
    rng = random.Random(5)
    for n in (1, 2, 3, 4, 5):
        for _ in range(12):
            A, b = _random_system(rng, n)
            cols = [[A[i][j] for i in range(n)] for j in range(n)]
            assert coordinate_map(cols)(b) == solve_unique(A, b)
            # drop the last column: b lies in the smaller span iff it has
            # no component along the dropped column
            x = solve_unique(A, b)
            sub = coordinate_map(cols[:-1])(b)
            assert (sub is None) == (x[-1] != 0)
            if sub is not None:
                assert sub == x[:-1]


def test_coordinate_map_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(9)
    for n in (2, 3, 4):
        for _ in range(8):
            A, b = _random_system(rng, n)
            cols = [[A[i][j] for i in range(n)] for j in range(n)]
            sol = sympy.Matrix(A).LUsolve(sympy.Matrix(b))
            want = [F(int(v.p), int(v.q)) for v in sol]
            assert coordinate_map(cols)(b) == want


def test_integer_solve():
    A = [[2, 0], [0, 3]]
    assert integer_solve(A, [4, 9]) == [2, 3]
    assert integer_solve(A, [3, 9]) is None
    # underdetermined with integer solution
    A2 = [[1, 2, 4]]
    x = integer_solve(A2, [7])
    assert x is not None
    assert x[0] + 2 * x[1] + 4 * x[2] == 7


@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_integer_solve_roundtrip(entries):
    A = [[entries[0], entries[1]], [entries[2], entries[3]]]
    # pick a known integer solution and ask for it back
    x0 = [3, -2]
    b = [A[0][0] * 3 + A[0][1] * (-2), A[1][0] * 3 + A[1][1] * (-2)]
    x = integer_solve(A, b)
    assert x is not None
    assert [A[0][0] * x[0] + A[0][1] * x[1], A[1][0] * x[0] + A[1][1] * x[1]] == b


# ---------------------------------------------------------- sympy oracles
# Seeded small matrices, integer and rational, checked against sympy, which
# shares no code with the elimination in exact.py.


def _frac(v):
    return F(int(v.p), int(v.q))


def _oracle_matrices(seed, shapes, integer=False):
    """Matrices of the given shapes; every second one is made singular (for
    more than one row) by overwriting its last row with a combination of
    the first two rows."""
    rng = random.Random(seed)
    out = []
    for k, (rows, cols) in enumerate(shapes * 6):
        den = (1,) if integer else (1, 1, 2, 3)
        mat = [[F(rng.randint(-3, 3), rng.choice(den)) for _ in range(cols)] for _ in range(rows)]
        if k % 2 and rows > 1:
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            mat[-1] = [a * x + b * y for x, y in zip(mat[0], mat[1 % (rows - 1)])]
        out.append(mat)
    return out


_SQUARE = [(1, 1), (2, 2), (3, 3), (4, 4)]
_ALL = _SQUARE + [(2, 3), (3, 2), (3, 5)]


def test_det_rank_invert_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    singular = 0
    for integer in (True, False):
        for mat in _oracle_matrices(11, _ALL, integer):
            S = sympy.Matrix(mat)
            assert mat_rank(mat) == S.rank()
            if S.rows != S.cols:
                continue
            want = S.det()
            assert det(mat) == _frac(want)
            if want == 0:
                singular += 1
                assert invert(mat) is None
            else:
                assert invert(mat) == [[_frac(v) for v in row] for row in S.inv().tolist()]
    assert singular


def test_kernel_spans_the_sympy_nullspace():
    sympy = pytest.importorskip("sympy")
    for integer in (True, False):
        for mat in _oracle_matrices(12, _ALL, integer):
            ours = kernel(mat)
            theirs = [[_frac(v) for v in vec] for vec in sympy.Matrix(mat).nullspace()]
            assert len(ours) == len(theirs)
            if ours:
                # same span: stacking the two bases adds no rank
                assert sympy.Matrix(ours + theirs).rank() == len(ours)


def test_charpoly_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    from affinekit.locfun import _charpoly_values

    lam = sympy.Symbol("lam")
    for integer in (True, False):
        for mat in _oracle_matrices(13, _SQUARE, integer):
            poly = sympy.Matrix(mat).charpoly(lam)
            want = [_frac(poly.eval(t)) for t in range(len(mat) + 1)]
            assert _charpoly_values(mat) == want


def test_integer_solve_agrees_with_smith_form():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_decomp

    rng = random.Random(14)
    found = missed = 0
    for mat in _oracle_matrices(14, _ALL, integer=True):
        A = [[int(v) for v in row] for row in mat]
        b = [rng.randint(-6, 6) for _ in A]
        # D = U A V with U, V unimodular: A x = b has an integer solution iff
        # D y = U b does, i.e. iff d_i divides (U b)_i on the diagonal and
        # (U b)_i = 0 on the rows past it
        D, U, _ = smith_normal_decomp(sympy.Matrix(A), domain=sympy.ZZ)
        ub = list(U * sympy.Matrix(b))
        diag = [D[i, i] if i < D.cols else 0 for i in range(D.rows)]
        solvable = all((ub[i] == 0) if d == 0 else (ub[i] % d == 0) for i, d in enumerate(diag))
        x = integer_solve(A, b)
        assert (x is not None) == solvable
        if x is None:
            missed += 1
        else:
            found += 1
            assert [sum(a * v for a, v in zip(row, x)) for row in A] == b
    assert found and missed
