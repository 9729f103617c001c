"""Exact scalar arithmetic and small exact linear algebra over Fraction.

Generalized binomials and multinomials with a rational upper argument,
Gaussian elimination, and integer lattice solving.  No floating point is
used anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt


# ----------------------------------------------------------------- binomials


def gen_binom(x, i: int) -> Fraction:
    """x(x-1)...(x-i+1)/i! for any rational x and integer i >= 0."""
    if i < 0:
        raise ValueError("lower index must be nonnegative")
    x = Fraction(x)
    acc = Fraction(1)
    for j in range(i):
        acc *= x - j
    return acc / factorial(i)


def gen_multinom(n, ks) -> Fraction:
    """Chained generalized binomials binom(n,k1) binom(n-k1,k2) ...

    For integer n >= 0 this is the coefficient of x1^k1...xj^kj in
    (1 + x1 + ... + xj)^n; the same holds for negative n with the
    series interpretation.
    """
    acc = Fraction(1)
    rem = Fraction(n)
    for k in ks:
        acc *= gen_binom(rem, k)
        rem -= k
    return acc


def _tuples_with_sum_at_most(total: int, k: int):
    if k == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in _tuples_with_sum_at_most(total - first, k - 1):
            yield (first,) + rest


def multinom_convolution_check(N: int, K: int, k: int) -> bool:
    """Check sum over splittings i_t + j_t = l_t of
    multinom(-N; i) * multinom(N+K; j) == multinom(K; l)
    for every tuple l with sum(l) <= N + K.

    It is the coefficient identity behind the multinomial expansion of an
    inverse power (f t^r)^{-N} over the factors of a loop module: the
    expansions of the powers -N and N + K compose to that of K.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    # each multinom(-N; i) and multinom(N+K; j) is needed by many l
    left, right = {}, {}
    for l in _tuples_with_sum_at_most(N + K, k):
        target = gen_multinom(K, l)
        acc = Fraction(0)
        for i in _splittings(l):
            j = tuple(a - b for a, b in zip(l, i))
            mi = left.get(i)
            if mi is None:
                mi = left[i] = gen_multinom(-N, i)
            mj = right.get(j)
            if mj is None:
                mj = right[j] = gen_multinom(N + K, j)
            acc += mi * mj
        if acc != target:
            return False
    return True


def _splittings(l):
    if not l:
        yield ()
        return
    for first in range(l[0] + 1):
        for rest in _splittings(l[1:]):
            yield (first,) + rest


def rational_sqrt(q):
    """The nonnegative rational square root of q, or None when q is negative
    or not the square of a rational."""
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


# ----------------------------------------------------------- linear algebra
# Dense exact elimination over Fraction.  Matrices are lists of row lists.


def _copy(mat):
    return [[Fraction(v) for v in row] for row in mat]


def rref(mat):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    m = _copy(mat)
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def mat_rank(mat) -> int:
    return len(rref(mat)[1])


def det(mat) -> Fraction:
    m = _copy(mat)
    n = len(m)
    sign = 1
    acc = Fraction(1)
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        pv = m[c][c]
        acc *= pv
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return acc * sign


def solve_unique(A, b):
    """Solve A x = b; returns the solution iff it exists and is unique."""
    if not A:
        return None
    cols = len(A[0])
    m, pivots = rref([list(row) + [bv] for row, bv in zip(A, b)])
    # a pivot in the last column means no solution; fewer than cols, many
    if cols in pivots or len(pivots) != cols:
        return None
    return [m[c][cols] for c in range(cols)]


def kernel(A):
    """Basis of the nullspace of A."""
    if not A:
        return []
    cols = len(A[0])
    m, pivots = rref(A)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def coordinate_map(basis):
    """Coordinates in a fixed basis, from one elimination up front.

    With the basis vectors as the columns of B, one rref of [B | I] gives an
    invertible E with E B = [I; 0].  The returned function maps a vector v
    to its coefficient list (E v)[:k], or to None when v lies outside the
    span, i.e. when (E v)[k:] is nonzero.  Raises ValueError when the basis
    is linearly dependent.
    """
    if not basis:
        return lambda v: None if any(v) else []
    k, n = len(basis), len(basis[0])
    aug = [[b[i] for b in basis] + [int(i == j) for j in range(n)] for i in range(n)]
    m, pivots = rref(aug)
    if pivots[:k] != list(range(k)):
        raise ValueError("basis vectors are linearly dependent")
    # the nonzero entries of each column of E
    cols = [[(i, row[k + j]) for i, row in enumerate(m) if row[k + j]] for j in range(n)]

    def coords(v):
        out = [Fraction(0)] * n
        for j, vj in enumerate(v):
            if vj:
                for i, e in cols[j]:
                    out[i] += e * vj
        if any(out[k:]):
            return None
        return out[:k]

    return coords


def invert(mat):
    """Exact inverse of a square matrix, or None if singular."""
    n = len(mat)
    aug = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    m, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in m]


# ------------------------------------------------------------ matrix groups


def mat_mul(a, b):
    """Product of two n x n matrices as a tuple of row tuples."""
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n))
        for i in range(n)
    )


_GROUP_CAP = 100000


def group_closure(gens, dim):
    """Sorted elements of the group the dim x dim matrices gens generate.

    Matrices are tuples of row tuples.  Breadth-first search from the
    identity, multiplying by generators on the left; raises ValueError once
    more than _GROUP_CAP elements have been found.
    """
    ident = tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(dim)) for i in range(dim)
    )
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for s in gens:
                p = mat_mul(s, m)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
                    if len(seen) > _GROUP_CAP:
                        raise ValueError("group generation exceeded cap")
        frontier = nxt
    return sorted(seen)


# ----------------------------------------------------- integer lattice solve


def hermite_reduce(A):
    """Column-style Hermite reduction of a nonempty integer matrix A.

    Returns (M, U, pivots): M = A U with U unimodular and M lower staircase,
    and pivots maps each pivot row of M to its column.  hermite_solve reads
    it for any right-hand side.
    """
    rows = len(A)
    cols = len(A[0])
    M = [[int(v) for v in row] for row in A]
    U = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def col_combine(i, j, a, bcoef, c, d):
        # (col_i, col_j) <- (a*col_i + bcoef*col_j, c*col_i + d*col_j)
        for mat, height in ((M, rows), (U, cols)):
            for r in range(height):
                vi, vj = mat[r][i], mat[r][j]
                mat[r][i] = a * vi + bcoef * vj
                mat[r][j] = c * vi + d * vj

    def ext_gcd(a, bb):
        if bb == 0:
            return a, 1, 0
        g, x, y = ext_gcd(bb, a % bb)
        return g, y, x - (a // bb) * y

    pivot_of_row = {}
    c0 = 0
    for r in range(rows):
        live = [c for c in range(c0, cols) if M[r][c] != 0]
        if not live:
            continue
        # sweep all nonzero entries in row r (from column c0 on) into one gcd
        base = live[0]
        for c in live[1:]:
            a, bb = M[r][base], M[r][c]
            g, x, y = ext_gcd(abs(a), abs(bb))
            sa = 1 if a >= 0 else -1
            sb = 1 if bb >= 0 else -1
            # x*|a| + y*|b| = g ; build unimodular 2x2
            col_combine(base, c, x * sa, y * sb, -(bb // g), a // g)
        if base != c0:
            col_combine(base, c0, 0, 1, 1, 0)
        pivot_of_row[r] = c0
        c0 += 1
        if c0 == cols:
            break
    return M, U, pivot_of_row


def hermite_solve(reduction, b):
    """Integer x with A x = b, or None, given reduction = hermite_reduce(A).

    Forward substitution through M with divisibility checks, then x = U y.
    """
    M, U, pivot_of_row = reduction
    cols = len(U)
    y = [0] * cols
    for r, row in enumerate(M):
        acc = b[r] - sum(row[c] * y[c] for c in range(cols))
        if r in pivot_of_row:
            c = pivot_of_row[r]
            p = row[c]
            if acc % p != 0:
                return None
            y[c] = acc // p
        elif acc != 0:
            return None
    return [sum(U[i][j] * y[j] for j in range(cols)) for i in range(cols)]


def integer_solve(A, b):
    """Integer solution x of A x = b, or None.

    Column-style Hermite reduction: M = A U with U unimodular, M lower
    staircase, then forward substitution with divisibility checks.
    """
    if not A:
        return None
    return hermite_solve(hermite_reduce(A), b)
