"""Parabolic subsets of affine root systems from rational functional flags.

A flag is a pair of covectors (phi1, phi2) on (finite coordinates, delta
coordinate).  phi1 cuts the root system into Delta+ / Delta0 / Delta-, and
phi2 refines Delta0; the parabolic set is

    P = {phi1 > 0} u {phi1 = 0, phi2 >= 0}    (phi2 absent: all of Delta0).

Classification into standard / imaginary / mixed follows the values of the
covectors on delta.  For the standard and imaginary tags an explicit single
functional psi with P = {psi >= 0} is constructed: psi = M phi1 + phi2 where
the exact constant M dominates |phi2| against |phi1| on the finitely many
"boundary" roots of each degree line (the sign of M phi1 + phi2 then agrees
with the sign of phi1 everywhere outside ker phi1 by monotonicity along each
line).  In the remaining case phi2 splits the imaginary line while some real
line lies entirely inside P, which rules out any such psi.

The cone certificate for a standard P refines it to a Borel order, extracts
the base, and verifies |W_L| delta = sum d_beta beta with d_beta > 0 over
the W_L-orbit of the non-Levi base roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .affine import roots_window
from .exact import group_closure, integer_solve, mat_rank, solve_unique


@dataclass(frozen=True)
class FunctionalFlag:
    phi1: tuple
    phi2: tuple = None


def flag_value(phi, fin, n):
    return sum(
        (phi[i] * Fraction(fin[i]) for i in range(len(fin))),
        phi[-1] * Fraction(n),
    )


def _coerce(A, phi):
    phi = tuple(Fraction(x) for x in phi)
    if len(phi) != A.fin_rank + 1:
        raise ValueError("covector length must be fin_rank + 1")
    return phi


def _band_roots(A, phi, lo, hi):
    """All roots (fin, n) with lo <= phi(fin, n) <= hi; finite since phi(delta) != 0."""
    pd = phi[-1]
    out = []
    for fam in A.root_families():
        a = flag_value(phi, fam.fin, 0)
        nlo, nhi = sorted(((lo - a) / pd, (hi - a) / pd))
        out.extend((fam.fin, n) for n in fam.degrees(math.ceil(nlo), math.floor(nhi)))
    return out


def _kernel_span_vectors(A, phi1):
    """Spanning vectors (as coordinate tuples) of span(Delta0 of phi1)."""
    if phi1[-1] != 0:
        keys = _band_roots(A, phi1, 0, 0)
    else:
        # phi1 is constant on each root line, so Delta0 is a union of whole
        # lines, and two roots of a line span what the whole line spans
        keys = [
            (fam.fin, n)
            for fam in A.root_families()
            if flag_value(phi1, fam.fin, 0) == 0
            for n in fam.degrees(-fam.step, fam.step)
        ]
    return [tuple(fin) + (Fraction(n),) for fin, n in keys]


def make_flag(A, phi1, phi2=None):
    phi1 = _coerce(A, phi1)
    if all(x == 0 for x in phi1):
        raise ValueError("phi1 must be nonzero")
    if phi2 is not None:
        phi2 = _coerce(A, phi2)
        span = _kernel_span_vectors(A, phi1)
        if span and all(
            sum((phi2[i] * v[i] for i in range(len(v))), Fraction(0)) == 0
            for v in span
        ):
            raise ValueError("phi2 vanishes on the span of Delta0")
    return FunctionalFlag(phi1, phi2)


def random_flag(A, rng):
    """Random valid flag with small rational entries (seeded rng)."""
    k = A.fin_rank + 1
    while True:
        phi1 = tuple(
            Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(k)
        )
        phi2 = None
        if rng.random() < 0.55:
            phi2 = tuple(
                Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(k)
            )
        try:
            return make_flag(A, phi1, phi2)
        except ValueError:
            continue


# ------------------------------------------------------------ decomposition


@dataclass
class TriDecomp:
    window: object
    plus: list
    zero: list
    minus: list


def triangular_decomposition(A, phi1, window):
    phi1 = _coerce(A, phi1)
    plus, zero, minus = [], [], []
    for r in roots_window(A, window):
        v = flag_value(phi1, r.fin, r.n)
        (plus if v > 0 else minus if v < 0 else zero).append(r)
    return TriDecomp(window, plus, zero, minus)


def _neg(key):
    return (tuple(-c for c in key[0]), -key[1])


class ImproperParabolic(ValueError):
    """The flag puts every window root in P together with its negative."""


class ParabolicSet:
    """Windowed parabolic set with a flag-backed membership formula."""

    def __init__(self, A, flag, window, members=None, tag=None):
        self.algebra = A
        self.flag = flag
        self.window = window
        self.roots = roots_window(A, window)
        if members is None:
            if flag is None:
                raise ValueError("either a flag or an explicit member table is needed")
            members = {
                (r.fin, r.n): self._formula(r.fin, r.n) for r in self.roots
            }
        self.members = members
        self.tag = tag
        self._kinds = {}
        self._levi_keys = None

    def _formula(self, fin, n):
        v1 = flag_value(self.flag.phi1, fin, n)
        if v1 > 0:
            return True
        if v1 < 0:
            return False
        if self.flag.phi2 is None:
            return True
        return flag_value(self.flag.phi2, fin, n) >= 0

    def member(self, fin, n):
        fin = tuple(Fraction(c) for c in fin)
        key = (fin, n)
        if key in self.members:
            return self.members[key]
        if self.flag is None:
            raise ValueError("membership outside the window needs a defining flag")
        return self._formula(fin, n)

    def member_key(self, key):
        return self.member(key[0], key[1])

    def basis_kind(self, lab, m):
        """Kind of the loop basis key (lab, m): "levi", "nplus" or "letter".

        levi: the degree-zero Cartan, or a root in P together with its
        negative; nplus: a root in P whose negative is not; letter: a root
        outside P.  Memoised per key, apart from members, which holds roots
        only.
        """
        key = (lab, m)
        kind = self._kinds.get(key)
        if kind is None:
            fin = self.algebra.fin_weight(m, lab)
            if not any(fin) and m == 0:
                kind = "levi"
            elif self.member(fin, m):
                kind = "levi" if self.member(tuple(-c for c in fin), -m) else "nplus"
            else:
                kind = "letter"
            self._kinds[key] = kind
        return kind

    def keys(self):
        return [(r.fin, r.n) for r in self.roots]

    def levi_keys(self):
        """Window root keys k with k and -k both in P; computed on first call
        (members never change) and shared between callers."""
        if self._levi_keys is None:
            self._levi_keys = [
                k for k in self.keys() if self.member_key(k) and self.member_key(_neg(k))
            ]
        return self._levi_keys

    def radical_keys(self):
        return [
            k
            for k in self.keys()
            if self.member_key(k) and not self.member_key(_neg(k))
        ]


def assemble_parabolic(A, flag, window, require_borel=False):
    P = ParabolicSet(A, flag, window)
    if require_borel:
        if flag.phi2 is None and any(
            flag_value(flag.phi1, r.fin, r.n) == 0 for r in P.roots
        ):
            raise ValueError("phi2 is required to refine a nonempty Delta0 to a Borel")
        if P.levi_keys():
            raise ValueError("flag does not define a Borel-type set")
    P.tag = classify_parabolic(P)
    return P


def check_parabolic_axioms(P):
    keys = set(P.keys())
    member = {k: P.member_key(k) for k in keys}
    for k in keys:
        nk = _neg(k)
        if nk in keys and not (member[k] or member[nk]):
            return False
    chosen = [k for k in keys if member[k]]
    for i, k1 in enumerate(chosen):
        for k2 in chosen[i:]:
            s = (tuple(a + b for a, b in zip(k1[0], k2[0])), k1[1] + k2[1])
            if s in keys and not member[s]:
                return False
    return True


# ------------------------------------------------------------ classification


def classify_parabolic(P):
    if P.flag is None:
        if P.tag is not None:
            return P.tag
        raise ValueError("cannot classify a parabolic set without its flag")
    keys = set(P.keys())
    if all(P.member_key(k) and (_neg(k) not in keys or P.member_key(_neg(k))) for k in keys):
        raise ImproperParabolic("improper parabolic set (P = Delta on the window)")
    p1d = P.flag.phi1[-1]
    if p1d != 0:
        return "standard"
    if P.flag.phi2 is None or P.flag.phi2[-1] == 0:
        return "imaginary"
    return "mixed"


def _defining_flag(P, what):
    if P.flag is None:
        raise ValueError(f"{what} needs a defining flag")
    return P.flag


def principal_witness(P):
    """Covector psi with P = {psi >= 0}, or None when no such psi exists."""
    A = P.algebra
    flag = _defining_flag(P, "a principal witness")
    phi1, phi2 = flag.phi1, flag.phi2
    if phi2 is None:
        return phi1
    p1d, p2d = phi1[-1], phi2[-1]
    if p1d == 0 and p2d != 0:
        return None
    bounds = []
    if p1d != 0:
        bounds.append(abs(p2d) / abs(p1d))
    for fam in A.root_families():
        a1 = flag_value(phi1, fam.fin, 0)
        a2 = flag_value(phi2, fam.fin, 0)
        if p1d == 0:
            if a1 != 0:
                bounds.append(abs(a2) / abs(a1))
            continue
        n0 = math.floor(-a1 / p1d)
        cands = fam.degrees(n0 - 2 * fam.step, n0 + 2 * fam.step)
        pos = [(a1 + n * p1d, n) for n in cands if a1 + n * p1d > 0]
        neg = [(a1 + n * p1d, n) for n in cands if a1 + n * p1d < 0]
        extremes = []
        if pos:
            extremes.append(min(pos))
        if neg:
            extremes.append(max(neg))
        for t, n in extremes:
            bounds.append(abs(a2 + n * p2d) / abs(t))
    M = 1 + max(bounds, default=Fraction(0))
    return tuple(M * phi1[i] + phi2[i] for i in range(len(phi1)))


def classification_certificate(P):
    flag = _defining_flag(P, "a classification certificate")
    tag = P.tag or classify_parabolic(P)
    cert = {"tag": tag}
    if tag in ("standard", "imaginary"):
        psi = principal_witness(P)
        cert["psi"] = psi
        cert["psi_delta"] = psi[-1]
    if tag == "mixed":
        cert["real_line"] = next(
            (
                fam
                for fam in P.algebra.root_families()
                if not fam.imaginary and flag_value(flag.phi1, fam.fin, 0) > 0
            ),
            None,
        )
        cert["imaginary_side"] = 1 if flag.phi2[-1] > 0 else -1
    return cert


def verify_classification(P, cert=None):
    if cert is None:
        cert = classification_certificate(P)
    A = P.algebra
    zero = tuple([Fraction(0)] * A.fin_rank)
    tag = cert["tag"]
    if tag in ("standard", "imaginary"):
        psi = cert["psi"]
        for r in P.roots:
            if P.member(r.fin, r.n) != (flag_value(psi, r.fin, r.n) >= 0):
                return False
        if tag == "standard":
            return psi[-1] != 0
        if psi[-1] != 0:
            return False
        return all(
            P.member(zero, n) and P.member(zero, -n)
            for n in P.window
            if n != 0
        )
    line = cert["real_line"]
    fin = line.fin
    for n in line.degrees(P.window.nmin, P.window.nmax):
        if not P.member(fin, n):
            return False
        if P.member(tuple(-c for c in fin), -n):
            return False
    side = cert["imaginary_side"]
    return all(
        P.member(zero, side * n) and not P.member(zero, -side * n)
        for n in P.window
        if n > 0
    )


# ------------------------------------------------------------ bases


def simple_roots_of_positive_system(td):
    """Indecomposable roots of a Borel-type decomposition, with certification."""
    if td.zero:
        raise ValueError("decomposition is not Borel-type (nonempty Delta0)")
    plus = [(r.fin, r.n) for r in td.plus]
    plus_set = set(plus)

    def sub(k1, k2):
        return (tuple(a - b for a, b in zip(k1[0], k2[0])), k1[1] - k2[1])

    simples = []
    for k in plus:
        if not any(sub(k, q) in plus_set for q in plus):
            simples.append(k)
    memo = {}

    def reach(k):
        if k in memo:
            return memo[k]
        if k in simple_set:
            memo[k] = True
            return True
        memo[k] = False
        for s in simples:
            rem = sub(k, s)
            if rem in plus_set and reach(rem):
                memo[k] = True
                break
        return memo[k]

    simple_set = set(simples)
    for k in plus:
        if not reach(k):
            raise ValueError("window too small to certify the base")
    return sorted(simples)


# ------------------------------------------------------------ cone data


@dataclass
class ConeData:
    base: list
    I: list
    J: list
    phi_P: list
    c: list
    d: dict
    wl_order: int
    NG: int
    lattice_rank: int


def _levi_refinement(A, kernel):
    """First covector (1, k, k^2, ..., 0) nonvanishing on every kernel root."""
    k = 1
    while True:
        chi = tuple(Fraction(k) ** i for i in range(A.fin_rank)) + (Fraction(0),)
        if all(flag_value(chi, fin, n) != 0 for fin, n in kernel):
            return chi
        k += 1


def _lex_positive(psi, chi, fin, n):
    v = flag_value(psi, fin, n)
    if v != 0:
        return v > 0
    return flag_value(chi, fin, n) > 0


def _global_base(A, psi, chi):
    """Indecomposable roots of the positive system {psi > 0} u {psi = 0, chi > 0}.

    Window-free: a base element beta satisfies 0 <= psi(beta) <= psi(delta)
    because delta = sum c_i beta_i with every c_i >= 1, and a decomposition
    gamma = gamma1 + gamma2 into positives forces both psi-values into
    [0, psi(gamma)].  Both searches reduce to finite bands.
    """
    cands = [
        k
        for k in _band_roots(A, psi, Fraction(0), psi[-1])
        if _lex_positive(psi, chi, k[0], k[1])
    ]
    base = []
    for fin, n in cands:
        v = flag_value(psi, fin, n)
        decomposable = False
        for f1, n1 in _band_roots(A, psi, Fraction(0), v):
            if (f1, n1) == (fin, n) or not _lex_positive(psi, chi, f1, n1):
                continue
            f2 = tuple(a - b for a, b in zip(fin, f1))
            n2 = n - n1
            if A.is_root(f2, n2) and _lex_positive(psi, chi, f2, n2):
                decomposable = True
                break
        if not decomposable:
            base.append((fin, n))
    return sorted(base)


def _reflection_matrix(A, key):
    fin, n = key
    dim = A.fin_rank + 1
    norm = A.fin_form(fin, fin)
    cols = []
    for i in range(A.fin_rank):
        e = tuple(Fraction(1 if j == i else 0) for j in range(A.fin_rank))
        coef = 2 * A.fin_form(e, fin) / norm
        col = [e[j] - coef * Fraction(fin[j]) for j in range(A.fin_rank)]
        col.append(-coef * Fraction(n))
        cols.append(col)
    cols.append([Fraction(0)] * A.fin_rank + [Fraction(1)])
    return tuple(tuple(cols[j][i] for j in range(dim)) for i in range(dim))


def _apply(m, key):
    vec = list(key[0]) + [Fraction(key[1])]
    out = [
        sum((m[i][j] * vec[j] for j in range(len(vec))), Fraction(0))
        for i in range(len(vec))
    ]
    n = out[-1]
    if n.denominator != 1:
        raise ValueError("reflection left the root lattice")
    return (tuple(out[:-1]), int(n))


def phi_P(P):
    """Cone data and the delta certificate for a standard parabolic set."""
    A = P.algebra
    tag = P.tag or classify_parabolic(P)
    if tag != "standard":
        raise ValueError("cone data requires a standard parabolic set")
    psi = principal_witness(P)
    if psi[-1] < 0:
        raise ValueError("delta must lie on the positive side of P")
    kernel = _band_roots(A, psi, 0, 0)
    chi = _levi_refinement(A, kernel)
    dim = A.fin_rank + 1
    base = _global_base(A, psi, chi)
    if len(base) != dim:
        raise ValueError("positive system did not yield an affine base")
    amat = [[Fraction(base[j][0][i]) for j in range(dim)] for i in range(A.fin_rank)]
    amat.append([Fraction(base[j][1]) for j in range(dim)])
    c = solve_unique(amat, [Fraction(0)] * A.fin_rank + [Fraction(1)])
    if c is None or any(ci <= 0 for ci in c):
        raise ValueError("delta is not interior to the base cone")
    I = [i for i in range(dim) if flag_value(psi, base[i][0], base[i][1]) == 0]
    J = [i for i in range(dim) if i not in I]
    group = group_closure([_reflection_matrix(A, base[i]) for i in I], dim)
    d = {}
    for w in group:
        for j in J:
            b = _apply(w, base[j])
            d[b] = d.get(b, Fraction(0)) + c[j]
    tot = [Fraction(0)] * dim
    for b, db in d.items():
        if db <= 0:
            raise ValueError("cone certificate failed: nonpositive coefficient")
        vec = list(b[0]) + [Fraction(b[1])]
        for i in range(dim):
            tot[i] += db * vec[i]
    if tot != [Fraction(0)] * A.fin_rank + [Fraction(len(group))]:
        raise ValueError("cone certificate failed: weighted sum is not |W_L| delta")
    phi_list = sorted(d)
    cols = [list(b[0]) + [Fraction(b[1])] for b in phi_list]
    rank = mat_rank([[cols[j][i] for j in range(len(cols))] for i in range(dim)])
    return ConeData(
        base=base,
        I=I,
        J=J,
        phi_P=phi_list,
        c=list(c),
        d=d,
        wl_order=len(group),
        NG=compute_NG(A),
        lattice_rank=rank,
    )


def compute_NG(A):
    """lcm of the denominators of (a,a)/2(a,b) over real root directions with (a,b) != 0."""
    dirs = {fam.fin for fam in A.root_families() if not fam.imaginary}
    pairs = [(A.fin_form(a, a), A.fin_form(a, b)) for a in dirs for b in dirs]
    return math.lcm(*((aa / (2 * p)).denominator for aa, p in pairs if p))


def in_QP(cone, coords):
    """Is the integer coordinate vector in the lattice spanned by Phi_P?"""
    dim = len(coords)
    cols = []
    for b in cone.phi_P:
        vec = [Fraction(x) for x in b[0]] + [Fraction(b[1])]
        if any(v.denominator != 1 for v in vec):
            raise ValueError("Phi_P has non-integer coordinates")
        cols.append([int(v) for v in vec])
    mat = [[cols[j][i] for j in range(len(cols))] for i in range(dim)]
    rhs = [Fraction(x) for x in coords]
    if any(v.denominator != 1 for v in rhs):
        return False
    return integer_solve(mat, [int(v) for v in rhs]) is not None
