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
from functools import cached_property

from .affine import roots_window
from .exact import group_closure, hermite_reduce, hermite_solve, mat_rank, solve_unique


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


def _line_table(A, phi):
    """(family, phi(fin, 0)) per root line; phi(fin, n) = phi(fin, 0) + n phi(delta)."""
    return [(fam, flag_value(phi, fam.fin, 0)) for fam in A.root_families()]


def _band_roots(A, phi, lo, hi, lines=None):
    """All roots (fin, n) with lo <= phi(fin, n) <= hi; finite since phi(delta) != 0.

    lines is _line_table(A, phi), for callers that search many bands of one phi.
    """
    pd = phi[-1]
    out = []
    for fam, a in lines or _line_table(A, phi):
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


def _neg(key):
    return (tuple(-c for c in key[0]), -key[1])


class ImproperParabolic(ValueError):
    """The flag puts every window root in P together with its negative."""


class ParabolicSet:
    """Windowed parabolic set with a flag-backed membership formula.

    members maps every window root key (fin, n) to its membership; a table
    passed in explicitly must cover exactly those keys.  With a flag, the
    set evaluates phi1 and phi2 once per root line (_sign_line), so
    membership at any degree is one integer multiply-add per covector.
    A flag-backed set is classified at construction (classify_parabolic),
    so an improper flag raises ImproperParabolic here; a flagless set keeps
    the tag it is given.
    """

    def __init__(self, A, flag, window, members=None, tag=None):
        self.algebra = A
        self.flag = flag
        self.window = window
        self.roots = roots_window(A, window)
        self._lines = None
        if flag is not None:
            self._lines = {fam.fin: _line_signs(flag, fam.fin) for fam in A.root_families()}
        if members is None:
            if flag is None:
                raise ValueError("either a flag or an explicit member table is needed")
            # a window root's fin is the very tuple its RootFamily holds, so
            # the table finds its line by identity, not by hashing Fractions
            by_id = {id(fam.fin): self._lines[fam.fin] for fam in A.root_families()}
            members = {
                (r.fin, r.n): _in_P(by_id.get(id(r.fin)) or self._line(r.fin), r.n)
                for r in self.roots
            }
        elif len(members) != len(self.roots) or any(
            (r.fin, r.n) not in members for r in self.roots
        ):
            raise ValueError("an explicit member table must cover exactly the window roots")
        self.members = members
        self._tag = tag if flag is None else classify_parabolic(self)
        self._levi_keys = None
        self._levi_root_keys = None

    @property
    def tag(self):
        """The classify_parabolic tag of the flag; read-only."""
        return self._tag

    def _line(self, fin):
        """_line_signs of the flag on the line through fin, kept per root
        line; a fin on no root line is evaluated."""
        line = self._lines.get(fin)
        return _line_signs(self.flag, fin) if line is None else line

    def member(self, fin, n):
        return self._member(tuple(Fraction(c) for c in fin), n)

    def _member(self, fin, n):
        """member() for a fin already given as a tuple of Fractions."""
        m = self.members.get((fin, n))
        if m is not None:
            return m
        if self.flag is None:
            raise ValueError("membership outside the window needs a defining flag")
        return _in_P(self._line(fin), n)

    def keys(self):
        return [(r.fin, r.n) for r in self.roots]

    def levi_keys(self):
        """Window root keys k with k and -k both in P; computed on first call
        (members never change) and shared between callers."""
        if self._levi_keys is None:
            self._levi_keys = [
                k for k in self.keys() if self.member(*k) and self.member(*_neg(k))
            ]
        return self._levi_keys

    def levi_root_keys(self):
        """Root keys of the Levi of P, computed on first call.

        For a standard P with its flag the Levi roots are the roots with
        psi = 0, psi the principal witness: a finite set, found by the band
        search and not cut off by the window.  Any other P reads them off
        its window (levi_keys).
        """
        if self._levi_root_keys is None:
            if self.flag is not None and self.tag == "standard":
                self._levi_root_keys = _band_roots(self.algebra, principal_witness(self), 0, 0)
            else:
                self._levi_root_keys = self.levi_keys()
        return self._levi_root_keys


def _sign_line(phi, fin):
    """Integers (a, d) such that a + n d has the sign of phi(fin, n) for every n.

    phi(fin, n) = phi(fin, 0) + n phi(delta), put over the positive common
    denominator of its two terms.
    """
    a, d = Fraction(flag_value(phi, fin, 0)), Fraction(phi[-1])
    return a.numerator * d.denominator, d.numerator * a.denominator


def _in_P(line, n):
    """The membership rule at degree n on a line given by _line_signs."""
    a1, d1, a2, d2 = line
    v1 = a1 + n * d1
    if v1:
        return v1 > 0
    return a2 is None or a2 + n * d2 >= 0


def _line_signs(flag, fin):
    """(a1, d1, a2, d2): _sign_line of phi1 and of phi2 (None, None without phi2)."""
    if flag.phi2 is None:
        return (*_sign_line(flag.phi1, fin), None, None)
    return (*_sign_line(flag.phi1, fin), *_sign_line(flag.phi2, fin))


def assemble_parabolic(A, flag, window):
    return ParabolicSet(A, flag, window)


def check_parabolic_axioms(P):
    """Windowed axioms: r or -r in P, and r + s in P for r, s in P.

    Root keys are mapped once to (fin index, n); sums of fins are read from
    a table of fin-index pairs, so the pair loop runs on ints.
    """
    fins = list(dict.fromkeys(fin for fin, _ in P.members))
    index = {fin: i for i, fin in enumerate(fins)}
    add = [[index.get(tuple(a + b for a, b in zip(f, g))) for g in fins] for f in fins]
    neg = [index.get(tuple(-c for c in f)) for f in fins]
    member = {(index[fin], n): m for (fin, n), m in P.members.items()}
    for (i, n), m in member.items():
        j = neg[i]
        if not m and j is not None and not member.get((j, -n), True):
            return False
    chosen = [k for k, m in member.items() if m]
    for pos, (i1, n1) in enumerate(chosen):
        row = add[i1]
        for i2, n2 in chosen[pos:]:
            s = row[i2]
            if s is not None and not member.get((s, n1 + n2), True):
                return False
    return True


# ------------------------------------------------------------ classification


def classify_parabolic(P):
    if P.flag is None:
        if P.tag is not None:
            return P.tag
        raise ValueError("cannot classify a parabolic set without its flag")
    if all(P.members.values()):
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
        # the roots of the line nearest to ker(phi1) on either side
        n0 = math.floor(-a1 / p1d)
        pos = neg = None
        for n in fam.degrees(n0 - 2 * fam.step, n0 + 2 * fam.step):
            t = a1 + n * p1d
            if t > 0 and (pos is None or t < pos[0]):
                pos = (t, n)
            elif t < 0 and (neg is None or t > neg[0]):
                neg = (t, n)
        for t, n in (e for e in (pos, neg) if e is not None):
            bounds.append(abs(a2 + n * p2d) / abs(t))
    M = 1 + max(bounds, default=Fraction(0))
    return tuple(M * phi1[i] + phi2[i] for i in range(len(phi1)))


def classification_certificate(P):
    flag = _defining_flag(P, "a classification certificate")
    tag = P.tag
    cert = {"tag": tag}
    if tag in ("standard", "imaginary"):
        psi = principal_witness(P)
        cert["psi"] = psi
    if tag == "mixed":
        cert["real_line"] = next(
            (
                fam
                for fam in P.algebra.root_families()
                if not fam.imaginary and P._line(fam.fin)[0] > 0
            ),
            None,
        )
        cert["imaginary_side"] = 1 if flag.phi2[-1] > 0 else -1
    return cert


def verify_classification(P):
    cert = classification_certificate(P)
    zero = tuple([Fraction(0)] * P.algebra.fin_rank)
    tag = cert["tag"]
    if tag in ("standard", "imaginary"):
        psi = cert["psi"]
        psi_lines = {}  # fin -> _sign_line(psi, fin): one evaluation per line
        for (fin, n), m in P.members.items():
            line = psi_lines.get(fin)
            if line is None:
                line = psi_lines[fin] = _sign_line(psi, fin)
            if m != (line[0] + n * line[1] >= 0):
                return False
        if tag == "standard":
            return psi[-1] != 0
        if psi[-1] != 0:
            return False
        return all(
            P._member(zero, n) and P._member(zero, -n)
            for n in P.window
            if n != 0
        )
    line = cert["real_line"]
    fin = line.fin
    neg = tuple(-c for c in fin)
    for n in line.degrees(P.window.nmin, P.window.nmax):
        if not P._member(fin, n) or P._member(neg, -n):
            return False
    side = cert["imaginary_side"]
    return all(
        P._member(zero, side * n) and not P._member(zero, -side * n)
        for n in P.window
        if n > 0
    )


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

    @cached_property
    def _lattice_matrix(self):
        """Phi_P as an integer matrix, one column (fin coordinates, then n)
        per root; built and checked once, since cone data never changes."""
        cols = []
        for b in self.phi_P:
            vec = [Fraction(x) for x in b[0]] + [Fraction(b[1])]
            if any(v.denominator != 1 for v in vec):
                raise ValueError("Phi_P has non-integer coordinates")
            cols.append([int(v) for v in vec])
        return [[col[i] for col in cols] for i in range(len(self.base))]

    @cached_property
    def _lattice_reduction(self):
        """hermite_reduce of _lattice_matrix: in_QP changes only the
        right-hand side, so the reduction is made once per cone."""
        return hermite_reduce(self._lattice_matrix)


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


def _global_base(A, psi, chi, lines):
    """Indecomposable roots of the positive system {psi > 0} u {psi = 0, chi > 0}.

    Window-free: a base element beta satisfies 0 <= psi(beta) <= psi(delta)
    because delta = sum c_i beta_i with every c_i >= 1, and a decomposition
    gamma = gamma1 + gamma2 into positives forces both psi-values into
    [0, psi(gamma)].  So both searches stay inside the band
    0 <= psi <= psi(delta), read once off lines = _line_table(A, psi): the
    base is the positive roots of that band that are not the sum of two of
    them.
    """
    positive = [
        k
        for k in _band_roots(A, psi, Fraction(0), psi[-1], lines)
        if _lex_positive(psi, chi, k[0], k[1])
    ]
    in_band = set(positive)  # holds no zero key, so gamma1 = gamma is no sum
    base = [
        (fin, n)
        for fin, n in positive
        if not any(
            (tuple(a - b for a, b in zip(fin, f1)), n - n1) in in_band
            for f1, n1 in positive
        )
    ]
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
    tag = P.tag
    if tag != "standard":
        raise ValueError("cone data requires a standard parabolic set")
    psi = principal_witness(P)
    if psi[-1] < 0:
        raise ValueError("delta must lie on the positive side of P")
    lines = _line_table(A, psi)
    kernel = _band_roots(A, psi, 0, 0, lines)
    chi = _levi_refinement(A, kernel)
    dim = A.fin_rank + 1
    base = _global_base(A, psi, chi, lines)
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
        NG=A.NG,
        lattice_rank=rank,
    )


def in_QP(cone, coords):
    """Is the integer coordinate vector in the lattice spanned by Phi_P?"""
    reduction = cone._lattice_reduction
    rhs = [Fraction(x) for x in coords]
    if any(v.denominator != 1 for v in rhs):
        return False
    return hermite_solve(reduction, [int(v) for v in rhs]) is not None
