"""Affine Lie algebras built from a finite simple algebra, with optional twist.

The algebra is g x F[t, t^-1] + F D + F K with

    [x t^m, y t^n] = [x, y] t^(m+n) + delta_{m,-n} m (x, y) K,
    [D, x t^m] = m x t^m,   K central,

and the form (x t^m, y t^n) = delta_{m,-n} (x, y), (D, K) = 1.

A twist by an order-2 automorphism sigma restricts degree m to the
(-1)^m eigenspace of sigma.  Elements are stored sparsely by
(class label, degree) with separate D and K coefficients; the class
labels name eigenbasis vectors (for the untwisted case they are just
the finite basis names).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exact import coordinate_map, solve_unique
from .finlie import LieElt, longest_string, sl2_normalise


class DegreeWindow:
    """Closed integer interval of t-degrees."""

    __slots__ = ("nmin", "nmax")

    def __init__(self, nmin, nmax):
        if nmin > nmax:
            raise ValueError("empty degree window")
        self.nmin = int(nmin)
        self.nmax = int(nmax)

    def __contains__(self, n):
        return self.nmin <= n <= self.nmax

    def __iter__(self):
        return iter(range(self.nmin, self.nmax + 1))

    def doubled(self):
        return DegreeWindow(2 * self.nmin, 2 * self.nmax)

    def __repr__(self):
        return f"DegreeWindow({self.nmin}, {self.nmax})"

    def __eq__(self, other):
        return (
            isinstance(other, DegreeWindow)
            and (self.nmin, self.nmax) == (other.nmin, other.nmax)
        )


class AffElt:
    """Sparse affine algebra element: loop part plus D and K coefficients."""

    __slots__ = ("c", "d", "k")

    def __init__(self, coeffs=None, d=0, k=0):
        self.c = {}
        if coeffs:
            for key, v in coeffs.items():
                v = Fraction(v)
                if v:
                    self.c[key] = v
        self.d = Fraction(d)
        self.k = Fraction(k)

    def __add__(self, other):
        out = dict(self.c)
        for key, v in other.c.items():
            w = out.get(key, 0) + v
            if w:
                out[key] = w
            else:
                out.pop(key, None)
        return AffElt(out, d=self.d + other.d, k=self.k + other.k)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, s):
        s = Fraction(s)
        return AffElt({key: v * s for key, v in self.c.items()}, d=self.d * s, k=self.k * s)

    def is_zero(self):
        return not self.c and self.d == 0 and self.k == 0

    def __eq__(self, other):
        return (
            isinstance(other, AffElt)
            and self.c == other.c
            and self.d == other.d
            and self.k == other.k
        )

    def __repr__(self):
        parts = [f"{v}*{lab}@t^{m}" for (lab, m), v in sorted(self.c.items())]
        if self.d:
            parts.append(f"{self.d}*D")
        if self.k:
            parts.append(f"{self.k}*K")
        return "AffElt(" + (" + ".join(parts) or "0") + ")"


@dataclass(frozen=True)
class AffRoot:
    kind: str           # "real" or "imaginary"
    fin: tuple          # fw-coordinates on the degree-zero Cartan coroots
    n: int
    mult: int = 1


@dataclass(frozen=True)
class AffWeight:
    fin: tuple
    d: Fraction
    k: Fraction

    def __add__(self, other):
        return AffWeight(
            tuple(a + b for a, b in zip(self.fin, other.fin)),
            self.d + other.d,
            self.k + other.k,
        )


@dataclass(frozen=True)
class RootFamily:
    """The root line fin + (offset + Z step) delta, less 0 when imaginary."""

    fin: tuple
    step: int
    offset: int
    imaginary: bool

    def degrees(self, lo, hi):
        """Degrees n in lo..hi with (fin, n) a root, ascending."""
        first = lo + (self.offset - lo) % self.step
        return [n for n in range(first, hi + 1, self.step) if n or not self.imaginary]


class AffineAlgebra:
    def __init__(self, g, twist=None):
        self.g = g
        self.aut = twist
        self.s = 1 if twist is None else twist.order
        if self.s not in (1, 2):
            raise ValueError("only twists of order 1 or 2 are supported")
        self.zeta = 1 if self.s == 1 else -1
        self._consts = {}
        self._brackets = {}
        self._build_classes()

    def _build_classes(self):
        g = self.g
        if self.s == 1:
            self.class_basis = {0: [(a, LieElt({a: 1})) for a in g.basis]}
            self.tw_coroots = [LieElt({h: 1}) for h in g.cartan]
        else:
            fixed, anti = self.aut.eigenbasis(g)
            self.class_basis = {
                0: [(self._name(v), v) for v in fixed],
                1: [(self._name(v), v) for v in anti],
            }
            hfix = LieElt({})
            for h in g.cartan:
                v = LieElt({h: 1})
                if self.aut.apply(v) == v:
                    hfix = hfix + v
            if hfix.is_zero():
                hfix = LieElt({h: 1 for h in g.cartan})
            evals = set()
            for _, v in self.class_basis[0]:
                br = g.bracket(hfix, v)
                if not br.is_zero():
                    name = next(iter(v.c))
                    evals.add(br.c.get(name, Fraction(0)) / v.c[name])
            a = min(e for e in evals if e > 0)
            self.tw_coroots = [hfix.scale(Fraction(2) / a)]
        self.fin_rank = len(self.tw_coroots)
        self._zero = tuple([Fraction(0)] * self.fin_rank)
        self._label_to_elt = {}
        self._weights = {}
        by_weight = {}
        for c, pairs in self.class_basis.items():
            for lab, v in pairs:
                w = self._ad_weight(v)
                self._label_to_elt[(c, lab)] = v
                self._weights[(c, lab)] = w
                by_weight.setdefault(c, {}).setdefault(w, []).append(lab)
        # per degree class: finite weight -> its labels in class-basis order
        self._weight_index = {
            c: {w: tuple(labs) for w, labs in sorted(index.items())}
            for c, index in by_weight.items()
        }
        self._families = tuple(
            RootFamily(w, self.s, c, w == self._zero)
            for c in range(self.s)
            for w in self._weight_index[c]
        )
        self._class_coords = {
            c: coordinate_map([self._coords(v) for _, v in pairs])
            for c, pairs in self.class_basis.items()
        }
        # the Gram matrix of tw_coroots is symmetric: its rows are its columns
        self._coroot_dual = coordinate_map(
            [[self.g.form(a, b) for b in self.tw_coroots] for a in self.tw_coroots]
        )
        # twisted: rank one, and beta has fw-coordinate 2
        self._root_coords = coordinate_map(
            self.g.simple_roots if self.s == 1 else [(Fraction(2),)]
        )
        # coordinates on tw_coroots of a degree-zero Cartan element given by
        # its coefficients on cartan_labels(0); None outside their span
        carts = self.cartan_labels(0)
        self.coroot_coords = coordinate_map(
            [[dict(self.expand(0, h)).get(lab, 0) for lab in carts] for h in self.tw_coroots]
        )

    @staticmethod
    def _name(v):
        items = sorted(v.c.items())
        if len(items) == 1:
            return items[0][0]
        (a, ca), (b, cb) = items
        op = "+" if (cb / ca) > 0 else "-"
        return f"{a}{op}{b}"

    def _coords(self, v):
        return [v.c.get(a, Fraction(0)) for a in self.g.basis]

    def _ad_weight(self, v):
        out = []
        for h in self.tw_coroots:
            br = self.g.bracket(h, v)
            if br.is_zero():
                out.append(Fraction(0))
            else:
                name = next(iter(v.c))
                w = br.c.get(name, Fraction(0)) / v.c[name]
                if br != v.scale(w):
                    raise ValueError("class basis vector is not an ad-eigenvector")
                out.append(w)
        return tuple(out)

    # -- lookups

    def class_of(self, m):
        return m % self.s

    def class_labels(self, m):
        return [lab for lab, _ in self.class_basis[self.class_of(m)]]

    def label_elt(self, m, label):
        try:
            return self._label_to_elt[(self.class_of(m), label)]
        except KeyError:
            raise KeyError(f"no generator {label!r} in degree class {self.class_of(m)}")

    def fin_weight(self, m, label):
        return self._weights[(self.class_of(m), label)]

    def loop_weight(self, key):
        """Affine weight of the loop basis key (label, degree)."""
        lab, m = key
        return AffWeight(self.fin_weight(m, lab), Fraction(m), Fraction(0))

    def weight_index(self, m):
        """Finite weight -> labels carrying it in degree m, weights ascending.

        Shared by every caller: treat it as read-only.
        """
        return self._weight_index[self.class_of(m)]

    def weight_labels(self, m, fin):
        """Labels of degree m with finite weight fin, in class-basis order."""
        return self.weight_index(m).get(fin, ())

    def basis_bracket(self, a, b):
        """[a, b] for two loop basis keys (label, degree), tabulated per algebra.

        The returned AffElt is shared by every caller: treat it as read-only
        (never write to its c, d or k).
        """
        br = self._brackets.get((a, b))
        if br is None:
            br = aff_bracket(self, AffElt({a: Fraction(1)}), AffElt({b: Fraction(1)}))
            self._brackets[(a, b)] = br
        return br

    def cartan_labels(self, m):
        return list(self.weight_labels(m, self._zero))

    def structure_constants(self, m, la, n, lb):
        """(terms, form) for u = label la in degree m and v = label lb in degree n.

        terms are the class-basis terms of [u, v] in degree m + n and form is
        (u, v); one entry per (m mod s, la, n mod s, lb), filled on first use.
        """
        key = (m % self.s, la, n % self.s, lb)
        entry = self._consts.get(key)
        if entry is None:
            u, v = self.label_elt(m, la), self.label_elt(n, lb)
            terms = self.expand(m + n, self.g.bracket(u, v))
            entry = self._consts[key] = (terms, self.g.form(u, v))
        return entry

    def expand(self, m, v):
        """Expand a finite-algebra element in the degree-m class basis."""
        c = self.class_of(m)
        coords = self._class_coords[c](self._coords(v))
        if coords is None:
            raise ValueError(f"element does not lie in degree class {c}")
        return [(lab, x) for (lab, _), x in zip(self.class_basis[c], coords) if x]

    def fin_form(self, v, w):
        """Invariant form on finite weights in coordinates on tw_coroots."""
        return sum((Fraction(a) * b for a, b in zip(v, self._coroot_dual(w))), Fraction(0))

    def root_families(self):
        """Every root line as a RootFamily: by degree class, then by weight."""
        return self._families

    @cached_property
    def NG(self):
        """lcm of the denominators of (a,a)/2(a,b) over real root directions
        a, b with (a,b) != 0; rootpar.phi_P reads it."""
        dirs = {fam.fin for fam in self._families if not fam.imaginary}
        pairs = [(self.fin_form(a, a), self.fin_form(a, b)) for a in dirs for b in dirs]
        return math.lcm(*((aa / (2 * p)).denominator for aa, p in pairs if p))

    @cached_property
    def longest_root_string(self):
        """The longest string of finite root parts through an adjoint weight,
        degrees ignored (see finlie.longest_string): no lowering chain of a
        real root vector f t^r has more nonzero terms."""
        return longest_string(fam.fin for fam in self._families)

    def is_root(self, fin, n):
        fin = tuple(Fraction(c) for c in fin)
        if fin == self._zero and n == 0:
            return False
        return fin in self.weight_index(n)

    # -- affine root data

    def simple_root_coords(self, fin):
        """Coordinates of a finite weight in the simple-root basis."""
        return self._root_coords(fin)

    def fin_positive(self, fin):
        coords = self.simple_root_coords(fin)
        if coords is None or all(c == 0 for c in coords):
            return False
        return all(c >= 0 for c in coords)

    def affine_simple_roots(self):
        """Simple roots of the affine system as (fin, n) pairs, alpha_0 first."""
        if self.s == 1:
            theta = None
            for r in self.g.roots:
                coords = self.simple_root_coords(r)
                if all(c >= 0 for c in coords):
                    if theta is None or sum(coords) > sum(
                        self.simple_root_coords(theta)
                    ):
                        theta = r
            out = [(tuple(-Fraction(c) for c in theta), 1)]
            for alpha in self.g.simple_roots:
                out.append((tuple(Fraction(c) for c in alpha), 0))
            return out
        beta = (Fraction(2),)
        return [((Fraction(-4),), 1), (beta, 0)]

    def delta_marks(self):
        """Coefficients c_i with delta = sum c_i alpha_i over the simple roots."""
        simples = self.affine_simple_roots()
        rows = self.fin_rank + 1
        A = [
            [Fraction(simples[j][0][i]) for j in range(len(simples))]
            for i in range(self.fin_rank)
        ]
        A.append([Fraction(simples[j][1]) for j in range(len(simples))])
        rhs = [Fraction(0)] * self.fin_rank + [Fraction(1)]
        assert rows == len(simples)
        marks = solve_unique(A, rhs)
        if marks is None:
            raise ValueError("delta does not decompose over the simple roots")
        return marks


def build_affine(g, twist=None):
    return AffineAlgebra(g, twist)


# ----------------------------------------------------------------- bracket


def aff_bracket(A, x, y):
    out = {}
    kc = Fraction(0)

    def acc(key, v):
        w = out.get(key, 0) + v
        if w:
            out[key] = w
        else:
            out.pop(key, None)

    for (la, m), cx in x.c.items():
        for (lb, n), cy in y.c.items():
            terms, form = A.structure_constants(m, la, n, lb)
            for lab, cc in terms:
                acc((lab, m + n), cx * cy * cc)
            if m == -n and m != 0:
                kc += cx * cy * m * form
    if x.d:
        for (lb, n), cy in y.c.items():
            acc((lb, n), x.d * n * cy)
    if y.d:
        for (la, m), cx in x.c.items():
            acc((la, m), -y.d * m * cx)
    return AffElt(out, k=kc)


def aff_form(A, x, y):
    tot = Fraction(0)
    for (la, m), cx in x.c.items():
        for (lb, n), cy in y.c.items():
            if m == -n:
                tot += cx * cy * A.structure_constants(m, la, n, lb)[1]
    tot += x.d * y.k + x.k * y.d
    return tot


# ----------------------------------------------------------------- roots


def roots_window(A, window):
    out = []
    for n in window:
        for w, labs in A.weight_index(n).items():
            if not any(w):
                if n != 0:
                    out.append(AffRoot("imaginary", w, n, len(labs)))
            else:
                if len(labs) != 1:
                    raise ValueError("real root space is not one-dimensional")
                out.append(AffRoot("real", w, n, 1))
    return out


def root_space(A, root):
    return [(lab, root.n) for lab in A.weight_labels(root.n, root.fin)]


def is_positive_root(A, fin, n):
    if n != 0:
        return n > 0
    return A.fin_positive(fin)


def canonical_generator(A, fin, n):
    """Canonical root vector x_gamma; for gamma < 0 it is minus the label vector."""
    fin = tuple(Fraction(c) for c in fin)
    labs = A.weight_labels(n, fin)
    if len(labs) != 1:
        raise ValueError(f"({fin}, {n}) is not a real root")
    sign = 1 if is_positive_root(A, fin, n) else -1
    return AffElt({(labs[0], n): sign})


def sl2_triple(A, root):
    """Chevalley triple (e, f, h) attached to a real affine root."""
    if root.kind != "real":
        raise ValueError("sl2 triples exist for real roots only")
    e = canonical_generator(A, root.fin, root.n)
    f0 = canonical_generator(A, tuple(-c for c in root.fin), -root.n)
    return sl2_normalise(lambda x, y: aff_bracket(A, x, y), e, f0)


def heisenberg_check(A, window):
    """Cartan loop generators satisfy [h t^m, h' t^n] = delta_{m,-n} m (h,h') K."""
    for m in window:
        for n in window:
            for la in A.cartan_labels(m):
                for lb in A.cartan_labels(n):
                    br = aff_bracket(A, AffElt({(la, m): 1}), AffElt({(lb, n): 1}))
                    if br.c or br.d:
                        return False
                    expect = Fraction(0)
                    if m == -n:
                        expect = m * A.g.form(A.label_elt(m, la), A.label_elt(n, lb))
                    if br.k != expect:
                        return False
    return True
