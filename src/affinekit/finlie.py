"""Finite-dimensional simple Lie algebras realized by matrices in the defining rep.

Supported types: A1, A2, A3 (traceless matrices) and C2 (symplectic 4x4).
Structure constants and the invariant form are computed once from the
matrices; the form is tr(xy), which already gives (alpha, alpha) = 2 on
long roots for these realizations.

Weights are stored in fw-coordinates: the tuple of values on the simple
coroots h_1..h_rank.  The j-th column of the Cartan matrix is then the
coordinate vector of alpha_j.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .exact import coordinate_map


class LieElt:
    """Sparse Lie algebra element, keyed by basis name."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        self.c = {}
        if coeffs:
            for k, v in coeffs.items():
                v = Fraction(v)
                if v:
                    self.c[k] = v

    def __add__(self, other):
        out = dict(self.c)
        for k, v in other.c.items():
            w = out.get(k, 0) + v
            if w:
                out[k] = w
            else:
                out.pop(k, None)
        return LieElt(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s):
        s = Fraction(s)
        return LieElt({k: v * s for k, v in self.c.items()})

    def is_zero(self):
        return not self.c

    def __eq__(self, other):
        return isinstance(other, LieElt) and self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __repr__(self):
        if not self.c:
            return "LieElt(0)"
        parts = " + ".join(f"{v}*{k}" for k, v in sorted(self.c.items()))
        return f"LieElt({parts})"


def longest_string(weights):
    """The most terms of a run b, b - a, b - 2a, ... inside weights, a != 0.

    weights are the weights of the adjoint representation, zero included.
    A homogeneous f of nonzero weight -a shifts weights by -a, so u, ad(f)u,
    ad(f)^2 u, ... has at most this many nonzero terms for every u.
    """
    weights = set(weights)
    best = 0
    for a in weights:
        if not any(a):
            continue
        for b in weights:
            n, w = 0, b
            while w in weights:
                n += 1
                w = tuple(x - y for x, y in zip(w, a))
            best = max(best, n)
    return best


def sl2_normalise(bracket, e, f0):
    """Scale f0 so that [[e, f], e] = 2e and return the triple (e, f, [e, f]).

    e and f0 are root vectors of opposite roots in the Lie algebra whose
    bracket is bracket(x, y); works for LieElt and AffElt alike.  Raises
    ValueError unless [[e, f0], e] is a nonzero multiple of e.
    """
    br = bracket(bracket(e, f0), e)
    key = next(iter(e.c))
    c = br.c.get(key, Fraction(0)) / e.c[key]
    if not c or br != e.scale(c):
        raise ValueError("degenerate sl2 data for the given root")
    f = f0.scale(Fraction(2) / c)
    return e, f, bracket(e, f)


# ----------------------------------------------------------------- matrices


def _unit(n, i, j):
    return tuple(
        tuple(Fraction(1) if (r, c) == (i, j) else Fraction(0) for c in range(n))
        for r in range(n)
    )


def _madd(*ms):
    n = len(ms[0])
    return tuple(
        tuple(sum((m[r][c] for m in ms), Fraction(0)) for c in range(n)) for r in range(n)
    )


def _mneg(m):
    return tuple(tuple(-x for x in row) for row in m)

def _msub(a, b):
    return _madd(a, _mneg(b))


def _vec(m):
    return [x for row in m for x in row]


# ----------------------------------------------------------------- algebra


class SimpleLieAlgebra:
    """Simple Lie algebra with tabulated brackets, form, roots and weights."""

    def __init__(self, label, rank, names, mats, cartan, chevalley):
        self.label = label
        self.rank = rank
        self.basis = names
        self.dim = len(names)
        self.mats = mats
        self.cartan = cartan            # names of the simple coroots h_1..h_rank
        self._chevalley = chevalley     # i -> (e name, f name)
        self._tabulate()

    def _tabulate(self):
        # [a, b] and tr(ab) as sums over pairs of nonzero matrix entries:
        # (ab)_{ik} = sum_j a_ij b_jk, and tr(ab) pairs a_ij with b_ji
        self.bracket_table = {}
        self.form_table = {}
        n = len(self.mats[self.basis[0]])
        matrix_coords = coordinate_map([_vec(self.mats[a]) for a in self.basis])
        rows = {}  # name -> {i: [(j, x)]}, the nonzero entries row by row
        for a in self.basis:
            rows[a] = {}
            for i, row in enumerate(self.mats[a]):
                nz = [(j, x) for j, x in enumerate(row) if x]
                if nz:
                    rows[a][i] = nz
        for a in self.basis:
            ra = rows[a]
            for b in self.basis:
                rb = rows[b]
                z = [Fraction(0)] * (n * n)
                tr = Fraction(0)
                for i, nz in ra.items():
                    for j, x in nz:
                        for k, y in rb.get(j, ()):
                            z[i * n + k] += x * y
                            if k == i:
                                tr += x * y
                for i, nz in rb.items():
                    for j, y in nz:
                        for k, x in ra.get(j, ()):
                            z[i * n + k] -= y * x
                coords = matrix_coords(z)
                if coords is None:
                    raise ValueError("matrix not in the algebra")
                self.bracket_table[(a, b)] = {
                    nm: c for nm, c in zip(self.basis, coords) if c
                }
                self.form_table[(a, b)] = tr
        # weights: eigenvalue of ad h_i on each basis vector
        self.weight_of = {}
        for a in self.basis:
            w = []
            for hn in self.cartan:
                br = self.bracket_table[(hn, a)]
                if not br:
                    w.append(Fraction(0))
                elif set(br) == {a}:
                    w.append(br[a])
                else:
                    raise ValueError(f"basis vector {a} is not an ad-eigenvector")
            self.weight_of[a] = tuple(w)
        zero = tuple([Fraction(0)] * self.rank)
        self.roots = sorted(
            {w for a, w in self.weight_of.items() if w != zero}
        )
        self.root_vector = {}
        for a, w in self.weight_of.items():
            if w != zero:
                if w in self.root_vector:
                    raise ValueError(f"root space of {w} is not one-dimensional")
                self.root_vector[w] = a
        self.cartan_matrix = [
            [int(self.weight_of[self._chevalley[j + 1][0]][i]) for j in range(self.rank)]
            for i in range(self.rank)
        ]
        self.simple_roots = [
            self.weight_of[self._chevalley[j + 1][0]] for j in range(self.rank)
        ]
        # the Gram matrix of the coroots is symmetric: its rows are its columns
        self._coroot_dual = coordinate_map(
            [[self.form_table[(a, b)] for b in self.cartan] for a in self.cartan]
        )

    # -- public operations

    def bracket(self, x, y):
        out = {}
        for a, xa in x.c.items():
            for b, yb in y.c.items():
                for n, c in self.bracket_table[(a, b)].items():
                    w = out.get(n, 0) + xa * yb * c
                    if w:
                        out[n] = w
                    else:
                        out.pop(n, None)
        return LieElt(out)

    def form(self, x, y):
        tot = Fraction(0)
        for a, xa in x.c.items():
            for b, yb in y.c.items():
                tot += xa * yb * self.form_table[(a, b)]
        return tot

    def weight_form(self, v, w):
        """Invariant form on weights given in fw-coordinates."""
        return sum((Fraction(a) * b for a, b in zip(v, self._coroot_dual(w))), Fraction(0))

    @cached_property
    def longest_root_string(self):
        """The longest root string through an adjoint weight; see longest_string."""
        return longest_string(self.weight_of.values())


# one SimpleLieAlgebra per supported label: nothing mutates one once built
_SIMPLE = {}


def build_simple(label):
    """The supported simple Lie algebra of a type label, built once."""
    g = _SIMPLE.get(label)
    if g is None:
        g = _SIMPLE[label] = _construct_simple(label)
    return g


def _construct_simple(label):
    if label in ("A1", "A2", "A3"):
        n = int(label[1]) + 1
        names, mats, chev = [], {}, {}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    nm = f"E{i}{j}"
                    names.append(nm)
                    mats[nm] = _unit(n, i - 1, j - 1)
        cartan = []
        for i in range(1, n):
            nm = f"H{i}"
            names.append(nm)
            mats[nm] = _msub(_unit(n, i - 1, i - 1), _unit(n, i, i))
            cartan.append(nm)
            chev[i] = (f"E{i}{i + 1}", f"E{i + 1}{i}")
        return SimpleLieAlgebra(label, n - 1, names, mats, cartan, chev)
    if label == "C2":
        # sp4 with J = [[0, I], [-I, 0]]; blocks [[A, B], [C, -A^T]], B, C symmetric
        mats = {
            "Xe1-e2": _msub(_unit(4, 0, 1), _unit(4, 3, 2)),
            "Ye1-e2": _msub(_unit(4, 1, 0), _unit(4, 2, 3)),
            "Xe1+e2": _madd(_unit(4, 0, 3), _unit(4, 1, 2)),
            "Ye1+e2": _madd(_unit(4, 3, 0), _unit(4, 2, 1)),
            "X2e1": _unit(4, 0, 2),
            "Y2e1": _unit(4, 2, 0),
            "X2e2": _unit(4, 1, 3),
            "Y2e2": _unit(4, 3, 1),
            # simple coroots: h1 = diag(1,-1,-1,1), h2 = diag(0,1,0,-1)
            "H1": _madd(
                _unit(4, 0, 0), _mneg(_unit(4, 1, 1)), _mneg(_unit(4, 2, 2)), _unit(4, 3, 3)
            ),
            "H2": _msub(_unit(4, 1, 1), _unit(4, 3, 3)),
        }
        names = [
            "Xe1-e2", "Ye1-e2", "Xe1+e2", "Ye1+e2",
            "X2e1", "Y2e1", "X2e2", "Y2e2", "H1", "H2",
        ]
        chev = {1: ("Xe1-e2", "Ye1-e2"), 2: ("X2e2", "Y2e2")}
        return SimpleLieAlgebra("C2", 2, names, mats, ["H1", "H2"], chev)
    raise ValueError(f"unsupported type label: {label}")


# ----------------------------------------------------------------- sigma


class DiagramAut:
    """Automorphism given by a signed permutation of the basis."""

    def __init__(self, order, mapping):
        self.order = order
        self.mapping = mapping  # name -> (image name, sign)

    def apply(self, x):
        out = {}
        for a, v in x.c.items():
            b, s = self.mapping[a]
            out[b] = out.get(b, 0) + s * v
        return LieElt(out)

    def eigenbasis(self, g):
        """Bases of the fixed and anti-fixed subspaces (order 2 only)."""
        if self.order == 1:
            return [LieElt({a: 1}) for a in g.basis], []
        fixed, anti = [], []
        seen = set()
        for a in g.basis:
            if a in seen:
                continue
            b, s = self.mapping[a]
            if b == a:
                (fixed if s == 1 else anti).append(LieElt({a: 1}))
                seen.add(a)
            else:
                fixed.append(LieElt({a: 1, b: s}))
                anti.append(LieElt({a: 1, b: -s}))
                seen.update((a, b))
        return fixed, anti


def sigma_aut(g):
    """Order-2 diagram automorphism of A2: swaps the two simple sl2 triples."""
    if g.label != "A2":
        raise ValueError("the diagram involution is defined for A2 only")
    mapping = {
        "E12": ("E23", 1), "E23": ("E12", 1),
        "E21": ("E32", 1), "E32": ("E21", 1),
        "H1": ("H2", 1), "H2": ("H1", 1),
        "E13": ("E13", -1), "E31": ("E31", -1),
    }
    return DiagramAut(2, mapping)
