"""Weight modules over finite and affine Lie algebras on degree windows.

Every module here is a GradedModule: a finite labelled basis, a weight for
each label, and tabulated generator actions with exact rational entries.
Truncation is handled by a boundary mask: while tabulating, any action term
that falls outside the stored basis is dropped and the source label is
masked.  Structural identities (bracket compatibility, weight additivity)
are therefore asserted only at unmasked labels whose one-step images stay
unmasked; inside that region the stored action is complete and the checks
hold exactly.

The dense sl2 family is normalised by two requirements that pin the action
uniquely: [e, f] w_j = (b + 2j) w_j forces mu_{j-1} - mu_j = b + 2j for the
coefficients in e w_j = mu_j w_{j+1}, and c is declared to be mu_0.  Summing
the recurrence gives mu_j = c - j(b + j + 1), and the Casimir ef + fe +
h^2/2 then acts by the constant 2c + b + b^2/2.
"""

import itertools
import weakref
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .affine import (
    AffElt,
    AffineAlgebra,
    AffRoot,
    AffWeight,
    aff_bracket,
    build_affine,
    is_positive_root,
    root_space,
    roots_window,
    sl2_triple,
)
from .exact import (
    coordinate_map,
    hermite_reduce,
    hermite_solve,
    kernel,
    mat_mul,
    rational_sqrt,
)
from .exact import invert  # noqa: F401  perfbench's tracer test rebinds modrep.invert
from .finlie import LieElt, build_simple
from .rootpar import ParabolicSet, check_parabolic_axioms

_Z = Fraction(0)
_ONE = Fraction(1)
# violations a law checker lists before it stops
_MAX_REPORT = 10


class IncompatibleData(ValueError):
    """Input data does not satisfy a structural compatibility condition."""


class UntabulatedGenerator(ValueError):
    """A generator was applied at a label where no action row is stored."""


class NothingCompared(ValueError):
    """A law check found no unmasked data to compare, so it cannot pass."""


# ----------------------------------------------------------- sparse vectors


def _acc(out, vec, c=_ONE):
    """out += c * vec in place, dropping zeros; returns out.

    The values of vec are Fractions.  A unit c multiplies nothing, and a key
    new to out takes its product as it is instead of adding it to zero, so
    keys keep the order of a plain sum and every stored value is a nonzero
    Fraction.
    """
    unit = c is _ONE or c == 1
    for key, v in vec.items():
        if not unit:
            v = v * c
        w = out.get(key)
        if w is None:
            if v:
                out[key] = v
        elif w := w + v:
            out[key] = w
        else:
            del out[key]
    return out


def _scaled(vec, c):
    if not c:
        return {}
    return {key: v * c for key, v in vec.items()}


# ----------------------------------------------------------- graded modules


class _WeightView:
    """Weight bands and generator weights, for a Support and a GradedModule."""

    @cached_property
    def kind(self):
        return "aff" if isinstance(self.algebra, AffineAlgebra) else "fin"

    @cached_property
    def gen_disp(self):
        """The weight each generator adds, read off the algebra."""
        A = self.algebra
        if self.kind == "fin":
            return {gk: AffWeight(A.weight_of[gk[1]], _Z, _Z) for gk in self.gens}
        zero = AffWeight(tuple([_Z] * A.fin_rank), _Z, _Z)
        return {
            gk: zero if gk in ("D", "K") else A.loop_weight(gk[1:])
            for gk in self.gens
        }

    @cached_property
    def weights(self):
        out = {}
        for lab, w in self.weight_of.items():
            out.setdefault(w, []).append(lab)
        for labs in out.values():
            labs.sort()
        return out

    def multiplicity_table(self):
        return {w: len(labs) for w, labs in self.weights.items()}

    def support_sorted(self):
        return sorted(self.weights, key=lambda w: (w.fin, w.d, w.k))


@dataclass
class Support(_WeightView):
    """The labels, weights, mask and generators of a module, without its rows."""

    algebra: object
    weight_of: dict
    boundary: set
    gens: list


@dataclass
class GradedModule(_WeightView):
    """Finite-basis weight module with tabulated generator actions.

    The algebra fixes kind: "aff" over an AffineAlgebra, "fin" over a
    SimpleLieAlgebra.  Generators are keyed ("fin", name) for kind "fin" and
    ("t", label, m), "D", "K" for kind "aff".  action is a mapping from
    (gen, label) to a sparse vector over labels: a dict, or for an induced
    or a twisted module a read-only mapping (_LazyRows) that fills each row
    on its first read (a full iteration fills everything).  boundary is the
    truncation mask: the set of labels whose tabulated action lost at least
    one term to the window.
    """

    algebra: object
    weight_of: dict
    action: Mapping
    boundary: set
    k_value: Fraction
    gens: list

    @cached_property
    def twist_tables(self):
        """The x-independent f_alpha^{-1} work of locfun, one table per root,
        whose store a twist shares with its parent; locfun.twist_table is
        its one owner."""
        return {}

    def gen_elt(self, gk):
        """The algebra element behind the generator key gk."""
        if gk == "D":
            return AffElt(d=1)
        if gk == "K":
            return AffElt(k=1)
        if gk[0] == "fin":
            return LieElt({gk[1]: _ONE})
        return AffElt({(gk[1], gk[2]): _ONE})

    def bracket(self, x, y):
        """[x, y] in the algebra this module is over."""
        if self.kind == "fin":
            return self.algebra.bracket(x, y)
        return aff_bracket(self.algebra, x, y)

    def apply_gen(self, gen, vec):
        out = {}
        for lab, c in vec.items():
            try:
                row = self.action[(gen, lab)]
            except KeyError:
                raise UntabulatedGenerator(f"generator {gen!r} is not tabulated")
            _acc(out, row, c)
        return out

    def apply_elt(self, elt, vec):
        out = {}
        if self.kind == "fin":
            for name, c in elt.c.items():
                _acc(out, self.apply_gen(("fin", name), vec), c)
            return out
        for (lab, m), c in elt.c.items():
            _acc(out, self.apply_gen(("t", lab, m), vec), c)
        if elt.d:
            _acc(out, self.apply_gen("D", vec), elt.d)
        if elt.k:
            _acc(out, _scaled(vec, self.k_value), elt.k)
        return out


class _LazyRows(Mapping):
    """A read-only action mapping whose rows are filled on first read.

    Its keys are (gk, lab) for lab in labels and gk in gens.  The first read
    of a key keeps fill(gk, lab) as that row, and fills no other row.  Once
    every row is kept, fill is dropped, and with it what fill holds (the
    parent module of a twist, the push and N of an induction).  Iteration
    yields the keys only, labels outer and generators inner, so a full
    iteration through the rows (items(), ==, dict(...)) reads each one by its
    key; membership and len read only the labels and generators.  It is not a
    dict subclass with __missing__: there ==, items(), len and in would
    bypass __missing__ and see a partial table.
    """

    def __init__(self, labels, gens, fill):
        self._labels, self._gens, self._fill = labels, gens, fill
        self._gen_set = frozenset(gens)
        self._rows = {}

    def __getitem__(self, key):
        try:
            return self._rows[key]
        except KeyError:
            pass
        if key not in self:
            raise KeyError(key)
        row = self._rows[key] = self._fill(*key)
        if len(self._rows) == len(self):
            self._fill = None
        return row

    def __contains__(self, key):
        try:
            gk, lab = key
        except (TypeError, ValueError):
            return False
        return lab in self._labels and gk in self._gen_set

    def __iter__(self):
        for lab in self._labels:
            for gk in self._gens:
                yield (gk, lab)

    def __len__(self):
        return len(self._labels) * len(self._gens)


def _band_matrix(M, elt, src, tgt):
    """Matrix of elt from the labels src to the labels tgt, one column per source."""
    cols = [M.apply_elt(elt, {s: _ONE}) for s in src]
    return [[col.get(t, _Z) for col in cols] for t in tgt]


# ------------------------------------------------------- structural checks


def _clean_labels(M, gen):
    out = set()
    for lab in M.weight_of:
        if lab in M.boundary:
            continue
        if all(t not in M.boundary for t in M.action[(gen, lab)]):
            out.add(lab)
    return out


def check_bracket_compat(M):
    """Exact [X,Y].v = X.(Y.v) - Y.(X.v) on the two-step interior.

    Affine generator pairs whose bracket involves an untabulated generator
    are skipped; everything else is compared exactly.  Returns a list of
    violations, empty when the identity holds.  Raises NothingCompared when
    no generator pair has a clean label in common.
    """
    gens = M.gens
    clean = {g: _clean_labels(M, g) for g in gens}
    tgens = {g[1:] for g in gens if isinstance(g, tuple) and g[0] == "t"}
    bad = []
    compared = False
    for i, X in enumerate(gens):
        for Y in gens[i + 1 :]:
            br = M.bracket(M.gen_elt(X), M.gen_elt(Y))
            if M.kind == "aff" and any(key not in tgens for key in br.c):
                continue
            labs = clean[X] & clean[Y]
            compared = compared or bool(labs)
            for lab in labs:
                lhs = M.apply_elt(br, {lab: _ONE})
                rhs = _acc(
                    M.apply_gen(X, M.action[(Y, lab)]),
                    M.apply_gen(Y, M.action[(X, lab)]),
                    -_ONE,
                )
                if lhs != rhs:
                    bad.append((X, Y, lab))
                    if len(bad) >= _MAX_REPORT:
                        return bad
    if not compared:
        raise NothingCompared(
            f"no generator pair has a clean label to compare "
            f"({len(M.weight_of)} labels, {len(M.boundary)} masked)"
        )
    return bad


def check_weight_additivity(M):
    """Every row target has the weight of its source plus its generator's.

    Returns a list of violations, empty when the law holds.  Raises
    NothingCompared when no row has a target.
    """
    bad = []
    compared = False
    for (gen, lab), vec in M.action.items():
        expect = M.weight_of[lab] + M.gen_disp[gen]
        for tgt in vec:
            compared = True
            if M.weight_of[tgt] != expect:
                bad.append((gen, lab, tgt))
                if len(bad) >= _MAX_REPORT:
                    return bad
    if not compared:
        raise NothingCompared(f"no action row has a target ({len(M.weight_of)} labels)")
    return bad


def check_level(M):
    """K acts on every label by the module's level k_value.

    Returns a list of violations, empty when the law holds.  Raises
    NothingCompared when there is no label to compare, as over a
    finite-dimensional algebra, which has no K.
    """
    if M.kind != "aff" or not M.weight_of:
        raise NothingCompared(f"no label to compare K on ({M.kind} module, {len(M.weight_of)} labels)")
    bad = []
    for lab in M.weight_of:
        got = M.action[("K", lab)]
        if got != _scaled({lab: _ONE}, M.k_value):
            bad.append(lab)
            if len(bad) >= _MAX_REPORT:
                return bad
    return bad


# ------------------------------------------------------------ sl2 families


@dataclass(frozen=True)
class DenseSL2Params:
    b: Fraction
    c: Fraction


def _dense_line(params, window):
    """Rows of the dense sl2 line on the labels ("w", j), j in window.

    Returns ({label: (e row, f row, h value)}, edge labels) for
    e w_j = mu_j w_{j+1} with mu_j = c - j(b + j + 1), f w_j = w_{j-1} and
    h w_j = (b + 2j) w_j.  A row that would leave the window is empty and
    its label is an edge label.
    """
    b, c = Fraction(params.b), Fraction(params.c)
    rows, edge = {}, set()
    for j in window:
        lab = ("w", j)
        mu = c - j * (b + j + 1)
        up, down = j + 1 in window, j - 1 in window
        if not (up and down):
            edge.add(lab)
        erow = {("w", j + 1): mu} if up and mu else {}
        frow = {("w", j - 1): _ONE} if down else {}
        rows[lab] = (erow, frow, b + 2 * j)
    return rows, edge


def dense_sl2(params, window):
    """Dense weight line over sl2: h-spectrum b + 2Z, all multiplicities 1.

    e w_j = mu_j w_{j+1} with mu_j = c - j(b + j + 1), f w_j = w_{j-1},
    h w_j = (b + 2j) w_j.  e (resp. f) is injective on the interior exactly
    where mu_j != 0 (f is injective outright).
    """
    g = build_simple("A1")
    rows, boundary = _dense_line(params, window)
    weight_of, action = {}, {}
    for lab, (erow, frow, hval) in rows.items():
        weight_of[lab] = AffWeight((hval,), _Z, _Z)
        action[(("fin", "E12"), lab)] = erow
        action[(("fin", "E21"), lab)] = frow
        action[(("fin", "H1"), lab)] = {lab: hval} if hval else {}
    gens = [("fin", n) for n in g.basis]
    return GradedModule(g, weight_of, action, boundary, _Z, gens)


def finite_dim_sl2(m):
    """The (m+1)-dimensional simple sl2 module; exact, no truncation."""
    if m < 0:
        raise ValueError(f"finite_dim_sl2 wants m >= 0, got {m}")
    g = build_simple("A1")
    weight_of = {("u", i): AffWeight((Fraction(m - 2 * i),), _Z, _Z) for i in range(m + 1)}
    action = {}
    for i in range(m + 1):
        lab = ("u", i)
        action[(("fin", "E12"), lab)] = {("u", i - 1): Fraction(i * (m - i + 1))} if i else {}
        action[(("fin", "E21"), lab)] = {("u", i + 1): _ONE} if i < m else {}
        action[(("fin", "H1"), lab)] = {lab: Fraction(m - 2 * i)} if m != 2 * i else {}
    gens = [("fin", n) for n in g.basis]
    return GradedModule(g, weight_of, action, set(), _Z, gens)


def natural_rep(g):
    """Defining matrix representation, read off from the stored matrices."""
    dim = len(next(iter(g.mats.values())))
    cart = [g.mats[h] for h in g.cartan]
    weight_of = {
        ("x", i): AffWeight(tuple(Fraction(h[i][i]) for h in cart), _Z, _Z)
        for i in range(dim)
    }
    action = {}
    for name in g.basis:
        mat = g.mats[name]
        for j in range(dim):
            vec = {}
            for i in range(dim):
                if mat[i][j]:
                    vec[("x", i)] = Fraction(mat[i][j])
            action[(("fin", name), ("x", j))] = vec
    gens = [("fin", n) for n in g.basis]
    return GradedModule(g, weight_of, action, set(), _Z, gens)


def adjoint_rep(g):
    weight_of = {("a", n): AffWeight(g.weight_of[n], _Z, _Z) for n in g.basis}
    action = {}
    for x in g.basis:
        for y in g.basis:
            br = g.bracket(LieElt({x: _ONE}), LieElt({y: _ONE}))
            action[(("fin", x), ("a", y))] = {("a", n): c for n, c in br.c.items()}
    gens = [("fin", n) for n in g.basis]
    return GradedModule(g, weight_of, action, set(), _Z, gens)


# ------------------------------------------------------------ loop modules


def _loop_gens(A, gen_window):
    """Generator keys ("t", label, m) for |m| <= gen_window, then D and K."""
    gens = []
    for m in range(-gen_window, gen_window + 1):
        gens.extend(("t", lab, m) for lab in A.class_labels(m))
    return gens + ["D", "K"]


def _coroot_weight(A, Fm, lab):
    """Finite weight of a factor label, read on A.tw_coroots."""
    out = []
    for h in A.tw_coroots:
        res = Fm.apply_elt(h, {lab: _ONE})
        if set(res) - {lab}:
            raise IncompatibleData("coroot action is not diagonal")
        out.append(res.get(lab, _Z))
    return out


def loop_support(A, factors, scalars, window, gen_window=2):
    """The Support of loop_module(A, factors, scalars, window, gen_window).

    Labels are (tlab, s): a factor label tuple tlab and a loop degree s in
    window.  A label is masked when a factor label in tlab is masked, or
    when some generator degree m has s + m outside the window.  The input
    checks are loop_module's: matching nonempty factors and scalars,
    nonzero scalars and finite-algebra factors.
    """
    if len(factors) != len(scalars) or not factors:
        raise ValueError("need matching nonempty factors and scalars")
    if 0 in [Fraction(a) for a in scalars]:
        raise ValueError("evaluation points must be nonzero")
    for Fm in factors:
        if Fm.kind != "fin":
            raise ValueError("loop factors must be finite-algebra modules")

    fweights = [{lab: _coroot_weight(A, Fm, lab) for lab in Fm.weight_of} for Fm in factors]
    gens = _loop_gens(A, gen_window)
    degrees = {gk[2] for gk in gens if gk not in ("D", "K")}
    edge = {s for s in window if any(s + m not in window for m in degrees)}
    weight_of, boundary = {}, set()
    for tlab in itertools.product(*[list(Fm.weight_of) for Fm in factors]):
        fins = [fweights[i][tlab[i]] for i in range(len(factors))]
        fin = tuple(sum(col) for col in zip(*fins))
        taint0 = any(tlab[i] in factors[i].boundary for i in range(len(factors)))
        for s in window:
            lab = (tlab, s)
            weight_of[lab] = AffWeight(fin, Fraction(s), _Z)
            if taint0 or s in edge:
                boundary.add(lab)
    return Support(A, weight_of, boundary, gens)


def loop_module(A, factors, scalars, window, gen_window=2):
    """Loop module on a tensor product of evaluation factors.

    (X t^n) acts on (v_1 x ... x v_k) t^s as sum_i a_i^n (... X v_i ...)
    t^{n+s}; D reads the loop degree s and K acts by zero.  Scalars must be
    nonzero.  Generators run over the class basis of each degree, and
    weights are read on A.tw_coroots, so over a twisted algebra this is the
    restriction of the untwisted loop module to the twisted subalgebra.
    twisted_loop_fixed_points cuts a smaller twisted module out of it.
    Labels, weights and mask are loop_support's; a row that would leave the
    window is empty.
    """
    support = loop_support(A, factors, scalars, window, gen_window)
    scalars = [Fraction(a) for a in scalars]
    # each class-basis element acting on each factor label, once per degree class
    factor_rows = {}
    for c in range(A.s):
        for name in A.class_labels(c):
            u = A.label_elt(c, name)
            factor_rows[(c, name)] = [
                {fl: Fm.apply_elt(u, {fl: _ONE}) for fl in Fm.weight_of} for Fm in factors
            ]
    tgens = [
        (gk, factor_rows[(A.class_of(gk[2]), gk[1])]) for gk in support.gens if gk not in ("D", "K")
    ]
    # a_i^m once per degree m for this call
    powers = {m: [a ** m for a in scalars] for m in range(-gen_window, gen_window + 1)}

    action = {}
    for lab in support.weight_of:
        tlab, s = lab
        action[("D", lab)] = {lab: Fraction(s)} if s else {}
        action[("K", lab)] = {}
        for gk, rows in tgens:
            m = gk[2]
            if s + m not in window:
                action[(gk, lab)] = {}
                continue
            vec = {}
            for i, (frows, an) in enumerate(zip(rows, powers[m])):
                for tgt, c in frows[tlab[i]].items():
                    nl = (tlab[:i] + (tgt,) + tlab[i + 1 :], s + m)
                    v = c * an
                    old = vec.get(nl)
                    if old is None:
                        if v:
                            vec[nl] = v
                    else:
                        # two factors can reach the same label on the diagonal
                        v += old
                        if v:
                            vec[nl] = v
                        else:
                            del vec[nl]
            action[(gk, lab)] = vec
    return GradedModule(A, support.weight_of, action, support.boundary, _Z, support.gens)


# ------------------------------------------------- twisted loop fixed points


def sigma_intertwiner(g, aut, M):
    """Involutive T with T(X.v) = aut(X).(T v), normalised to T^2 = 1.

    Solves the intertwining equations exactly; raises IncompatibleData when
    no nonzero solution exists or when no rational rescaling makes the
    solution an involution.
    """
    labs = sorted(M.weight_of)
    n = len(labs)
    rows = []
    for name in g.basis:
        x = LieElt({name: _ONE})
        rx = _band_matrix(M, x, labs, labs)
        rs = _band_matrix(M, aut.apply(x), labs, labs)
        # equation (i, j): sum_k T[i][k] rx[k][j] - rs[i][k] T[k][j] = 0
        for i in range(n):
            for j in range(n):
                row = [_Z] * (n * n)
                for k in range(n):
                    if rx[k][j]:
                        row[i * n + k] += rx[k][j]
                    if rs[i][k]:
                        row[k * n + j] -= rs[i][k]
                if any(row):
                    rows.append(row)
    sols = kernel(rows)
    if not sols:
        raise IncompatibleData("no intertwiner onto the twisted structure")
    T = [sols[0][i * n : (i + 1) * n] for i in range(n)]
    # T^2 must be scalar; rescale by a rational square root to reach T^2 = 1
    sq = mat_mul(T, T)
    c = sq[0][0]
    if any(sq[i][j] != (c if i == j else 0) for i in range(n) for j in range(n)):
        raise IncompatibleData("intertwiner does not square to a scalar")
    if c == 0:
        raise IncompatibleData("intertwiner is not invertible")
    if c < 0:
        raise IncompatibleData("intertwiner squares to a negative scalar")
    s = rational_sqrt(c)
    if s is None:
        raise IncompatibleData("no rational normalisation to an involution")
    T = [[v / s for v in row] for row in T]
    first = next(v for row in T for v in row if v)
    if first < 0:
        T = [[-v for v in row] for row in T]
    return {labs[j]: {labs[i]: T[i][j] for i in range(n) if T[i][j]} for j in range(n)}


def twisted_loop_fixed_points(At, factors, scalars, window, gen_window=2):
    """Fixed points of the order-2 loop involution on a paired tensor module.

    Factors must be two copies of one module and the evaluation scalars an
    opposite pair (a, -a); the involution swaps the slots through the
    diagram intertwiner.  Because the slot scalars already differ by the
    sign of the twist, this involution commutes with every generator of the
    twisted algebra with no extra grade factor, so its fixed subspace is a
    module over the twisted algebra, graded by loop degree.  Its table is
    read off L = loop_module(At, [V, V], [a, -a]): each fixed label's row is
    the sum of L's rows over its pair combination, written in the fixed
    basis, and weights and masks are L's.
    """
    if At.s != 2:
        raise ValueError("expected a twisted affine algebra")
    if len(factors) != 2 or len(scalars) != 2:
        raise IncompatibleData("twisted pairing needs exactly two factors")
    V, V2 = factors
    a, b = Fraction(scalars[0]), Fraction(scalars[1])
    if a == 0 or b != -a:
        raise IncompatibleData("evaluation scalars must form an opposite pair")
    if (
        V2.weight_of != V.weight_of
        or V2.action != V.action
        or V.kind != "fin"
        or V2.kind != "fin"
    ):
        raise IncompatibleData("factors must be two copies of one module")
    T = sigma_intertwiner(At.g, At.aut, V)

    vlabs = sorted(V.weight_of)
    pairs = [(l1, l2) for l1 in vlabs for l2 in vlabs]
    pidx = {p: i for i, p in enumerate(pairs)}
    n = len(pairs)
    S = [[_Z] * n for _ in range(n)]
    for j, (l1, l2) in enumerate(pairs):
        for m1, c1 in T[l2].items():
            for m2, c2 in T[l1].items():
                S[pidx[(m1, m2)]][j] = c1 * c2
    S2 = mat_mul(S, S)
    if any(S2[i][j] != (1 if i == j else 0) for i in range(n) for j in range(n)):
        raise IncompatibleData("loop involution failed to square to one")

    plus = kernel([[S[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)])
    fixed_coords = coordinate_map(plus)

    def fixed_row(row):
        """A row of L inside the fixed subspace, in the fixed basis."""
        if not row:
            return {}
        t = next(iter(row))[1]
        coords = fixed_coords([row.get((p, t), _Z) for p in pairs])
        if coords is None:
            raise IncompatibleData("action left the fixed subspace")
        return {("s", t, i): c for i, c in enumerate(coords) if c}

    L = loop_module(At, [V, V], [a, -a], window, gen_window)
    weight_of, combos, boundary = {}, {}, set()
    for s in window:
        for i, v in enumerate(plus):
            lab = ("s", s, i)
            combo = {(pairs[j], s): v[j] for j in range(n) if v[j]}
            ws = {L.weight_of[key] for key in combo}
            if len(ws) != 1:
                raise IncompatibleData("eigenvector mixes finite weights")
            combos[lab] = combo
            weight_of[lab] = ws.pop()
            if any(key in L.boundary for key in combo):
                boundary.add(lab)

    action = {}
    for lab, combo in combos.items():
        for gk in L.gens:
            row = {}
            for key, c in combo.items():
                _acc(row, L.action[(gk, key)], c)
            action[(gk, lab)] = fixed_row(row)
    return GradedModule(At, weight_of, action, boundary, _Z, L.gens)


# ------------------------------------------------------- imaginary Verma


def vacuum_support(lam, depth, length_cap, mode_cap=None, gen_window=2, n0_ext=0):
    """The Support of imaginary_verma(lam, depth, length_cap, mode_cap,
    gen_window, n0_ext): its labels in the same order, their weights, the
    mask and the generators, with no row built.

    Labels ("m", n0, mon) meet the caps: |grade(mon)| <= depth, every mode
    |k| <= mode_cap, length(mon) <= length_cap and -n0_ext <= n0 <=
    length_cap - length(mon).  A label is masked iff a row of
    imaginary_verma puts a term (whatever its coefficient) on a target
    that breaks a cap.  With L = length(mon), g = grade(mon) and m over
    -W..W for W = gen_window, the targets are:

      f_0: n0 + 1; it breaks a cap iff n0 + L = length_cap.
      f_m (m != 0): mon f_m; breaks iff L = length_cap, n0 + L =
        length_cap, |m| > mode_cap or |g + m| > depth.
      h_m (m != 0): one f_k moved to f_{k+m}; breaks iff |g + m| > depth
        or |k + m| > mode_cap.
      e_m: one f_{-m} dropped, or a letter pair {f_a, f_b} replaced by
        f_{m+a+b}; breaks iff |g + m| > depth or |m + a + b| > mode_cap.
      the n0 chain (n0 != 0, in h_m and e_m): n0 - 1, with f_m inserted or
        one f_k moved to f_{k+m}; breaks iff n0 = -n0_ext, or as f_m or
        h_m does.
      c3 (n0 not in {0, 1}, in e_m): n0 - 1 for m = 0, else n0 - 2 with f_m
        inserted; breaks iff that n0 is below -n0_ext, or as f_m does.

    So a label is masked iff n0 + L = length_cap, or n0 = -n0_ext != 0, or
    W + |a + b| > mode_cap for a letter pair of mon, or W >= 1 and one of:
    L = length_cap; |g| + W > depth; W + |k| > mode_cap for a letter f_k of
    mon (W > mode_cap for the vacuum); n0 = 1 - n0_ext with n0_ext >= 2.
    A negative depth, length_cap or n0_ext would drop the vacuum itself and
    raises ValueError.
    """
    for name, cap in (("depth", depth), ("length_cap", length_cap), ("n0_ext", n0_ext)):
        if cap < 0:
            raise ValueError(f"{name} must be nonnegative, got {cap}")
    lam = Fraction(lam)
    if mode_cap is None:
        mode_cap = depth
    A = build_affine(build_simple("A1"))
    W = gen_window

    modes = [k for k in range(-mode_cap, mode_cap + 1) if k]
    weight_of, boundary = {}, set()

    def add(mon, L, g):
        # mon lists its modes in increasing order, so its extreme letters
        # and extreme letter pairs sit at its ends
        reach = W
        if mon:
            reach += max(-mon[0][0], mon[-1][0])
        pair = 0
        if L >= 2:
            lo = mon[0][0] + (mon[0][0] if mon[0][1] > 1 else mon[1][0])
            hi = mon[-1][0] + (mon[-1][0] if mon[-1][1] > 1 else mon[-2][0])
            pair = W + max(-lo, hi)
        cut = pair > mode_cap or (
            W >= 1 and (L == length_cap or abs(g) + W > depth or reach > mode_cap)
        )
        for n0 in range(-n0_ext, length_cap - L + 1):
            lab = ("m", n0, mon)
            weight_of[lab] = AffWeight((lam - 2 * (n0 + L),), Fraction(g), _Z)
            if (
                cut
                or n0 + L == length_cap
                or n0 == -n0_ext != 0
                or (W >= 1 and n0_ext >= 2 and n0 == 1 - n0_ext)
            ):
                boundary.add(lab)

    def rec(i, cur, length, grade):
        if i == len(modes):
            if abs(grade) <= depth:
                add(tuple(cur), length, grade)
            return
        k = modes[i]
        rec(i + 1, cur, length, grade)
        for nk in range(1, length_cap - length + 1):
            cur.append((k, nk))
            rec(i + 1, cur, length + nk, grade + k * nk)
            cur.pop()

    rec(0, [], 0, 0)
    return Support(A, weight_of, boundary, _loop_gens(A, W))


def imaginary_verma(lam, depth, length_cap, mode_cap=None, gen_window=2, n0_ext=0):
    """Truncated imaginary Verma module over the affine sl2.

    The vacuum is killed by every e t^n and by h t^n for n != 0, carries
    h-eigenvalue lam, degree 0 and level 0.  The basis is ("m", n0, mon):
    mon is an ordered monomial in the nonzero modes f t^k, recorded as a
    tuple of (mode, power), and n0 is the exponent of the zero-mode letter
    f t^0.  Four caps truncate: |degree| <= depth, n0 + length(mon) <=
    length_cap, |mode| <= mode_cap (default depth) and n0 >= -n0_ext.
    Labels, weights and mask are vacuum_support's; a row term whose target
    breaks a cap (falls outside the labels) is dropped, and the support
    masks its label.

    With n0_ext = 0 this is the vacuum module itself.  With n0_ext > 0 the
    zero-mode letter also runs over negative powers, which is the
    localization along the zero-mode real root; its n0 >= 0 labels are the
    labels of the n0_ext = 0 module, with the same rows.  Actions follow
    from [e_m, f_k] = h_{m+k} (+ central term), [h_p, f_k] = -2 f_{p+k}:

      f_m: insert a mode-m factor
      h_m (m != 0): sum_k (-2 n_k) (replace one f_k by f_{k+m})
      h_0: lam - 2 (n0 + L), D: degree, K: 0
      e_m: sum over unordered occurrence pairs {a, b} in mon:
             -2 (drop f_{k_a}, f_{k_b}; insert f_{m+k_a+k_b})
           plus lam n_{-m} (drop one f_{-m}); commuting past f_0^{n0} adds
           the exact two-step chain [e_m, f_0] = h_m, [h_m, f_0] = -2 f_m.
    """
    support = vacuum_support(lam, depth, length_cap, mode_cap, gen_window, n0_ext)
    lam = Fraction(lam)
    weight_of = support.weight_of

    bumped = {}  # (mon, k, delta) -> bump(mon, k, delta), for this call only

    def bump(mon, k, delta):
        """mon with the multiplicity of mode k changed by delta; callers only
        lower a mode that mon holds."""
        key = (mon, k, delta)
        if key in bumped:
            return bumped[key]
        d = dict(mon)
        d[k] = d.get(k, 0) + delta
        res = tuple(sorted((m, n) for m, n in d.items() if n))
        bumped[key] = res
        return res

    def put(vec, np, nm, coeff):
        tg = ("m", np, nm)
        if tg not in weight_of:
            return
        old = vec.get(tg)
        if old is None:
            if coeff:
                vec[tg] = Fraction(coeff)
        else:
            w = old + coeff
            if w:
                vec[tg] = w
            else:
                del vec[tg]

    def put_mode(vec, np, base, k, coeff):
        # insert a factor f t^k, folding mode zero into the n0 exponent
        if k == 0:
            put(vec, np + 1, base, coeff)
        else:
            put(vec, np, bump(base, k, +1), coeff)

    action = {}
    for lab in weight_of:
        _, n0, mon = lab
        L = sum(nk for _, nk in mon)
        g = sum(k * nk for k, nk in mon)
        occ = dict(mon)
        action[("D", lab)] = {lab: Fraction(g)} if g else {}
        action[("K", lab)] = {}
        for m in range(-gen_window, gen_window + 1):
            # f_m
            vec = {}
            put_mode(vec, n0, mon, m, _ONE)
            action[(("t", "E21", m), lab)] = vec
            # h_m
            if m == 0:
                val = lam - 2 * (n0 + L)
                action[(("t", "H1", 0), lab)] = {lab: val} if val else {}
            else:
                vec = {}
                for k, nk in mon:
                    put_mode(vec, n0, bump(mon, k, -1), k + m, -2 * nk)
                if n0:
                    put_mode(vec, n0 - 1, mon, m, -2 * n0)
                action[(("t", "H1", m), lab)] = vec
            # e_m: act on mon, then push the two-step chain past f_0^{n0}
            vec = {}
            if occ.get(-m, 0) and lam:
                put(vec, n0, bump(mon, -m, -1), lam * occ[-m])
            ks = sorted(occ)
            for ai in range(len(ks)):
                for bi in range(ai, len(ks)):
                    ka, kb = ks[ai], ks[bi]
                    cnt = (
                        occ[ka] * (occ[ka] - 1) // 2
                        if ai == bi
                        else occ[ka] * occ[kb]
                    )
                    if not cnt:
                        continue
                    base = bump(bump(mon, ka, -1), kb, -1)
                    put_mode(vec, n0, base, m + ka + kb, -2 * cnt)
            if n0:
                if m == 0:
                    put(vec, n0 - 1, mon, n0 * (lam - 2 * L))
                else:
                    for k, nk in mon:
                        put_mode(vec, n0 - 1, bump(mon, k, -1), k + m, -2 * n0 * nk)
            c3 = -n0 * (n0 - 1)
            if c3:
                put_mode(vec, n0 - 2, mon, m, c3)
            action[(("t", "E12", m), lab)] = vec

    return GradedModule(support.algebra, weight_of, action, support.boundary, _Z, support.gens)


# ----------------------------------------------------- parabolic induction


def _cartan_value(A, x, fin):
    """Value of a degree-zero Cartan element on a weight with coordinates fin."""
    carts = A.cartan_labels(0)
    vec = [_Z] * len(carts)
    for (lab, m), c in x.c.items():
        if m != 0 or lab not in carts:
            raise ValueError("not a degree-zero Cartan element")
        vec[carts.index(lab)] += c
    coeffs = A.coroot_coords(vec)
    if coeffs is None:
        raise ValueError("element is not in the coroot span")
    return sum(cf * fv for cf, fv in zip(coeffs, fin))


def levi_sl2_root(P):
    """The one positive real root of the sl2 Levi of P (P.levi_root_keys).

    Raises IncompatibleData unless the real roots of the Levi are exactly
    one positive root and its negative.
    """
    real_levi = [k for k in P.levi_root_keys() if any(c for c in k[0])]
    if len(real_levi) != 2:
        raise IncompatibleData(f"needs an sl2 Levi, got {len(real_levi)} real Levi roots")
    pos = [k for k in real_levi if is_positive_root(P.algebra, k[0], k[1])]
    if len(pos) != 1:
        raise IncompatibleData("degenerate Levi root data")
    return AffRoot("real", *pos[0])


def levi_dense_module(P, params, jwindow, base_fin):
    """Dense sl2 module over the Levi of a standard parabolic.

    The Levi must have exactly one positive real root gamma; the module is
    the dense line for its sl2 triple, extended to the full degree-zero
    Cartan by the weight string base_fin + j gamma.  base_fin must evaluate
    to params.b on the coroot of gamma.
    """
    A = P.algebra
    root = levi_sl2_root(P)
    gfin, gn = root.fin, root.n
    e, f, h = sl2_triple(A, root)
    base_fin = tuple(Fraction(v) for v in base_fin)
    if len(base_fin) != A.fin_rank:
        raise ValueError(f"base_fin needs {A.fin_rank} coordinates, got {len(base_fin)}")
    if _cartan_value(A, h, base_fin) != Fraction(params.b):
        raise ValueError("base_fin disagrees with b on the Levi coroot")

    ((ekey, ec),) = e.c.items()
    ((fkey, fc),) = f.c.items()
    egen, fgen = ("t", *ekey), ("t", *fkey)
    carts = A.cartan_labels(0)
    rows, boundary = _dense_line(params, jwindow)
    weight_of, action = {}, {}
    for lab, (erow, frow, _) in rows.items():
        j = lab[1]
        fin = tuple(bf + j * gc for bf, gc in zip(base_fin, gfin))
        weight_of[lab] = w = AffWeight(fin, Fraction(j * gn), _Z)
        action[(egen, lab)] = _scaled(erow, _ONE / ec)
        action[(fgen, lab)] = _scaled(frow, _ONE / fc)
        for hl in carts:
            val = _cartan_value(A, AffElt({(hl, 0): _ONE}), fin)
            action[(("t", hl, 0), lab)] = {lab: val} if val else {}
        action[("D", lab)] = {lab: w.d} if w.d else {}
        action[("K", lab)] = {}

    gens = [egen, fgen] + [("t", hl, 0) for hl in carts] + ["D", "K"]
    return GradedModule(A, weight_of, action, boundary, _Z, gens)


@dataclass(frozen=True)
class _InductionPush:
    """The push of every loop generator through every letter monomial of P,
    with the coefficient module left as a slot; see _induction_push.

    weights and masks feed the labels and the mask of an induced module,
    rows feed only its action rows.  A monomial's mask entry merges its
    rows: the union of their reads (in the order the rows read them), one
    always flag (the OR over the rows) and the union of their guards, empty
    when always is set.
    """

    letters: list
    weights: dict  # monomial -> loop weight of its letters, in basis order
    masks: dict  # monomial -> (reads, always, guards)
    rows: dict  # monomial -> {gen key: terms}, D and K aside


# P -> {(depth, gen_window): _InductionPush}; a ParabolicSet hashes by
# identity, and its tables go with it
_PUSHES = weakref.WeakKeyDictionary()


def _induction_push(P, depth, gen_window):
    """The push of induced_truncated, filled once per (depth, gen_window) for P.

    The push reads N only at the label n it starts from: a Levi generator
    that reaches the empty monomial reads its row of N at n, and a central
    term reads N's level.  From there it only inserts letters on the left,
    and the bracket of two letters is again a combination of letters (the
    negative radical is a subalgebra, with no central term since both roots
    have psi < 0).  So the row of a generator on (mon, n) is a list of terms
    (mon', slot, c), where slot is None for n itself, a Levi generator key
    for that generator's row of N at n, or "K" for k_value n.  always marks a
    row that loses a term whatever N is (a letter outside the window, a
    monomial past depth); reads lists the Levi generators read at n, in the
    order the push reads them; each guard is the terms (slot, c) of one
    monomial that a letter insertion cuts off.  The cut loses a term only
    where those terms are a nonzero vector at n, since a term that cancels
    there is never pushed further.  always, reads and guards are merged per
    monomial into its mask entry; the rows keep only their terms.

    Each loop basis key (lab, m) has a kind: "levi" for the degree-zero
    Cartan or a root in P together with its negative, "nplus" for a root in
    P whose negative is not, "letter" for a root outside P.
    """
    pushes = _PUSHES.setdefault(P, {})
    push = pushes.get((depth, gen_window))
    if push is not None:
        return push
    A = P.algebra
    kinds = {}

    def kind_of(key):
        kind = kinds.get(key)
        if kind is None:
            lab, m = key
            fin = A.fin_weight(m, lab)
            if not any(fin) and m == 0:
                kind = "levi"
            elif P.member(fin, m):
                kind = "levi" if P.member(tuple(-c for c in fin), -m) else "nplus"
            else:
                kind = "letter"
            kinds[key] = kind
        return kind

    letters = [key for r in P.roots for key in root_space(A, r) if kind_of(key) == "letter"]
    letters.sort(key=lambda t: (t[1], t[0]))
    lset = set(letters)
    lorder = {l: i for i, l in enumerate(letters)}
    cache_ins, cache_act = {}, {}

    def insert_letter(l, mon):
        """l . mon as (vector over monomials, lost a term)."""
        key = (l, mon)
        res = cache_ins.get(key)
        if res is None:
            if len(mon) >= depth:
                res = ({}, True)
            elif not mon or lorder[l] <= lorder[mon[0]]:
                res = ({(l,) + mon: _ONE}, False)
            else:
                # l . (m0 rest) = m0 (l . rest) + [l, m0] . rest
                rest, taint = insert_letter(l, mon[1:])
                out = {}
                for mon2, c in rest.items():
                    v, t = insert_letter(mon[0], mon2)
                    taint |= t
                    _acc(out, v, c)
                for key2, c in A.basis_bracket(l, mon[0]).c.items():
                    v, t = insert_letter(key2, mon[1:]) if key2 in lset else ({}, True)
                    taint |= t
                    _acc(out, v, c)
                res = (out, taint)
            cache_ins[key] = res
        return res

    def act_key(key, mon):
        """key . (mon, n) as (terms {(mon', slot): c}, always, reads, guards)."""
        res = cache_act.get((key, mon))
        if res is None:
            kind = kind_of(key)
            if kind == "letter":
                # a letter root outside the stored window loses its term
                v, t = insert_letter(key, mon) if key in lset else ({}, True)
                res = ({(m, None): c for m, c in v.items()}, t, (), frozenset())
            elif mon:
                res = past_first(key, mon)
            elif kind == "nplus":
                res = ({}, False, (), frozenset())
            else:
                gk = ("t", *key)
                res = ({((), gk): _ONE}, False, (gk,), frozenset())
            cache_act[(key, mon)] = res
        return res

    def past_first(key, mon):
        """key . (m0 rest) = m0 (key . rest) + [key, m0] . rest."""
        terms, always, reads, guards = act_key(key, mon[1:])
        reads, guards = list(reads), set(guards)
        out, cut = {}, {}
        for (mon2, slot), c in terms.items():
            v, t = insert_letter(mon[0], mon2)
            if t:
                cut.setdefault(mon2, []).append((slot, c))
            _acc(out, {(m, slot): c3 for m, c3 in v.items()}, c)
        for guard in cut.values():
            if all(slot is None for slot, _ in guard):
                always = True
            else:
                guards.add(tuple(guard))
        br = A.basis_bracket(key, mon[0])
        for key2, c in br.c.items():
            t2, a2, r2, g2 = act_key(key2, mon[1:])
            _acc(out, t2, c)
            always |= a2
            reads += [g for g in r2 if g not in reads]
            guards |= g2
        if br.k:
            _acc(out, {(mon[1:], "K"): br.k})
        return out, always, tuple(reads), frozenset() if always else frozenset(guards)

    gens = [gk for gk in _loop_gens(A, gen_window) if gk not in ("D", "K")]
    zero = AffWeight(tuple([_Z] * A.fin_rank), _Z, _Z)
    weights, masks, rows = {}, {}, {}
    for r in range(depth + 1):
        for mon in itertools.combinations_with_replacement(letters, r):
            weights[mon] = sum((A.loop_weight(l) for l in mon), zero)
            rows[mon] = {}
            reads, always, guards = [], False, set()
            for gk in gens:
                terms, a, r2, g2 = act_key(gk[1:], mon)
                # a unit coefficient is stored as _ONE itself, tested by identity
                terms = [(m, slot, _ONE if c == 1 else c) for (m, slot), c in terms.items()]
                rows[mon][gk] = terms
                reads += [g for g in r2 if g not in reads]
                always |= a
                guards |= g2
            masks[mon] = (tuple(reads), always, frozenset() if always else frozenset(guards))
    push = _InductionPush(letters, weights, masks, rows)
    pushes[(depth, gen_window)] = push
    return push


def _slot_terms(slot, c, N, nl):
    """(N-label, coefficient) pairs of c times a push slot evaluated at nl."""
    if slot is None:
        return ((nl, c),)
    if slot == "K":
        return ((nl, c * N.k_value),) if N.k_value else ()
    row = N.action[(slot, nl)]
    return row.items() if c is _ONE else [(t, c * d) for t, d in row.items()]


def _guard_fires(guard, N, nl):
    """Whether the terms (slot, c) of a guard are a nonzero vector at nl;
    reads only N's rows."""
    vec = {}
    for slot, c in guard:
        _acc(vec, dict(_slot_terms(slot, c, N, nl)))
    return bool(vec)


def induced_truncated(P, N, depth, gen_window=None):
    """Parabolically induced module, truncated at monomial length depth.

    P must be standard with a defining flag.  The coefficient module N is a
    module for the Levi generators (both Levi root directions, the full
    degree-zero Cartan, D and K).  The negative radical supplies the letter
    alphabet; the basis is (nondecreasing letter monomial, N-label) and the
    action is computed by pushing generators through monomials with exact
    brackets.  N must be supported in a single coset of the Levi root
    lattice, with the Levi read as levi_sl2_root reads it (P.levi_root_keys).
    The push does not depend on N: it is tabulated once per (depth,
    gen_window) for P (_induction_push).

    Weights and mask are computed here from the push and N alone.  A label
    (mon, n) is masked iff n is in N.boundary, or some push row of mon has
    always, or one of mon's guards fires at n (a guard reads only N's rows).
    A Levi generator the push reads and N lacks at n raises
    UntabulatedGenerator here.  The action rows are evaluated on first read
    (_LazyRows), one row at a time: the push terms of gk on mon at the
    N-label n; the D and K rows come from the label's weight and N's level.
    A negative depth would leave out the top layer N and raises ValueError.
    """
    A = P.algebra
    if P.tag != "standard":
        raise ValueError("induction here needs a standard parabolic")
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    if gen_window is None:
        gen_window = max(abs(P.window.nmin), abs(P.window.nmax))

    # one column per Levi root (integer coordinates, as every root has); an
    # empty Levi leaves no columns, and then only a zero difference solves
    levi_cols = [list(fin) + [n] for fin, n in P.levi_root_keys() if any(fin) or n]
    lattice = hermite_reduce([[col[i] for col in levi_cols] for i in range(A.fin_rank + 1)])
    nlabs = list(N.weight_of)
    w0 = N.weight_of[nlabs[0]]
    for nl in nlabs[1:]:
        w = N.weight_of[nl]
        dvec = [a - c for a, c in zip(w.fin, w0.fin)] + [w.d - w0.d]
        if any(v.denominator != 1 for v in dvec) or hermite_solve(
            lattice, [int(v) for v in dvec]
        ) is None:
            raise ValueError("N is supported on several Levi root lattice cosets")

    push = _induction_push(P, depth, gen_window)
    weight_of, boundary = {}, set()
    for mon, wl in push.weights.items():
        reads, always, guards = push.masks[mon]
        for nl in nlabs:
            lab = (mon, nl)
            weight_of[lab] = wl + N.weight_of[nl]
            for g in reads:
                if (g, nl) not in N.action:
                    raise UntabulatedGenerator(f"Levi generator {g!r} is not tabulated in N")
            if always or nl in N.boundary or any(_guard_fires(g, N, nl) for g in guards):
                boundary.add(lab)

    def fill(gk, lab):
        if gk == "D":
            d = weight_of[lab].d
            return {lab: d} if d else {}
        if gk == "K":
            k = N.k_value
            return {lab: k} if k else {}
        mon, nl = lab
        row = {}
        for mon2, slot, c in push.rows[mon][gk]:
            for t, v in _slot_terms(slot, c, N, nl):
                tk = (mon2, t)
                old = row.get(tk)
                if old is None:
                    row[tk] = v
                else:
                    v += old
                    if v:
                        row[tk] = v
                    else:
                        del row[tk]
        return row

    gens = _loop_gens(A, gen_window)
    return GradedModule(A, weight_of, _LazyRows(weight_of, gens, fill), boundary, N.k_value, gens)


# ------------------------------------------------ degree-pairing matrices


def prop42_matrix(n, lam):
    """Pairing matrix ((h_k h_{n-k}) . (e_{-l} f_{l-n}) vacuum coefficient).

    The vacuum is a level-zero highest weight vector: e t^m (m >= 0),
    f t^m (m > 0) and h t^m (m > 0) kill it, h_0 reads lam, K reads 0.
    Letters are loop basis keys of the affine A1 and brackets are read from
    its structure constants; K reads 0, so the central part of each bracket
    drops out.  Words are normal ordered by moving the rightmost
    annihilating or diagonal letter to the right with exact bracket
    corrections.  The (lam, 0) weight space is spanned by the vacuum alone,
    so the scalar is the full image.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    lam = Fraction(lam)
    A = build_affine(build_simple("A1"))
    e, f, h = "E12", "E21", "H1"
    memo = {}

    def creates(lab, m):
        return m < 0 or (lab == f and m == 0)

    def val(word):
        if not word:
            return _ONE
        if word in memo:
            return memo[word]
        lab, m = word[-1]
        if lab == h and m == 0:
            res = lam * val(word[:-1])
        elif not creates(lab, m):
            res = _Z
        else:
            # trailing creation letter: move the rightmost non-creation right
            i = len(word) - 1
            while i >= 0 and creates(*word[i]):
                i -= 1
            if i < 0:
                res = _Z
            else:
                a, b = word[i], word[i + 1]
                res = val(word[:i] + (b, a) + word[i + 2 :])
                for key, c in A.basis_bracket(a, b).c.items():
                    res += c * val(word[:i] + (key,) + word[i + 2 :])
        memo[word] = res
        return res

    return [
        [val(((h, k), (h, n - k), (e, -l), (f, l - n))) for l in range(1, n)]
        for k in range(1, n)
    ]


# ------------------------------------------------------------ shadow tags


@dataclass
class ShadowReport:
    tag: str
    start: object
    steps: int


def shadow_detect(M, fin, n):
    """Tag a root direction (fin, n), real or imaginary (fin = 0), f or i
    from the support; M may be a Support.

    One walk gives each support weight its ray end (the last weight of
    w + k (fin, n) in the support) and step count.  The longest ray that
    ends at a weight with an unmasked label, the first in support_sorted()
    order among ties, is conclusive f evidence (the generator truly
    vanished there); else the first ray ending at an all-masked weight gives
    i, consistent with injectivity.  The mask covers only the generators M
    tabulates, so a direction none of them moves along raises
    UntabulatedGenerator.
    """
    disp = AffWeight(tuple(Fraction(c) for c in fin), Fraction(n), _Z)
    if not any(disp.fin) and not disp.d:
        raise ValueError("shadow direction must be nonzero")
    if disp not in M.gen_disp.values():
        fins = ",".join(str(c) for c in disp.fin)
        raise UntabulatedGenerator(f"no tabulated generator moves along ({fins})+{n}d")
    supp = M.weights
    if not supp:
        raise IncompatibleData("shadow of an empty support")
    ray = {}
    for w in supp:
        path = []
        while w not in ray and (nxt := w + disp) in supp:
            path.append(w)
            w = nxt
        end, steps = ray.setdefault(w, (w, 0))
        for steps, p in enumerate(reversed(path), steps + 1):
            ray[p] = (end, steps)
    order = M.support_sorted()
    clean = [w for w in order if not all(l in M.boundary for l in supp[ray[w][0]])]
    w0 = max(clean, key=lambda w: ray[w][1]) if clean else order[0]
    return ShadowReport("f" if clean else "i", w0, ray[w0][1])


def build_PM(A, table, window):
    """Parabolic set attached to a shadow table on every window root.

    table tags each window root, imaginary ones included, "f" or "i", and
    every root is placed by one rule: r is in P iff tag(r) = f or
    tag(-r) = i.  This inverts the shadow rule (tag(r) = f iff r is in P and
    -r is not) for every parabolic set; a Levi pair, tagged (f, f) or
    (i, i), stays in P.  Each real root string must be convex (its f-part at
    one end) and the mixed strings oriented alike.  The set is tagged all,
    imaginary or standard, never mixed: a mixed flag (phi1, phi2) agrees on
    any finite window with the standard covector K phi1 + phi2 for K large
    enough, so no window table tells the two apart.  The result must pass
    the windowed parabolic axioms.
    """
    roots = roots_window(A, window)
    strings = {}
    for r in roots:
        if table.get((r.fin, r.n)) not in ("f", "i"):
            raise ValueError(f"shadow table misses root ({r.fin}, {r.n})")
        if r.kind == "real":
            strings.setdefault(r.fin, []).append(r.n)

    orients = set()
    for fin, ns in strings.items():
        tags = [table[(fin, n)] for n in sorted(ns)]
        pairs = list(zip(tags, tags[1:]))
        up = all(a != "f" or b == "f" for a, b in pairs)
        down = all(b != "f" or a == "f" for a, b in pairs)
        if not (up or down):
            raise ValueError("shadow table is not convex along a root string")
        if up != down:
            orients.add(up)
    if len(orients) > 1:
        raise ValueError("shadow table orients root strings inconsistently")

    members = {
        (r.fin, r.n): table[(r.fin, r.n)] == "f"
        or table[(tuple(-c for c in r.fin), -r.n)] == "i"
        for r in roots
    }
    if all(members.values()):
        tag = "all"
    elif all(members[k] for k in members if not any(k[0])):
        tag = "imaginary"
    else:
        tag = "standard"
    P = ParabolicSet(A, None, window, members=members, tag=tag)
    if not check_parabolic_axioms(P):
        raise ValueError("shadow table does not assemble into a parabolic set")
    return P


# ------------------------------------------------------------- boundedness


def boundedness_probe(make_module, sizes=(3, 6, 9)):
    """Track the largest weight multiplicity across a family of windows.

    make_module(N) returns the family's module at window size N, or only
    its Support (such as loop_support's): the probe reads weights alone.
    """
    maxima = []
    for N in sizes:
        M = make_module(N)
        mx = max(len(labs) for labs in M.weights.values())
        maxima.append(mx)
    return {
        "bounded": len(set(maxima)) == 1,
        "max_mult": list(zip(sizes, maxima)),
    }
