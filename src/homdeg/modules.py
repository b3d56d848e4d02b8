"""Graded algebras A = S/J and finitely presented graded A-modules.

A module is always carried as the cokernel of a graded matrix over the
polynomial cover S; working over A is realized by silently appending the
defining ideal J (pulled into each free-module component) to every
relation computation.
"""

import weakref
from collections import Counter

from .errors import EngineBugError, InhomogeneousError
from .freemod import FreeElement, FreeModule
from .groebner import groebner_basis, lift_relations, minimal_lift, normal_forms
from .kernel import mono_mul
from .monomial_ideals import (
    DIM_ZERO, eval_at_one, hilbert_numerators, poly_add, poly_shift, reduce_pole
)
from .ring import Polynomial, PolyRing


class Algebra:
    """A = S/J for a homogeneous ideal J (J empty gives A = S)."""

    def __init__(self, ring, relations=()):
        self.ring = ring
        rels = []
        for g in relations:
            if not g:
                continue
            if not g.is_homogeneous():
                raise InhomogeneousError(repr(g))
            rels.append(g)
        self.relations = tuple(rels)
        self._module = None  # weakref to the presentation as_module gave

    def irrelevant_gens(self):
        """Generators of the maximal (irrelevant) ideal: the variables."""
        return [self.ring.var(i) for i in range(self.ring.n)]

    def as_module(self):
        """A as a module over itself: one presentation per algebra while it
        is in use, so that every user of A shares its cached quotients
        A/QA.  The algebra holds it weakly: the presentation refers to the
        algebra, and a strong reference back would leave the two, with
        every quantity cached on the presentation, to the cycle collector."""
        module = self._module() if self._module else None
        if module is None:
            module = Presentation(self, FreeModule(self.ring, 1), ())
            self._module = weakref.ref(module)
        return module

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and self.ring == other.ring
            and set(self.relations) == set(other.relations)
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.relations)))

    def __repr__(self):
        if not self.relations:
            return repr(self.ring)
        return f"{self.ring}/({', '.join(map(repr, self.relations))})"


class Presentation:
    """A finitely generated graded module M = F / N, with F = ambient, a
    FreeModule over the ring of algebra, and N spanned by the matrix
    columns plus J copies.  Every column is an element of that ambient
    object itself; rank and twists are read off it.

    Immutable.  Every quantity derived from M (its Groebner basis, its
    Hilbert series, M/QM, resolutions, duals, hdeg, ...) is computed on
    first use through `cached`, the one cache.
    """

    def __init__(self, algebra, ambient, columns):
        self.algebra = algebra
        self.ring = algebra.ring
        self.ambient = ambient
        self.rank = ambient.rank
        self.twists = ambient.twists
        cols = []
        for c in columns:
            if not c:
                continue
            if c.module is not ambient:
                raise EngineBugError("presentation column in wrong ambient")
            if not c.is_homogeneous():
                raise InhomogeneousError(repr(c))
            cols.append(c)
        self.columns = tuple(cols)
        self._cache = {}

    def cached(self, name, compute, ideal=None):
        """The derived quantity name of M: compute() on first use, stored
        and returned on every later call.  A quantity that depends on an
        ideal (or sequence) given by ideal is keyed by
        ideal_cache_key(name, ideal)."""
        key = name if ideal is None else ideal_cache_key(name, ideal)
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = compute()
            return value

    # ---- relation calculus -------------------------------------------

    def ideal_times_ambient(self, ideal_gens):
        """Generators of I F inside the ambient F = S^rank: each nonzero
        generator of I in every component, generator by generator."""
        inject = self.ambient.inject
        return [inject(g, i) for g in ideal_gens if g for i in range(self.rank)]

    def relation_gens(self):
        """Matrix columns plus the defining ideal in every component."""
        return list(self.columns) + self.ideal_times_ambient(self.algebra.relations)

    def gb(self):
        """Reduced Groebner basis of the relation submodule."""

        def compute():
            rels = self.relation_gens()
            return tuple(groebner_basis(rels, module=self.ambient)) if rels else ()

        return self.cached("gb", compute)

    # ---- numerical invariants ----------------------------------------

    def hilbert_numerator(self):
        """Numerator of the graded Hilbert series over (1-t)^n, twists
        included; {} for the zero module."""

        def compute():
            per = [[] for _ in range(self.rank)]
            for g in self.gb():
                c, m = next(iter(g.terms))  # a reduced element leads with its lead
                per[c].append(m)
            total = {}
            for num, twist in zip(hilbert_numerators(per), self.twists):
                total = poly_add(total, poly_shift(num, twist))
            return total

        return self.cached("series", compute)

    def hilbert_series(self):
        """(numerator, n): series = numerator / (1-t)^n."""
        return dict(self.hilbert_numerator()), self.ring.n

    def is_zero(self):
        return not self.hilbert_numerator()

    def _pole(self):
        """reduce_pole of the Hilbert numerator: (p, s), s = dim M if M != 0."""
        return self.cached("pole", lambda: reduce_pole(self.hilbert_numerator(), self.ring.n))

    def dim(self):
        """Krull dimension; DIM_ZERO (= -1) marks the zero module."""
        p, s = self._pole()
        return s if p else DIM_ZERO

    def length(self):
        """Length over the base field if finite, else None."""
        p, s = self._pole()
        return None if p and s else eval_at_one(p)

    def degree_multiplicity(self):
        """Multiplicity with respect to the irrelevant maximal ideal:
        the reduced numerator evaluated at t = 1."""
        return eval_at_one(self._pole()[0])

    # ---- derived modules ---------------------------------------------

    def quotient_by_ideal(self, ideal_gens):
        """M / (ideal) M: M itself for the zero ideal, else one presentation
        cached on M, so that every user of M/QM shares its Groebner basis
        and series."""
        ideal_gens = [g for g in ideal_gens if g]
        if not ideal_gens:
            return self

        def compute():
            cols = list(self.columns) + self.ideal_times_ambient(ideal_gens)
            return Presentation(self.algebra, self.ambient, cols)

        return self.cached("quotient", compute, ideal_gens)

    def subquotient(self, gens):
        """The submodule of M spanned by (the images of) gens, presented on
        a minimal subset of them by one minimal_lift: its relations modulo
        those of M, and no constant entry."""
        source, _, cols = minimal_lift(gens, self.relation_gens(), self.ambient)
        return Presentation(self.algebra, source, cols)

    def minimized(self):
        """An isomorphic presentation with no constant matrix entries: M
        itself when no relation has one, else the subquotient the basis of
        F spans in M."""
        zero = self.ring.zero_mono
        if all(m != zero for col in self.relation_gens() for _, m in col.terms):
            return self
        return self.subquotient([self.ambient.basis(i) for i in range(self.rank)])

    def __repr__(self):
        return (
            f"Presentation(rank={self.rank}, twists={list(self.twists)}, "
            f"{len(self.columns)} columns over {self.algebra})"
        )


class NotParameterIdealError(ValueError):
    """Q is not a parameter ideal of M (see check_parameter_ideal)."""

    def __init__(self, reason):
        super().__init__(f"not a parameter ideal of the module: {reason}")


def check_ideal_ring(pres, gens):
    """The ring clause of the parameter-ideal contract, which every entry
    point that takes Q states first: each generator lies in the ring of
    M.  Raises NotParameterIdealError otherwise."""
    for g in gens:
        if g.ring != pres.ring:
            raise NotParameterIdealError(f"{g!r} lies in {g.ring}, but M lies over {pres.ring}")


def check_parameter_ideal(pres, gens):
    """The one contract of every invariant of (M, Q): Q = (gens) is a
    parameter ideal of M.  M is nonzero, every generator is a nonzero
    form of positive degree in the ring of M and, when dim M >= 1, there
    are exactly dim M of them and M/QM (cached on M) has finite length.
    A module of dimension 0 takes any such Q: its invariants do not
    depend on Q.  Raises NotParameterIdealError otherwise."""
    if pres.is_zero():
        raise NotParameterIdealError("M is the zero module")
    check_ideal_ring(pres, gens)
    for g in gens:
        if not g or not g.is_homogeneous():
            raise NotParameterIdealError(f"{g!r} is not a nonzero form")
        if g.degree() == 0:
            raise NotParameterIdealError("Q contains a unit")
    d = pres.dim()
    if d >= 1 and len(gens) != d:
        raise NotParameterIdealError(f"{len(gens)} generators, but dim M = {d}")
    if d >= 1 and pres.quotient_by_ideal(gens).length() is None:
        raise NotParameterIdealError("M/QM has infinite length")


# ---- one linear base change S -> S/(l) --------------------------------


def row_reduce(rows, field):
    """(R, pivots): the reduced row echelon form R of rows (lists of one
    length over field), zero rows dropped, and its pivot columns in
    increasing order.  Row i of R has a 1 at pivots[i] and every other
    row a 0 there.  The package's one row reduction."""
    rows = [list(row) for row in rows]
    div = field.div
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][col]
        row = rows[r] = [div(x, pv) for x in rows[r]]
        for i, other in enumerate(rows):
            f = other[col]
            if i != r and f:
                rows[i] = [a - f * b for a, b in zip(other, row)]
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return rows[: len(pivots)], pivots


def linear_rows(ring, forms):
    """row_reduce of the coefficient vectors of the linear forms forms."""
    zero = ring.field.zero
    return row_reduce(
        [[zero if c is None else c for c in f.coefficient_of_degree_one()] for f in forms if f],
        ring.field,
    )


class LinearBaseChange:
    """The package's one linear change of coordinates, for linear forms
    l_1, ..., l_c of S, row-reduced (linear_rows): each pivot variable x_p
    goes to an image built from the tail of its row, which holds non-pivot
    variables only, and every other variable to itself.  It maps
    polynomials, free elements and presentations, onto one of two targets.
    With no forms the target is S and every map returns its argument.

    - quotient=True: S' = S/(l_1, ..., l_c) = k[non-pivot variables], and
      x_p goes to minus its tail, so every l_i maps to 0.
    - quotient=False: S' is S itself (the ring object), and x_p goes to
      x_p minus its tail, so each reduced row maps to its pivot x_p.  This
      is the change of coordinates that makes the l_i variables.

    An S-module N killed by the l_i (c pivots) is the S/(l)-module N' = N
    otimes S', with the same Hilbert function: a numerator of N' over
    (1-t)^(n-c), times (1-t)^c, is one of N over (1-t)^n.  Its Ext and
    local cohomology descend too: Ext^{i+c}_S(N, S) = Ext^i_{S'}(N',
    S')(c) (Rees; Bruns and Herzog, Cohen-Macaulay Rings, 3.1.16), and
    H^i_m(N) = H^i_{m'}(N') (Independence Theorem; Brodmann and Sharp,
    Local Cohomology, 4.2.1).
    """

    def __init__(self, ring, forms, quotient=True):
        rows, self.pivots = linear_rows(ring, forms)
        self.target = ring
        if not self.pivots:
            return
        n = ring.n
        keep = [j for j in range(n) if j not in self.pivots]
        if quotient:
            self.target = PolyRing(
                [ring.names[j] for j in keep],
                ring.field,
                ring.degree_cap,
                [ring.degrees[j] for j in keep],
            )
        # variable i of the target takes the exponent at source[i] of
        # m + (0,): a pivot of S reads that 0, its power goes to _power
        self.source = keep if quotient else [n if j in self.pivots else j for j in range(n)]
        var = self.target.var
        at = {j: i for i, j in enumerate(self.source)}
        self.images = [  # of the pivot variables
            sum(
                (var(at[j]).scale(-row[j]) for j in keep if row[j]),
                self.target.zero if quotient else var(p),
            )
            for row, p in zip(rows, self.pivots)
        ]
        self._powers = {}

    def _power(self, exps):
        """The image of prod x_p^exps[k] over the pivots, as a term map."""
        img = self._powers.get(exps)
        if img is None:
            p = self.target.one
            for image, e in zip(self.images, exps):
                if e:
                    p = p * image**e
            img = self._powers[exps] = p.terms
        return img

    def _map(self, terms):
        """{(c, m): v} over S -> its image over S'."""
        source, pivots, power = self.source, self.pivots, self._power
        out = {}
        for (c, m), v in terms.items():
            m0 = m + (0,)
            rest = tuple([m0[j] for j in source])
            for mm, w in power(tuple([m[p] for p in pivots])).items():
                t = (c, mono_mul(rest, mm))
                s = out.get(t)
                s = v * w if s is None else s + v * w
                if s:
                    out[t] = s
                else:
                    del out[t]
        return out

    def poly(self, f):
        if not self.pivots:
            return f
        image = self._map({(0, m): v for m, v in f.terms.items()})
        return Polynomial(self.target, {m: v for (_, m), v in image.items()})

    def free(self, module):
        """F otimes S' for a free module F over S."""
        if module.ring is self.target:
            return module
        return FreeModule(self.target, module.rank, module.twists)

    def element(self, el, module):
        """The image of el in module = self.free(el.module)."""
        if not self.pivots:
            return el
        return FreeElement(module, self._map(el.terms))

    def presentation(self, pres):
        """M otimes S' = F' / (image of the relations of M)."""
        if not self.pivots:
            return pres
        algebra = Algebra(self.target, [self.poly(g) for g in pres.algebra.relations])
        ambient = self.free(pres.ambient)
        return Presentation(algebra, ambient, [self.element(c, ambient) for c in pres.columns])


def linear_annihilators(pres):
    """A basis of the linear forms l with l M = 0, for M = F / N.

    l = sum_k a_k x_k kills M iff sum_k a_k NF(x_k e_c) = 0 for every
    basis element e_c of F: n * rank normal forms against the cached basis
    of N, and one kernel over the field.  Each equation is keyed by the
    source component c and a term of the normal forms, since NF(x_k e_c)
    and NF(x_k e_c') may share terms that must not be merged."""
    ring, n = pres.ring, pres.ring.n
    gb = pres.gb()
    if not gb:
        return []
    zero = ring.field.zero
    inject = pres.ambient.inject
    gens = [inject(ring.var(k), c) for c in range(pres.rank) for k in range(n)]
    eqs = {}
    for i, nf in enumerate(normal_forms(gens, gb)):
        c, k = divmod(i, n)
        for t, v in nf.terms.items():
            eqs.setdefault((c, t), [zero] * n)[k] = v
    rows, pivots = row_reduce(eqs.values(), ring.field)
    var = ring.var
    return [
        var(f) - sum((var(p).scale(row[f]) for row, p in zip(rows, pivots) if row[f]), ring.zero)
        for f in range(n)
        if f not in pivots
    ]


# ---- submodule calculus inside a presentation ------------------------


def _image(coeffs, gens, module):
    """sum_c coeffs_c gens_c inside module, for a coefficient vector."""
    el = module.zero()
    for c in {c for c, _ in coeffs.terms}:
        el = el + coeffs.component(c) * gens[c]
    return el


def intersect_submodules(gens1, gens2, module):
    """Generators of <gens1> cap <gens2> inside a free module: the image
    under gens1 of the relations of gens1 modulo gens2."""
    g1 = [g for g in gens1 if g]
    if not g1 or not any(gens2):
        return []
    source = FreeModule(module.ring, len(g1), [g.homogeneous_degree() for g in g1])
    out = [_image(a, g1, module) for a in lift_relations(g1, gens2, source)]
    out = [el for el in out if el]
    return groebner_basis(out, module=module) if out else []


def colon_by_ideal(pres, sub_gens, ideal_gens):
    """Generators of (N :_M I) = {u in M : f u in N for every f in I}, for
    N = <sub_gens> inside M and I = (ideal_gens), as a reduced Groebner
    basis in the ambient F of pres.  The zero ideal gives all of M.

    One lift_relations into F: the relations of the images of e_1, ...,
    e_r under u -> (f_1 u, ..., f_s u) in F^s, modulo a copy of N +
    relations(M) in every block.  Block k is twisted by D - deg f_k (D =
    max deg f_k), so every image is homogeneous of degree t_i + D: the
    twist t_i of e_i in F, shifted by the common D."""
    module = pres.ambient
    ideal_gens = [f for f in ideal_gens if f]
    if not ideal_gens:
        return [module.basis(i) for i in range(module.rank)]
    r = module.rank
    degs = [f.homogeneous_degree() for f in ideal_gens]
    twists = tuple(t + max(degs) - d for d in degs for t in module.twists)
    blocks = FreeModule(pres.ring, len(twists), twists)
    images = [
        FreeElement(
            blocks,
            {(k * r + i, m): v for k, f in enumerate(ideal_gens) for m, v in f.terms.items()},
        )
        for i in range(r)
    ]
    big_n = [g for g in sub_gens if g] + pres.relation_gens()
    copies = [
        FreeElement(blocks, {(k * r + c, m): v for (c, m), v in g.terms.items()})
        for k in range(len(ideal_gens))
        for g in big_n
    ]
    return lift_relations(images, copies, module)


def saturate(pres, sub_gens, ideal_gens):
    """(N :_M I^infinity): iterate the colon until it stabilizes.  Each
    colon is taken in the free ambient F, with no relations appended:
    current already contains N + relations(M), so it is the same
    submodule."""
    free = Presentation(Algebra(pres.ring), pres.ambient, ())
    current = submodule_gb(pres, sub_gens)
    while True:
        nxt = colon_by_ideal(free, current, ideal_gens)
        if submodule_key(nxt) == submodule_key(current):
            return current
        current = nxt


def ideal_cache_key(name, gens):
    """Key of a quantity of M cached by Presentation.cached that depends
    on an ideal (or sequence) given by gens: the multiset of their term
    maps, independent of their order but not of repeats, since the Koszul
    complex of (f, f) is not that of (f)."""
    return (name, frozenset(Counter(frozenset(g.terms.items()) for g in gens).items()))


def submodule_key(gb_gens):
    """Key of a submodule given by a reduced Groebner basis, for equality
    tests only: two reduced bases of one submodule have equal keys."""
    return frozenset(frozenset(g.terms.items()) for g in gb_gens)


def submodule_gb(pres, gens):
    """Reduced GB of <gens> + relations inside the ambient of pres: the
    cached pres.gb() when gens adds nothing nonzero."""
    gens = [g for g in gens if g]
    if not gens:
        return list(pres.gb())
    return groebner_basis(gens + pres.relation_gens(), module=pres.ambient)
