"""Buchberger's algorithm for homogeneous submodules of graded free modules.

Normal selection strategy (pairs by ascending degree), chain criterion,
and the product criterion in the ideal (rank one) case.  The product
criterion is not sound for modules of higher rank, so it is only applied
when the ambient has a single component.

All public functions return canonical data: the reduced Groebner basis of
a submodule is unique for the fixed order, so downstream results are
deterministic.
"""

import heapq

from .errors import DegreeCapError, EngineBugError, InhomogeneousError
from .freemod import FreeElement, FreeModule
from .kernel import (
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    order_key,
    reduce_by_key,
)


class TermOrder:
    """The term order of a Groebner computation, as a value.

    split makes it a block elimination order (components < split dominate
    the rest); split = rank is the plain module order of the kernel.  An
    optional weight (one int per variable) puts terms of smaller weight
    first and lets the module order break ties.  With weight 1 on the
    variables of Q = (x_p), the lead terms of a submodule N present the
    initial module of N for the Q-adic filtration.

    The key (kernel.order_key: the largest term sorts first) is bound
    here, once, so no per-term call branches on the order and no call
    builds a key.  `reduce` returns its normal form in descending term
    order: the lead of a nonzero normal form is its first key.
    """

    __slots__ = ("split", "weight", "key")

    def __init__(self, split, weight=None):
        self.split = split
        self.weight = weight
        self.key = order_key(split, None if weight is None else tuple(weight))

    def reduce(self, terms, by_comp):
        """Full normal form against a monic basis given as by_comp, in
        descending term order."""
        return reduce_by_key(terms, by_comp, self.key)


def _monic(nf, one):
    """nf scaled to lead coefficient 1 (one, the field's unit), and its lead
    (comp, mono).  nf is a normal form, so its lead is its first key."""
    lead = next(iter(nf))
    lc = nf[lead]
    if lc == one:
        return nf, lead
    return {t: v / lc for t, v in nf.items()}, lead


class GroebnerEngine:
    """Incremental Buchberger.  Elements can be added after a compute();
    the engine resumes with the new pairs only."""

    def __init__(self, module, order=None):
        self.module = module
        self.ring = module.ring
        self.order = TermOrder(module.rank) if order is None else order
        self.cap = self.ring.degree_cap
        self.deg = self.ring.mono_degree
        self.basis = []      # monic term dicts
        self.leads = []      # (comp, mono) per basis element
        self.by_comp = {}    # comp -> [(mono, terms)] view for the kernel
        self.pairs = []      # heap of (degree, i, j)
        self.pending = set()

    def add(self, el):
        if not isinstance(el, FreeElement) or el.module != self.module:
            raise EngineBugError("element added to engine over a different ambient")
        if not el.is_homogeneous():
            raise InhomogeneousError(repr(el))
        self._add_terms(el.terms)

    def _add_terms(self, terms):
        nf = self.order.reduce(terms, self.by_comp)
        if not nf:
            return
        deg = self._degree(nf)
        if deg > self.cap:
            raise DegreeCapError(self.cap)
        terms, (c, m) = _monic(nf, self.ring.field.one)
        idx = len(self.basis)
        self.basis.append(terms)
        self.leads.append((c, m))
        self.by_comp.setdefault(c, []).append((m, terms))
        for j, (jc, jm) in enumerate(self.leads[:idx]):
            if jc != c:
                continue
            lcm = mono_lcm(jm, m)
            pdeg = self.deg(lcm) + self.module.twists[c]
            heapq.heappush(self.pairs, (pdeg, j, idx))
            self.pending.add((j, idx))

    def _degree(self, terms):
        c, m = next(iter(terms))
        return self.deg(m) + self.module.twists[c]

    def compute(self):
        rank_one = self.module.rank == 1
        while self.pairs:
            deg, i, j = heapq.heappop(self.pairs)
            if (i, j) not in self.pending:
                continue
            self.pending.discard((i, j))
            if deg > self.cap:
                raise DegreeCapError(self.cap)
            ci, mi = self.leads[i]
            cj, mj = self.leads[j]
            lcm = mono_lcm(mi, mj)
            if rank_one and mono_mul(mi, mj) == lcm:
                continue  # coprime lead monomials: S-pair reduces to zero
            if self._chain_skip(i, j, ci, lcm):
                continue
            s = self._spair(i, j, lcm)
            self._add_terms(s)
        return self

    def _chain_skip(self, i, j, comp, lcm):
        for k, (kc, km) in enumerate(self.leads):
            if k == i or k == j or kc != comp:
                continue
            if not mono_divides(km, lcm):
                continue
            a, b = (i, k) if i < k else (k, i)
            if (a, b) in self.pending:
                continue
            a, b = (j, k) if j < k else (k, j)
            if (a, b) in self.pending:
                continue
            return True
        return False

    def _spair(self, i, j, lcm):
        ci, mi = self.leads[i]
        cj, mj = self.leads[j]
        qi = mono_div(lcm, mi)
        qj = mono_div(lcm, mj)
        out = {}
        for (tc, tm), c in self.basis[i].items():
            out[(tc, mono_mul(qi, tm))] = c
        for (tc, tm), c in self.basis[j].items():
            key = (tc, mono_mul(qj, tm))
            s = out.get(key)
            s = -c if s is None else s - c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return out

    def reduced_elements(self):
        """The reduced Groebner basis as canonical FreeElements."""
        self.compute()
        elems = interreduce(list(self.basis), list(self.leads), self.order)
        return [FreeElement(self.module, t) for t in elems]


def interreduce(elems, leads, order):
    """The reduced basis of a Groebner basis given as monic term dicts and
    their leads, in canonical (descending lead) order.

    Elements whose lead is divisible by another lead go (of equal leads the
    first stays); the rest is still a Groebner basis.  Against it each
    kept element's tail is reduced once, and the stored lead goes back in
    front: the normal form is unique, so lead + NF(tail) = lead - NF(lead)
    is the reduced element.  A term divisible by an element's own lead is
    of higher degree, so it is never in that element's (homogeneous) tail.
    """
    by_lead = {}
    for i, (c, m) in enumerate(leads):
        by_lead.setdefault(c, []).append((m, i))
    kept = [
        i
        for i, (c, m) in enumerate(leads)
        if not any(
            mono_divides(om, m) and (om != m or j < i) for om, j in by_lead[c] if j != i
        )
    ]
    kept.sort(key=lambda i: order.key(leads[i]))
    by_comp = {}
    for i in kept:
        c, m = leads[i]
        by_comp.setdefault(c, []).append((m, elems[i]))
    out = []
    for i in kept:
        lead = leads[i]
        terms = elems[i]
        tail = {t: v for t, v in terms.items() if t != lead}
        reduced = {lead: terms[lead]}
        reduced.update(order.reduce(tail, by_comp))
        out.append(reduced)
    return out


def groebner_basis(gens, module=None, order=None):
    """Reduced Groebner basis of the submodule generated by gens.

    Verifies membership of every input generator (zero normal form) before
    returning; a failure is an engine bug, not bad input.
    """
    gens = [g for g in gens if g]
    if module is None:
        if not gens:
            raise ValueError("cannot infer ambient from an empty generator list")
        module = gens[0].module
    eng = GroebnerEngine(module, order)
    for g in gens:
        eng.add(g)
    gb = eng.reduced_elements()
    by_comp = _by_lead(gb)
    for g in gens:
        if eng.order.reduce(g.terms, by_comp):
            raise EngineBugError("generator does not reduce to zero against its own basis")
    return gb


def _by_lead(gb):
    """comp -> [(lead mono, terms)] over a reduced basis, whose elements
    each lead with their lead term."""
    by_comp = {}
    for g in gb:
        c, m = next(iter(g.terms))
        by_comp.setdefault(c, []).append((m, g.terms))
    return by_comp


def normal_form(el, gb, order=None):
    """Full normal form of el against a reduced basis under order, as
    groebner_basis returns it."""
    if order is None:
        order = TermOrder(el.module.rank)
    return FreeElement(el.module, order.reduce(el.terms, _by_lead(gb)))


def lift_relations(gens, modulo):
    """Relations among the images of gens in F / <modulo>.

    Returns {a in S^k : sum a_i gens_i in <modulo>} as a reduced Groebner
    basis in canonical order: the presentation matrix columns of the
    subquotient (<gens> + <modulo>) / <modulo> on the generators gens.
    They live in S^k with twists = the generator degrees, so they are
    homogeneous.  lift_relations(gens, []) is the syzygy module of gens.

    One Groebner run in F + S^k: only gens are tagged, g_i + e_{r+i} (a
    zero g_i leaves e_{r+i}, its unit relation), and the modulo elements
    go in untagged, in F alone.  Under the elimination order that puts F
    first, the reduced basis elements whose lead lies in S^k are free of
    F, and they are the reduced basis of the relations: an element a of
    S^k lies in the span iff sum a_i g_i + sum b_j m_j = 0 for some b.
    The kernel key ignores twists and keeps the order of the tag
    components, so re-homed to S^k they stay reduced and in order.

    This is the one relation-lifting primitive of the engine: syzygies and
    free resolutions, submodule presentations, colons and intersections
    (modules.py) and the cycles and homology of Ext (resolution.py) all go
    through it.
    """
    if not gens:
        return []
    ambient = gens[0].module
    ring = ambient.ring
    r = ambient.rank
    degs = tuple(g.homogeneous_degree() if g else 0 for g in gens)
    target = FreeModule(ring, len(gens), degs)
    big = FreeModule(ring, r + len(gens), ambient.twists + degs)
    zero, one = ring.zero_mono, ring.field.one
    inputs = [
        FreeElement(big, {**g.terms, (r + i, zero): one}) for i, g in enumerate(gens)
    ]
    inputs += [FreeElement(big, m.terms) for m in modulo if m]
    out = []
    for el in groebner_basis(inputs, module=big, order=TermOrder(r)):
        if next(iter(el.terms))[0] >= r:
            terms = {(c - r, m): v for (c, m), v in el.terms.items()}
            out.append(FreeElement(target, terms))
    return out
