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
from operator import itemgetter, mul

from .errors import DegreeCapError, EngineBugError, InhomogeneousError
from .freemod import FreeElement, FreeModule
from .kernel import Layout, mono_lcm


class TermOrder:
    """The term order of a Groebner computation, as a value.

    split makes it a block elimination order (components < split dominate
    the rest); split = rank is the plain module order of the kernel.  An
    optional weight (one int per variable) puts terms of smaller weight
    first and lets the module order break ties.  With weight 1 on the
    variables of Q = (x_p), the lead terms of a submodule N present the
    initial module of N for the Q-adic filtration.

    The order itself is kernel.order_key(split, weight); inside the engine
    the packed terms of kernel.Layout sort as it does.
    """

    __slots__ = ("split", "weight")

    def __init__(self, split, weight=None):
        self.split = split
        self.weight = None if weight is None else tuple(weight)


def _layout(module, order):
    """The packed layout of the terms of module under order, cached on the
    ring.  Its fields hold the largest raw degree of a term within the
    ring's degree cap, the cap minus the twist floor module.low; the
    cap is read now, so a cap set after the ring was built holds."""
    ring = module.ring
    bound = ring.degree_cap - module.low
    key = (module.rank, max(bound, 1).bit_length(), order.split, order.weight)
    layout = ring.layouts.get(key)
    if layout is None:
        layout = ring.layouts[key] = Layout(ring.n, *key)
    return layout


def _pack(module, layout, terms):
    """layout.pack(terms) for a homogeneous element of module, else
    InhomogeneousError; DegreeCapError if its terms are too high for their
    fields to hold the terms a reduction makes from them.

    Reducing a term of degree D (with twist) against homogeneous elements
    makes terms of degree D, in any component c; their raw degree is at
    most D - twists[c], since every variable has degree >= 1.  So every
    such term fits when D - module.low <= fmax, and packing never
    wraps.  Within the cap the bound holds by the choice of width.
    """
    deg, twists = module.ring.mono_degree, module.twists
    degs = {deg(m) + twists[c] for c, m in terms}
    if len(degs) > 1:
        raise InhomogeneousError(repr(FreeElement(module, terms)))
    if degs and degs.pop() > layout.fmax + module.low:
        raise DegreeCapError(module.ring.degree_cap)
    return layout.pack(terms)


def _unscaled(r, c, field):
    """r / c, the normal form of the kernel's (r, c)."""
    return r if c == field.one else {t: field.div(v, c) for t, v in r.items()}


def _entry(terms, one):
    """The kernel's (lead, lc, terms) entry of a packed element that leads
    with its lead term: lc is its lead coefficient, None when that is one
    (the field's unit)."""
    lead = next(iter(terms))
    lc = terms[lead]
    return lead, None if lc == one else lc, terms


def _by_lead(elems, layout, field):
    """comp -> [(lead, lc, terms)], the kernel's view of packed elements
    that each lead with their lead term, scaled by field.primitive."""
    by_comp = {}
    for terms in elems:
        entry = _entry(field.primitive(terms), field.one)
        by_comp.setdefault(entry[0] & layout.cmask, []).append(entry)
    return by_comp


class GroebnerEngine:
    """Incremental Buchberger.  Elements can be added after a compute();
    the engine resumes with the new pairs only.  Pairs run lowest degree
    first, and on homogeneous input the basis is complete up to the degree
    of the last pair run (a truncated Groebner basis): compute() runs every
    pair, normal_form only those up to the degree it reduces.

    Terms are packed (kernel.Layout) on the way in, by add and
    normal_form, and unpacked on the way out, by normal_form and
    reduced_elements; leads keeps the lead of each basis element as a
    (comp, mono) pair.  Basis elements are scaled by field.primitive:
    primitive integer vectors with a positive lead over QQ, monic over
    GF(p), so over QQ the engine's reductions run on ints.  A normal form
    leaves it divided by the kernel's scale, a reduced element monic.
    """

    def __init__(self, module, order=None):
        self.module = module
        self.ring = module.ring
        self.field = self.ring.field
        self.order = TermOrder(module.rank) if order is None else order
        self.cap = self.ring.degree_cap
        self.deg = self.ring.mono_degree
        self.layout = _layout(module, self.order)
        self.basis = []         # packed term dicts (field.primitive), each lead term first
        self.leads = []         # (comp, mono) per basis element
        self.packed_leads = []  # packed lead per basis element
        self.by_comp = {}       # comp -> [(packed lead, lc, terms)] view for the kernel
        self.members = {}       # comp -> indices of the basis elements leading there
        self.pairs = []         # heap of (degree, i, j)
        self.pending = {}       # (i, j) -> packed lcm of the leads, None above the cap

    def add(self, el):
        if not isinstance(el, FreeElement) or (
            el.module is not self.module and el.module != self.module
        ):
            raise EngineBugError("element added to engine over a different ambient")
        self._add_terms(_pack(self.module, self.layout, el.terms))

    def normal_form(self, terms):
        """The full normal form of {(comp, mono): coef}, homogeneous of
        degree D, modulo the submodule the engine holds, as {(comp, mono):
        coef} in descending term order.

        Only the pairs of degree <= D are run: leads of higher degree
        divide no term of degree D, so the basis up to degree D gives the
        normal form a full basis gives."""
        layout = self.layout
        packed = _pack(self.module, layout, terms)
        if packed:
            c, m = next(iter(terms))
            self._run(self.deg(m) + self.module.twists[c])
        r, c = layout.reduce(packed, self.by_comp, self.field)
        return layout.unpack(_unscaled(r, c, self.field))

    def _add_terms(self, terms):
        layout, field = self.layout, self.field
        nf = layout.reduce(terms, self.by_comp, field)[0]
        if not nf:
            return
        entry = _entry(field.primitive(nf), field.one)
        lead, _, terms = entry
        c, m = layout.unpack_term(lead)
        twist = self.module.twists[c]
        if self.deg(m) + twist > self.cap:
            raise DegreeCapError(self.cap)
        idx = len(self.basis)
        self.basis.append(terms)
        self.leads.append((c, m))
        self.packed_leads.append(lead)
        self.by_comp.setdefault(c, []).append(entry)
        base, units = layout.base[c], layout.units
        members = self.members.setdefault(c, [])
        for j in members:
            lcm = mono_lcm(self.leads[j][1], m)
            pdeg = self.deg(lcm) + twist
            heapq.heappush(self.pairs, (pdeg, j, idx))
            # Within the cap the lcm fits its fields.
            self.pending[(j, idx)] = base + sum(map(mul, lcm, units)) if pdeg <= self.cap else None
        members.append(idx)

    def compute(self):
        """Run every pending pair: the basis is then a Groebner basis."""
        self._run(None)
        return self

    def _run(self, upto):
        """Run the pending pairs of degree <= upto (all when upto is
        None), lowest degree first."""
        coprime_test = self.module.rank == 1
        base = self.layout.base[0] if coprime_test else None
        packed, pairs = self.packed_leads, self.pairs
        while pairs and (upto is None or pairs[0][0] <= upto):
            deg, i, j = heapq.heappop(pairs)
            lcm = self.pending.pop((i, j))
            if lcm is None:
                raise DegreeCapError(self.cap)
            qi = lcm - packed[i]
            if coprime_test and qi == packed[j] - base:
                continue  # coprime lead monomials: S-pair reduces to zero
            if self._chain_skip(i, j, lcm):
                continue
            self._add_terms(self._spair(i, j, qi, lcm - packed[j]))

    def _chain_skip(self, i, j, lcm):
        """The chain criterion: some other lead k in the component of the
        pair divides lcm and neither (i, k) nor (j, k) is still pending.
        Only that component's members are scanned."""
        guard, packed = self.layout.guard, self.packed_leads
        members = self.members[lcm & self.layout.cmask]
        lcm |= guard
        for k in members:
            if k == i or k == j or (lcm - packed[k]) & guard != guard:
                continue
            a, b = (i, k) if i < k else (k, i)
            if (a, b) in self.pending:
                continue
            a, b = (j, k) if j < k else (k, j)
            if (a, b) in self.pending:
                continue
            return True
        return False

    def _spair(self, i, j, qi, qj):
        """lc_j x^qi g_i - lc_i x^qj g_j, or x^qi g_i - x^qj g_j when the
        two lead coefficients are equal (always over GF(p))."""
        gi, gj = self.basis[i], self.basis[j]
        ci, cj = next(iter(gi.values())), next(iter(gj.values()))
        if ci == cj:
            out = {t + qi: c for t, c in gi.items()}
            sub = gj.items()
        else:
            out = {t + qi: cj * c for t, c in gi.items()}
            sub = [(t, ci * c) for t, c in gj.items()]
        for t, c in sub:
            t += qj
            s = out.get(t)
            s = -c if s is None else s - c
            if s:
                out[t] = s
            else:
                out.pop(t, None)
        return out

    def _reduced(self):
        """The reduced Groebner basis, packed, in canonical order."""
        self.compute()
        return interreduce(self.basis, self.packed_leads, self.layout, self.field)

    def reduced_elements(self):
        """The reduced Groebner basis as canonical FreeElements."""
        unpack = self.layout.unpack
        return [FreeElement(self.module, unpack(t)) for t in self._reduced()]


def interreduce(elems, leads, layout, field):
    """The reduced basis of a Groebner basis given as packed term dicts
    over field, each leading with its lead term, and their packed leads,
    in canonical (descending lead) order; each reduced element is monic
    (field.monic).

    Elements whose lead is divisible by another lead go (of equal leads the
    first stays); the rest is still a Groebner basis.  Against it each
    kept element's tail is reduced once, and the stored lead term goes
    back in front, times the kernel's scale s: NF is unique and linear, so
    for g = a L + T, s (a L + NF(T)) = s (a L - NF(a L)) is the reduced
    element up to the scale s a.  A term divisible by an element's own
    lead is of higher degree, so it is never in its (homogeneous) tail.
    """
    divides, cmask = layout.divides, layout.cmask
    by_lead = {}
    for i, t in enumerate(leads):
        by_lead.setdefault(t & cmask, []).append((t, i))
    kept = [
        i
        for i, t in enumerate(leads)
        if not any(
            divides(o, t) and (o != t or j < i) for o, j in by_lead[t & cmask] if j != i
        )
    ]
    kept.sort(key=leads.__getitem__)  # a packed term is its order key
    by_comp = _by_lead([elems[i] for i in kept], layout, field)
    out = []
    for i in kept:
        lead = leads[i]
        terms = elems[i]
        tail = {t: v for t, v in terms.items() if t != lead}
        r, c = layout.reduce(tail, by_comp, field)
        reduced = {lead: terms[lead] * c}
        reduced.update(r)
        out.append(field.monic(reduced))
    return out


def _checked_basis(eng, inputs):
    """The reduced basis of eng, packed, once every one of inputs (the
    elements of eng.module that went in by add) reduces to zero against
    it.  The membership self-check of every Groebner run of the package:
    a failure is an engine bug, not bad input."""
    reduced = eng._reduced()
    layout, field = eng.layout, eng.field
    by_comp = _by_lead(reduced, layout, field)
    for g in inputs:
        if layout.reduce(_pack(eng.module, layout, g.terms), by_comp, field)[0]:
            raise EngineBugError("generator does not reduce to zero against its own basis")
    return reduced


def groebner_basis(gens, module, order=None):
    """Reduced Groebner basis of the submodule of module generated by gens,
    with the membership self-check (_checked_basis) of every input
    generator."""
    gens = [g for g in gens if g]
    eng = GroebnerEngine(module, order)
    for g in gens:
        eng.add(g)
    unpack = eng.layout.unpack
    return [FreeElement(module, unpack(t)) for t in _checked_basis(eng, gens)]


def normal_form(el, gb):
    """Full normal form of el against a reduced basis under the module
    order, as groebner_basis returns it: homogeneous elements of el's
    module."""
    return normal_forms([el], gb)[0]


def normal_forms(els, gb):
    """The normal_form of each of els, elements of one module, against gb,
    which is packed once (as primitive copies: _by_lead)."""
    if not els:
        return []
    module = els[0].module
    layout = _layout(module, TermOrder(module.rank))
    field = module.ring.field
    by_comp = _by_lead([_pack(module, layout, g.terms) for g in gb], layout, field)
    out = []
    for el in els:
        r, c = layout.reduce(_pack(module, layout, el.terms), by_comp, field)
        out.append(FreeElement(module, layout.unpack(_unscaled(r, c, field))))
    return out


def _tagged(big, g, tag):
    """g + e_tag in big, g an element of F, the first components of big."""
    return FreeElement(big, {**g.terms, (tag, big.ring.zero_mono): big.ring.field.one})


def _tag_relations(eng, inputs, source, slot):
    """The relations of a tagged lift in eng, an engine over F + tags under
    TermOrder(rank F): the elements of its checked reduced basis
    (_checked_basis over inputs) that lead in a tag, written into source:
    tag component rank F + k becomes basis vector slot[k].  slot keeps the
    order of the tags, so the relations stay reduced and in canonical
    order."""
    r, layout = eng.order.split, eng.layout
    out = []
    for terms in _checked_basis(eng, inputs):
        if layout.unpack_term(next(iter(terms)))[0] >= r:
            rel = {(slot[c - r], m): v for (c, m), v in layout.unpack(terms).items()}
            out.append(FreeElement(source, rel))
    return out


def lift_relations(gens, modulo, source):
    """Relations among the images of gens in F / <modulo>, written into
    source, the free module whose i-th basis vector maps to gens[i].

    Returns {a in source : sum a_i gens_i in <modulo>} as a reduced
    Groebner basis in canonical order: the presentation matrix columns of
    the subquotient (<gens> + <modulo>) / <modulo> on all of the
    generators gens (minimal_lift presents it on a minimal subset).
    lift_relations(gens, [], source) is the syzygy module of gens.  The
    one condition on source: its twists exceed the degrees of the nonzero
    gens by one common shift, so the relations are homogeneous (a zero
    generator's twist is free).

    One Groebner run in F + source: only gens are tagged, g_i + e_{r+i}
    (a zero g_i leaves e_{r+i}, its unit relation), with the tags twisted
    by source's twists minus the shift, and the modulo elements go in
    untagged, in F alone.  Under the elimination order that puts F first,
    the reduced basis elements whose lead lies in the tags are free of F,
    and they are the reduced basis of the relations: an element a of
    source lies in the span iff sum a_i g_i + sum b_j m_j = 0 for some b.
    The kernel key ignores twists and keeps the order of the tag
    components, so written into source they stay reduced and in order.

    This is the one relation-lifting primitive of the engine; minimal_lift
    runs the same tagged lift on a minimal subset of its generators.
    lift_relations keeps every generator: colons and intersections
    (modules.py) and the cycles of Ext (resolution.py).  Every minimal
    presentation (the steps of a free resolution, Presentation.subquotient
    and so minimized and each presented Ext) goes through minimal_lift.
    """
    if not gens:
        return []
    if source.rank != len(gens):
        raise ValueError("source rank must equal the number of generators")
    ambient = gens[0].module
    r = ambient.rank
    shift = next((t - g.homogeneous_degree() for t, g in zip(source.twists, gens) if g), 0)
    big = FreeModule(
        ambient.ring, r + len(gens), ambient.twists + tuple(t - shift for t in source.twists)
    )
    eng = GroebnerEngine(big, TermOrder(r))
    inputs = [_tagged(big, g, r + i) for i, g in enumerate(gens)]
    inputs += [FreeElement(big, m.terms) for m in modulo if m]
    for el in inputs:
        eng.add(el)
    return _tag_relations(eng, inputs, source, range(len(gens)))


def minimal_lift(gens, modulo, ambient):
    """A minimal presentation of the submodule N that the images of gens,
    elements of ambient = F, span in F / <modulo>: (source, kept,
    relations).  kept is a minimal homogeneous generating subset of gens
    (graded Nakayama), the package's one minimality rule: in ascending
    degree, a generator is kept iff it is not in <modulo> + <kept>.
    source = FreeModule(ring, len(kept), degrees of kept), and relations =
    lift_relations(kept, modulo, source), written into source, so N =
    coker(relations) on source.

    One tagged engine, the lift of lift_relations under TermOrder(r), r =
    rank F, over F plus one tag per generator: the modulo elements go in
    untagged, first; then each generator g, in ascending degree, gets the
    engine's normal_form, which runs pairs only up to deg g.  Under the
    elimination order its remainder leads in F iff it has a part in F,
    that is iff g is not in <modulo> + <kept>; such a g is kept and goes
    in tagged, as g + e_{r+k}.  The relations are the elements of the
    reduced basis that lead in a tag, renumbered into source.
    """
    # stable on the degree alone: equal-degree generators keep their order
    pairs = sorted(((g.homogeneous_degree(), g) for g in gens if g), key=itemgetter(0))
    degs, gens = [d for d, _ in pairs], [g for _, g in pairs]
    ring, r = ambient.ring, ambient.rank
    big = FreeModule(ring, r + len(gens), ambient.twists + tuple(degs))
    eng = GroebnerEngine(big, TermOrder(r))
    inputs = [FreeElement(big, m.terms) for m in modulo if m]
    for el in inputs:
        eng.add(el)
    kept = []
    for k, g in enumerate(gens):
        nf = eng.normal_form(g.terms)
        if nf and next(iter(nf))[0] < r:
            kept.append(k)
            inputs.append(_tagged(big, g, r + k))
            eng.add(inputs[-1])
    source = FreeModule(ring, len(kept), [degs[k] for k in kept])
    slot = {k: i for i, k in enumerate(kept)}
    return source, [gens[k] for k in kept], _tag_relations(eng, inputs, source, slot)
