"""Groebner bases, normal forms, syzygies, and the standard-monomial /
Hilbert-numerator machinery, checked against brute-force oracles; the
engine's contracts (descending normal forms, reduced bases, primitive
basis elements, QQ coefficients that are ints when integral) on seeded
random ideals, rank-2 modules and the corpus; and the packed term layout
(order, product, divisibility, and a field width that holds every term
within the degree cap), against the tuple order_key and tuple oracles."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

from homdeg import (
    Algebra,
    FreeElement,
    FreeModule,
    Polynomial,
    PolyRing,
    groebner_basis,
    invariant_report,
    lift_relations,
    normal_form,
)
from homdeg.errors import DegreeCapError, InhomogeneousError
from homdeg.fields import QQ
from homdeg.groebner import GroebnerEngine, TermOrder, interreduce
from homdeg import kernel
from homdeg.kernel import mono_divides
from homdeg.verify import gen_example_39, gen_example_46
from homdeg.monomial_ideals import (
    eval_at_one,
    hilbert_numerator,
    minimalize,
    reduce_pole,
)


@pytest.fixture
def ring():
    return PolyRing(("x", "y", "z"))


def _ideal_gb(ring, polys):
    mod = FreeModule(ring, 1)
    return groebner_basis([mod.inject(p) for p in polys], module=mod)


def test_gb_monomial_ideal(ring):
    x, y, z = ring.gens()
    gb = _ideal_gb(ring, [x**2, y**2])
    assert sorted((g.component(0) for g in gb), key=repr) == sorted(
        [x**2, y**2], key=repr
    )


def test_normal_form_reduces(ring):
    x, y, z = ring.gens()
    mod = FreeModule(ring, 1)
    gb = _ideal_gb(ring, [x**2 - y * z, x * y - z**2])
    # x^2 y reduces to a normal form with no lead divisible by the basis
    nf = normal_form(mod.inject(x**2 * y), gb)
    assert normal_form(mod.inject(x**2 * y) - nf, gb) == mod.zero()
    # ideal membership: the S-polynomial combination reduces to zero
    member = y * (x**2 - y * z) - x * (x * y - z**2)
    assert not normal_form(mod.inject(member), gb)


def test_gb_twisted_cubic():
    # the twisted cubic's ideal: 2x2 minors of [[x,y,z],[y,z,w]]
    ring = PolyRing(("x", "y", "z", "w"))
    x, y, z, w = ring.gens()
    minors = [x * z - y**2, x * w - y * z, y * w - z**2]
    gb = _ideal_gb(ring, minors)
    assert len(gb) == 3
    mod = FreeModule(ring, 1)
    for m in minors:
        assert not normal_form(mod.inject(m), gb)


def test_syzygy_of_two_coprime(ring):
    x, y, z = ring.gens()
    mod = FreeModule(ring, 1)
    syz = lift_relations([mod.inject(x), mod.inject(y)], [])
    # the only syzygy of (x, y) is the Koszul relation (y, -x)
    assert len(syz) == 1
    s = syz[0]
    assert {s.component(0), s.component(1)} in ({y, -x}, {-y, x})


def test_syzygy_certifies(ring):
    x, y, z = ring.gens()
    mod = FreeModule(ring, 1)
    gens = [mod.inject(p) for p in (x * y, y * z, x * z)]
    for s in lift_relations(gens, []):
        total = mod.zero()
        for i, g in enumerate(gens):
            total = total + s.component(i) * g
        assert not total


def test_lift_relations_subquotient(ring):
    x, y, z = ring.gens()
    mod = FreeModule(ring, 1)
    # image of x in S/(x^2): one relation x * x = 0
    rels = lift_relations([mod.inject(x)], [mod.inject(x**2)])
    assert any(r.component(0) == x for r in rels)


def test_gb_with_huge_lead_coefficient():
    """A lead coefficient past Python's 4300-digit string limit is scaled
    to 1 like any other."""
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    big = Fraction(10**5000)
    gb = _ideal_gb(ring, [x.scale(big) + y])
    assert [g.component(0) for g in gb] == [x + y.scale(1 / big)]


def test_degree_cap_raises():
    ring = PolyRing(("x", "y"), degree_cap=3)
    x, y = ring.gens()
    mod = FreeModule(ring, 1)
    with pytest.raises(DegreeCapError):
        groebner_basis([mod.inject(x**4)], module=mod)


# ---- monomial combinatorics against brute force ----------------------


def _brute_standard(monos, n, box):
    count = 0
    for m in product(range(box), repeat=n):
        if not any(mono_divides(g, m) for g in monos):
            count += 1
    return count


def test_minimalize():
    assert minimalize([(2, 0), (2, 1), (0, 1), (1, 1)]) == [(0, 1), (2, 0)]


def test_hilbert_numerator_vs_enumeration():
    # graded dimensions of k[x,y]/(x^2, xy): 1, 1, 1, ... after degree 0
    num = hilbert_numerator([(2, 0), (1, 1)])
    p, s = reduce_pole(num, 2)
    assert s == 1  # dimension one
    num0 = hilbert_numerator([])
    assert num0 == {0: 1}
    # finite-length case: total = standard monomial count
    num2 = hilbert_numerator([(2, 0), (0, 2)])
    p2, s2 = reduce_pole(num2, 2)
    assert s2 == 0
    assert eval_at_one(p2) == _brute_standard([(2, 0), (0, 2)], 2, 2) == 4


@pytest.mark.parametrize(
    "weights", [None, ((1, 0, 0), (0, 1, 1))], ids=["total", "bigraded"]
)
def test_hilbert_numerator_random_ideals(weights):
    """Seeded monomial ideals of k[x,y,z], of finite length or not: in
    every degree of total at most 6, the Hilbert function read off the
    numerator counts the standard monomials."""
    rows = weights or ((1, 1, 1),)

    def deg(m):
        return tuple(sum(w * e for w, e in zip(row, m)) for row in rows)

    box = [m for m in product(range(7), repeat=3) if sum(m) <= 6]
    every = Counter(deg(m) for m in box)
    rng = random.Random(2014)
    for _ in range(40):
        monos = [
            tuple(rng.randint(0, 3) for _ in range(3))
            for _ in range(rng.randint(1, 6))
        ]
        num = hilbert_numerator(monos, weights=weights)
        if weights is None:
            num = {(d,): c for d, c in num.items()}
        std = Counter(
            deg(m) for m in box if not any(mono_divides(g, m) for g in monos)
        )
        for d in every:
            total = 0
            for e, c in num.items():
                rest = tuple(a - b for a, b in zip(d, e))
                total += c * every.get(rest, 0)
            assert total == std.get(d, 0), (monos, d)


def test_module_hilbert_series_matches_quotient():
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [x**2, x * y]).as_module()
    num, n = pres.hilbert_series()
    # series (1 + t - t^2 ... ) / (1-t)^2; dimension 1, multiplicity 1
    assert n == 2
    assert pres.dim() == 1
    assert pres.degree_multiplicity() == 1


# ---- engine contracts --------------------------------------------------


def _homogeneous_terms(rng, n, twists, deg):
    """A random homogeneous term dict of degree deg (maybe empty)."""
    terms = {}
    for _ in range(rng.randint(1, 6)):
        c = rng.randrange(len(twists))
        if deg < twists[c]:
            continue
        m = [0] * n
        for _ in range(deg - twists[c]):
            m[rng.randrange(n)] += 1
        terms[(c, tuple(m))] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
    return terms


def _lead_key(split, weight):
    """Oracle: a max()-key of the order, written apart from
    kernel.order_key: smaller weight first, then components below split,
    then degree, then grevlex, then the lower component."""

    def key(t):
        c, m = t
        w = 0 if weight is None else sum(a * e for a, e in zip(weight, m))
        return (-w, c < split, sum(m), tuple(-e for e in reversed(m)), -c)

    return key


def _max_reduce(f, by_comp, key):
    """Oracle: full reduction that rescans the remainder for its largest
    term (under the max()-key key) at every step."""
    work = dict(f)
    out = {}
    while work:
        c, m = max(work, key=key)
        coef = work.pop((c, m))
        hit = next(((bm, bt) for bm, bt in by_comp.get(c, ()) if mono_divides(bm, m)), None)
        if hit is None:
            out[(c, m)] = coef
            continue
        bm, bt = hit
        q = kernel.mono_div(m, bm)
        for (tc, tm), tcoef in bt.items():
            if (tc, tm) == (c, bm):
                continue
            t = (tc, kernel.mono_mul(q, tm))
            s = work.get(t, 0) - coef * tcoef
            if s:
                work[t] = s
            else:
                work.pop(t, None)
    return out


def _engine_layout(n, twists, split, weight, cap=64):
    """The packed layout the engine builds for S^r (twists) over n
    variables under TermOrder(split, weight)."""
    ring = PolyRing([f"x{i}" for i in range(n)], degree_cap=cap)
    module = FreeModule(ring, len(twists), twists)
    return GroebnerEngine(module, TermOrder(split, weight)).layout


def _pack_by_comp(layout, by_comp):
    """The kernel's view of a tuple by_comp: each element packed, lead
    term first, with its lead coefficient when that is not 1."""
    out = {}
    for c, entries in by_comp.items():
        for bm, bt in entries:
            lead = (c, bm)
            packed = layout.pack({lead: bt[lead], **bt})
            lc = bt[lead]
            out.setdefault(c, []).append((next(iter(packed)), None if lc == 1 else lc, packed))
    return out


class _TupleOrder:
    """A term order as the tuple oracles read it: split, weight and a
    normal form by _max_reduce."""

    def __init__(self, order):
        self.split, self.weight = order.split, order.weight

    def reduce(self, terms, by_comp):
        return _max_reduce(terms, by_comp, _lead_key(self.split, self.weight))


@pytest.mark.parametrize("seed", range(3))
def test_packed_terms_sort_as_order_key(seed):
    """On random terms, packed ints sort exactly as kernel.order_key, for
    every split and weights 0..2; they unpack to themselves, and addition
    and the guard test are the product and divisibility of monomials."""
    rng = random.Random(700 + seed)
    for _ in range(12):
        n = rng.randint(1, 4)
        twists = tuple(rng.randint(-3, 2) for _ in range(rng.randint(1, 5)))
        cap = rng.randint(1, 9)
        weights = [None, (0,) * n, (2,) * n] + [
            tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(2)
        ]
        for split in range(len(twists) + 1):
            for weight in weights:
                layout = _engine_layout(n, twists, split, weight, cap)
                terms = set()
                for _ in range(30):
                    m = [0] * n
                    for _ in range(rng.randint(0, layout.fmax)):
                        m[rng.randrange(n)] += 1
                    terms.add((rng.randrange(len(twists)), tuple(m)))
                terms = sorted(terms)
                packed = dict(zip(terms, layout.pack(dict.fromkeys(terms))))
                assert sorted(terms, key=kernel.order_key(split, weight)) == sorted(
                    terms, key=packed.__getitem__
                )
                assert list(layout.unpack(dict.fromkeys(packed.values()))) == terms
                for (c, a), (d, b) in zip(terms, terms[1:]):
                    if c != d:
                        continue
                    assert layout.divides(packed[c, a], packed[d, b]) == mono_divides(a, b)
                    if sum(a) + sum(b) <= layout.fmax:
                        product = layout.pack({(c, kernel.mono_mul(a, b)): 1})
                        assert [packed[c, a] + packed[d, b] - layout.base[d]] == list(product)


@pytest.mark.parametrize("seed", range(4))
def test_reduction_emits_descending_irreducible_terms(seed):
    rng = random.Random(300 + seed)
    scales = random.Random(400 + seed)  # apart from rng, which draws the cases
    for _ in range(80):
        n = rng.randint(1, 3)
        twists = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 2)))
        split = rng.randint(0, len(twists))
        weight = None if rng.random() < 0.5 else tuple(rng.randint(0, 2) for _ in range(n))
        key = _lead_key(split, weight)
        by_comp = {}
        for _ in range(rng.randint(1, 4)):
            terms = _homogeneous_terms(rng, n, twists, rng.randint(1, 3))
            if terms:
                lead = max(terms, key=key)
                lc = terms[lead]
                by_comp.setdefault(lead[0], []).append(
                    (lead[1], {t: v / lc for t, v in terms.items()})
                )
        f = _homogeneous_terms(rng, n, twists, rng.randint(2, 5))
        layout = _engine_layout(n, twists, split, weight)
        out = layout.unpack(layout.reduce(layout.pack(f), _pack_by_comp(layout, by_comp), QQ))
        expected = _max_reduce(f, by_comp, key)
        assert list(out.items()) == list(expected.items())
        # scaling the basis elements, as the engine's primitive ones are,
        # leaves the normal form as it is
        scaled = {}
        for c, entries in by_comp.items():
            for bm, bt in entries:
                k = scales.choice([-3, 2, 5])
                scaled.setdefault(c, []).append((bm, {t: k * v for t, v in bt.items()}))
        again = layout.unpack(layout.reduce(layout.pack(f), _pack_by_comp(layout, scaled), QQ))
        assert list(again.items()) == list(out.items())
        keys = [key(t) for t in out]
        assert all(a > b for a, b in zip(keys, keys[1:]))
        for c, m in out:
            assert not any(mono_divides(bm, m) for bm, _ in by_comp.get(c, ()))


def _fixed_point_interreduce(elems, leads, order):
    """Oracle: interreduce by full passes, each element reduced against all
    the others, repeated until no element changes."""
    changed = True
    while changed:
        changed = False
        for i in range(len(elems)):
            if elems[i] is None:
                continue
            by_comp = {}
            for j, other in enumerate(elems):
                if j != i and other is not None:
                    c, m = leads[j]
                    by_comp.setdefault(c, []).append((m, other))
            nf = order.reduce(elems[i], by_comp)
            if nf != elems[i]:
                changed = True
                if nf:
                    leads[i] = max(nf, key=_lead_key(order.split, order.weight))
                    lc = nf[leads[i]]
                    elems[i] = {t: v / lc for t, v in nf.items()}
                else:
                    elems[i] = None
    kept = [i for i, e in enumerate(elems) if e is not None]
    kept.sort(key=lambda i: _lead_key(order.split, order.weight)(leads[i]), reverse=True)
    return [elems[i] for i in kept]


def _assert_primitive(terms):
    """An engine basis element over QQ has int coefficients of content 1
    and a positive lead."""
    assert all(type(v) is int for v in terms.values())
    assert next(iter(terms.values())) > 0 and gcd(*terms.values()) == 1


def _check_reduced_basis(module, gens, order):
    eng = GroebnerEngine(module, order)
    for g in gens:
        eng.add(g)
    eng.compute()
    field = module.ring.field
    unpack = eng.layout.unpack
    assert eng.leads == [eng.layout.unpack_term(t) for t in eng.packed_leads]
    if field == QQ:
        for terms in eng.basis:
            _assert_primitive(terms)
    # every S-pair cancels the lcm of its two leads
    packed = eng.packed_leads
    for i, j in combinations(range(len(eng.basis)), 2):
        (ci, mi), (cj, mj) = eng.leads[i], eng.leads[j]
        if ci == cj:
            (lcm,) = eng.layout.pack({(ci, kernel.mono_lcm(mi, mj)): 1})
            s = eng._spair(i, j, lcm - packed[i], lcm - packed[j])
            assert lcm not in s
    expected = _fixed_point_interreduce(
        [unpack(field.monic(t)) for t in eng.basis], list(eng.leads), _TupleOrder(order)
    )
    gb = eng.reduced_elements()
    assert [list(g.terms.items()) for g in gb] == [list(e.items()) for e in expected]
    assert groebner_basis(gens, module=module, order=order) == gb
    # of equal leads one element stays
    twice = interreduce(list(eng.basis) * 2, list(eng.packed_leads) * 2, eng.layout, field)
    assert [list(unpack(t).items()) for t in twice] == [list(g.terms.items()) for g in gb]
    key = _lead_key(order.split, order.weight)
    leads = []
    for g in gb:
        lead = max(g.terms, key=key)
        assert next(iter(g.terms)) == lead  # the lead is the first key
        assert g.terms[lead] == module.ring.field.one
        leads.append(lead)
    keys = [key(t) for t in leads]
    assert all(a > b for a, b in zip(keys, keys[1:]))
    for g in gb:
        for i, (c, m) in enumerate(g.terms):
            for lc, lm in leads:
                if lc == c and (i > 0 or (lc, lm) != (c, m)):
                    assert not mono_divides(lm, m)
    return gb


def _random_form(rng, ring, deg):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        m = [0] * ring.n
        for _ in range(deg):
            m[rng.randrange(ring.n)] += 1
        terms[tuple(m)] = ring.field.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))
    return Polynomial(ring, terms)


def _random_orders(rng, rank, n):
    return [
        TermOrder(rank),
        TermOrder(rng.randint(0, rank)),
        TermOrder(rank, [rng.randint(0, 1) for _ in range(n)]),
    ]


def test_reduced_basis_random_ideals():
    rng = random.Random(1404)
    ring = PolyRing(("x", "y", "z"))
    mod = FreeModule(ring, 1)
    for _ in range(25):
        forms = [_random_form(rng, ring, rng.randint(1, 3)) for _ in range(rng.randint(2, 4))]
        gens = [mod.inject(f) for f in forms if f]
        for order in _random_orders(rng, 1, ring.n):
            _check_reduced_basis(mod, gens, order)


def test_reduced_basis_random_rank2_modules():
    rng = random.Random(2455)
    ring = PolyRing(("x", "y", "z"))
    for _ in range(20):
        twists = (0, rng.randint(0, 2))
        mod = FreeModule(ring, 2, twists)
        gens = []
        for _ in range(rng.randint(2, 4)):
            deg = twists[1] + rng.randint(0, 2)
            col = mod.inject(_random_form(rng, ring, deg), 0) + mod.inject(
                _random_form(rng, ring, deg - twists[1]), 1
            )
            if col:
                gens.append(col)
        for order in _random_orders(rng, 2, ring.n):
            _check_reduced_basis(mod, gens, order)


def test_reduced_basis_corpus(corpus):
    rng = random.Random(39)
    for inst in corpus:
        gens = inst.pres.relation_gens()
        if not gens:
            continue
        for order in _random_orders(rng, inst.pres.rank, inst.pres.ring.n):
            try:
                _check_reduced_basis(inst.pres.ambient, gens, order)
            except AssertionError as exc:
                raise AssertionError(inst.name) from exc


def _assert_qq_coefficients(terms):
    """Every coefficient is an int when it is integral, otherwise a
    Fraction, and never a float."""
    for v in terms.values():
        assert type(v) is int or (type(v) is Fraction and v.denominator != 1), v


@pytest.mark.parametrize("seed", range(3))
def test_qq_coefficients_are_ints_when_integral(seed):
    """Over QQ, reduced bases, reduced elements, normal forms and lifted
    relations hold ints where the value is integral and Fractions where it
    is not, also when the input carries integral Fractions; an input with
    every coefficient a Fraction gives the same values in the same
    order."""
    rng = random.Random(900 + seed)
    ring = PolyRing(("x", "y", "z"))
    for _ in range(15):
        twists = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 2)))
        module = FreeModule(ring, len(twists), twists)
        gens = []
        for _ in range(rng.randint(1, 4)):
            terms = _homogeneous_terms(rng, 3, twists, rng.randint(1, 3))
            if terms:
                gens.append(FreeElement(module, terms))
        if not gens:
            continue
        as_fractions = [
            FreeElement(module, {t: Fraction(v) for t, v in g.terms.items()}) for g in gens
        ]
        gb = groebner_basis(gens, module=module)
        assert [list(g.terms.items()) for g in gb] == [
            list(g.terms.items()) for g in groebner_basis(as_fractions, module=module)
        ]
        eng = GroebnerEngine(module)
        for g in gens:
            eng.add(g)
        assert eng.reduced_elements() == gb
        probes = [
            FreeElement(module, terms)
            for terms in (_homogeneous_terms(rng, 3, twists, rng.randint(1, 4)) for _ in range(4))
            if terms
        ]
        outputs = [g.terms for g in gb]
        for el in probes:
            nf = normal_form(el, gb)
            assert eng.normal_form(el.terms) == nf.terms
            outputs.append(nf.terms)
        outputs += [a.terms for a in lift_relations(gens, [])]
        for terms in outputs:
            _assert_qq_coefficients(terms)


# ---- the packed field width ---------------------------------------------


def _s_pairs_reduce_to_zero(gb, key):
    """Oracle: Buchberger's criterion in tuple terms.  The S-pair of any
    two basis elements with leads in one component reduces to zero by
    _max_reduce."""
    leads = [next(iter(g.terms)) for g in gb]
    by_comp = {}
    for (c, m), g in zip(leads, gb):
        by_comp.setdefault(c, []).append((m, g.terms))
    for i, j in combinations(range(len(gb)), 2):
        (ci, mi), (cj, mj) = leads[i], leads[j]
        if ci != cj:
            continue
        lcm = kernel.mono_lcm(mi, mj)
        s = Counter()
        for g, m, sign in ((gb[i], mi, 1), (gb[j], mj, -1)):
            q = kernel.mono_div(lcm, m)
            for (c, tm), v in g.terms.items():
                s[c, kernel.mono_mul(q, tm)] += sign * v
        if _max_reduce({t: v for t, v in s.items() if v}, by_comp, key):
            return False
    return True


@pytest.mark.parametrize(
    "twists, cap",
    [((-3, 0), 4), ((-4, -2, -1), 3), ((0,), 7), ((1, 0), 5)],
    ids=["twists-3,0", "duals-style", "exponent-at-cap", "positive-twist"],
)
def test_field_width_holds_every_term_within_the_cap(twists, cap):
    """The fields hold the degree cap minus the smallest twist, so the
    top field value is reached (x^7 at cap 7, x^7 e_0 of twist -3 at cap
    4) but never passed.  Every run gives the reduced Groebner basis the
    tuple oracles certify, or raises DegreeCapError as the tuple engine
    did; both outcomes occur."""
    ring = PolyRing(("x", "y", "z"), degree_cap=cap)
    module = FreeModule(ring, len(twists), twists)
    rng = random.Random(sum(twists) * 10 + cap)
    outcomes = Counter()
    for _ in range(40):
        gens = []
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(max(twists), cap)
            top = {(0, (deg - twists[0], 0, 0)): ring.field.one}  # one exponent fills its field
            terms = {**top, **_homogeneous_terms(rng, 3, twists, deg)}
            gens.append(FreeElement(module, terms))
        for order in _random_orders(rng, len(twists), 3):
            try:
                gb = _check_reduced_basis(module, gens, order)
            except DegreeCapError:
                outcomes["cap"] += 1
                continue
            assert _s_pairs_reduce_to_zero(gb, _lead_key(order.split, order.weight))
            outcomes["basis"] += 1
    assert outcomes["cap"] and outcomes["basis"]


def _assert_refused(module, order, g, f):
    """f reduced against the basis [g] would make a term too high for its
    fields: normal_form and the engine's add both raise DegreeCapError."""
    assert groebner_basis([g], module=module, order=order) == [g]
    with pytest.raises(DegreeCapError):
        normal_form(f, [g], order)
    eng = GroebnerEngine(module, order)
    eng.add(g)
    with pytest.raises(DegreeCapError):
        eng.add(f)


def test_term_above_its_field_raises_and_never_wraps():
    """At cap 7 a field holds exponents up to 7: x^7 reduces as any term,
    x^8 raises DegreeCapError instead of wrapping into its neighbours.  A
    term of low raw degree can also reduce to one above its field: through
    a component of smaller twist, or through a variable of degree > 1
    under a weighted order.  Such a term is refused when packed, as the
    tuple engine refused its lead; within the cap the same reductions give
    the tuple result."""
    ring = PolyRing(("x", "y"), degree_cap=7)
    x, y = ring.gens()
    mod = FreeModule(ring, 1)
    gb = groebner_basis([mod.inject(x**7 - y**7)], module=mod)
    assert [g.component(0) for g in gb] == [x**7 - y**7]
    assert normal_form(mod.inject(x**7 + x * y**6), gb) == mod.inject(y**7 + x * y**6)
    with pytest.raises(DegreeCapError):
        normal_form(mod.inject(x**8), gb)
    with pytest.raises(DegreeCapError):
        groebner_basis([mod.inject(x), mod.inject(x**8)], module=mod)
    # twist -3 at cap 4: x^7 e_0 has degree 4 and fills its field
    ring = PolyRing(("x", "y"), degree_cap=4)
    x, y = ring.gens()
    mod = FreeModule(ring, 2, (-3, 0))
    el = mod.inject(x**7) + mod.inject(y**4, 1)
    assert groebner_basis([el], module=mod) == [el]
    assert normal_form(mod.inject(x**7), [el]) == mod.inject(-(y**4), 1)
    with pytest.raises(DegreeCapError):
        normal_form(mod.inject(x**8), [el])
    # twists (0, -3) at cap 4: fields of 3 bits, and x^4 y^3 e_0 (raw
    # degree 7) reduces by y e_0 + x^4 e_1 to -x^8 y^2 e_1
    ring = PolyRing(("x", "y"), degree_cap=4)
    x, y = ring.gens()
    mod = FreeModule(ring, 2, (0, -3))
    order = TermOrder(1)
    g = mod.inject(y) + mod.inject(x**4, 1)
    assert normal_form(mod.inject(y**4), [g], order) == mod.inject(-(x**4) * y**3, 1)
    _assert_refused(mod, order, g, mod.inject(x**4 * y**3))
    # u of degree 2 at cap 7: fields of 3 bits, and under the weight
    # (1, 0) u^4 (raw degree 4) reduces by u - x^2 to x^8
    ring = PolyRing(("x", "u"), degree_cap=7, degrees=(1, 2))
    x, u = ring.gens()
    mod = FreeModule(ring, 1)
    order = TermOrder(1, (1, 0))
    g = mod.inject(u - x**2)
    assert normal_form(mod.inject(u**3), [g], order) == mod.inject(x**6)
    _assert_refused(mod, order, g, mod.inject(u**4))
    with pytest.raises(InhomogeneousError):  # its tail could leave the field too
        normal_form(mod.inject(u**3), [mod.inject(u - x)], order)


def test_engine_over_rank_zero_module():
    """A free module of rank 0 has no twists; its engine still builds a
    layout and an empty basis."""
    mod = FreeModule(PolyRing(("x",)), 0)
    assert GroebnerEngine(mod).reduced_elements() == []


def test_degree_cap_set_after_the_ring_reaches_the_engine():
    """The field width is read when an engine is built, so a cap lowered
    or raised after the ring (and its first layout) exists still holds."""
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    mod = FreeModule(ring, 1)
    assert groebner_basis([mod.inject(x**4)], module=mod)
    ring.degree_cap = 3
    with pytest.raises(DegreeCapError):
        groebner_basis([mod.inject(x**4)], module=mod)
    ring.degree_cap = 200
    gb = groebner_basis([mod.inject(x**150 - y**150)], module=mod)
    assert [g.component(0) for g in gb] == [x**150 - y**150]


@pytest.mark.parametrize(
    "make, first",
    [
        (lambda cap: gen_example_39(2, 1, degree_cap=cap), 5),
        (lambda cap: gen_example_46(3, degree_cap=cap), 7),
    ],
    ids=["ex39_2_1", "ex46_3"],
)
def test_low_caps_give_the_report_or_degree_cap_error(make, first):
    """hdeg runs through the local-cohomology duals, whose twists are
    negative.  Below the first cap at which the tuple engine finished, the
    run raises DegreeCapError; from it on, the report is the one at cap 64."""
    full = make(64)
    want = invariant_report(full.pres, full.q_gens)
    for cap in range(1, 10):
        if cap < first:
            with pytest.raises(DegreeCapError):
                inst = make(cap)
                invariant_report(inst.pres, inst.q_gens)
        else:
            inst = make(cap)
            assert invariant_report(inst.pres, inst.q_gens) == want, cap
