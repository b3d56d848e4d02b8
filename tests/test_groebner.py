"""Groebner bases, normal forms, syzygies, and the standard-monomial /
Hilbert-numerator machinery, checked against brute-force oracles (the
packed numerator kernel also against the tuple pivot recursion); the
engine's contracts (descending normal forms, fraction-free reduction,
reduced bases, primitive basis elements, QQ coefficients that are ints
when integral) on seeded random ideals, rank-2 modules and the corpus;
and the packed term layout
(order, product, divisibility, and a field width that holds every term
within the degree cap), against the tuple order_key and tuple oracles."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

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
from homdeg.errors import DegreeCapError, EngineBugError, InhomogeneousError
from homdeg.fields import QQ, PrimeField
from homdeg.groebner import GroebnerEngine, TermOrder, interreduce, minimal_lift, normal_forms
from homdeg import groebner, kernel
from homdeg.verify import gen_example_39, gen_example_46
from homdeg.modules import Presentation
from homdeg.monomial_ideals import (
    eval_at_one,
    hilbert_numerators,
    poly_add,
    poly_shift,
    reduce_pole,
)


def mono_div(a, b):
    """The exponent tuple of the monomial quotient a / b."""
    return tuple(x - y for x, y in zip(a, b))


def mono_divides(a, b):
    """True if the monomial a divides b."""
    return all(x <= y for x, y in zip(a, b))


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
    syz = lift_relations([mod.inject(x), mod.inject(y)], [], FreeModule(ring, 2, (1, 1)))
    # the only syzygy of (x, y) is the Koszul relation (y, -x)
    assert len(syz) == 1
    s = syz[0]
    assert {s.component(0), s.component(1)} in ({y, -x}, {-y, x})


def test_syzygy_certifies(ring):
    x, y, z = ring.gens()
    mod = FreeModule(ring, 1)
    gens = [mod.inject(p) for p in (x * y, y * z, x * z)]
    for s in lift_relations(gens, [], FreeModule(ring, 3, (2, 2, 2))):
        total = mod.zero()
        for i, g in enumerate(gens):
            total = total + s.component(i) * g
        assert not total


def test_lift_relations_subquotient(ring):
    x, y, z = ring.gens()
    mod = FreeModule(ring, 1)
    # image of x in S/(x^2): one relation x * x = 0
    rels = lift_relations([mod.inject(x)], [mod.inject(x**2)], FreeModule(ring, 1, (1,)))
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


def _tuple_minimalize(monos):
    """Minimal generators of the monomial ideal generated by monos."""
    out = []
    for m in sorted(set(monos), key=sum):
        if not any(mono_divides(g, m) for g in out):
            out.append(m)
    return out


def _tuple_numerator(monos, deg, zero, memo):
    """Bigatti's pivot recursion on exponent tuples, degrees as tuples: the
    oracle for the packed hilbert_numerators.  N(I) = N(I + p) + t^deg(p)
    N(I : p) for p = x_v^e, x_v in the most mixed generators and e their
    median x_v exponent; pure powers give prod (1 - t^deg m)."""
    monos = _tuple_minimalize(monos)
    if any(not any(m) for m in monos):
        return {}
    key = frozenset(monos)
    if key in memo:
        return memo[key]
    mixed = [m for m in monos if sum(1 for e in m if e) > 1]
    if not mixed:
        out = {zero: 1}
        for m in monos:
            shifted = {tuple(a + b for a, b in zip(d, deg(m))): c for d, c in out.items()}
            out = poly_add(out, shifted, sign=-1)
    else:
        n = len(mixed[0])
        v = max(range(n), key=lambda i: sum(1 for m in mixed if m[i]))
        exps = sorted(m[v] for m in mixed if m[v])
        p = tuple(exps[len(exps) // 2] if i == v else 0 for i in range(n))
        colon = [tuple(max(a - b, 0) for a, b in zip(g, p)) for g in monos]
        low = _tuple_numerator(colon, deg, zero, memo)
        out = poly_add(
            _tuple_numerator(monos + [p], deg, zero, memo),
            {tuple(a + b for a, b in zip(d, deg(p))): c for d, c in low.items()},
        )
    memo[key] = out
    return out


def _numerator(monos, weights=None):
    (num,) = hilbert_numerators([monos], weights)
    return num


def test_minimalize():
    """Redundant and duplicate generators leave the numerator unchanged."""
    monos = [(2, 0), (2, 1), (0, 1), (1, 1), (0, 1)]
    assert _tuple_minimalize(monos) == [(0, 1), (2, 0)]
    assert _numerator(monos) == _numerator([(0, 1), (2, 0)]) == {0: 1, 1: -1, 2: -1, 3: 1}


def test_hilbert_numerator_vs_enumeration():
    # graded dimensions of k[x,y]/(x^2, xy): 1, 1, 1, ... after degree 0
    num = _numerator([(2, 0), (1, 1)])
    p, s = reduce_pole(num, 2)
    assert s == 1  # dimension one
    assert _numerator([]) == {0: 1}
    # finite-length case: total = standard monomial count
    num2 = _numerator([(2, 0), (0, 2)])
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
    draws = [
        [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(rng.randint(1, 6))]
        for _ in range(40)
    ]
    for monos, num in zip(draws, hilbert_numerators(draws, weights)):
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


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize(
    "weights", [None, "bigraded"], ids=["total", "bigraded"]
)
def test_packed_numerators_match_tuple_recursion(n, weights):
    """Seeded ideals in 4 and 5 variables, one call per batch: the packed
    recursion equals the tuple recursion, graded and bigraded (a weight
    entry of 2), with exponents on both sides of the 3/4- and 4/5-bit
    field widths (7/8, 15/16), duplicate generators, the unit ideal and
    the zero ideal; where an ideal has finite length its colength is the
    brute-force count of standard monomials."""
    rng = random.Random(22 + n)
    if weights:
        weights = (tuple(rng.randint(0, 1) for _ in range(n - 1)) + (2,), (1,) * n)
    rows = weights or ((1,) * n,)
    zero = (0,) * len(rows)

    def deg(m):
        return tuple(sum(w * e for w, e in zip(row, m)) for row in rows)

    for top in (3, 7, 8, 15, 16):
        batch = [[], [(0,) * n], [(0,) * n, (1,) * n]]
        for _ in range(12):
            monos = [
                tuple(rng.choice((0, 0, 1, 2, top)) for _ in range(n))
                for _ in range(rng.randint(1, 6))
            ]
            batch.append(monos + monos[: rng.randint(0, 2)])
        # pure powers of every variable: finite length, so brute-force countable
        pure = [tuple(rng.choice((1, 2)) if i == j else 0 for i in range(n)) for j in range(n)]
        batch.append(pure + [(1,) * n])
        memo = {}
        got = hilbert_numerators(batch, weights)
        assert len(got) == len(batch)
        for monos, num in zip(batch, got):
            want = _tuple_numerator(monos, deg, zero, memo)
            if weights is None:
                want = {d: c for (d,), c in want.items()}
            assert num == want, (top, monos)
        assert got[0] == ({0: 1} if weights is None else {(0, 0): 1})
        assert got[1] == got[2] == {}
        p, s = reduce_pole(_numerator(batch[-1]), n)
        assert s == 0 and eval_at_one(p) == _brute_standard(batch[-1], n, 3)


def test_rank_3_numerator_sums_shifted_components():
    """A rank-3 module with twists (0, 2, -1): component 0 is S/(x^2, xy^3),
    component 1 is killed by a unit relation and component 2 is free.  Its
    numerator is the sum of the per-component numerators shifted by the
    twists, and component 1 adds nothing."""
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.gens()
    amb = FreeModule(ring, 3, (0, 2, -1))
    cols = [amb.inject(x**2, 0), amb.inject(x * y**3, 0), amb.inject(ring.one, 1)]
    pres = Presentation(Algebra(ring, ()), amb, cols)
    parts = hilbert_numerators([[(2, 0, 0), (1, 3, 0)], [(0, 0, 0)], []])
    assert parts[1] == {}
    want = {}
    for part, twist in zip(parts, amb.twists):
        want = poly_add(want, poly_shift(part, twist))
    assert pres.hilbert_numerator() == want
    assert pres.dim() == 3 and pres.degree_multiplicity() == 1
    assert pres.length() is None


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
        q = mono_div(m, bm)
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


def _pack_by_comp(layout, by_comp, one=1):
    """The kernel's view of a tuple by_comp: each element packed, lead
    term first, with its lead coefficient when that is not one."""
    out = {}
    for c, entries in by_comp.items():
        for bm, bt in entries:
            lead = (c, bm)
            packed = layout.pack({lead: bt[lead], **bt})
            lc = bt[lead]
            out.setdefault(c, []).append((next(iter(packed)), None if lc == one else lc, packed))
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
    """Layout.reduce returns (r, c) with r = c * NF, NF the oracle's normal
    form, in descending order and with no term divisible by a lead.  Over
    QQ, c is a positive int: against monic Fraction bases (no step
    scales), and against integer multiples of primitive bases, whose
    leads are mostly not 1 and where r holds ints, for an integral input
    and for one whose denominators c clears.  Over GF(p), c is one and r the oracle's NF taken mod p."""
    rng = random.Random(300 + seed)
    scales = random.Random(400 + seed)  # apart from rng, which draws the cases
    gf = PrimeField(32003)

    def mod_p(terms):
        mapped = {t: gf.div(gf.from_int(v.numerator), gf.from_int(v.denominator))
                  for t, v in terms.items()}
        return {t: v for t, v in mapped.items() if v}

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
        expected = _max_reduce(f, by_comp, key)
        r, c = layout.reduce(layout.pack(f), _pack_by_comp(layout, by_comp), QQ)
        assert type(c) is int and c > 0
        out = layout.unpack(r)
        assert list(out.items()) == [(t, c * v) for t, v in expected.items()]
        # integer multiples of the primitive basis elements, as the
        # engine's are: the same normal form, on ints for an integral input
        scaled = {}
        for comp, entries in by_comp.items():
            for bm, bt in entries:
                k = scales.choice([1, 2, 6])
                primitive = QQ.primitive({(comp, bm): bt[comp, bm], **bt})
                scaled.setdefault(comp, []).append((bm, {t: k * v for t, v in primitive.items()}))
        den = lcm(*(v.denominator for v in f.values()))
        for g, d in ((f, 1), ({t: (den * v).numerator for t, v in f.items()}, den)):
            r, c = layout.reduce(layout.pack(g), _pack_by_comp(layout, scaled), QQ)
            assert type(c) is int and c > 0
            assert list(layout.unpack(r).items()) == [
                (t, c * d * v) for t, v in expected.items()
            ]
            assert all(type(v) is int for v in r.values())
        r, c = layout.reduce(
            layout.pack(mod_p(f)),
            _pack_by_comp(layout, {comp: [(bm, mod_p(bt)) for bm, bt in entries]
                                   for comp, entries in by_comp.items()}, gf.one),
            gf,
        )
        assert c == gf.one
        assert layout.unpack(r) == mod_p(expected)
        keys = [key(t) for t in out]
        assert all(a > b for a, b in zip(keys, keys[1:]))
        for comp, m in out:
            assert not any(mono_divides(bm, m) for bm, _ in by_comp.get(comp, ()))


def test_fraction_free_step_scales_by_the_least_cofactor():
    """A step by a lead coefficient lc scales by lc / gcd(coef, lc) alone,
    the terms already emitted and the scale c with it, and does not scale
    when lc divides coef.  Against 4y + 3z over QQ[x, y, z], x + 6y has
    normal form x - 9/2 z: the step scales by 2 and emits 2x - 9z, c = 2."""
    layout = _engine_layout(3, (0,), 1, None)
    basis = _pack_by_comp(layout, {0: [((0, 1, 0), {(0, (0, 1, 0)): 4, (0, (0, 0, 1)): 3})]})
    x, y, z = ((0, (1, 0, 0)), (0, (0, 1, 0)), (0, (0, 0, 1)))
    for f, nf, c in (
        ({x: 1, y: 6}, {x: 2, z: -9}, 2),
        ({x: 1, y: 8}, {x: 1, z: -6}, 1),
        ({x: Fraction(1, 3), y: 2}, {x: 2, z: -9}, 6),
    ):
        r, scale = layout.reduce(layout.pack(f), basis, QQ)
        assert (layout.unpack(r), scale) == (nf, c)


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
        source = FreeModule(ring, len(gens), [g.homogeneous_degree() for g in gens])
        outputs += [a.terms for a in lift_relations(gens, [], source)]
        for terms in outputs:
            _assert_qq_coefficients(terms)


@pytest.mark.parametrize("seed", range(3))
def test_fraction_free_normal_forms_match_a_fraction_reducer(seed):
    """Over QQ, normal_forms reduces on ints against primitive copies of
    the reduced basis, whose leads are often not 1, and divides by the
    kernel's scale once.  On Fraction inputs it equals an all-Fraction
    reducer (_max_reduce against the monic reduced basis).  The engine's
    own reduction of an integral input leaves no Fraction in r, and r / c
    is the same normal form."""
    rng = random.Random(1100 + seed)
    ring = PolyRing(("x", "y", "z"))
    scaled_steps = 0
    for _ in range(12):
        twists = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 2)))
        module = FreeModule(ring, len(twists), twists)
        gens = [
            FreeElement(module, terms)
            for terms in (_homogeneous_terms(rng, 3, twists, rng.randint(1, 3)) for _ in range(4))
            if terms
        ]
        probes = [
            FreeElement(module, terms)
            for terms in (_homogeneous_terms(rng, 3, twists, rng.randint(2, 4)) for _ in range(4))
            if terms
        ]
        if not gens or not probes:
            continue
        gb = groebner_basis(gens, module=module)
        by_comp = {}
        for g in gb:
            c, m = next(iter(g.terms))
            by_comp.setdefault(c, []).append((m, {t: Fraction(v) for t, v in g.terms.items()}))
        key = _lead_key(len(twists), None)
        eng = GroebnerEngine(module)
        for g in gens:
            eng.add(g)
        eng.compute()
        layout = eng.layout
        scaled_steps += sum(lc is not None for es in eng.by_comp.values() for _, lc, _ in es)
        for el, nf in zip(probes, normal_forms(probes, gb)):
            expected = _max_reduce(el.terms, by_comp, key)
            assert list(nf.terms.items()) == list(expected.items())
            _assert_qq_coefficients(nf.terms)
            den = lcm(*(v.denominator for v in el.terms.values()))
            integral = {t: (den * v).numerator for t, v in el.terms.items()}
            r, c = layout.reduce(layout.pack(integral), eng.by_comp, QQ)
            assert type(c) is int and c > 0
            assert all(type(v) is int for v in r.values())
            assert layout.unpack(r) == {t: c * den * v for t, v in expected.items()}
    assert scaled_steps


def test_normal_form_runs_pairs_only_up_to_its_degree():
    """normal_form of a degree-3 element runs the pair of degree 3 and
    leaves those of degree 5 and 6: its normal form is the one a fully
    computed engine gives, and no pair of degree <= 3 is left."""
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.gens()
    mod = FreeModule(ring, 1)
    probe = mod.inject(x**2 * y + x * z**2 + y**3).terms

    def engine():
        eng = GroebnerEngine(mod)
        for g in (x**2 + y * z, x * y + z**2, y**4 + x * z**3):
            eng.add(mod.inject(g))
        return eng

    lazy = engine()
    assert lazy.normal_form(probe) == engine().compute().normal_form(probe)
    assert lazy.pairs and all(deg > 3 for deg, _, _ in lazy.pairs)
    assert len(lazy.basis) == 4  # the S-pair of degree 3 was added


@pytest.mark.parametrize("seed", range(3))
def test_truncated_normal_forms_match_a_computed_engine(seed):
    """On seeded rank-1 and rank-2 draws, probes of degree D in any order:
    each normal form equals the fully computed engine's, and the pairs
    left on the heap are all of degree > D."""
    rng = random.Random(1300 + seed)
    ring = PolyRing(("x", "y", "z"))
    left = 0
    for _ in range(10):
        twists = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 2)))
        module = FreeModule(ring, len(twists), twists)
        lazy, full = GroebnerEngine(module), GroebnerEngine(module)
        for terms in (_homogeneous_terms(rng, 3, twists, rng.randint(1, 3)) for _ in range(4)):
            if terms:
                lazy.add(FreeElement(module, terms))
                full.add(FreeElement(module, terms))
        full.compute()
        for deg in rng.sample(range(1, 6), 5):
            probe = _homogeneous_terms(rng, 3, twists, deg)
            if not probe:
                continue
            assert lazy.normal_form(probe) == full.normal_form(probe)
            assert all(d > deg for d, _, _ in lazy.pairs)
            left += bool(lazy.pairs)
    assert left


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
            q = mono_div(lcm, m)
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
    fields: the engine's normal_form and add both raise DegreeCapError."""
    assert groebner_basis([g], module=module, order=order) == [g]
    eng = GroebnerEngine(module, order)
    eng.add(g)
    with pytest.raises(DegreeCapError):
        eng.normal_form(f.terms)
    with pytest.raises(DegreeCapError):
        eng.add(f)


def _engine_normal_form(module, order, g, f):
    """The normal form of f against the basis [g] under order, read off
    the engine (normal_form itself takes only the module order)."""
    eng = GroebnerEngine(module, order)
    eng.add(g)
    return FreeElement(module, eng.normal_form(f.terms))


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
    assert _engine_normal_form(mod, order, g, mod.inject(y**4)) == mod.inject(-(x**4) * y**3, 1)
    _assert_refused(mod, order, g, mod.inject(x**4 * y**3))
    # u of degree 2 at cap 7: fields of 3 bits, and under the weight
    # (1, 0) u^4 (raw degree 4) reduces by u - x^2 to x^8
    ring = PolyRing(("x", "u"), degree_cap=7, degrees=(1, 2))
    x, u = ring.gens()
    mod = FreeModule(ring, 1)
    order = TermOrder(1, (1, 0))
    g = mod.inject(u - x**2)
    assert _engine_normal_form(mod, order, g, mod.inject(u**3)) == mod.inject(x**6)
    _assert_refused(mod, order, g, mod.inject(u**4))
    with pytest.raises(InhomogeneousError):  # its tail could leave the field too
        GroebnerEngine(mod, order).add(mod.inject(u - x))


def test_engine_over_rank_zero_module():
    """A free module of rank 0 has no twists; its engine still builds a
    layout and an empty basis."""
    mod = FreeModule(PolyRing(("x",)), 0)
    assert GroebnerEngine(mod).reduced_elements() == []


def test_engine_adds_over_an_equal_module_and_refuses_another():
    """add takes an element over its own module object or over an equal,
    distinct FreeModule, and raises for a different ambient."""
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    mod = FreeModule(ring, 2, (0, 1))
    eng = GroebnerEngine(mod)
    eng.add(mod.inject(x * y, 1))
    twin = FreeModule(ring, 2, (0, 1))
    assert twin is not mod and twin == mod
    eng.add(twin.inject(x**2, 0))
    assert set(eng.reduced_elements()) == {mod.inject(x**2, 0), mod.inject(x * y, 1)}
    for other in (FreeModule(ring, 2, (0, 2)), FreeModule(ring, 1)):
        with pytest.raises(EngineBugError, match="different ambient"):
            eng.add(other.inject(y))


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


def test_membership_check_guards_minimal_lift(monkeypatch):
    """The membership self-check runs over the inputs of minimal_lift: the
    modulo elements and every tagged kept generator.  An interreduce that
    drops the first element of the reduced basis drops x + e_1, a kept
    generator, from the lift of (x, y), and x, a modulo element, from the
    lift of y modulo x: both raise EngineBugError, as groebner_basis and
    lift_relations do."""
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    line = FreeModule(ring, 1)
    cases = [([line.inject(x), line.inject(y)], []), ([line.inject(y)], [line.inject(x)])]
    for gens, modulo in cases:
        assert minimal_lift(gens, modulo, line)[0].rank == len(gens)
    real = groebner.interreduce
    monkeypatch.setattr(groebner, "interreduce", lambda *args: real(*args)[1:])
    for gens, modulo in cases:
        with pytest.raises(EngineBugError, match="does not reduce to zero"):
            minimal_lift(gens, modulo, line)
    with pytest.raises(EngineBugError, match="does not reduce to zero"):
        groebner_basis([line.inject(x)], module=line)
    with pytest.raises(EngineBugError, match="does not reduce to zero"):
        lift_relations([line.inject(x)], [], FreeModule(ring, 1, (1,)))
