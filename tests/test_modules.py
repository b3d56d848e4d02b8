"""Submodule calculus: colons, intersections and lifted relations, checked
against monomial combinatorics and against a reference colon that
intersects with f*F and divides f back out (and, for an ideal, intersects
those element colons)."""

import random

import pytest

from homdeg import (
    QQ,
    Algebra,
    FreeElement,
    FreeModule,
    Polynomial,
    PolyRing,
    Presentation,
    PrimeField,
    hdeg,
    koszul_homology_lengths,
)
from homdeg.errors import EngineBugError, InhomogeneousError
from homdeg.groebner import TermOrder, groebner_basis, lift_relations, minimal_lift
from homdeg.kernel import mono_lcm, mono_mul
from homdeg.modules import (
    colon_by_ideal,
    ideal_cache_key,
    intersect_submodules,
    submodule_key,
)


def mono_div(a, b):
    """The exponent tuple of the monomial quotient a / b."""
    return tuple(x - y for x, y in zip(a, b))


def mono_divides(a, b):
    """True if the monomial a divides b."""
    return all(x <= y for x, y in zip(a, b))


def _monomial(ring, m):
    return Polynomial(ring, {tuple(m): ring.field.one})


def _random_mono(rng, n, deg):
    m = [0] * n
    for _ in range(deg):
        m[rng.randrange(n)] += 1
    return tuple(m)


def _random_monomial_ideal(rng, n):
    return [_random_mono(rng, n, rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]


def _key_of_monomials(mod, monos):
    ring = mod.ring
    return submodule_key(groebner_basis([mod.inject(_monomial(ring, m)) for m in monos], module=mod))


def test_monomial_colon_is_lcm_over_f():
    """(J : f) = (lcm(g, f) / f : g in J) for monomials."""
    rng = random.Random(7)
    ring = PolyRing(("x", "y", "z"))
    pres = Algebra(ring).as_module()
    mod = pres.ambient
    for _ in range(60):
        j = _random_monomial_ideal(rng, ring.n)
        f = _random_mono(rng, ring.n, rng.randint(0, 3))
        got = colon_by_ideal(pres, [mod.inject(_monomial(ring, g)) for g in j], [_monomial(ring, f)])
        want = [mono_div(mono_lcm(g, f), f) for g in j]
        assert submodule_key(got) == _key_of_monomials(mod, want), (j, f)
        # the colon comes back as a reduced Groebner basis
        assert got == groebner_basis(got, module=mod)


def test_monomial_intersection_is_lcm():
    """I cap K = (lcm(g, h) : g in I, h in K) for monomials."""
    rng = random.Random(11)
    ring = PolyRing(("x", "y", "z"))
    mod = FreeModule(ring, 1)
    for _ in range(60):
        i_gens = _random_monomial_ideal(rng, ring.n)
        k_gens = _random_monomial_ideal(rng, ring.n)
        got = intersect_submodules(
            [mod.inject(_monomial(ring, g)) for g in i_gens],
            [mod.inject(_monomial(ring, h)) for h in k_gens],
            mod,
        )
        want = [mono_lcm(g, h) for g in i_gens for h in k_gens]
        assert submodule_key(got) == _key_of_monomials(mod, want), (i_gens, k_gens)


# ---- the reference colon: intersect with f*F, then divide by f --------


def _reference_intersect(gens1, gens2, module):
    g1 = [g for g in gens1 if g]
    g2 = [g for g in gens2 if g]
    source = FreeModule(module.ring, len(g1 + g2), [g.homogeneous_degree() for g in g1 + g2])
    out = []
    for s in lift_relations(g1 + g2, [], source):
        el = module.zero()
        for (c, m), v in s.terms.items():
            if c < len(g1):
                el = el + Polynomial(module.ring, {m: v}) * g1[c]
        if el:
            out.append(el)
    return groebner_basis(out, module=module) if out else []


def _term_key(t):
    """A max()-key of the module order, written apart from the engine's:
    higher degree, then grevlex, then the lower component."""
    c, m = t
    return (sum(m), tuple(-e for e in reversed(m)), -c)


def _reference_divide(el, f):
    """el / f for an element of f*F, by repeated division of the lead."""
    module = el.module
    out = {}
    fl = max(f.terms, key=lambda m: _term_key((0, m)))
    flc = f.terms[fl]
    work = dict(el.terms)
    while work:
        c, m = max(work, key=_term_key)
        if not mono_divides(fl, m):
            raise EngineBugError("exact division failed: element not in f*F")
        q = mono_div(m, fl)
        qc = module.ring.field.div(work[(c, m)], flc)
        out[(c, q)] = qc
        for fm, fc in f.terms.items():
            key = (c, mono_mul(q, fm))
            s = work.get(key, 0) - qc * fc
            if s:
                work[key] = s
            else:
                work.pop(key, None)
    return FreeElement(module, out)


def _reference_colon(pres, sub_gens, f):
    module = pres.ambient
    big_n = [g for g in sub_gens if g] + pres.relation_gens()
    f_f = [module.inject(f, i) for i in range(module.rank)]
    out = [_reference_divide(el, f) for el in _reference_intersect(big_n, f_f, module)]
    return groebner_basis(out, module=module) if out else []


def _random_form(rng, ring, deg):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[_random_mono(rng, ring.n, deg)] = ring.field.from_int(rng.choice([-2, -1, 1, 2, 3]))
    return Polynomial(ring, terms)


def _random_element(rng, ring, module, deg):
    el = module.zero()
    for c, t in enumerate(module.twists):
        if deg >= t and rng.random() < 0.7:
            el = el + module.inject(_random_form(rng, ring, deg - t), c)
    return el


def _random_presentation(rng, ring, rank):
    rels = [_random_form(rng, ring, rng.randint(2, 3)) for _ in range(rng.randint(0, 2))]
    algebra = Algebra(ring, rels)
    twists = tuple(sorted(rng.randint(0, 1) for _ in range(rank)))
    ambient = FreeModule(ring, rank, twists)
    cols = [_random_element(rng, ring, ambient, rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
    return Presentation(algebra, ambient, cols)


def test_colon_matches_reference_colon():
    rng = random.Random(1404)
    ring = PolyRing(("x", "y", "z"))
    for rank in (1, 1, 2):
        for _ in range(12):
            pres = _random_presentation(rng, ring, rank)
            sub = [
                _random_element(rng, ring, pres.ambient, rng.randint(1, 3))
                for _ in range(rng.randint(0, 2))
            ]
            f = _random_form(rng, ring, rng.randint(1, 2))
            got = colon_by_ideal(pres, sub, [f])
            assert submodule_key(got) == submodule_key(_reference_colon(pres, sub, f)), (
                pres,
                sub,
                f,
            )


def _redundant_gens(rng, ring, module):
    """Seeded generators of a submodule of module: random elements of
    degree 1-2, then combinations of them with random forms (which lie in
    their span, often only through an S-pair) and a few fresh elements of
    degree 2-3, in a shuffled order."""
    base = [_random_element(rng, ring, module, rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
    gens = [b for b in base if b]
    for _ in range(rng.randint(1, 4)):
        deg = rng.randint(2, 3)
        el = module.zero()
        for b in gens:
            k = deg - b.homogeneous_degree()
            if k >= 0:
                el = el + _random_form(rng, ring, k) * b
        gens.append(el)
    gens += [_random_element(rng, ring, module, rng.randint(2, 3)) for _ in range(rng.randint(0, 2))]
    rng.shuffle(gens)
    return [g for g in gens if g]


def _nakayama_draws(field, seed):
    """Seeded (module, gens, modulo) over k[x,y,z]: rank 1-2, gens with
    redundant members (_redundant_gens), and modulo empty or 1-2 random
    elements."""
    rng = random.Random(seed)
    ring = PolyRing(("x", "y", "z"), field=field)
    for rank in (1, 1, 2, 2):
        for with_modulo in (False, True):
            for _ in range(4):
                twists = tuple(sorted(rng.randint(0, 1) for _ in range(rank)))
                module = FreeModule(ring, rank, twists)
                gens = _redundant_gens(rng, ring, module)
                modulo = []
                if with_modulo:
                    modulo = [
                        _random_element(rng, ring, module, rng.randint(1, 3))
                        for _ in range(rng.randint(1, 2))
                    ]
                if gens:
                    yield module, gens, modulo


FIELDS = pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF(32003)"])


@FIELDS
def test_minimal_lift_meets_graded_nakayama(field):
    """minimal_lift(gens, modulo, F) keeps l(N/mN) of gens, N the submodule
    they span in F/<modulo> (read off N presented on all of gens by
    lift_relations, modulo the variables), kept + modulo spans what gens +
    modulo spans, and source carries the degrees of kept."""
    dropped = 0
    for module, gens, modulo in _nakayama_draws(field, 1906):
        ring = module.ring
        source, kept, _ = minimal_lift(gens, modulo, module)
        assert all(g in gens for g in kept)
        assert source.twists == tuple(g.homogeneous_degree() for g in kept)
        on_all = FreeModule(ring, len(gens), [g.homogeneous_degree() for g in gens])
        sub = Presentation(Algebra(ring), on_all, lift_relations(gens, modulo, on_all))
        assert len(kept) == sub.quotient_by_ideal(ring.gens()).length()
        assert submodule_key(groebner_basis(kept + modulo, module=module)) == submodule_key(
            groebner_basis(gens + modulo, module=module)
        )
        dropped += len(gens) - len(kept)
    assert dropped


@FIELDS
def test_minimal_lift_relations_are_lift_relations_of_kept(field):
    """The relations minimal_lift reads off its one engine are those of a
    separate lift_relations(kept, modulo, source), element for element and
    term for term, each an element of source itself."""
    for module, gens, modulo in _nakayama_draws(field, 2906):
        source, kept, relations = minimal_lift(gens, modulo, module)
        want = lift_relations(kept, modulo, source)
        assert [list(r.terms.items()) for r in relations] == [
            list(r.terms.items()) for r in want
        ], (gens, modulo)
        assert all(r.module is source for r in relations)


@FIELDS
def test_minimal_lift_of_redundant_generators_is_zero(field):
    """Generators that all lie in <modulo> keep none: a rank-0 source, no
    relations, and subquotient gives the zero module."""
    rng = random.Random(3906)
    ring = PolyRing(("x", "y", "z"), field=field)
    for rank in (1, 2):
        module = FreeModule(ring, rank, tuple(range(rank)))
        modulo = [_random_element(rng, ring, module, rng.randint(1, 2)) for _ in range(3)]
        modulo = [m for m in modulo if m]
        gens = [_random_form(rng, ring, 1) * m for m in modulo] + modulo[:1]
        source, kept, relations = minimal_lift(gens, modulo, module)
        assert (source.rank, kept, relations) == (0, [], [])
        sub = Presentation(Algebra(ring), module, modulo).subquotient(gens)
        assert sub.rank == 0 and sub.is_zero()


def test_lift_relations_of_zero_gens_are_units():
    ring = PolyRing(("x", "y"))
    mod = FreeModule(ring, 2)
    rels = lift_relations([mod.zero(), mod.zero()], [], FreeModule(ring, 2))
    assert set(rels) == {FreeModule(ring, 2).basis(i) for i in range(2)}


def test_lift_relations_write_into_source():
    """The relations are elements of the object source itself, on a source
    whose twists exceed the generator degrees by 2, and the unit relation
    of a zero generator keeps the twist source gives it.  A source whose
    twists are not one shift of the degrees gives inhomogeneous
    relations, which the lift refuses."""
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    line = FreeModule(ring, 1)
    gens = [line.inject(x), line.zero(), line.inject(y)]
    source = FreeModule(ring, 3, (3, 5, 3))
    rels = lift_relations(gens, [], source)
    assert all(r.module is source for r in rels)
    koszul = x * source.basis(2) - y * source.basis(0)
    assert submodule_key(rels) == submodule_key([source.basis(1), koszul])
    assert sorted(r.homogeneous_degree() for r in rels) == [4, 5]
    with pytest.raises(InhomogeneousError):
        lift_relations([line.inject(x), line.inject(y**2)], [], FreeModule(ring, 2, (1, 1)))


def _tagged_modulo_lift(gens, modulo):
    """Reference lift that tags every nonzero generator and every modulo
    element: the relations are the basis elements free of F, restricted to
    the tags of gens.  Not a reduced basis in general."""
    ambient = gens[0].module
    ring, r = ambient.ring, ambient.rank
    degs = tuple(g.homogeneous_degree() if g else 0 for g in gens)
    target = FreeModule(ring, len(gens), degs)
    nonzero = [i for i, g in enumerate(gens) if g]
    combined = [gens[i] for i in nonzero] + [m for m in modulo if m]
    out = [target.basis(i) for i, g in enumerate(gens) if not g]
    if not nonzero:
        return out
    tags = tuple(g.homogeneous_degree() for g in combined)
    big = FreeModule(ring, r + len(combined), ambient.twists + tags)
    tagged = [
        FreeElement(big, {**g.terms, (r + i, ring.zero_mono): ring.field.one})
        for i, g in enumerate(combined)
    ]
    top = r + len(nonzero)
    for el in groebner_basis(tagged, module=big, order=TermOrder(r)):
        if any(c < r for c, _ in el.terms):
            continue
        terms = {(nonzero[c - r], m): v for (c, m), v in el.terms.items() if c < top}
        if terms:
            out.append(FreeElement(target, terms))
    return out


def test_lift_relations_is_the_reduced_basis_of_the_tagged_lift():
    """The lift with untagged modulo elements spans what the fully tagged
    lift spans, and comes out as its own reduced basis, term for term and
    in order, so callers need no second Groebner basis."""
    rng = random.Random(4242)
    with_zero = 0
    for field in (QQ, PrimeField(32003)):
        ring = PolyRing(("x", "y", "z"), field=field)
        for rank in (1, 2, 3):
            for _ in range(8):
                twists = tuple(rng.randint(0, 2) for _ in range(rank))
                ambient = FreeModule(ring, rank, twists)

                def draw():
                    return _random_element(rng, ring, ambient, rng.randint(2, 4))

                gens = [draw() for _ in range(rng.randint(1, 4))]
                if rng.random() < 0.3:
                    gens.insert(rng.randrange(len(gens) + 1), ambient.zero())
                modulo = [draw() for _ in range(rng.randint(0, 3))]
                target = FreeModule(
                    ring, len(gens), tuple(g.homogeneous_degree() if g else 0 for g in gens)
                )
                got = lift_relations(gens, modulo, target)
                want = _tagged_modulo_lift(gens, modulo)
                assert submodule_key(got) == submodule_key(
                    groebner_basis(want, module=target)
                ), (gens, modulo)
                gb = groebner_basis(got, module=target)
                assert [list(g.terms.items()) for g in got] == [
                    list(g.terms.items()) for g in gb
                ], (gens, modulo)
                assert all(g.module is target for g in got)
                with_zero += not all(gens)
    assert with_zero == 25


def _element_colon(pres, sub_gens, f):
    """(N :_M f) as the relations of f e_1, ..., f e_r modulo N and the
    relations of M (one element, so no blocks and no twist shifts)."""
    module = pres.ambient
    big_n = [g for g in sub_gens if g] + pres.relation_gens()
    f_f = [module.inject(f, i) for i in range(module.rank)]
    out = lift_relations(f_f, big_n, module)
    return groebner_basis(out, module=module) if out else []


def test_colon_by_ideal_matches_intersected_element_colons():
    """(N :_M (f_1..f_s)) is the intersection of the (N :_M f_k); ideals
    mix a linear form with a quadric, so the blocks of the colon need
    their twist shifts."""
    rng = random.Random(2718)
    mixed = 0
    for field in (QQ, PrimeField(32003)):
        ring = PolyRing(("x", "y", "z"), field=field)
        for rank in (1, 1, 2):
            for _ in range(6):
                pres = _random_presentation(rng, ring, rank)
                sub = [
                    _random_element(rng, ring, pres.ambient, rng.randint(1, 3))
                    for _ in range(rng.randint(0, 2))
                ]
                ideal = [_random_form(rng, ring, 1), _random_form(rng, ring, 2)]
                if rng.random() < 0.5:
                    ideal.append(_random_form(rng, ring, rng.randint(1, 2)))
                mixed += len({f.homogeneous_degree() for f in ideal}) > 1
                want = None
                for f in ideal:
                    part = _element_colon(pres, sub, f)
                    want = part if want is None else _reference_intersect(want, part, pres.ambient)
                got = colon_by_ideal(pres, sub, ideal)
                assert submodule_key(got) == submodule_key(want), (pres, sub, ideal)
                assert got == groebner_basis(got, module=pres.ambient)
    assert mixed == 36


def test_colon_by_zero_ideal_is_all_of_m():
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Presentation(Algebra(ring, [x * y]), FreeModule(ring, 2, (0, 1)), [])
    every = submodule_key([pres.ambient.basis(i) for i in range(2)])
    sub = [pres.ambient.inject(x, 0)]
    assert submodule_key(colon_by_ideal(pres, sub, [])) == every
    assert submodule_key(colon_by_ideal(pres, sub, [ring.zero])) == every


def test_submodule_key_takes_huge_coefficients():
    """A reduced basis with a coefficient past Python's 4300-digit string
    limit still gets a key."""
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    mod = FreeModule(ring, 1)
    big = Polynomial(ring, {(0, 1): ring.field.from_int(10**5000)})
    gb = groebner_basis([mod.inject(x + big)], module=mod)
    assert submodule_key(gb) == submodule_key(groebner_basis(gb, module=mod))
    assert submodule_key(gb) != submodule_key(groebner_basis([mod.inject(x)], module=mod))


def test_ideal_cache_key_takes_huge_coefficients():
    """hdeg (cached under ideal_cache_key) of k[x,y]/(xy) for a generator
    of Q with a coefficient past Python's 4300-digit string limit."""
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [x * y]).as_module()
    big = Polynomial(ring, {(0, 1): ring.field.from_int(10**5000)})
    assert hdeg(pres, [x + big]) == 2
    assert ideal_cache_key("hdeg", [x + big]) != ideal_cache_key("hdeg", [x + y])


def test_ideal_cache_key_is_a_multiset():
    """Order does not matter, repeats do: the Koszul complex of (f, f) is
    not that of (f).  (f, f) is no system of parameters of a module of
    dimension 1, so its Koszul lengths are refused."""
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    f, g = x - y, x * y
    assert ideal_cache_key("k", [f, g]) == ideal_cache_key("k", [g, f])
    assert ideal_cache_key("k", [f, f]) != ideal_cache_key("k", [f])
    assert ideal_cache_key("k", [f, f, g]) != ideal_cache_key("k", [f, g, g])
    assert ideal_cache_key("k", [f]) != ideal_cache_key("h", [f])
    pres = Algebra(ring, [x * y]).as_module()
    assert koszul_homology_lengths(pres, [f]) == [2, 0]
    with pytest.raises(ValueError, match="not a parameter ideal of the module"):
        koszul_homology_lengths(pres, [f, f])
