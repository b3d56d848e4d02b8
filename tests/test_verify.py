"""Theorem checkers, benchmark families, and the inequality audit."""

import random

import pytest

from homdeg import QQ, Algebra, FreeModule, Polynomial, PolyRing, Presentation, PrimeField
from homdeg.errors import EngineBugError
from homdeg.groebner import normal_form
from homdeg import invariants
from homdeg.invariants import h0_torsion_gens, invariant_report
from homdeg.modules import intersect_submodules
from homdeg.verify import (
    ProblemInstance,
    _qm_meets_h0,
    audit_inequalities,
    check_thm1,
    check_thm2,
    find_dseq_generators,
    gen_example_39,
    gen_example_46,
)


def test_family_46_smallest(ex46_family):
    inst = ex46_family[1]
    assert inst.pres.dim() == 2
    v = check_thm2(inst)
    assert not v.unmixed  # the family is mixed by construction
    assert v.condition1 and v.condition2
    assert v.equivalence_consistent


def test_family_46_separates_conditions(ex46_family):
    # for l >= 2 condition (2) holds but condition (1) fails: the theorem's
    # unmixedness hypothesis cannot be dropped
    v = check_thm2(ex46_family[2])
    assert v.condition2 and not v.condition1
    assert not v.unmixed
    assert v.equivalence_consistent  # no claim is made on mixed modules


def test_family_39_smallest(ex39_family):
    inst = ex39_family[(2, 1)]
    assert inst.pres.dim() == 3
    v1 = check_thm1(inst)
    assert v1.condition1
    assert all(v1.condition2a) and v1.condition2b
    assert v1.equivalence_consistent
    assert v1.consequences["d_sequence"] != "unverified"
    assert v1.consequences["qm_cap_h0_zero"]
    assert v1.consequences["q_kills_hi"]


def test_checks_read_the_one_cached_report(corpus, monkeypatch):
    """invariant_report is cached on the module and keyed by Q (up to
    order), and thm1, thm2 and the audit take every number from it: with
    the report cached and its computation disabled, they still run, and
    their numbers are the report's."""
    reports = []
    for inst in corpus:
        inv = invariant_report(inst.pres, inst.q_gens)
        assert invariant_report(inst.pres, inst.q_gens) is inv
        assert invariant_report(inst.pres, inst.q_gens[::-1]) is inv
        reports.append(inv)

    def recompute(*_):
        raise AssertionError("the invariant report was computed twice")

    monkeypatch.setattr(invariants, "_invariant_report", recompute)
    for inst, inv in zip(corpus, reports):
        d, e, t = inv.dim, inv.e, inv.torsions
        audit = audit_inequalities(inst)
        assert (audit["chi1"], audit["hdeg"], audit["e"], audit["torsions"]) == (
            inv.chi1,
            inv.hdeg,
            e.e,
            t,
        ), inst.name
        cond1 = inv.chi1 == inv.hdeg - e[0]
        if d >= 1:
            v = check_thm1(inst)
            per_i = [(-1) ** i * e[i] == t[i - 1] for i in range(1, d)]
            per_i.append((-1) ** d * e[d] == inv.h0_length)
            assert v.condition1 == cond1, inst.name
            assert v.condition2a == tuple(per_i), inst.name
            assert v.condition2b == (e.postulation == 0), inst.name
        if d >= 2:
            v = check_thm2(inst)
            assert (v.condition1, v.condition2, v.unmixed) == (
                cond1,
                e[1] == -t[0],
                inv.unmixed,
            ), inst.name


def test_reports_compare_no_two_distinct_free_modules(monkeypatch):
    """Every relation is written into the free module object its caller
    owns, so invariant_report and check_thm1 never compare two distinct
    FreeModule objects: on ex39(2,1) and on a rank-2 module over
    k[x,y,z]/(xz)."""
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.gens()
    ambient = FreeModule(ring, 2, (0, 1))
    cols = [ambient.inject(y**2, 0) + ambient.inject(x - z, 1), ambient.inject(x * y, 1)]
    rank_two = Presentation(Algebra(ring, [x * z]), ambient, cols)
    distinct = []
    eq = FreeModule.__eq__

    def counted(self, other):
        if self is not other:
            distinct.append((self, other))
        return eq(self, other)

    monkeypatch.setattr(FreeModule, "__eq__", counted)
    for inst in (gen_example_39(2, 1), ProblemInstance(rank_two, [x - y, x + z])):
        invariant_report(inst.pres, inst.q_gens)
        check_thm1(inst)
    assert not distinct


def test_family_generators_validate():
    with pytest.raises(ValueError):
        gen_example_39(1, 1)
    with pytest.raises(ValueError):
        gen_example_46(0)


def test_find_dseq_generators_deterministic(ex46_family):
    inst = ex46_family[1]
    a = find_dseq_generators(inst.pres, inst.q_gens, seed=7, metadata=inst.metadata)
    b = find_dseq_generators(inst.pres, inst.q_gens, seed=7, metadata=inst.metadata)
    assert a == b


def test_audit_passes_on_families(ex46_family):
    for inst in ex46_family.values():
        report = audit_inequalities(inst)
        assert report["chi1"] >= 0
        assert report["e"][1] <= 0


def test_audit_corpus_no_violations(corpus):
    for inst in corpus:
        audit_inequalities(inst)  # EngineBugError on any violation


def test_thm1_requires_positive_dimension():
    from homdeg import Algebra, PolyRing
    from homdeg.verify import ProblemInstance

    ring = PolyRing(("x",))
    (x,) = ring.gens()
    pres = Algebra(ring, [x]).as_module()
    with pytest.raises(ValueError):
        check_thm1(ProblemInstance(pres, [x]))


def _qm_meets_h0_by_intersection(pres, q_gens):
    """Oracle: QM cap H^0(M) = 0, by intersecting QF + N with the
    m-saturation of N and reducing the result modulo N."""
    qm = pres.ideal_times_ambient(q_gens) + pres.relation_gens()
    inter = intersect_submodules(qm, h0_torsion_gens(pres), pres.ambient)
    gb = pres.gb()
    return all(not normal_form(el, gb) for el in inter)


def _random_monomial_quotient_with_q(rng):
    """k[x,y,z]/J for 2-4 random monomials over QQ or GF(32003), with dim M
    random forms of degree 1 or 2 generating an ideal of definition; None
    if the draw has none."""
    ring = PolyRing(("x", "y", "z"), field=rng.choice((QQ, PrimeField(32003))))

    def mono(deg):
        m = [0] * 3
        for _ in range(deg):
            m[rng.randrange(3)] += 1
        return tuple(m)

    j = [Polynomial(ring, {mono(rng.randint(1, 3)): ring.field.one})
         for _ in range(rng.randint(2, 4))]
    pres = Algebra(ring, j).as_module()
    s = pres.dim()
    if s < 1:
        return None
    q = []
    for _ in range(s):
        deg = rng.choice((1, 1, 2))
        terms = {mono(deg): ring.field.from_int(rng.randint(-2, 2))
                 for _ in range(rng.randint(1, 3))}
        q.append(Polynomial(ring, {m: c for m, c in terms.items() if c}))
    if any(not g for g in q) or pres.quotient_by_ideal(q).length() is None:
        return None
    return pres, q


def test_qm_meets_h0_matches_intersection():
    """The length identity l(H^0) = l((sat + QF)/(N + QF)) against the
    intersection on 60 seeded draws and one module where QM meets H^0:
    H^0 of k[x,y,z]/(z^2, xz, y^2 z) is (z), and yz lies in (x, y)M."""
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.gens()
    pres = Algebra(ring, [z**2, x * z, y**2 * z]).as_module()
    assert not _qm_meets_h0(pres, [x, y])
    assert not _qm_meets_h0_by_intersection(pres, [x, y])
    rng = random.Random(1404)
    drawn = meets = 0
    while drawn < 60:
        draw = _random_monomial_quotient_with_q(rng)
        if draw is None:
            continue
        drawn += 1
        got = _qm_meets_h0(*draw)
        assert got == _qm_meets_h0_by_intersection(*draw), draw
        meets += not got
    assert meets >= 1


def test_find_dseq_generators_mixes_only_equal_degrees(monkeypatch):
    """ex46 l = 3 under Q = (x - y, (x - z)^2) has no d-sequence
    generators: the search tries both block orders, of the given
    generators and of random draws, and every candidate is homogeneous
    and keeps the degrees."""
    from homdeg import verify

    seen = []
    test = verify.is_d_sequence

    def recording(pres, seq):
        assert all(g.is_homogeneous() for g in seq)
        seen.append([g.degree() for g in seq])
        return test(pres, seq)

    monkeypatch.setattr(verify, "is_d_sequence", recording)
    inst = gen_example_46(3)
    x, y, z = inst.pres.ring.gens()
    assert find_dseq_generators(inst.pres, [x - y, (x - z) ** 2], trials=3) is None
    assert seen[:2] == [[1, 2], [2, 1]]
    assert len(seen) > 2 and seen[2:4] == [[1, 2], [2, 1]]
