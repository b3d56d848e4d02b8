"""Homological degree, torsions, m-torsion lengths, and the structural
predicates (generalized CM, unmixed, d-sequence, superficial)."""

import random
from collections import Counter
from itertools import combinations_with_replacement

import pytest

import homdeg.groebner
import homdeg.hilbert
import homdeg.invariants
import homdeg.modules
import homdeg.resolution
from homdeg import (
    QQ,
    Algebra,
    FreeModule,
    Polynomial,
    PolyRing,
    Presentation,
    PrimeField,
    dseq_coefficients,
    h0_length,
    hdeg,
    hilbert_coefficients,
    invariant_report,
    is_d_sequence,
    is_generalized_cm,
    is_superficial,
    is_unmixed,
    stuckrad_vogel,
    torsions,
)
from homdeg.groebner import GroebnerEngine, minimal_lift
from homdeg.invariants import NotDSequenceError, _sub_length
from homdeg.modules import (
    NotParameterIdealError,
    colon_by_ideal,
    intersect_submodules,
    submodule_gb,
    submodule_key,
)
from homdeg.verify import (
    audit_inequalities,
    find_dseq_generators,
    gen_example_39,
    gen_example_46,
)


@pytest.fixture
def low_depth():
    # A = k[x,y]/(x^2, xy): line with an embedded point, depth 0
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [x**2, x * y]).as_module()
    return pres, [y], (x, y)


def test_hdeg_cm_equals_multiplicity():
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [x * y]).as_module()
    assert hdeg(pres, [x - y]) == 2


def test_hdeg_low_depth(low_depth):
    pres, q, _ = low_depth
    # hdeg = e0 + l(H^0) = 1 + 1 in dimension one
    assert hdeg(pres, q) == 2


def test_hdeg_cached_per_ideal(low_depth):
    """hdeg is cached on the presentation under its Q: another Q on the
    same module gets its own value, and the first value stays."""
    pres, q, (x, y) = low_depth
    assert hdeg(pres, q) == 2
    assert hdeg(pres, [y**2]) == 3  # e0 = 2 for Q = (y^2), plus l(H^0) = 1
    assert hdeg(pres, q) == 2


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize(
    "make",
    [
        lambda f: gen_example_39(2, 1, field=f),
        lambda f: gen_example_46(2, field=f),
        lambda f: gen_example_46(3, field=f),
    ],
    ids=["ex39_2_1", "ex46_2", "ex46_3"],
)
def test_each_quantity_computed_once(make, field, monkeypatch):
    """After one invariant_report, a second one and the inequality audit
    read every quantity from the cache: no Groebner basis is computed."""
    inst = make(field)
    invariant_report(inst.pres, inst.q_gens)
    runs = Counter()
    compute = GroebnerEngine.compute

    def counted(eng):
        runs["compute"] += 1
        return compute(eng)

    monkeypatch.setattr(GroebnerEngine, "compute", counted)
    invariant_report(inst.pres, inst.q_gens)
    audit_inequalities(inst)
    assert runs["compute"] == 0


def test_hdeg_finite_length_is_length():
    ring = PolyRing(("x",))
    (x,) = ring.gens()
    pres = Algebra(ring, [x**2]).as_module()
    assert hdeg(pres, [x]) == 2


def test_h0_length(low_depth):
    pres, _, (x, y) = low_depth
    assert h0_length(pres) == 1  # the socle element x


def test_h0_length_positive_depth():
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    assert h0_length(Algebra(ring, [x * y]).as_module()) == 0


def test_torsions_and_sv():
    # two planes meeting at a point in 4-space: Buchsbaum, T^1 = 1
    ring = PolyRing(("x", "y", "z", "w"))
    x, y, z, w = ring.gens()
    pres = Algebra(ring, [x * z, x * w, y * z, y * w]).as_module()
    q = [x - z, y - w]
    assert torsions(pres, q) == (1,)
    assert is_generalized_cm(pres)
    assert stuckrad_vogel(pres, q) == 1
    assert hdeg(pres, q) == 3  # e0 = 2 plus the torsion contribution


@pytest.mark.parametrize("entry", [hdeg, torsions])
@pytest.mark.parametrize("power", [1, 2], ids=["linear", "quadric"])
def test_a_q_that_is_no_ideal_of_definition_is_refused(entry, power):
    """On ex46(2), Q = (x, y) or (x^2, y^2) leaves M/QM = k[z] of
    infinite length.  hdeg refuses it at the Samuel multiplicity of M,
    before any dual takes its e0 in closed form, and torsions refuses it
    too, although each of its terms is the hdeg of a dual."""
    pres = gen_example_46(2).pres
    x, y, _ = pres.ring.gens()
    with pytest.raises(ValueError, match="not an ideal of definition: M/QM has infinite length"):
        entry(pres, [x**power, y**power])


def _pres_and_q(inst, q=None):
    """(M, Q) of a family instance, Q its own or q of the ring's variables."""
    return inst.pres, inst.q_gens if q is None else q(*inst.pres.ring.gens())


@pytest.mark.parametrize(
    "make, one_degree",
    [
        (lambda: _pres_and_q(gen_example_39(2, 1)), True),
        (lambda: _pres_and_q(gen_example_46(2)), True),
        (lambda: _pres_and_q(gen_example_46(2), lambda x, y, z: [(x - y) ** 2, (x - z) ** 2]), True),
        (lambda: _pres_and_q(gen_example_46(3), lambda x, y, z: [(x - y) ** 3, (x - z) ** 3]), True),
        (lambda: _pres_and_q(gen_example_46(2), lambda x, y, z: [x - y, (x - z) ** 2]), False),
    ],
    ids=["ex39_linear", "ex46_linear", "ex46_quadric", "ex46_cubic", "ex46_mixed"],
)
def test_samuel_bases_of_the_report(make, one_degree, monkeypatch):
    """With Q of one degree, invariant_report builds one Samuel basis,
    that of M: every presented dual takes e0 = D^dim e.  With Q of mixed
    degrees, every presented dual builds its own."""
    pres, q = make()
    built, presented = Counter(), set()
    gr_basis, dual_module = homdeg.hilbert._gr_basis, homdeg.invariants.dual_module

    def counted(*args):
        built["samuel"] += 1
        return gr_basis(*args)

    def recorded(m, j):
        presented.add((id(m), j))
        return dual_module(m, j)

    monkeypatch.setattr(homdeg.hilbert, "_gr_basis", counted)
    monkeypatch.setattr(homdeg.invariants, "dual_module", recorded)
    invariant_report(pres, q)
    assert presented
    assert built["samuel"] == (1 if one_degree else 1 + len(presented))


def test_gcm_false_for_mixed_components():
    # plane union line: H^1 not finitely generated
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.gens()
    pres = Algebra(ring, [x * y, x * z]).as_module()
    assert not is_generalized_cm(pres)
    assert stuckrad_vogel(pres) is None


def test_unmixed():
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.gens()
    assert is_unmixed(Algebra(ring, [x * y]).as_module())
    assert not is_unmixed(Algebra(ring, [x * y, x * z]).as_module())
    assert not is_unmixed(Algebra(ring, [x**2, x * y]).as_module())


def test_is_d_sequence_regular():
    ring = PolyRing(("x", "y"))
    pres = Algebra(ring, ()).as_module()
    ok, pair = is_d_sequence(pres, list(ring.gens()))
    assert ok and pair is None


def test_is_d_sequence_failure_pair():
    # (x, y) on k[x,y]/(x^2, xy): (0 : x^2) = (x, y) strictly contains
    # (0 : x) = (x), so the first failing pair is (i, j) = (1, 1)
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [x**2, x * y]).as_module()
    ok, pair = is_d_sequence(pres, [x, y])
    assert not ok
    assert pair == (1, 1)


def test_superficial_yes():
    ring = PolyRing(("x",))
    (x,) = ring.gens()
    pres = Algebra(ring, ()).as_module()
    assert is_superficial(pres, x, [x]) is True


def test_superficial_no():
    # x is not superficial for m on k[x,y]/(xy): (m^{n+1} : x) contains y
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [x * y]).as_module()
    assert is_superficial(pres, x, [x, y]) is False
    assert is_superficial(pres, x - y, [x, y]) is True


def test_superficial_requires_membership():
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, ()).as_module()
    with pytest.raises(ValueError):
        is_superficial(pres, x, [y])


def test_dseq_coefficients_match_fitted(low_depth):
    pres, q, _ = low_depth
    e, details = dseq_coefficients(pres, q)
    assert e.e == hilbert_coefficients(pres, q).e == (1, -1)
    assert details["h0_M"] == 1


def test_dseq_coefficients_rejects_non_dseq():
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [x**2, x * y]).as_module()
    with pytest.raises(NotDSequenceError) as err:
        dseq_coefficients(pres, [x, y])
    assert err.value.pair == (1, 1)


def test_dseq_coefficients_rejects_dimension_zero():
    """At dim M = 0 the contract takes the empty sequence, but there is no
    Samuel polynomial to check the formulas against."""
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [x**2, y**2]).as_module()
    with pytest.raises(ValueError, match="positive dimension"):
        dseq_coefficients(pres, [])


def test_parameter_ideal_must_lie_in_the_ring_of_m():
    """Q over another ring is refused before M/QM is formed, even when
    its exponent tuples have the right length."""
    pres = Algebra(PolyRing(("x", "y")), ()).as_module()
    u, v = PolyRing(("u", "v")).gens()
    with pytest.raises(ValueError, match=r"u lies in QQ\[u, v\], but M lies over QQ\[x, y\]"):
        invariant_report(pres, [u, v])
    assert not any(key[0] == "quotient" for key in pres._cache if isinstance(key, tuple))


@pytest.mark.parametrize("entry", [hilbert_coefficients, hdeg, is_d_sequence])
def test_entry_points_refuse_q_over_another_ring(entry):
    """The direct entry points state the ring clause of the contract too:
    on QQ[x,y]/(xy), a Q over QQ[u, v] is not read as (x - y)."""
    x, y = PolyRing(("x", "y")).gens()
    pres = Algebra(x.ring, [x * y]).as_module()
    u, v = PolyRing(("u", "v")).gens()
    ring_clause = r"lies in QQ\[u, v\], but M lies over QQ\[x, y\]"
    with pytest.raises(NotParameterIdealError, match=ring_clause):
        entry(pres, [u - v])


def test_invariant_report_cm():
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [x * y]).as_module()
    inv = invariant_report(pres, [x - y])
    assert inv.dim == inv.depth == 1
    assert inv.cohen_macaulay
    assert inv.hdeg == inv.e[0] == 2
    assert inv.chi1 == 0
    assert inv.h0_length == 0
    assert inv.sv_invariant == 0


@pytest.mark.parametrize(
    "rels, q, reason",
    [
        (lambda x, y, z: [x * y], lambda x, y, z: [x], "1 generators, but dim M = 2"),
        (lambda x, y, z: [x * y], lambda x, y, z: [x - y, z, y], "3 generators"),
        (lambda x, y, z: [x * y], lambda x, y, z: [x, z], "M/QM has infinite length"),
        (lambda x, y, z: [x * y], lambda x, y, z: [x - y, z + 1], "not a nonzero form"),
        (lambda x, y, z: [x * y], lambda x, y, z: [x - y, x**0], "Q contains a unit"),
        (lambda x, y, z: [x**0], lambda x, y, z: [x - y, z], "M is the zero module"),
    ],
    ids=["short", "long", "not-primary", "inhomogeneous", "unit", "zero-module"],
)
def test_invariant_report_rejects_non_parameter_ideals(rels, q, reason):
    """k[x,y,z]/(xy) has dimension 2: the one contract refuses every Q
    that is no parameter ideal, and the zero module, as a ValueError
    before any invariant is computed."""
    ring = PolyRing(("x", "y", "z"))
    gens = ring.gens()
    pres = Algebra(ring, rels(*gens)).as_module()
    with pytest.raises(ValueError, match=f"not a parameter ideal of the module: .*{reason}"):
        invariant_report(pres, q(*gens))


def test_invariant_report_low_depth(low_depth):
    pres, q, _ = low_depth
    inv = invariant_report(pres, q)
    assert inv.dim == 1 and inv.depth == 0
    assert not inv.cohen_macaulay
    assert inv.e.e == (1, -1)
    assert inv.hdeg == 2
    assert inv.chi1 == 1
    assert inv.generalized_cm
    assert not inv.unmixed


# ---- exact superficiality against the windowed test ---------------------


def _power_gens(pres, ideal_gens):
    """k -> generators of I^k M in the ambient of M, with the powers of I
    built by hand and pruned to minimal generators."""
    one_mod = FreeModule(pres.ring, 1)
    powers = {1: list(ideal_gens)}

    def power_gens(k):
        while max(powers) < k:
            top = max(powers)
            nxt, seen = [], set()
            for p in powers[top]:
                for g in ideal_gens:
                    q = p * g
                    if q and q not in seen:
                        seen.add(q)
                        nxt.append(q)
            kept = minimal_lift([one_mod.inject(q) for q in nxt], (), one_mod)[1]
            powers[top + 1] = [e.component(0) for e in kept]
        return pres.ideal_times_ambient(powers[k])

    return power_gens


def _equality_fails(pres, a, power_gens, c, n):
    """True iff (I^(n+1) M : a) cap I^c M differs from I^n M."""
    lhs = intersect_submodules(
        colon_by_ideal(pres, power_gens(n + 1), [a]),
        submodule_gb(pres, power_gens(c)),
        pres.ambient,
    )
    return submodule_key(lhs) != submodule_key(submodule_gb(pres, power_gens(n)))


def _windowed_superficial(pres, a, ideal_gens, c_range=(1, 4), window=4, cap=12):
    """Oracle: the sampled definition.  Look for c with
    (I^(n+1) M : a) cap I^c M = I^n M for n = c .. c + window.  Returns
    "yes", "no", or "indeterminate" when the cap forecloses every window.
    Neither answer is a proof: a failure past the window is missed."""
    power_gens = _power_gens(pres, [g for g in ideal_gens if g])
    saw_violation = tested_any = False
    for c in range(c_range[0], c_range[1] + 1):
        if c + window > cap:
            break
        ok = True
        for n in range(c, c + window + 1):
            if _equality_fails(pres, a, power_gens, c, n):
                ok = False
                saw_violation = True
                break
        tested_any = True
        if ok:
            return "yes"
    return "no" if tested_any and saw_violation else "indeterminate"


def _fails_past_the_window(pres, a, ideal_gens):
    """True iff for some n in 5..8 an element of I^(n-1) M outside I^n M
    is carried by a into I^(n+1) M: the equality then fails at n for every
    c < n, so no c <= 4 of the windowed test holds for all n >= c."""
    power_gens = _power_gens(pres, [g for g in ideal_gens if g])
    return any(_equality_fails(pres, a, power_gens, n - 1, n) for n in range(5, 9))


def _mono(rng, deg):
    m = [0] * 3
    for _ in range(deg):
        m[rng.randrange(3)] += 1
    return tuple(m)


def _form(ring, rng, deg):
    """A random form of degree deg in k[x,y,z] (zero if it cancels)."""
    terms = {
        _mono(rng, deg): ring.field.from_int(rng.randint(-2, 2))
        for _ in range(rng.randint(1, 3))
    }
    return Polynomial(ring, {m: c for m, c in terms.items() if c})


def _combination(ring, rng, gens):
    return sum((g.scale(ring.field.from_int(rng.randint(-2, 2))) for g in gens), ring.zero)


def _module_draw(rng):
    """A monomial quotient of k[x,y,z] or a rank-2 twisted cokernel, over
    QQ or GF(32003)."""
    ring = PolyRing(("x", "y", "z"), field=rng.choice((QQ, PrimeField(32003))))
    if rng.random() < 0.6:
        j = [
            Polynomial(ring, {_mono(rng, rng.randint(2, 3)): ring.field.one})
            for _ in range(rng.randint(1, 3))
        ]
        return Algebra(ring, j).as_module()
    twists = (0, rng.choice((1, 2)))
    ambient = FreeModule(ring, 2, twists)
    cols = []
    for _ in range(rng.randint(2, 3)):
        deg = twists[1] + rng.randint(0, 2)
        cols.append(
            ambient.inject(_form(ring, rng, deg), 0)
            + ambient.inject(_form(ring, rng, deg - twists[1]), 1)
        )
    return Presentation(Algebra(ring, ()), ambient, cols)


def _superficial_draw(rng):
    """(M, a, I, kind) with I an ideal of definition of M and a in I, or
    None.  M is a monomial quotient of k[x,y,z] or a rank-2 twisted
    cokernel; I is linear, quadric or mixed; a is a generator of I (often
    a zero-divisor, so not superficial) or a combination of generators."""
    pres = _module_draw(rng)
    ring = pres.ring
    x, y, z = ring.gens()
    kind = rng.choice(("linear", "quadric", "mixed"))
    if kind == "linear":
        ideal = [x, y, z]
    elif kind == "quadric":
        ideal = [x * x, y * y, z * z]
    else:
        ideal = [x, y * y, z * z]
    if kind == "mixed" and rng.random() < 0.5:
        a = ideal[1] - ideal[2] + x * rng.choice((x, y, z))
    elif rng.random() < 0.5:
        a = rng.choice(ideal)
    else:
        a = _combination(ring, rng, ideal if kind != "mixed" else ideal[1:])
    if not a or pres.is_zero() or pres.quotient_by_ideal(ideal).length() is None:
        return None
    return pres, a, ideal, kind


def test_superficial_matches_windowed_oracle():
    """The exact test agrees with the windowed one on 40 seeded draws over
    QQ and GF(32003), monomial quotients and rank-2 twisted cokernels,
    linear, quadric and mixed I, with both answers well represented."""
    rng = random.Random(20140913)
    answers = Counter()
    shapes = set()
    late_failures = 0
    while sum(answers.values()) < 40:
        draw = _superficial_draw(rng)
        if draw is None:
            continue
        pres, a, ideal, kind = draw
        expected = _windowed_superficial(pres, a, ideal)
        if expected == "indeterminate":
            continue
        got = is_superficial(pres, a, ideal)
        if got is not (expected == "yes"):
            # a window's "yes" can miss a failure at a larger n
            assert expected == "yes" and _fails_past_the_window(pres, a, ideal)
            late_failures += 1
        answers[got] += 1
        shapes.add((pres.rank, kind, pres.ring.field))
    assert answers[False] >= 10 and answers[True] >= 10
    assert late_failures <= 2
    assert {rank for rank, _, _ in shapes} == {1, 2}
    assert {kind for _, kind, _ in shapes} == {"linear", "quadric", "mixed"}
    assert len({field for _, _, field in shapes}) == 2


def test_superficial_element_of_the_square():
    """a in I^2 has a* = 0, so (0 :_G a*) = G: not superficial when
    dim M >= 1, superficial when M has finite length."""
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    line = Algebra(ring, [x * y]).as_module()
    assert is_superficial(line, x * x, [x, y]) is False
    assert is_superficial(line, x * x - y * y, [x, y]) is False
    point = Algebra(ring, [x**2, y**3]).as_module()
    assert point.dim() == 0
    assert is_superficial(point, x * y, [x, y]) is True


def test_superficial_nonlinear_ideal():
    # on k[x,y]/(xy) under I = (x^2, y^2): x^2 kills y^2, x^2 - y^2 does not
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [x * y]).as_module()
    assert is_superficial(pres, x * x, [x * x, y * y]) is False
    assert is_superficial(pres, x * x - y * y, [x * x, y * y]) is True


def test_superficial_rejects_element_outside_ideal():
    # y is not in I + J = (x, y^2), though I is an ideal of definition
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, ()).as_module()
    with pytest.raises(ValueError, match="does not lie"):
        is_superficial(pres, y, [x, y * y])
    assert is_superficial(pres, y * y, [x, y * y]) is True


def test_superficial_needs_ideal_of_definition():
    # k[x,y] / (x) k[x,y] = k[y] has infinite length
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, ()).as_module()
    with pytest.raises(ValueError, match="infinite length"):
        is_superficial(pres, x, [x])


def test_superficial_rejects_zero():
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [x * y]).as_module()
    with pytest.raises(ValueError, match="zero element"):
        is_superficial(pres, ring.zero, [x, y])


# ---- the d-sequence layer against the colon modules it no longer builds --


def _colon_is_d_sequence(pres, seq):
    """Oracle: the colon test with both colons presented as modules and
    compared by their reduced bases."""
    d = len(seq)
    for i in range(1, d + 1):
        prefix = pres.ideal_times_ambient(seq[: i - 1])
        for j in range(i, d + 1):
            lhs = colon_by_ideal(pres, prefix, [seq[i - 1] * seq[j - 1]])
            rhs = colon_by_ideal(pres, prefix, [seq[j - 1]])
            if submodule_key(lhs) != submodule_key(rhs):
                return False, (i, j)
    return True, None


def _generic_form(ring, rng, deg):
    """A form of degree deg in k[x,y,z] with a coefficient in {-1, 0, 1, 2}
    on every monomial (zero if all of them are 0)."""
    terms = {}
    for vars_ in combinations_with_replacement(range(3), deg):
        c = rng.choice((-1, 0, 1, 2))
        if c:
            terms[tuple(vars_.count(v) for v in range(3))] = ring.field.from_int(c)
    return Polynomial(ring, terms)


SEQUENCE_DEGREES = {"linear": (1, 1, 1), "quadric": (2, 2, 2), "mixed": (1, 2, 2)}


def test_is_d_sequence_matches_colon_oracle():
    """The Hilbert-series test returns the colon test's (ok, pair) on
    seeded draws over QQ and GF(32003): monomial quotients and rank-2
    twisted cokernels, linear, quadric and mixed sequences of length 1-3,
    and a sequence with a zero element; both answers, and failures at
    i = j and at i < j, are well represented."""
    rng = random.Random(20141015)
    outcomes = Counter()
    shapes = set()
    while sum(outcomes.values()) < 60:
        pres = _module_draw(rng)
        kind = rng.choice(sorted(SEQUENCE_DEGREES))
        degs = SEQUENCE_DEGREES[kind][: rng.randint(1, 3)]
        seq = [_form(pres.ring, rng, deg) for deg in degs]
        if pres.is_zero() or not all(seq):
            continue
        expected = _colon_is_d_sequence(pres, seq)
        assert is_d_sequence(pres, seq) == expected, (pres, seq)
        ok, pair = expected
        outcomes["pass" if ok else "i = j" if pair[0] == pair[1] else "i < j"] += 1
        shapes.add((pres.rank, kind, pres.ring.field))
    assert outcomes["pass"] >= 10 and outcomes["i = j"] + outcomes["i < j"] >= 10
    assert outcomes["i = j"] >= 3 and outcomes["i < j"] >= 3
    assert {rank for rank, _, _ in shapes} == {1, 2}
    assert {kind for _, kind, _ in shapes} == set(SEQUENCE_DEGREES)
    assert len({field for _, _, field in shapes}) == 2

    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.gens()
    pres = Algebra(ring, [x * y, x * z]).as_module()
    for seq in ([x - y, ring.zero, z], [ring.zero, y, z], [y, z, ring.zero]):
        assert is_d_sequence(pres, seq) == _colon_is_d_sequence(pres, seq), seq


def _is_regular(pres, prefix, a):
    """a is a nonzerodivisor on M/(prefix)M: (N : a) = N for N the
    relations of that quotient, compared by reduced bases."""
    colon = colon_by_ideal(pres, pres.ideal_times_ambient(prefix), [a])
    return submodule_key(colon) == submodule_key(pres.quotient_by_ideal(prefix).gb())


def _random_small_draw(rng):
    """A monomial quotient k[x,y,z]/J of dimension 1 or 2 with a linear Q
    of small integer coefficients that is a parameter ideal, or None."""
    ring = PolyRing(("x", "y", "z"))
    j = [
        Polynomial(ring, {_mono(rng, rng.randint(2, 3)): ring.field.one})
        for _ in range(rng.randint(1, 4))
    ]
    pres = Algebra(ring, j).as_module()
    d = pres.dim()
    if d not in (1, 2):
        return None
    q = [_combination(ring, rng, ring.gens()) for _ in range(d)]
    if not all(q) or pres.quotient_by_ideal(q).length() is None:
        return None
    return pres, q


def test_regular_rows_match_the_pair_loop(ex39_family, ex46_family, low_depth, pair_loop_oracle):
    """is_d_sequence, which skips every pair (i, j) of a regular a_i,
    returns the full pair loop's (ok, pair): on ex39(2,1) with its given Q,
    where a_1 is regular, a_2 is not and (2, 3) fails; on the candidate the
    search accepts there; on ex46 l=1..3; on a depth-0 module; and on a
    dozen random-small-style draws, regular and zero-divisor a_1 alike."""
    inst = ex39_family[(2, 1)]
    pres, q = inst.pres, inst.q_gens
    assert _is_regular(pres, [], q[0]) and not _is_regular(pres, q[:1], q[1])
    dense = find_dseq_generators(pres, q, metadata=inst.metadata)
    cases = [(pres, q), (pres, dense)]
    cases += [(ex46_family[l].pres, ex46_family[l].q_gens) for l in (1, 2, 3)]
    cases.append(low_depth[:2])
    rng = random.Random(20141022)
    draws = []
    while len(draws) < 12:
        draw = _random_small_draw(rng)
        if draw is not None:
            draws.append(draw)
    verdicts = [is_d_sequence(p, s) for p, s in cases + draws]
    assert verdicts == [pair_loop_oracle(p, s) for p, s in cases + draws]
    assert verdicts[:2] == [(False, (2, 3)), (True, None)]
    assert not _is_regular(*low_depth[:2], low_depth[1][0])
    first_regular = {_is_regular(p, [], s[0]) for p, s in draws}
    assert first_regular == {True, False}


def test_regular_sequence_builds_only_the_quotient_chain(monkeypatch):
    """On k[x,y,z] with Q = (x, y, z) every a_i is regular on M/Q_{i-1}M,
    so is_d_sequence builds no product presentation and no Groebner engine
    beyond those of the quotients M/Q_kM."""
    engines, products = Counter(), Counter()
    init = GroebnerEngine.__init__

    def counted_init(self, *args, **kwargs):
        engines["built"] += 1
        init(self, *args, **kwargs)

    def counted_presentation(*args, **kwargs):
        products["built"] += 1
        return Presentation(*args, **kwargs)

    monkeypatch.setattr(GroebnerEngine, "__init__", counted_init)
    monkeypatch.setattr(homdeg.invariants, "Presentation", counted_presentation)

    ring = PolyRing(("x", "y", "z"))
    seq = list(ring.gens())
    chain = Algebra(ring, ()).as_module()
    for k in range(len(seq) + 1):
        chain.quotient_by_ideal(seq[:k]).hilbert_numerator()
    chain_engines = engines.pop("built")
    assert chain_engines > 0

    pres = Algebra(ring, ()).as_module()
    assert is_d_sequence(pres, seq) == (True, None)
    assert engines["built"] == chain_engines
    assert products["built"] == 0


def test_colon_correction_matches_colon_oracle():
    """On d-sequences that are systems of parameters, the colon correction
    of dseq_coefficients is l((Q_{d-1}M : a_d)/Q_{d-1}M) computed from the
    colon module."""
    rng = random.Random(20141016)
    corrections = []
    while len(corrections) < 15:
        pres = _module_draw(rng)
        d = pres.dim()
        kind = rng.choice(sorted(SEQUENCE_DEGREES))
        if d < 1:
            continue
        seq = [_generic_form(pres.ring, rng, deg) for deg in SEQUENCE_DEGREES[kind][:d]]
        if not all(seq) or pres.quotient_by_ideal(seq).length() is None:
            continue
        if not is_d_sequence(pres, seq)[0]:
            continue
        _, details = dseq_coefficients(pres, seq)
        colon = colon_by_ideal(pres, pres.ideal_times_ambient(seq[: d - 1]), [seq[d - 1]])
        expected = _sub_length(pres.quotient_by_ideal(seq[: d - 1]), colon)
        assert details["l_colon_correction"] == expected, (pres, seq)
        corrections.append(expected)
    assert sum(c > 0 for c in corrections) >= 2


@pytest.mark.parametrize(
    "make",
    [lambda: gen_example_39(2, 1), lambda: gen_example_46(3)],
    ids=["ex39_2_1", "ex46_3"],
)
def test_dseq_layer_presents_no_colon(make, monkeypatch):
    """The d-sequence search, is_d_sequence and the colon correction of
    dseq_coefficients run no lift_relations, so no colon module is
    presented.  The m-torsion lengths dseq_coefficients also reads come
    from saturations, which do lift; they are computed first."""
    inst = make()
    pres, q = inst.pres, inst.q_gens
    gens = find_dseq_generators(pres, q, metadata=inst.metadata)
    if gens is not None:
        for k in range(len(gens)):
            h0_length(pres.quotient_by_ideal(gens[:k]))
    lifts = Counter()
    for mod in (homdeg.modules, homdeg.resolution, homdeg.groebner):
        lift = mod.lift_relations

        def counted(*args, _lift=lift, **kwargs):
            lifts["lift_relations"] += 1
            return _lift(*args, **kwargs)

        monkeypatch.setattr(mod, "lift_relations", counted)
    assert find_dseq_generators(pres, q, metadata=inst.metadata) == gens
    assert not is_d_sequence(pres, q)[0]
    if gens is not None:
        assert is_d_sequence(pres, gens) == (True, None)
        _, details = dseq_coefficients(pres, gens)
        assert "l_colon_correction" in details
    assert lifts["lift_relations"] == 0


def test_associated_graded_of_algebra_builds_one_basis(monkeypatch):
    """On M = A the weighted basis of M also reduces a: is_superficial
    runs one GroebnerEngine.compute fewer than on A with a redundant
    column, whose A-basis is built separately."""
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    algebra = Algebra(ring, [x * y])
    runs = Counter()
    compute = GroebnerEngine.compute

    def counted(eng):
        runs[current] += 1
        return compute(eng)

    monkeypatch.setattr(GroebnerEngine, "compute", counted)
    line = FreeModule(ring, 1)
    redundant = Presentation(algebra, line, [line.inject(x * y)])
    for current, pres in (("algebra", algebra.as_module()), ("redundant", redundant)):
        assert is_superficial(pres, x - y, [x, y]) is True
        assert is_superficial(pres, x, [x, y]) is False
    assert runs["algebra"] == runs["redundant"] - 2
