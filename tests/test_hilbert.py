"""Hilbert series, Samuel functions, and the Samuel polynomial, exact for
every homogeneous Q, checked against brute-force lengths l(M / Q^(n+1) M)
from pruned powers of Q."""

import random
from math import comb

import pytest

from homdeg import (
    Algebra,
    FreeModule,
    Polynomial,
    PolyRing,
    PrimeField,
    Presentation,
    QQ,
    hilbert_coefficients,
    local_cohomology_duals,
    multiplicity,
)
from homdeg.errors import DegreeCapError, InhomogeneousError
from homdeg.hilbert import exact_coefficients
from homdeg.groebner import minimal_lift
from homdeg.verify import gen_example_46


def test_series_hypersurface():
    # k[x,y]/(xy): series (1 - t^2)/(1-t)^2 = (1 + t)/(1 - t)
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [x * y]).as_module()
    num, n = pres.hilbert_series()
    assert n == 2
    assert num == {0: 1, 2: -1}


def test_series_finite_length():
    ring = PolyRing(("y",))
    (y,) = ring.gens()
    pres = Algebra(ring, [y**3]).as_module()
    assert pres.length() == 3  # 1, y, y^2
    assert pres.dim() == 0


def test_samuel_function_polynomial_ring():
    # l(S/m^{n+1}) = C(n+3, 3) in three variables
    ring = PolyRing(("x", "y", "z"))
    pres = Algebra(ring, ()).as_module()
    e = hilbert_coefficients(pres, list(ring.gens()))
    for n in range(10):
        assert e.value_at(n) == comb(n + 3, 3)
    assert e.samples == tuple(comb(n + 3, 3) for n in range(len(e.samples)))


def test_samuel_function_nonlinear_generators():
    # Q = (x^2, y): l(S/Q^{n+1}) grows like 2(n+1) in two variables
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, ()).as_module()
    e = hilbert_coefficients(pres, [x**2, y])
    # S/(x^2, y) has length 2; S is free of rank 2 over k[x^2, y]
    assert e.samples[0] == 2
    assert e.e == (2, 0, 0)  # l(S/Q^(n+1)) = 2 C(n+2, 2)
    assert e.postulation == 0
    _agree(pres, [x**2, y])


def test_coefficients_polynomial_ring():
    ring = PolyRing(("x", "y"))
    pres = Algebra(ring, ()).as_module()
    e = hilbert_coefficients(pres, list(ring.gens()))
    assert e.s == 2
    assert e.e == (1, 0, 0)
    assert e.postulation == 0
    assert multiplicity(pres, list(ring.gens())) == 1


def test_coefficients_low_depth():
    # A = k[x,y]/(x^2, xy), Q = (y): e = (1, -1), exact from n = 0
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [x**2, x * y]).as_module()
    e = hilbert_coefficients(pres, [y])
    assert e.e == (1, -1)
    assert e.value_at(4) == e.samples[4]


def test_coefficients_multiplicity_two():
    # A = k[x,y]/(xy), Q = (x - y): l(A/Q^{n+1}) = 2(n+1)
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [x * y]).as_module()
    e = hilbert_coefficients(pres, [x - y])
    assert e.e == (2, 0)
    assert e.postulation == 0


def test_coefficients_dim_zero():
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [x**2, x * y, y**2]).as_module()
    e = hilbert_coefficients(pres, [x, y])
    assert e.s == 0
    assert e.e == (3,)


def test_samuel_values_match_koszul_h0():
    # l(M/QM) from the Samuel table equals l(H_0) of the Koszul complex
    from homdeg import koszul_homology_lengths

    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.gens()
    pres = Algebra(ring, [x * y, x * z]).as_module()
    for q in ([x - y, z], [(x - y) ** 2, z]):
        e = hilbert_coefficients(pres, q)
        assert e.samples[0] == koszul_homology_lengths(pres, q)[0]


# ---- the exact route against brute-force lengths ------------------------


def _pruned_samuel_values(pres, q, count):
    """Oracle: l(M / Q^(n+1) M) for n < count, each power of Q built from
    the previous one and pruned to minimal generators."""
    line = FreeModule(pres.ring, 1)
    power = [e.component(0) for e in minimal_lift([line.inject(g) for g in q], (), line)[1]]
    out = []
    for _ in range(count):
        out.append(pres.quotient_by_ideal(power).length())
        products = [line.inject(p * g) for p in power for g in q]
        power = [e.component(0) for e in minimal_lift(products, (), line)[1]]
    return out


def _agree(pres, q):
    """hilbert_coefficients against the brute-force lengths: every value of
    its table, and the polynomial from the postulation number on (s + 1
    values pin e), but not just below it."""
    exact = hilbert_coefficients(pres, q)
    assert exact == exact_coefficients(pres, q)
    brute = _pruned_samuel_values(pres, q, len(exact.samples))
    assert list(exact.samples) == brute
    post = exact.postulation
    assert len(brute) >= post + exact.s + 1
    for n in range(post, len(brute)):
        assert exact.value_at(n) == brute[n]
    if post:
        assert exact.value_at(post - 1) != brute[post - 1]
    return exact


def test_exact_route_matches_sampled_oracle(corpus):
    """The 21 corpus instances, their 32 nonzero local-cohomology duals and
    ex46 l = 4..6: the weighted-basis Samuel polynomial equals the fit."""
    cases = []
    for inst in corpus:
        cases.append((inst.name, inst.pres, inst.q_gens))
        for j, dual in enumerate(local_cohomology_duals(inst.pres)):
            if not dual.is_zero():
                cases.append((f"{inst.name} M_{j}", dual, inst.q_gens))
    for l in (4, 5, 6):
        inst = gen_example_46(l)
        cases.append((inst.name, inst.pres, inst.q_gens))
    assert len(cases) == 56
    for name, pres, q in cases:
        try:
            _agree(pres, q)
        except AssertionError as exc:
            raise AssertionError(name) from exc


def _form(ring, rng, deg):
    """A random form of k[x,y,z] of degree deg: up to three terms with
    small integer coefficients (zero if they all cancel)."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        a = rng.randint(0, deg)
        b = rng.randint(0, deg - a)
        terms[(a, b, deg - a - b)] = ring.field.from_int(rng.randint(-3, 3))
    return Polynomial(ring, {m: c for m, c in terms.items() if c})


def _twisted_rank2_module(rng, ring):
    """A random rank-2 cokernel over k[x,y,z] with twists (0,1) or (0,2)."""
    twists = (0, rng.choice((1, 2)))
    ambient = FreeModule(ring, 2, twists)
    cols = []
    for _ in range(rng.randint(2, 3)):
        deg = twists[1] + rng.randint(0, 2)
        col = ambient.inject(_form(ring, rng, deg), 0) + ambient.inject(
            _form(ring, rng, deg - twists[1]), 1
        )
        if col:
            cols.append(col)
    return Presentation(Algebra(ring, ()), ambient, cols)


def _twisted_rank2_draw(rng):
    """A random rank-2 cokernel with a random linear Q of dim M forms that
    is an ideal of definition, or None when the draw has no such Q."""
    ring = PolyRing(("x", "y", "z"))
    pres = _twisted_rank2_module(rng, ring)
    s = pres.dim()
    if s < 1:
        return None
    q = []
    for _ in range(s):
        coeffs = [ring.field.from_int(rng.randint(-2, 2)) for _ in range(3)]
        q.append(sum((v.scale(c) for v, c in zip(ring.gens(), coeffs)), ring.zero))
    if any(not g for g in q) or pres.quotient_by_ideal(q).length() is None:
        return None
    return pres, q


def test_exact_route_twisted_rank2_draws():
    """Unequal twists: the weight must be the pivot degree with component
    weight 0, not the degree in the other variables."""
    rng = random.Random(20140409)
    drawn = 0
    while drawn < 36:
        draw = _twisted_rank2_draw(rng)
        if draw is None:
            continue
        drawn += 1
        _agree(*draw)


def test_exact_route_rejects_non_parameter_ideal():
    # k[x,y]/(xy) with Q = (x): M/QM = k[y] has infinite length, which is
    # bad input, not an engine bug
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [x * y]).as_module()
    with pytest.raises(ValueError, match="not an ideal of definition"):
        hilbert_coefficients(pres, [x])


# ---- non-linear and mixed Q ---------------------------------------------


@pytest.mark.parametrize("l", [1, 2, 3])
def test_nonlinear_samuel_matches_pruned_powers(l):
    inst = gen_example_46(l)
    x, y, z = inst.pres.ring.gens()
    _agree(inst.pres, [(x - y) ** 2, (x - z) ** 2])


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
def test_nonlinear_samuel_rank2_twisted(field):
    """A rank-2 cokernel with twists (0, 1) over k[x,y,z]/(xz): u_j - f_j
    enters in every component."""
    ring = PolyRing(("x", "y", "z"), field=field)
    x, y, z = ring.gens()
    algebra = Algebra(ring, [x * z])
    ambient = FreeModule(ring, 2, (0, 1))
    cols = [
        ambient.inject(y**2, 0) + ambient.inject(x - z, 1),
        ambient.inject(x * y, 1),
    ]
    pres = Presentation(algebra, ambient, cols)
    _agree(pres, [(x - y) ** 2, (x - z) ** 2])


def test_nonlinear_samuel_repeated_generator():
    """A repeated generator of Q adjoins a second variable for the same
    form and changes nothing."""
    inst = gen_example_46(2)
    x, y, z = inst.pres.ring.gens()
    q = [(x - y) ** 2, (x - z) ** 2, (x - y) ** 2]
    assert _agree(inst.pres, q) == _agree(inst.pres, q[:2])


def test_nonlinear_samuel_dimension_zero():
    """M = k[x,y,z]/(x^2, y^2, z^2) has length 8; the polynomial is the
    constant 8, reached once Q^(n+1) M = 0: every quartic vanishes in M,
    so Q^2 M = 0 while M/QM has length 5."""
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.gens()
    pres = Algebra(ring, [x**2, y**2, z**2]).as_module()
    e = _agree(pres, [x * y + y * z, x * z])
    assert (e.s, e.e) == (0, (8,))
    assert e.samples[:2] == (5, 8)
    assert e.postulation == 1


@pytest.mark.parametrize("l", [1, 2, 3])
def test_mixed_degree_samuel(l):
    """One linear and one quadratic generator: the linear one becomes a
    variable, the quadric is adjoined."""
    inst = gen_example_46(l)
    x, y, z = inst.pres.ring.gens()
    _agree(inst.pres, [x - y, (x - z) ** 2])
    _agree(inst.pres, [(x - y) ** 2, x - z])


def test_mixed_degree_samuel_corpus_module():
    """k[x,y,z]/(x^2, xy), the module of corpus/mixed_dseq.hd, under
    Q = (y, z^2) and Q = (y^2, z^2)."""
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.gens()
    pres = Algebra(ring, [x**2, x * y]).as_module()
    e = _agree(pres, [y, z**2])
    assert e.e == (2, -2, 0)
    assert e.postulation == 0
    e = _agree(pres, [y**2, z**2])
    assert e.e[0] == 4


@pytest.mark.parametrize("l", [1, 2, 3])
def test_nonlinear_samuel_fields_agree(l):
    """GF(32003) = QQ on the ex46 family under non-linear and mixed Q."""
    out = []
    for field in (QQ, PrimeField(32003)):
        inst = gen_example_46(l, field=field)
        x, y, z = inst.pres.ring.gens()
        out.append(
            [
                hilbert_coefficients(inst.pres, q)
                for q in ([(x - y) ** 2, (x - z) ** 2], [x - y, (x - z) ** 3])
            ]
        )
    assert out[0] == out[1]


def _nonlinear_draw(rng):
    """A random monomial quotient of k[x,y,z] or rank-2 twisted cokernel,
    over QQ or GF(32003), with dim M random forms of degree 1 or 2, not all
    linear, generating an ideal of definition; None if the draw has none."""
    ring = PolyRing(("x", "y", "z"), field=rng.choice((QQ, PrimeField(32003))))
    if rng.random() < 0.6:
        monos = []
        for _ in range(rng.randint(1, 3)):
            m = [rng.randint(0, 2) for _ in range(3)]
            m[rng.randrange(3)] += not any(m)
            monos.append(Polynomial(ring, {tuple(m): ring.field.one}))
        pres = Algebra(ring, monos).as_module()
    else:
        pres = _twisted_rank2_module(rng, ring)
    s = pres.dim()
    if s < 1:
        return None
    degrees = [rng.choice((1, 2)) for _ in range(s)]
    degrees[rng.randrange(s)] = 2
    q = [_form(ring, rng, d) for d in degrees]
    if any(not g for g in q) or pres.quotient_by_ideal(q).length() is None:
        return None
    return pres, q


def test_nonlinear_samuel_random_draws():
    rng = random.Random(1404245)
    drawn = 0
    while drawn < 30:
        draw = _nonlinear_draw(rng)
        if draw is None:
            continue
        drawn += 1
        _agree(*draw)


def test_nonlinear_samuel_rejects_inhomogeneous_generator():
    # x^2 + y is inhomogeneous even though its normal form modulo (y) is not
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [y]).as_module()
    with pytest.raises(InhomogeneousError):
        hilbert_coefficients(pres, [x**2 + y])


def test_nonlinear_samuel_stops_at_the_degree_cap():
    # the weighted basis is bounded by the ring's degree cap, like every
    # Groebner run: at cap 3 it stops, at the default 64 it reads e
    def samuel(cap):
        ring = PolyRing(("x", "y", "z"), degree_cap=cap)
        x, y, z = ring.gens()
        pres = Algebra(ring, [x * y**2, x * z]).as_module()
        return hilbert_coefficients(pres, [(x - y) ** 2, (x - z) ** 2])

    with pytest.raises(DegreeCapError, match="degree cap 3"):
        samuel(3)
    assert samuel(64).e == (4, -4, -1)


def test_coefficients_reject_inhomogeneous_linear_generator():
    # x - y + 1 has degree 1, so it would take the exact (linear) route
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [x * y]).as_module()
    q = [x - y + 1]
    with pytest.raises(InhomogeneousError):
        hilbert_coefficients(pres, q)
    with pytest.raises(InhomogeneousError):
        exact_coefficients(pres, q)
    with pytest.raises(InhomogeneousError):
        multiplicity(pres, q)


def test_coefficients_reject_unit_ideal():
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [x * y]).as_module()
    with pytest.raises(ValueError, match="contains a unit"):
        hilbert_coefficients(pres, [ring.one])
