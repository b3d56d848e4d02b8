"""Hilbert series, Samuel functions, and the Samuel polynomial: exact for
linear Q, fitted for non-linear Q."""

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
    SamuelFunction,
    hilbert_coefficients,
    hilbert_series,
    local_cohomology_duals,
    multiplicity,
)
from homdeg.errors import EngineBugError, InhomogeneousError, SampleCapError
from homdeg.hilbert import exact_coefficients, fitted_coefficients
from homdeg.modules import minimal_generators
from homdeg.verify import gen_example_46


def test_series_hypersurface():
    # k[x,y]/(xy): series (1 - t^2)/(1-t)^2 = (1 + t)/(1 - t)
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [x * y]).as_module()
    num, n = hilbert_series(pres)
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
    f = SamuelFunction(pres, list(ring.gens()))
    for n in range(5):
        assert f(n) == comb(n + 3, 3)


def test_samuel_function_nonlinear_generators():
    # Q = (x^2, y): l(S/Q^{n+1}) grows like 2(n+1) in two variables
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, ()).as_module()
    f = SamuelFunction(pres, [x**2, y])
    # S/(x^2, y) has length 2; the function is the full Samuel function
    assert f(0) == 2
    e = hilbert_coefficients(pres, [x**2, y])
    assert e[0] == 2  # e(Q) = 2


def test_sample_cap_enforced():
    ring = PolyRing(("x",))
    pres = Algebra(ring, ()).as_module()
    f = SamuelFunction(pres, [ring.var(0)], sample_cap=3)
    with pytest.raises(SampleCapError):
        f(3)


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
    q = [x - y, z]
    f = SamuelFunction(pres, q)
    assert f(0) == koszul_homology_lengths(pres, q)[0]


# ---- the exact route for linear Q against the sampled oracle ----------


def _agree(pres, q):
    exact = exact_coefficients(pres, q)
    fitted = fitted_coefficients(pres, q)
    assert (exact.s, exact.e, exact.postulation) == (
        fitted.s,
        fitted.e,
        fitted.postulation,
    )
    common = min(len(exact.samples), len(fitted.samples))
    assert exact.samples[:common] == fitted.samples[:common]


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


def _twisted_rank2_draw(rng):
    """A random rank-2 cokernel over k[x,y,z] with twists (0,1) or (0,2)
    and a random linear Q of dim M forms that is an ideal of definition,
    or None when the draw has no such Q."""
    ring = PolyRing(("x", "y", "z"))
    twists = (0, rng.choice((1, 2)))
    ambient = FreeModule(ring, 2, twists)

    def form(deg):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            a = rng.randint(0, deg)
            b = rng.randint(0, deg - a)
            terms[(a, b, deg - a - b)] = ring.field.from_int(rng.randint(-3, 3))
        return Polynomial(ring, {m: c for m, c in terms.items() if c})

    cols = []
    for _ in range(rng.randint(2, 3)):
        deg = twists[1] + rng.randint(0, 2)
        col = ambient.inject(form(deg), 0) + ambient.inject(form(deg - twists[1]), 1)
        if col:
            cols.append(col)
    pres = Presentation(Algebra(ring, ()), 2, twists, cols)
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
    # k[x,y]/(xy) with Q = (x): M/QM = k[y] has infinite length
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [x * y]).as_module()
    with pytest.raises(EngineBugError, match="infinite length"):
        hilbert_coefficients(pres, [x])


# ---- non-linear Q: unpruned powers against pruned ones --------------------


def _pruned_samuel_values(pres, q, count):
    """Oracle: l(M / Q^(n+1) M) for n < count, each power of Q built from
    the previous one and pruned to minimal generators."""
    line = FreeModule(pres.ring, 1)
    power = [e.component(0) for e in minimal_generators([line.inject(g) for g in q])]
    out = []
    for _ in range(count):
        out.append(pres.quotient_by_ideal(power).length())
        products = [line.inject(p * g) for p in power for g in q]
        power = [e.component(0) for e in minimal_generators(products)]
    return out


@pytest.mark.parametrize("l", [1, 2, 3])
def test_nonlinear_samuel_matches_pruned_powers(l):
    inst = gen_example_46(l)
    x, y, z = inst.pres.ring.gens()
    q = [(x - y) ** 2, (x - z) ** 2]
    f = SamuelFunction(inst.pres, q)
    assert [f(n) for n in range(6)] == _pruned_samuel_values(inst.pres, q, 6)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
def test_nonlinear_samuel_rank2_twisted(field):
    """A rank-2 cokernel with twists (0, 1) over k[x,y,z]/(xz): every
    basis vector carries its own chain of levels."""
    ring = PolyRing(("x", "y", "z"), field=field)
    x, y, z = ring.gens()
    algebra = Algebra(ring, [x * z])
    ambient = FreeModule(ring, 2, (0, 1))
    cols = [
        ambient.inject(y**2, 0) + ambient.inject(x - z, 1),
        ambient.inject(x * y, 1),
    ]
    pres = Presentation(algebra, 2, (0, 1), cols)
    q = [(x - y) ** 2, (x - z) ** 2]
    f = SamuelFunction(pres, q)
    assert [f(n) for n in range(5)] == _pruned_samuel_values(pres, q, 5)


def test_nonlinear_samuel_repeated_generator():
    """Equal products of generators: a repeated generator of Q changes
    nothing."""
    inst = gen_example_46(2)
    x, y, z = inst.pres.ring.gens()
    q = [(x - y) ** 2, (x - z) ** 2, (x - y) ** 2]
    f = SamuelFunction(inst.pres, q)
    expected = _pruned_samuel_values(inst.pres, q, 5)
    assert [f(n) for n in range(5)] == expected
    g = SamuelFunction(inst.pres, q[:2])
    assert [g(n) for n in range(5)] == expected


def test_nonlinear_samuel_rejects_inhomogeneous_generator():
    # x^2 + y is inhomogeneous even though its normal form modulo (y) is not
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [y]).as_module()
    with pytest.raises(InhomogeneousError):
        SamuelFunction(pres, [x**2 + y])(0)


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


def test_nonlinear_samuel_sample_cap():
    inst = gen_example_46(1)
    x, y, z = inst.pres.ring.gens()
    q = [(x - y) ** 2, (x - z) ** 2]
    f = SamuelFunction(inst.pres, q, sample_cap=3)
    assert [f(n) for n in range(3)] == _pruned_samuel_values(inst.pres, q, 3)
    with pytest.raises(SampleCapError):
        f(3)
    with pytest.raises(SampleCapError):
        fitted_coefficients(inst.pres, q, sample_cap=3)
