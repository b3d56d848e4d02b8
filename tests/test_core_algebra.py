"""Exact field, polynomial, and free-module arithmetic, plus the order
properties the whole engine depends on."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homdeg import FreeModule, PolyRing, QQ, PrimeField
from homdeg.errors import InhomogeneousError, RingMismatchError
from homdeg.fields import is_prime
from homdeg.kernel import order_key


@pytest.fixture
def ring():
    return PolyRing(("x", "y", "z"))


# ---- fields ----------------------------------------------------------


def test_rational_field_basics():
    a = QQ.from_int(3)
    b = QQ.from_int(7)
    assert a / b * b == a
    assert QQ.zero + a == a
    assert a * QQ.one == a
    assert QQ.char == 0


def test_prime_field_arithmetic():
    f = PrimeField(32003)
    a = f.from_int(12345)
    assert a * (f.one / a) == f.one
    assert f.from_int(32003) == f.zero
    assert f.char == 32003


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(32001)


@pytest.mark.parametrize("p", [2, 3, 32003, 10**18 + 3])
def test_prime_field_accepts_primes(p):
    # 10**18 + 3 is prime; trial division never finished on it
    start = time.perf_counter()
    assert PrimeField(p).char == p
    assert time.perf_counter() - start < 0.5


def test_primality_matches_trial_division():
    for n in range(3000):
        expected = n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))
        assert is_prime(n) == expected, n


@pytest.mark.parametrize(
    "n, why",
    [
        (0, "not prime"),
        (1, "not prime"),
        (561, "not prime"),  # Carmichael number 3 * 11 * 17
        (10**18 + 1, "not prime"),  # 101 * 9901 * 999999000001
        # least strong pseudoprimes to the bases 2..7, 2..37 and 2..41
        (3215031751, "not prime"),  # 151 * 751 * 28351
        (318665857834031151167461, "not prime"),  # 399165290221 * 798330580441
        (3317044064679887385961981, "too large"),
        (3317044064679887385961981 + 2, "too large"),  # past the exact bound
    ],
)
def test_prime_field_rejects(n, why):
    with pytest.raises(ValueError, match=why):
        PrimeField(n)


# ---- polynomials -----------------------------------------------------


def test_polynomial_arithmetic(ring):
    x, y, z = ring.gens()
    p = (x + y) * (x - y)
    assert p == x**2 - y**2
    assert p - p == ring.zero
    assert (x + 1) ** 2 == x**2 + 2 * x + 1
    assert not ring.zero
    assert p.degree() == 2


def _lead(terms, split):
    """The largest (comp, mono) under the order: order_key sorts it first."""
    return min(terms, key=order_key(split))


def test_lead_monomial_grevlex(ring):
    x, y, z = ring.gens()
    mod = FreeModule(ring, 1)
    # same degree: grevlex prefers the monomial lacking the last variable
    p = x * y + z**2
    assert _lead(mod.inject(p).terms, 1) == (0, (1, 1, 0))
    q = x**3 + x * y * z
    assert _lead(mod.inject(q).terms, 1) == (0, (3, 0, 0))


def test_homogeneity(ring):
    x, y, z = ring.gens()
    assert (x * y + z**2).is_homogeneous()
    assert not (x + 1).is_homogeneous()
    with pytest.raises(InhomogeneousError):
        (x + 1).homogeneous_degree()


def test_ring_mismatch(ring):
    other = PolyRing(("a", "b"))
    with pytest.raises(RingMismatchError):
        ring.var(0) + other.var(0)


def test_repr_round_trips_through_parser(ring):
    from homdeg.dsl import parse_input

    x, y, z = ring.gens()
    p = 3 * x**2 * y - z**3 + x * y * z
    script = f"ring S = QQ[x, y, z]; ideal J = ({p!r});"
    parsed = parse_input(script)
    assert parsed.statements[1].gens == (p,)


# ---- free modules ----------------------------------------------------


def test_free_element_ops(ring):
    x, y, z = ring.gens()
    mod = FreeModule(ring, 2, (0, 1))
    e0, e1 = mod.basis(0), mod.basis(1)
    v = x * e0 + y * e1
    assert v.component(0) == x
    assert v.component(1) == y
    assert (v - v) == mod.zero()
    assert v.degree() == 2  # y * e1 has twisted degree 1 + 1
    assert not v.is_homogeneous()  # x * e0 sits in degree 1
    assert (x**2 * e0 + y * e1).homogeneous_degree() == 2


def test_free_element_lead_split(ring):
    x, y, z = ring.gens()
    mod = FreeModule(ring, 2)
    v = x * mod.basis(0) + y**2 * mod.basis(1)
    # plain order: higher degree wins
    assert _lead(v.terms, mod.rank) == (1, (0, 2, 0))
    # elimination order with split 1: component 0 dominates
    assert _lead(v.terms, 1) == (0, (1, 0, 0))


# ---- order properties (property-based) -------------------------------

monos = st.tuples(*[st.integers(0, 4)] * 3)
grevlex = order_key(1)


def _mono_key(m):
    """order_key on monomials: the larger monomial has the smaller key."""
    return grevlex((0, m))


@given(monos, monos, monos)
def test_grevlex_total_order_multiplicative(a, b, c):
    if _mono_key(a) > _mono_key(b):
        ab = tuple(x + y for x, y in zip(a, c))
        bb = tuple(x + y for x, y in zip(b, c))
        assert _mono_key(ab) > _mono_key(bb)


@given(monos)
def test_grevlex_one_is_least(a):
    assert _mono_key((0, 0, 0)) >= _mono_key(a)


@given(monos, st.integers(0, 2), monos, st.integers(0, 2), st.integers(0, 3))
def test_order_key_antisymmetric(m1, c1, m2, c2, split):
    key = order_key(split)
    k1 = key((c1, m1))
    k2 = key((c2, m2))
    if (c1, m1) == (c2, m2):
        assert k1 == k2
    else:
        assert k1 != k2


coeffs = st.integers(-4, 4).map(Fraction)
polys = st.dictionaries(monos, st.integers(-4, 4).filter(bool), max_size=5)


def _mk(ring, d):
    from homdeg.ring import Polynomial

    return Polynomial(ring, {m: QQ.from_int(c) for m, c in d.items()})


@settings(max_examples=60)
@given(polys, polys, polys)
def test_ring_axioms(da, db, dc):
    ring = PolyRing(("x", "y", "z"))
    a, b, c = _mk(ring, da), _mk(ring, db), _mk(ring, dc)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ring.zero == a
    assert a * ring.one == a
    assert a - a == ring.zero
