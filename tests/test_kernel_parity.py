"""The compiled kernel must be observationally identical to the pure
Python one on every exported function."""

import random
from fractions import Fraction

import pytest

from homdeg.kernel import pykernel

ckernel = pytest.importorskip(
    "homdeg.kernel.ckernel", reason="compiled kernel not built"
)


def _random_element(rng, n, comps):
    terms = {}
    for _ in range(rng.randint(1, 8)):
        key = (
            rng.randrange(comps),
            tuple(rng.randint(0, 4) for _ in range(n)),
        )
        terms[key] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
    return terms


def _monic(terms, split):
    best = max(terms, key=lambda t: pykernel.term_key(t[0], t[1], split))
    lc = terms[best]
    return {t: v / lc for t, v in terms.items()}, best


@pytest.mark.parametrize("seed", range(5))
def test_mono_ops_agree(seed):
    rng = random.Random(seed)
    for _ in range(200):
        n = rng.randint(1, 5)
        a = tuple(rng.randint(0, 6) for _ in range(n))
        b = tuple(rng.randint(0, 6) for _ in range(n))
        assert pykernel.mono_mul(a, b) == ckernel.mono_mul(a, b)
        assert pykernel.mono_lcm(a, b) == ckernel.mono_lcm(a, b)
        assert pykernel.mono_divides(a, b) == ckernel.mono_divides(a, b)
        assert pykernel.mono_deg(a) == ckernel.mono_deg(a)
        assert pykernel.mono_key(a) == ckernel.mono_key(a)
        if pykernel.mono_divides(b, a):
            assert pykernel.mono_div(a, b) == ckernel.mono_div(a, b)


@pytest.mark.parametrize("seed", range(5))
def test_term_and_element_ops_agree(seed):
    rng = random.Random(100 + seed)
    for _ in range(100):
        n = rng.randint(1, 4)
        comps = rng.randint(1, 3)
        split = rng.randint(0, comps)
        u = _random_element(rng, n, comps)
        v = _random_element(rng, n, comps)
        for c, m in u:
            assert pykernel.term_key(c, m, split) == ckernel.term_key(c, m, split)
        assert pykernel.lead_term(u, split) == ckernel.lead_term(u, split)
        scalar = Fraction(rng.choice([-2, -1, 1, 3]))
        mono = tuple(rng.randint(0, 2) for _ in range(n))
        assert pykernel.add_scaled(u, scalar, mono, v) == ckernel.add_scaled(
            u, scalar, mono, v
        )


@pytest.mark.parametrize("seed", range(5))
def test_reduce_full_agrees(seed):
    rng = random.Random(200 + seed)
    for _ in range(60):
        n = rng.randint(1, 3)
        comps = rng.randint(1, 2)
        split = comps
        by_comp = {}
        for _ in range(rng.randint(1, 4)):
            terms, (c, m) = _monic(_random_element(rng, n, comps), split)
            by_comp.setdefault(c, []).append((m, terms))
        f = _random_element(rng, n, comps)
        py = pykernel.reduce_full(f, by_comp, split)
        c = ckernel.reduce_full(f, by_comp, split)
        assert py == c
        assert list(py) == list(c)  # same (descending) term order


def test_groebner_bases_agree_across_kernels():
    """The reduced basis of a nontrivial ideal is identical under either
    kernel (exercised through fresh engine runs on each implementation)."""
    import homdeg.kernel as kernel_mod
    from homdeg import FreeModule, PolyRing, groebner_basis

    saved = {
        name: getattr(kernel_mod, name)
        for name in ("reduce_full", "lead_term", "add_scaled", "KERNEL_NAME")
    }
    results = {}
    try:
        for impl in (pykernel, ckernel):
            kernel_mod.reduce_full = impl.reduce_full
            kernel_mod.lead_term = impl.lead_term
            kernel_mod.add_scaled = impl.add_scaled
            import homdeg.groebner as gb_mod

            gb_saved = gb_mod.reduce_full
            gb_mod.reduce_full = impl.reduce_full
            try:
                ring = PolyRing(("x", "y", "z", "w"))
                x, y, z, w = ring.gens()
                mod = FreeModule(ring, 1)
                gens = [
                    mod.inject(p)
                    for p in (x * z - y**2, x * w - y * z, y * w - z**2)
                ]
                gb = groebner_basis(gens, module=mod)
                results[impl.KERNEL_NAME] = [tuple(sorted(g.terms.items())) for g in gb]
            finally:
                gb_mod.reduce_full = gb_saved
    finally:
        for name, value in saved.items():
            setattr(kernel_mod, name, value)
    assert results["python"] == results["c"]
