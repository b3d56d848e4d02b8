"""Free resolutions, Ext, local-cohomology duals, depth, and Koszul
homology lengths, checked on instances with known answers; the Koszul
lengths and l(H^0) also against presented modules on seeded draws, and
the duals, depth and Ext codimensions against Ext at every index."""

import random
from collections import Counter
from itertools import combinations

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
    depth,
    euler_char_1,
    free_resolution,
    koszul_homology_lengths,
    lift_relations,
    local_cohomology_duals,
)
from homdeg import resolution
from homdeg.errors import EngineBugError
from homdeg.groebner import GroebnerEngine
from homdeg.invariants import h0_length, h0_torsion_module, invariant_report
from homdeg.modules import colon_by_ideal, minimal_generators
from homdeg.resolution import FreeResolution, _ext_at, ext_codims
from homdeg.verify import check_thm1, gen_example_39, gen_example_46


def test_resolution_hypersurface():
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [x * y]).as_module()
    res = free_resolution(pres)
    assert res.betti_numbers() == [1, 1]
    assert res.length == 1


def test_resolution_two_monomials():
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.gens()
    pres = Algebra(ring, [x * y**2, x * z]).as_module()
    res = free_resolution(pres)
    # two generators, one syzygy: 0 <- A <- S <- S^2 <- S <- 0
    assert res.betti_numbers() == [1, 2, 1]


def test_resolution_koszul_complex():
    # k over k[x,y,z] has the Koszul resolution with ranks 1,3,3,1
    ring = PolyRing(("x", "y", "z"))
    pres = Algebra(ring, list(ring.gens())).as_module()
    res = free_resolution(pres)
    assert res.betti_numbers() == [1, 3, 3, 1]


def test_resolution_minimality():
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [x**2, x * y]).as_module()
    res = free_resolution(pres)
    for cols in res.diffs:
        for col in cols:
            for (c, m), v in col.terms.items():
                assert sum(m) > 0  # no constant entries: resolution minimal


def test_ext_principal_ideal():
    # S/(x) over k[x]: d = 0, so M_0 = Ext^1 = k[x]/(x) is the only dual;
    # Ext^0 lies below the grade 1 and vanishes
    ring = PolyRing(("x",))
    (x,) = ring.gens()
    pres = Algebra(ring, [x]).as_module()
    duals = local_cohomology_duals(pres)
    assert len(duals) == 1
    assert duals[0].length() == 1
    assert ext_codims(pres) == [None, 1]


def test_ext_free_module_vanishes_positively():
    # S = k[x,y]: M_2 = Ext^0 = S, and M_1 = Ext^1, M_0 = Ext^2 vanish
    ring = PolyRing(("x", "y"))
    pres = Algebra(ring, ()).as_module()
    duals = local_cohomology_duals(pres)
    assert len(duals) == 3
    assert not duals[2].is_zero() and duals[2].dim() == 2
    assert duals[0].is_zero() and duals[1].is_zero()
    assert ext_codims(pres) == [0, None, None]


def test_depth_values():
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    assert depth(Algebra(ring, ()).as_module()) == 2
    assert depth(Algebra(ring, [x * y]).as_module()) == 1
    assert depth(Algebra(ring, [x**2, x * y]).as_module()) == 0


def test_local_cohomology_duals_depth_consistency():
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.gens()
    pres = Algebra(ring, [x * y, x * z]).as_module()  # plane union line
    duals = local_cohomology_duals(pres)
    assert len(duals) == pres.dim() + 1 == 3
    assert duals[0].is_zero()  # depth 1: H^0 = 0
    assert not duals[1].is_zero()
    for j, mj in enumerate(duals):
        assert mj.dim() <= j


def _padded(res):
    """res made non-minimal: F_L grows a summand S(-t) that a unit column
    from a new F_{L+1} = S(-t) hits.  Still a resolution of the same M,
    with d o d = 0, one step longer than pd M."""
    L = res.length
    top = res.modules[L]
    t = max(top.twists) + 1
    grown = FreeModule(top.ring, top.rank + 1, top.twists + (t,))
    diffs = [list(cols) for cols in res.diffs]
    diffs[L - 1].append(res.modules[L - 1].zero())
    diffs.append([grown.basis(top.rank)])
    modules = res.modules[:L] + [grown, FreeModule(top.ring, 1, (t,))]
    return FreeResolution(modules, diffs)


def test_depth_check_catches_a_non_minimal_resolution(monkeypatch):
    """The Auslander-Buchsbaum check compares n - (resolution length) with
    the first nonzero dual: a resolution one step too long, which d o d = 0
    and the Ext modules themselves do not reveal, raises."""
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [x * y]).as_module()
    honest = free_resolution(pres)
    padded = _padded(honest)
    resolution._check_complex(padded)
    assert padded.length == honest.length + 1
    for i in range(ring.n + 2):
        want, got = _ext_at(honest, i), _ext_at(padded, i)
        assert got.hilbert_numerator() == want.hilbert_numerator(), i
    fresh = Algebra(ring, [x * y]).as_module()
    real = resolution._resolve
    monkeypatch.setattr(resolution, "_resolve", lambda p: _padded(real(p)))
    with pytest.raises(EngineBugError, match="depth mismatch"):
        local_cohomology_duals(fresh)


def _full_ext_oracle(pres):
    """The route the duals replaced: Ext^i_S(M, S) at every i = 0..n."""
    res = free_resolution(pres)
    return [_ext_at(res, i) for i in range(pres.ring.n + 1)]


def test_duals_depth_and_codims_match_ext_at_every_index(corpus):
    """Ext^i = 0 below the grade n - d; depth = n - max{i : Ext^i != 0};
    ext_codims equals the codims of the full Ext list."""
    rng = random.Random(1216)
    cases = [(inst.name, inst.pres) for inst in corpus]
    cases += [(f"draw {k}", _random_instance(rng)[0]) for k in range(30)]
    ranks, fields = set(), set()
    for name, pres in cases:
        if pres.is_zero():
            continue
        n, d = pres.ring.n, pres.dim()
        exts = _full_ext_oracle(pres)
        assert all(e.is_zero() for e in exts[: n - d]), name
        nonzero = [i for i, e in enumerate(exts) if not e.is_zero()]
        assert depth(pres) == n - max(nonzero), name
        want = [None if e.is_zero() else n - e.dim() for e in exts]
        assert ext_codims(pres) == want, name
        ranks.add(pres.rank)
        fields.add(pres.ring.field.name)
    assert {1, 2} <= ranks and {"QQ", "GF(32003)"} <= fields


def test_invariants_compute_ext_only_at_the_duals(monkeypatch):
    """invariant_report and check_thm1 on ex39(2,1) (n = 5, d = 3) call
    _ext_at d + 1 times per module whose duals they need, at the indices
    n - d..n only; a rerun computes no Ext."""
    calls = []
    dims = {}
    ext_at, resolve = resolution._ext_at, resolution._resolve

    def counted_ext(res, i):
        calls.append((id(res), i))
        return ext_at(res, i)

    def recorded_resolve(pres):
        res = resolve(pres)
        dims[id(res)] = (pres.ring.n, pres.dim(), res)  # res kept: ids stay unique
        return res

    monkeypatch.setattr(resolution, "_ext_at", counted_ext)
    monkeypatch.setattr(resolution, "_resolve", recorded_resolve)
    inst = gen_example_39(2, 1)
    assert (inst.pres.ring.n, inst.pres.dim()) == (5, 3)
    invariant_report(inst.pres, inst.q_gens)
    check_thm1(inst)
    assert calls
    per_res = Counter(key for key, _ in calls)
    for key, i in calls:
        n, d, _ = dims[key]
        assert n - d <= i <= n, (i, n, d)
    for key, count in per_res.items():
        n, d, _ = dims[key]
        assert count == d + 1
    first = len(calls)
    invariant_report(inst.pres, inst.q_gens)
    check_thm1(inst)
    assert len(calls) == first


def test_koszul_regular_sequence():
    # (x, y) is regular on k[x,y]: positive homology vanishes
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, ()).as_module()
    lens = koszul_homology_lengths(pres, [x, y])
    assert lens == [1, 0, 0]
    assert euler_char_1(pres, [x, y], multiplicity=1) == 0


def test_koszul_zero_divisor():
    # on A = k[x,y]/(x^2, xy) the element y kills x: H_1 is nonzero
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, [x**2, x * y]).as_module()
    lens = koszul_homology_lengths(pres, [y])
    assert lens[0] == 2  # l(A/yA) = l(k[x]/(x^2))
    assert lens[1] == 1  # (0 : y) = (x), one dimension over k
    assert euler_char_1(pres, [y], multiplicity=1) == 1


def test_koszul_mixed_degrees():
    # homogeneous sequence of degrees 1 and 2; twists keep it graded
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    pres = Algebra(ring, ()).as_module()
    lens = koszul_homology_lengths(pres, [x, y**2])
    assert lens == [2, 0, 0]  # regular sequence, l(S/(x, y^2)) = 2


def _instance(inst):
    return inst.pres, inst.q_gens


def _free_cube():
    ring = PolyRing(("x", "y", "z"))
    return Algebra(ring, ()).as_module(), list(ring.gens())


@pytest.mark.parametrize(
    "make, bases, lengths",
    [
        (lambda: _instance(gen_example_39(2, 1)), 2, [3, 1, 0, 0]),
        (lambda: _instance(gen_example_39(2, 2)), 2, [3, 1, 0, 0, 0]),
        (lambda: _instance(gen_example_46(3)), 1, [2, 1, 0]),
        (_free_cube, 0, [1, 0, 0, 0]),
    ],
    ids=["ex39_2_1", "ex39_2_2", "ex46_3", "free"],
)
def test_koszul_lengths_build_a_basis_only_below_min_d_pd(make, bases, lengths, monkeypatch):
    """With the resolution F of M, HS(M) and M/QM cached, the lengths cost
    one Groebner basis per C_i = F_i / (Q F_i + im d_{i+1}) with
    1 <= i < min(d, pd M); the cokernels from min(d, pd M) up telescope
    off the series of F otimes S/Q."""
    pres, q = make()
    res = free_resolution(pres)
    pres.quotient_by_ideal(q).hilbert_numerator()
    assert bases == max(0, min(pres.dim(), res.length) - 1)
    runs = Counter()
    init = GroebnerEngine.__init__

    def counted(eng, *args, **kwargs):
        runs["bases"] += 1
        init(eng, *args, **kwargs)

    monkeypatch.setattr(GroebnerEngine, "__init__", counted)
    assert koszul_homology_lengths(pres, q) == lengths
    assert runs["bases"] == bases


# ---- Koszul lengths against independent routes ------------------------


def _linear(rng, ring):
    form = ring.zero
    while not form:
        for i in range(ring.n):
            form = form + ring.var(i).scale(ring.field.from_int(rng.randint(-2, 2)))
    return form


def _random_form(rng, ring, deg):
    """A sum of up to two random monomials of degree deg (0 if deg < 0)."""
    form = ring.zero
    if deg < 0:
        return form
    for _ in range(rng.randint(1, 2)):
        m = [0] * ring.n
        for _ in range(deg):
            m[rng.randrange(ring.n)] += 1
        c = ring.field.from_int(rng.choice([-2, -1, 1, 3]))
        form = form + Polynomial(ring, {tuple(m): c})
    return form


def _sheared_monomial_quotient(rng, ring):
    """k[x,y,z]/J for a monomial J moved by a unitriangular substitution."""
    sub = []
    for i in range(ring.n):
        form = ring.var(i)
        for j in range(i + 1, ring.n):
            form = form + ring.var(j).scale(ring.field.from_int(rng.randint(-2, 2)))
        sub.append(form)
    rels = []
    for _ in range(rng.randint(1, 4)):
        rels.append(_random_form(rng, ring, rng.randint(1, 3)).substitute(sub))
    return Algebra(ring, rels).as_module()


def _twisted_rank_two(rng, ring):
    """coker of a random homogeneous 2-row matrix with twists (0, 1)."""
    algebra = Algebra(ring, [_random_form(rng, ring, 3)] if rng.random() < 0.5 else [])
    twists = (0, 1)
    ambient = FreeModule(ring, 2, twists)
    cols = []
    for _ in range(rng.randint(2, 4)):
        deg = rng.randint(1, 3)
        col = ambient.zero()
        for c in range(2):
            col = col + ambient.inject(_random_form(rng, ring, deg - twists[c]), c)
        cols.append(col)
    return Presentation(algebra, 2, twists, cols)


def _random_instance(rng):
    field = QQ if rng.random() < 0.5 else PrimeField(32003)
    ring = PolyRing(("x", "y", "z"), field=field)
    if rng.random() < 0.5:
        pres = _sheared_monomial_quotient(rng, ring)
    else:
        pres = _twisted_rank_two(rng, ring)
    seq = [_linear(rng, ring) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.4:
        k = rng.randrange(len(seq))
        seq[k] = seq[k] * _linear(rng, ring) + _random_form(rng, ring, 2)
    return pres, [a for a in seq if a]


def _reference_lengths(pres, seq):
    """l(H_i) from explicit presentations: the cycles of the Koszul
    differential lifted modulo the relations of M, then presented modulo
    the boundaries plus those relations; None for an infinite length."""
    ring, rank, d = pres.ring, pres.rank, len(seq)
    degs = [a.homogeneous_degree() for a in seq]
    subsets = [list(combinations(range(d), i)) for i in range(d + 1)]

    def chain(i):
        twists = [t + sum(degs[s] for s in T) for T in subsets[i] for t in pres.twists]
        return FreeModule(ring, len(twists), twists)

    def relations(i, mod):
        return [
            FreeElement(mod, {(k * rank + c, m): v for (c, m), v in rel.terms.items()})
            for k in range(len(subsets[i]))
            for rel in pres.relation_gens()
        ]

    def images(i, target):
        """d(e_T b_j) in the (i-1)-chains, for every i-subset T and j."""
        out = []
        for T in subsets[i]:
            for j in range(rank):
                el = target.zero()
                for pos, t in enumerate(T):
                    k = subsets[i - 1].index(T[:pos] + T[pos + 1 :])
                    el = el + target.inject(seq[t] * (-1) ** pos, k * rank + j)
                out.append(el)
        return out

    lens = []
    for i in range(d + 1):
        mod = chain(i)
        if i == 0:
            cycles = [mod.basis(j) for j in range(mod.rank)]
        else:
            lower = chain(i - 1)
            lifted = lift_relations(images(i, lower), relations(i - 1, lower))
            cycles = minimal_generators([FreeElement(mod, a.terms) for a in lifted])
        modulo = relations(i, mod) + (images(i + 1, mod) if i < d else [])
        cols = lift_relations(cycles, modulo) if cycles else []
        twists = [c.homogeneous_degree() for c in cycles]
        lens.append(Presentation(Algebra(ring), len(cycles), twists, cols).length())
    return lens


def _is_parameter_system(pres, seq):
    """len(seq) = dim M and l(M/QM) finite (the elements of a draw are
    nonzero forms of positive degree)."""
    return len(seq) == pres.dim() and pres.quotient_by_ideal(seq).length() is not None


def test_koszul_lengths_match_presented_homology():
    """Every system-of-parameters draw agrees with the presented homology;
    every other draw is refused before any homology is computed."""
    rng = random.Random(2024)
    compared = refused = 0
    for _ in range(60):
        pres, seq = _random_instance(rng)
        if _is_parameter_system(pres, seq):
            compared += 1
            assert koszul_homology_lengths(pres, seq) == _reference_lengths(pres, seq), (
                pres,
                seq,
            )
        else:
            refused += 1
            with pytest.raises(ValueError, match="not a parameter ideal of the module"):
                koszul_homology_lengths(pres, seq)
    assert compared >= 10 and refused >= 3


def test_koszul_end_lengths_by_quotient_and_annihilator():
    """l(H_0) = l(M/QM) and l(H_d) = l(0 :_M Q)."""
    rng = random.Random(17)
    checked = 0
    for _ in range(60):
        pres, seq = _random_instance(rng)
        if not _is_parameter_system(pres, seq):
            with pytest.raises(ValueError, match="not a parameter ideal of the module"):
                koszul_homology_lengths(pres, seq)
            continue
        checked += 1
        lens = koszul_homology_lengths(pres, seq)
        assert lens[0] == pres.quotient_by_ideal(seq).length()
        top = pres.subquotient(colon_by_ideal(pres, [], seq))
        assert lens[-1] == top.length(), (pres, seq)
    assert checked >= 10


def test_h0_length_by_series_matches_presented_torsion(corpus):
    """l(H^0(M)) read off HS(M) - HS(F/(0 :_M m^infinity)) equals the
    length of the presented m-torsion submodule."""
    for inst in corpus:
        assert h0_length(inst.pres) == h0_torsion_module(inst.pres).length(), inst.name
    rng = random.Random(4300)
    nonzero = 0
    for _ in range(30):
        pres, _ = _random_instance(rng)
        want = h0_torsion_module(pres).length()
        assert h0_length(pres) == want, pres
        nonzero += want > 0
    assert nonzero >= 5
