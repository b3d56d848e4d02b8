"""Free resolutions, Ext, local-cohomology duals, depth, and Koszul
homology lengths, checked on instances with known answers; the Koszul
lengths and l(H^0) also against presented modules on seeded draws, and
the duals, depth and Ext codimensions against Ext at every index."""

import random
from collections import Counter
from itertools import combinations
from math import comb

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
    hdeg,
    koszul_homology_lengths,
    lift_relations,
    local_cohomology_duals,
    multiplicity,
    torsions,
)
from homdeg import koszul, resolution
from homdeg.errors import EngineBugError
from homdeg.groebner import GroebnerEngine, minimal_lift
from homdeg.invariants import h0_length, h0_torsion_module, invariant_report
from homdeg.modules import (
    LinearBaseChange,
    colon_by_ideal,
    linear_annihilators,
    linear_rows,
)
from homdeg.monomial_ideals import (
    homology_series,
    poly_add,
    poly_shift,
    series_dim,
    series_length,
)
from homdeg.resolution import FreeResolution, _ext_at, dual_module, dual_series, ext_codims
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


def _constant_entries(cols):
    """The constant entries of a list of columns: none in a minimal map."""
    return [v for col in cols for (_, m), v in col.terms.items() if not any(m)]


def test_resolution_minimality():
    """No differential of the resolution and no column of a
    local-cohomology dual has a constant entry, on k[x,y]/(x^2, xy) and on
    seeded draws: Presentation.minimized and _ext_at keep them minimal by
    minimal_lift alone."""
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    rng = random.Random(2500)
    for pres in [Algebra(ring, [x**2, x * y]).as_module()] + [_draw_module(rng) for _ in range(16)]:
        for cols in free_resolution(pres).diffs:
            assert not _constant_entries(cols), pres
        for j, mj in enumerate(local_cohomology_duals(pres)):
            assert not _constant_entries(mj.columns), (pres, j)


def test_each_minimal_presentation_is_one_engine_run(monkeypatch):
    """Every step of the resolution, d_1 included, builds one Groebner
    engine (its minimal_lift), minimized() one more, and a presented dual
    one beside the lift of its cycles (none at i = L): on a rank-2
    cokernel with a unit entry, which minimized() reduces to rank 1, and
    on k[x,y,z]/(x^2, xy, yz^2), whose relations have none."""
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.gens()
    ambient = FreeModule(ring, 2, (0, 1))
    unit = ambient.inject(x) + ambient.inject(ring.one, 1)
    cols = [unit, ambient.inject(y**2), ambient.inject(z, 1)]
    cases = [
        (Presentation(Algebra(ring), ambient, cols), 1),
        (Algebra(ring, [x**2, x * y, y * z**2]).as_module(), 0),
    ]
    runs = Counter()
    init = GroebnerEngine.__init__

    def counted(eng, *args, **kwargs):
        runs["engines"] += 1
        init(eng, *args, **kwargs)

    monkeypatch.setattr(GroebnerEngine, "__init__", counted)
    for pres, minimize in cases:
        runs.clear()
        res = free_resolution(pres)
        assert res.modules[0].rank == 1
        assert runs["engines"] == res.length + minimize
        for i in range(res.length + 1):
            runs.clear()
            _ext_at(res, i)
            assert runs["engines"] == (2 if i < res.length else 1), (pres, i)


def test_resolution_and_duals_live_in_their_own_modules():
    """Relations are written into the module object that owns them: every
    column of d_{i+1} is an element of F_i itself, and every column of a
    local-cohomology dual an element of its presentation's ambient, on
    ex39(2,1), the rank-2 module below and seeded draws."""
    rng = random.Random(2700)
    cases = [gen_example_39(2, 1).pres, _found_rank_two(QQ)]
    for pres in cases + [_draw_module(rng) for _ in range(8)]:
        res = free_resolution(pres)
        for f, cols in zip(res.modules, res.diffs):
            assert all(col.module is f for col in cols), pres
        for mj in local_cohomology_duals(pres):
            assert all(col.module is mj.ambient for col in mj.columns), pres


def _found_rank_two(field):
    """The cokernel over k[x,y,z,w]/(x^2 z) with twists (0, 1) whose
    resolution once took half a minute over GF(32003)."""
    ring = PolyRing(("x", "y", "z", "w"), field=field)
    x, y, z, w = ring.gens()
    ambient = FreeModule(ring, 2, (0, 1))
    entries = [
        (y * w**2 + z * w**2, y**2 + 3 * y * w),
        (y**2 * z - 2 * x * w**2, -2 * x * y),
        (-2 * y**2 * w + z * w**2, -(y**2)),
        (-2 * x * z + y * w, 3 * w),
    ]
    cols = [ambient.inject(a, 0) + ambient.inject(b, 1) for a, b in entries]
    return Presentation(Algebra(ring, [x**2 * z]), ambient, cols)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF(32003)"])
def test_rank_two_module_in_four_variables_resolves(field):
    assert free_resolution(_found_rank_two(field)).betti_numbers() == [2, 6, 15, 17, 6]


def test_check_complex_catches_a_perturbed_differential():
    """d o d = 0 is checked: one entry of d_2 of the Koszul resolution of
    k, doubled, makes the differentials compose to x y != 0."""
    ring = PolyRing(("x", "y", "z"))
    res = free_resolution(Algebra(ring, list(ring.gens())).as_module())
    resolution._check_complex(res)
    diffs = [list(cols) for cols in res.diffs]
    col = diffs[1][0]
    t, v = next(iter(col.terms.items()))
    diffs[1][0] = FreeElement(col.module, {**col.terms, t: v * 2})
    with pytest.raises(EngineBugError, match="do not compose to zero"):
        resolution._check_complex(FreeResolution(res.modules, diffs))


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
    ext_codims equals the codims of the full Ext list; dual_series, read
    off the cokernels D_i, is the Hilbert numerator of Ext^{n-j} for every
    j = 0..d.  On the corpus, seeded draws and ex39 (2,1) and (3,1)."""
    rng = random.Random(1216)
    cases = [(inst.name, inst.pres) for inst in corpus]
    cases += [(f"draw {k}", _random_instance(rng)[0]) for k in range(30)]
    cases += [(f"ex39{lm}", gen_example_39(*lm).pres) for lm in ((2, 1), (3, 1))]
    ranks, fields = set(), set()
    for name, pres in cases:
        if pres.is_zero():
            continue
        n, d = pres.ring.n, pres.dim()
        exts = _full_ext_oracle(pres)
        assert all(e.is_zero() for e in exts[: n - d]), name
        assert dual_series(pres) == [exts[n - j].hilbert_numerator() for j in range(d + 1)], name
        nonzero = [i for i, e in enumerate(exts) if not e.is_zero()]
        assert depth(pres) == n - max(nonzero), name
        want = [None if e.is_zero() else n - e.dim() for e in exts]
        assert ext_codims(pres) == want, name
        ranks.add(pres.rank)
        fields.add(pres.ring.field.name)
    assert {1, 2} <= ranks and {"QQ", "GF(32003)"} <= fields


def test_dual_series_presents_only_the_cokernels_above_the_grade(monkeypatch):
    """dual_series presents D_i only for n - d < i <= L, L - (n - d)
    cokernels per resolution: D_{n-d} telescopes, since Ext^i = 0 below
    the grade n - d.  ex39(2,1) (n = 5, d = 3, L = 3) presents D_3 only;
    the Cohen-Macaulay k[x,y]/(xy) none."""
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    cases = [(gen_example_39(2, 1).pres, [3]), (Algebra(ring, [x * y]).as_module(), [])]
    calls = []
    cokernel = resolution._cokernel

    def counted(res, i):
        calls.append(i)
        return cokernel(res, i)

    monkeypatch.setattr(resolution, "_cokernel", counted)
    for pres, want in cases:
        n, d, L = pres.ring.n, pres.dim(), free_resolution(pres).length
        calls.clear()
        dual_series(pres)
        assert calls == want == list(range(n - d + 1, L + 1)), pres


def test_homology_series_telescopes_from_any_top():
    """The Koszul complex 0 -> S(-2) -> S(-1)^2 -> S of (x, y) over
    k[x, y] resolves k: H_0 = k and H_1 = H_2 = 0 for every top, whether
    each cokernel comes from cokernel(k) or telescopes, and cokernel(k) is
    asked only for k < top."""
    frees = [{0: 1}, {1: 2}, {2: 1}]
    cokernels = [{0: 1, 1: -2, 2: 1}, {1: 2, 2: -1}, {2: 1}]  # k, S(-1)^2/S(-2), S(-2)
    for top in range(4):
        asked = []
        series = homology_series(frees, top, lambda k: asked.append(k) or cokernels[k])
        assert [series_length(num, 2) for num in series] == [1, 0, 0], top
        assert series[1:] == [{}, {}], top
        assert sorted(asked) == list(range(min(top, 3))), top


def _one_relation_short(ext_at):
    """_ext_at that presents a wrong module: the last relation column of
    Ext^i dropped wherever that changes its Hilbert series."""

    def wrong(res, i):
        ext = ext_at(res, i)
        cut = Presentation(ext.algebra, ext.ambient, ext.columns[:-1])
        return cut if cut.hilbert_numerator() != ext.hilbert_numerator() else ext

    return wrong


@pytest.mark.parametrize("which", ["ex39(2,1)", "rank-two dual"])
def test_presented_dual_is_checked_against_its_series(monkeypatch, which):
    """A dual presented with a relation missing disagrees with dual_series,
    and presenting it raises, whether from hdeg's descent or directly."""
    if which == "ex39(2,1)":
        inst = gen_example_39(2, 1)
        pres, q = inst.pres, inst.q_gens
    else:
        ring = PolyRing(("x", "y", "z"))
        x, y, z = ring.gens()
        pres = Algebra(ring, [x * y**2, x**2 * y, x**3]).as_module()
        q = [x - 2 * y - 3 * z, -x - 3 * y - 2 * z]
    n, d = pres.ring.n, pres.dim()
    j = next(j for j in range(d) if series_dim(dual_series(pres)[j], n) >= 1)
    res = free_resolution(pres)
    wrong = _one_relation_short(_ext_at)(res, n - j)
    assert wrong.hilbert_numerator() != _ext_at(res, n - j).hilbert_numerator()
    monkeypatch.setattr(resolution, "_ext_at", _one_relation_short(_ext_at))
    with pytest.raises(EngineBugError, match=f"presented dual M_{j} disagrees"):
        hdeg(pres, q)
    with pytest.raises(EngineBugError, match=f"presented dual M_{j} disagrees"):
        dual_module(pres, j)


def test_invariants_compute_ext_only_at_the_duals(monkeypatch):
    """invariant_report and check_thm1 on ex39(2,1) (n = 5, d = 3) call
    _ext_at only at i = n - j for the duals M_j with j < d and dim M_j >= 1,
    once per resolution each, and never at the top index n - d: every
    other dual is read off dual_series.  A rerun computes no Ext."""
    calls = []
    owners = {}
    ext_at, resolve = resolution._ext_at, resolution._resolve

    def counted_ext(res, i):
        calls.append((id(res), i))
        return ext_at(res, i)

    def recorded_resolve(pres):
        res = resolve(pres)
        owners[id(res)] = (pres, res)  # res kept: ids stay unique
        return res

    monkeypatch.setattr(resolution, "_ext_at", counted_ext)
    monkeypatch.setattr(resolution, "_resolve", recorded_resolve)
    inst = gen_example_39(2, 1)
    assert (inst.pres.ring.n, inst.pres.dim()) == (5, 3)
    invariant_report(inst.pres, inst.q_gens)
    check_thm1(inst)
    assert calls and len(set(calls)) == len(calls)
    presented = Counter()
    for key, i in calls:
        pres = owners[key][0]
        n, d = pres.ring.n, pres.dim()
        assert 0 <= n - i < d, (i, n, d)
        assert series_dim(dual_series(pres)[n - i], n) >= 1, (i, n, d)
        presented[key] += 1
    top = inst.pres
    n, d = top.ring.n, top.dim()
    wanted = [j for j in range(d) if series_dim(dual_series(top)[j], n) >= 1]
    assert wanted and presented[id(free_resolution(top))] == len(wanted)
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


def _socle_line():
    """k[x,y,z]/(x^2, xy, xz): dim 2, depth 0 (x spans the socle)."""
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.gens()
    return Algebra(ring, [x**2, x * y, x * z]).as_module(), [y, z]


@pytest.mark.parametrize(
    "make, bases, lengths",
    [
        (lambda: _instance(gen_example_39(2, 1)), 0, [3, 1, 0, 0]),
        (lambda: _instance(gen_example_39(2, 2)), 0, [3, 1, 0, 0, 0]),
        (lambda: _instance(gen_example_46(3)), 0, [2, 1, 0]),
        (_free_cube, 0, [1, 0, 0, 0]),
        (_socle_line, 1, [2, 2, 1]),
    ],
    ids=["ex39_2_1", "ex39_2_2", "ex46_3", "free", "socle_line"],
)
def test_koszul_lengths_build_a_basis_only_below_the_grade_bound(
    make, bases, lengths, monkeypatch
):
    """With the resolution F of M, HS(M) and M/QM cached, the lengths cost
    one Groebner basis per C_i = F_i / (Q F_i + im d_{i+1}) with
    1 <= i < d - depth M; the cokernels from d - depth M up telescope off
    the series of F otimes S/Q, which is exact there (H_i(Q; M) = 0 above
    d - grade(Q, M))."""
    pres, q = make()
    free_resolution(pres)
    pres.quotient_by_ideal(q).hilbert_numerator()
    assert bases == max(0, pres.dim() - depth(pres) - 1)
    runs = Counter()
    init = GroebnerEngine.__init__

    def counted(eng, *args, **kwargs):
        runs["bases"] += 1
        init(eng, *args, **kwargs)

    monkeypatch.setattr(GroebnerEngine, "__init__", counted)
    assert koszul_homology_lengths(pres, q) == lengths
    assert runs["bases"] == bases


def _zeroed(series, k):
    """series with its k-th entry replaced by the zero series."""
    return lambda *args: [{} if i == k else s for i, s in enumerate(series(*args))]


def test_koszul_lengths_end_at_d_minus_depth(monkeypatch):
    """H_{d - depth M}(Q; M) != 0 (Bruns and Herzog 1.6.17), where a
    telescoped cokernel meets a presented one: a Koszul reader that loses
    it is an engine bug.  ex46(3) has d = 2, depth 1."""
    pres, q = _instance(gen_example_46(3))
    assert pres.dim() - depth(pres) == 1
    monkeypatch.setattr(koszul, "homology_series", _zeroed(koszul.homology_series, 1))
    with pytest.raises(EngineBugError, match="ends at H_0, but d - depth M = 1"):
        koszul_homology_lengths(pres, q)


def test_top_dual_has_full_dimension(monkeypatch):
    """M_d = Ext^{n-d}(M, S) is nonzero of dimension d: an Ext reader that
    loses it is an engine bug.  ex39(2,1) has d = 3 and depth 2, so with
    M_3 zeroed the first nonzero dual still matches Auslander-Buchsbaum."""
    pres = gen_example_39(2, 1).pres
    n, d = pres.ring.n, pres.dim()
    assert (d, depth(pres)) == (3, 2)
    # Ext^{n-d} = H_{L-n+d} of F^* read backwards
    top = free_resolution(pres).length - (n - d)
    monkeypatch.setattr(resolution, "homology_series", _zeroed(resolution.homology_series, top))
    with pytest.raises(EngineBugError, match="dual M_3 has dimension -1, dim M = 3"):
        dual_series(pres)


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


def _substitute(f, sub):
    """f with x_i -> sub[i], term by term: the shear of the sheared
    quotients, and the oracle of LinearBaseChange."""
    out = f.ring.zero
    for m, c in f.terms.items():
        term = Polynomial(f.ring, {f.ring.zero_mono: c})
        for form, e in zip(sub, m):
            term = term * form**e
        out = out + term
    return out


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
        rels.append(_substitute(_random_form(rng, ring, rng.randint(1, 3)), sub))
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
    return Presentation(algebra, ambient, cols)


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
            cycles = minimal_lift(
                lift_relations(images(i, lower), relations(i - 1, lower), mod), (), mod
            )[1]
        modulo = relations(i, mod) + (images(i + 1, mod) if i < d else [])
        source = FreeModule(ring, len(cycles), [c.homogeneous_degree() for c in cycles])
        cols = lift_relations(cycles, modulo, source)
        lens.append(Presentation(Algebra(ring), source, cols).length())
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


# ---- the linear base change S -> S' = S/(l) ---------------------------


def test_base_change_without_forms_is_the_identity():
    """With no linear form S' is S and every map hands back its argument,
    onto either target."""
    pres, q = _instance(gen_example_46(2))
    col = pres.ideal_times_ambient(q)[0]
    for quotient in (True, False):
        change = LinearBaseChange(pres.ring, [], quotient=quotient)
        assert change.target is pres.ring and change.pivots == []
        assert change.poly(q[0]) is q[0]
        assert change.free(pres.ambient) is pres.ambient
        assert change.element(col, pres.ambient) is col
        assert change.presentation(pres) is pres


def test_base_change_substitutes_fully_reduced_rows():
    """Each pivot goes to minus the tail of its fully reduced row, so
    every form maps to zero and no pivot is left in an image: (y + z,
    x + y, x - z) has rank 2, and x -> z, y -> -z over k[z]."""
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.gens()
    change = LinearBaseChange(ring, [y + z, x + y, x - z])
    assert change.pivots == [0, 1] and change.target.names == ("z",)
    assert all(not change.poly(f) for f in (y + z, x + y, x - z))
    (t,) = change.target.gens()
    assert change.poly(x * y + x**2 - y * z) == -(t**2) + t**2 + t**2
    assert change.poly(x**3 - 2 * z**2 * y).is_homogeneous()
    # a module killed by the forms keeps its Hilbert function over S'
    pres = Algebra(ring, [y + z, x + y, z**3]).as_module()
    down = change.presentation(pres)
    assert down.ring is change.target and down.length() == pres.length() == 3
    # keeping S, x -> x + z and y -> y - z: each reduced row maps to its
    # pivot, and x_p -> 0 after it is the projection above
    keep = LinearBaseChange(ring, [y + z, x + y, x - z], quotient=False)
    assert keep.target is ring and keep.pivots == [0, 1]
    assert keep.poly(x - z) == x and keep.poly(y + z) == y
    rng = random.Random(2601)
    ambient = FreeModule(ring, 2, (0, 1))
    down = change.free(ambient)
    for _ in range(20):
        deg = rng.randint(1, 4)
        f = _random_form(rng, ring, deg)
        el = ambient.inject(f) + ambient.inject(_random_form(rng, ring, deg - 1), 1)
        kept = keep.poly(f).terms
        assert {m[2:]: v for m, v in kept.items() if not any(m[:2])} == change.poly(f).terms
        kept = keep.element(el, ambient).terms
        assert {
            (c, m[2:]): v for (c, m), v in kept.items() if not any(m[:2])
        } == change.element(el, down).terms


def _draw_module(rng):
    """A sheared monomial quotient of k[x,y,z] or k[x,y,z,w], or a twisted
    rank-2 cokernel over k[x,y,z]; over QQ or GF(32003).  Rank-2 draws in
    four variables are left out: over QQ their resolutions can meet the
    coefficient growth recorded for lift_relations, which has no bound but
    the degree cap."""
    field = QQ if rng.random() < 0.5 else PrimeField(32003)
    if rng.random() < 0.5:
        return _twisted_rank_two(rng, PolyRing(("x", "y", "z"), field=field))
    ring = PolyRing(("x", "y", "z", "w")[: rng.choice((3, 4))], field=field)
    return _sheared_monomial_quotient(rng, ring)


def test_base_change_keeping_s_is_the_substitution():
    """On seeded modules (_draw_module) and seeded linear forms, the map
    that keeps S presents M by the relations _substitute gives under x_p
    -> x_p - tail_p, tail_p from the reduced rows (linear_rows)."""
    rng = random.Random(2602)
    moved = 0
    for _ in range(40):
        pres = _draw_module(rng)
        ring = pres.ring
        forms = [_linear(rng, ring) for _ in range(rng.randint(1, 3))]
        sub = list(ring.gens())
        rows, pivots = linear_rows(ring, forms)
        for row, p in zip(rows, pivots):
            sub[p] = sub[p] - sum(
                (ring.var(j).scale(c) for j, c in enumerate(row) if c and j != p), ring.zero
            )
        change = LinearBaseChange(ring, forms, quotient=False)
        image = change.presentation(pres)
        assert image.ring is ring
        assert [g.terms for g in image.algebra.relations] == [
            _substitute(g, sub).terms for g in pres.algebra.relations
        ]
        assert [c.terms for c in image.columns] == [
            {
                (i, m): v
                for i in range(pres.rank)
                for m, v in _substitute(c.component(i), sub).terms.items()
            }
            for c in pres.columns
        ]
        moved += bool(pres.columns) and len(pivots) >= 2
    assert moved >= 5


def _over_s(numerator, change):
    """A numerator over S' put back over (1-t)^n: times (1-t)^c."""
    for _ in change.pivots:
        numerator = poly_add(numerator, poly_shift(numerator, 1), sign=-1)
    return numerator


def _hdeg_over_s(pres, q):
    """hdeg by its recursion over S alone, no dual moved to fewer
    variables: the oracle of the route through linear_annihilators."""
    s = pres.dim()
    if s <= 0:
        return pres.length()
    duals = local_cohomology_duals(pres)
    return multiplicity(pres, q) + sum(comb(s - 1, j) * _hdeg_over_s(duals[j], q) for j in range(s))


def _torsions_over_s(pres, q):
    s = pres.dim()
    duals = local_cohomology_duals(pres)
    return tuple(
        sum(comb(s - i - 1, j - 1) * _hdeg_over_s(duals[j], q) for j in range(1, s - i + 1))
        for i in range(1, s)
    )


def _check_descent(pres, q):
    """pres (dim >= 1) and its linear descent agree on the Hilbert
    function, e0, hdeg and every torsion, each over its own ring; returns
    the change."""
    forms = linear_annihilators(pres)
    change = LinearBaseChange(pres.ring, forms)
    down, q_down = change.presentation(pres), [change.poly(g) for g in q]
    assert all(not change.poly(l) for l in forms)
    assert _over_s(down.hilbert_numerator(), change) == pres.hilbert_numerator()
    assert multiplicity(down, q_down) == multiplicity(pres, q)
    assert hdeg(down, q_down) == _hdeg_over_s(pres, q)
    assert torsions(down, q_down) == _torsions_over_s(pres, q)
    return change


def test_rank_two_dual_keeps_its_equations_apart():
    """Q = (x - 2y - 3z, -x - 3y - 2z) on k[x,y,z]/(xy^2, x^2y, x^3): the
    dual M_1 has rank 2 and no linear form kills it.  Equations of x e_0
    and x e_1 merged into one would find x - y and give T^1 = 2."""
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.gens()
    pres = Algebra(ring, [x * y**2, x**2 * y, x**3]).as_module()
    q = [x - 2 * y - 3 * z, -x - 3 * y - 2 * z]
    m1 = local_cohomology_duals(pres)[1]
    assert m1.rank == 2 and m1.dim() == 1
    assert linear_annihilators(m1) == []
    _check_descent(m1, q)
    inv = invariant_report(pres, q)
    assert inv.torsions == _torsions_over_s(pres, q) == (3,)
    assert inv.hdeg == _hdeg_over_s(pres, q) == 4


def test_hdeg_by_linear_descent_matches_the_route_over_s():
    """On seeded modules (_draw_module) with linear Q, and on every dual
    of dimension >= 1 among them, the descent to S/(l) gives the Hilbert
    function, e0, hdeg and torsions of the route over S, and the report
    (which descends at every dual) gives hdeg and torsions of that route."""
    rng = random.Random(4401)
    seen = Counter()
    cases = [_instance(gen_example_39(2, 1)), _instance(gen_example_39(2, 2))]
    for _ in range(160):
        pres = _draw_module(rng)
        ring = pres.ring
        q = [_linear(rng, ring) for _ in range(max(pres.dim(), 0))]
        if pres.dim() >= 1 and _is_parameter_system(pres, q):
            cases.append((pres, q))
    for pres, q in cases:
        inv = invariant_report(pres, q)
        assert (inv.hdeg, inv.torsions) == (_hdeg_over_s(pres, q), _torsions_over_s(pres, q))
        modules = [pres] + [m for m in local_cohomology_duals(pres)[: pres.dim()] if m.dim() >= 1]
        for k, m in enumerate(modules):
            change = _check_descent(m, q)
            kind = "dual" if k else "module"
            seen[kind] += 1
            seen[kind, "moved"] += bool(change.pivots)
            seen[kind, "rank 2"] += m.rank >= 2
    assert seen["module"] >= 80 and seen["module", "moved"] >= 30, seen
    assert seen["dual"] >= 18 and seen["dual", "moved"] >= 8 and seen["dual", "rank 2"] >= 4, seen


def _lengths_over_s(pres, seq):
    """l(H_i(Q; M)) by the route over S: every C_i = F_i / (Q F_i + im
    d_{i+1}), i = 0..d, presented over S with no base change, and HS(H_i) =
    HS(C_i) - HS(F_{i-1} otimes S/Q) + HS(C_{i-1}).  The oracle of the
    route over S/(linear generators of Q)."""
    res = free_resolution(pres)
    s_mod_q = {0: 1}
    for a in seq:
        s_mod_q = poly_add(s_mod_q, poly_shift(s_mod_q, a.degree()), sign=-1)
    cokernels, free = [], []
    for i in range(len(seq) + 1):
        if i > res.length:
            cokernels.append({})
            free.append({})
            continue
        f = res.modules[i]
        cols = [f.inject(a, c) for a in seq for c in range(f.rank)]
        cols += res.diffs[i] if i < res.length else []
        cokernels.append(Presentation(Algebra(pres.ring), f, cols).hilbert_numerator())
        num = {}
        for t in f.twists:
            num = poly_add(num, poly_shift(s_mod_q, t))
        free.append(num)
    out = [series_length(cokernels[0], pres.ring.n)]
    for i in range(1, len(seq) + 1):
        num = poly_add(poly_add(cokernels[i], free[i - 1], sign=-1), cokernels[i - 1])
        out.append(series_length(num, pres.ring.n))
    return out


@pytest.mark.parametrize("kind", ["linear", "linear and a quadric", "no linear"])
def test_koszul_lengths_over_s_prime_match_the_route_over_s(kind):
    """Seeded systems of parameters on modules (_draw_module), rank-2
    twisted cokernels among them: all linear, linear with one quadric, or
    no linear generator at all.  The Tor route, which presents C_i over
    S/(linear generators of Q), gives the lengths of the route over S."""
    rng = random.Random(2404)
    compared = Counter()
    for _ in range(120):
        pres = _draw_module(rng)
        ring, rank_two, d = pres.ring, pres.rank == 2, pres.dim()
        seq = [_linear(rng, ring) for _ in range(max(d, 0))]
        if kind != "linear" and d >= 1:
            for k in range(d) if kind == "no linear" else [rng.randrange(d)]:
                seq[k] = seq[k] * _linear(rng, ring) + _random_form(rng, ring, 2)
        if d < 1 or not all(seq) or not _is_parameter_system(pres, seq):
            continue
        assert koszul_homology_lengths(pres, seq) == _lengths_over_s(pres, seq), (pres, seq)
        top = min(d, free_resolution(pres).length)
        compared["all"] += 1
        compared["C_i"] += top >= 2
        compared["rank 2"] += rank_two and top >= 2
    assert compared["all"] >= 60 and compared["C_i"] >= 20 and compared["rank 2"] >= 8, compared


@pytest.mark.parametrize("l, m", [(2, 1), (3, 1), (2, 2)])
def test_koszul_lengths_of_ex39_match_the_route_over_s(l, m):
    pres, q = _instance(gen_example_39(l, m))
    assert koszul_homology_lengths(pres, q) == _lengths_over_s(pres, q)
