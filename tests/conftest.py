"""Shared fixtures: the audit corpus of (module, parameter ideal) instances,
and the tests-only oracles of is_d_sequence, hdeg and torsions.

The corpus mixes the two built-in example families with Cohen-Macaulay
controls and small low-depth modules, so the inequality audit and the
theorem-consistency sweep exercise mixed, generalized-CM, and CM behaviour.
Instances are session-scoped: every derived invariant is cached on the
presentation, so later tests reuse earlier work.
"""

from math import comb

import pytest

from homdeg import (
    Algebra,
    FreeModule,
    PolyRing,
    Presentation,
    local_cohomology_duals,
    multiplicity,
)
from homdeg.invariants import _series_drop
from homdeg.monomial_ideals import poly_shift
from homdeg.verify import ProblemInstance, gen_example_39, gen_example_46


def _alg_instance(names, rel_fn, q_fn, tag, **params):
    ring = PolyRing(names)
    gens = ring.gens()
    pres = Algebra(ring, rel_fn(*gens)).as_module()
    q = list(q_fn(*gens))
    return ProblemInstance(pres, q, {"family": tag, "params": params})


def _module_instance(names, rank, twists, cols_fn, q_fn, tag, **params):
    ring = PolyRing(names)
    gens = ring.gens()
    ambient = FreeModule(ring, rank, twists)
    pres = Presentation(Algebra(ring, ()), ambient, cols_fn(ambient, *gens))
    q = list(q_fn(*gens))
    return ProblemInstance(pres, q, {"family": tag, "params": params})


def build_corpus():
    """At least 20 instances: example families, CM controls, low depth."""
    out = []
    # the two benchmark families (small members)
    for l in (1, 2, 3):
        out.append(gen_example_46(l))
    out.append(gen_example_39(2, 1))
    # Cohen-Macaulay controls
    out.append(
        _alg_instance(("x", "y"), lambda x, y: [], lambda x, y: (x, y), "poly2")
    )
    out.append(
        _alg_instance(
            ("x", "y", "z"),
            lambda x, y, z: [x**2 - y * z],
            lambda x, y, z: (y, z),
            "quadric",
        )
    )
    out.append(_alg_instance(("x",), lambda x: [], lambda x: (x,), "poly1"))
    out.append(
        _alg_instance(
            ("x", "y"), lambda x, y: [x * y], lambda x, y: (x - y,), "two_lines"
        )
    )
    out.append(
        _alg_instance(
            ("x", "y", "z"),
            lambda x, y, z: [x * y],
            lambda x, y, z: (x - y, z),
            "two_planes",
        )
    )
    out.append(
        _alg_instance(
            ("x", "y", "z"),
            lambda x, y, z: [x * y, x * z, y * z],
            lambda x, y, z: (x + y + z,),
            "three_lines",
        )
    )
    out.append(_alg_instance(("x", "y"), lambda x, y: [x**3], lambda x, y: (y,), "thick_line"))
    out.append(
        _alg_instance(
            ("x", "y"), lambda x, y: [x**2 - y**2], lambda x, y: (x,), "pair"
        )
    )
    out.append(
        _module_instance(
            ("x", "y"),
            2,
            (0, 1),
            lambda ambient, x, y: [],
            lambda x, y: (x, y),
            "free_rank2",
        )
    )
    # low-depth and mixed instances
    out.append(
        _alg_instance(
            ("x", "y"),
            lambda x, y: [x**2, x * y],
            lambda x, y: (y,),
            "line_embpt",
        )
    )
    out.append(
        _alg_instance(
            ("x", "y"),
            lambda x, y: [x**2, x * y],
            lambda x, y: (x + y,),
            "line_embpt_tilt",
        )
    )
    out.append(
        _alg_instance(
            ("x", "y"),
            lambda x, y: [x**3, x * y],
            lambda x, y: (y,),
            "line_fatpt",
        )
    )
    out.append(
        _alg_instance(
            ("x", "y", "z"),
            lambda x, y, z: [x**2, x * y, x * z],
            lambda x, y, z: (y, z),
            "plane_embpt",
        )
    )
    out.append(
        _alg_instance(
            ("x", "y", "z"),
            lambda x, y, z: [x * y, x * z],
            lambda x, y, z: (x - y, z),
            "plane_line",
        )
    )
    out.append(
        _alg_instance(
            ("x", "y", "z"),
            lambda x, y, z: [x**2, x * y],
            lambda x, y, z: (z, y),
            "plane_embline",
        )
    )
    out.append(
        _alg_instance(
            ("x", "y", "z", "w"),
            lambda x, y, z, w: [x * z, x * w, y * z, y * w],
            lambda x, y, z, w: (x - z, y - w),
            "two_planes_4d",
        )
    )
    # S/(x^2) (+) S/(y) as a rank-2 cokernel over k[x,y]
    out.append(
        _module_instance(
            ("x", "y"),
            2,
            (0, 0),
            lambda ambient, x, y: [ambient.inject(x**2, 0), ambient.inject(y, 1)],
            lambda x, y: (x + y,),
            "sum_thick_line",
        )
    )
    return out


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def ex46_family():
    return {l: gen_example_46(l) for l in (1, 2, 3)}


@pytest.fixture(scope="session")
def ex39_family():
    return {(l, m): gen_example_39(l, m) for (l, m) in ((2, 1), (3, 1), (2, 2), (3, 2), (4, 1))}


def _pair_loop_is_d_sequence(pres, seq):
    """Oracle for is_d_sequence: every pair (i, j >= i) compared by the
    Hilbert series of M/Q_{i-1}M, M/(Q_{i-1}, a_j)M and a product quotient
    M/(Q_{i-1}, a_i a_j)M, with no shortcut for a regular a_i."""
    for i in range(1, len(seq) + 1):
        a = seq[i - 1]
        quotient = pres.quotient_by_ideal(seq[: i - 1])
        for j in range(i, len(seq) + 1):
            cut = pres.quotient_by_ideal([*seq[: i - 1], seq[j - 1]])
            rhs = poly_shift(_series_drop(quotient, cut), a.homogeneous_degree())
            cols = quotient.columns + tuple(pres.ideal_times_ambient([a * seq[j - 1]]))
            by_product = Presentation(pres.algebra, pres.ambient, cols)
            if _series_drop(quotient, by_product) != rhs:
                return False, (i, j)
    return True, None


@pytest.fixture(scope="session")
def pair_loop_oracle():
    return _pair_loop_is_d_sequence


def _hdeg_over_s(pres, q):
    """hdeg by its recursion over S alone: every dual presented over S,
    none moved to fewer variables, and e0 the Samuel multiplicity at every
    level.  The oracle of the linear descent of the duals and of their
    closed-form e0."""
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


@pytest.fixture(scope="session")
def over_s_oracle():
    """(hdeg, torsions) by the recursion over S (_hdeg_over_s)."""
    return _hdeg_over_s, _torsions_over_s
