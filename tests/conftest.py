"""Shared fixtures: the audit corpus of (module, parameter ideal) instances.

The corpus mixes the two built-in example families with Cohen-Macaulay
controls and small low-depth modules, so the inequality audit and the
theorem-consistency sweep exercise mixed, generalized-CM, and CM behaviour.
Instances are session-scoped: every derived invariant is cached on the
presentation, so later tests reuse earlier work.
"""

import pytest

from homdeg import Algebra, FreeModule, PolyRing, Presentation
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
