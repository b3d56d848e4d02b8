"""Minimal graded free resolutions and the graded local-cohomology duals
M_j = Ext^{n-j}_S(M, S), j = 0..dim M, obtained from them.

Everything is computed over the polynomial cover S; a module over A = S/J
is just an S-module killed by J.  The resolution is minimal (no constant
entries in any differential), so its length equals the projective
dimension and is bounded by the number of variables; depth M = n - pd M
(Auslander-Buchsbaum).  Minimality has one rule,
modules.minimal_generators (graded Nakayama), whose membership tests run
Groebner pairs only up to the degree they test: F_0 comes from
Presentation.minimized, and each syzygy step is the minimal generators of
groebner.lift_relations(columns, [], F_{i+1}), written straight into the
next free module.  Ext^i is the homology of the dualized resolution,
presented by two more lift_relations calls: the cycles, into F_i^*, then
the minimal generators of the cycles modulo the boundaries.
Only Ext^{n-d}..Ext^n are computed: Ext^i vanishes below the grade
n - d, d = dim M (Bruns and Herzog, Cohen-Macaulay Rings, 1.2.10).
"""

from .errors import EngineBugError
from .freemod import FreeElement, FreeModule
from .groebner import lift_relations
from .kernel import mono_mul
from .modules import Algebra, Presentation, minimal_generators


class FreeResolution:
    """0 <- M <- F_0 <- F_1 <- ... <- F_L <- 0 with minimal differentials.

    modules[i] is F_i; diffs[i] is the list of columns of
    d_{i+1} : F_{i+1} -> F_i, elements of the object modules[i], so
    diffs[0] presents M.
    """

    def __init__(self, modules, diffs):
        self.modules = modules
        self.diffs = diffs

    @property
    def length(self):
        return len(self.modules) - 1

    def betti_numbers(self):
        return [f.rank for f in self.modules]


def free_resolution(pres):
    """Minimal free resolution of the cokernel of a presentation.

    The input module is taken over S (its algebra's relations are folded
    into the first syzygy step).  Cached on the presentation.
    """
    return pres.cached("resolution", lambda: _resolve(pres))


def _resolve(pres):
    ring = pres.ring
    mini = pres.minimized()
    f0 = mini.ambient
    modules = [f0]
    diffs = []
    current = minimal_generators(mini.relation_gens())
    guard = ring.n + 2
    while current:
        if len(diffs) >= guard:
            raise EngineBugError("resolution exceeds the syzygy-theorem bound")
        diffs.append(current)
        source = FreeModule(ring, len(current), [g.homogeneous_degree() for g in current])
        modules.append(source)
        current = minimal_generators(lift_relations(current, [], source))
    res = FreeResolution(modules, diffs)
    _check_complex(res)
    return res


def _check_complex(res):
    """Verify d_{i} o d_{i+1} = 0 for every consecutive pair: the image of
    each column of d_{i+1} is summed term by term in one dict."""
    zero = res.modules[0].ring.field.zero
    for i in range(1, len(res.diffs)):
        prev_cols = [col.terms for col in res.diffs[i - 1]]
        for col in res.diffs[i]:
            img = {}
            for (c, m), v in col.terms.items():
                for (c2, m2), v2 in prev_cols[c].items():
                    t = (c2, mono_mul(m, m2))
                    img[t] = img.get(t, zero) + v * v2
            if any(img.values()):
                raise EngineBugError("resolution differentials do not compose to zero")


def _dual(f):
    """F^* = Hom_S(F, S): the same rank with negated twists."""
    return FreeModule(f.ring, f.rank, tuple(-t for t in f.twists))


def _transpose_columns(cols, dual):
    """Columns of the dual map: row j of the matrix whose columns are cols.

    cols, a nonempty list, are the columns of a map F -> G of free
    modules, each an element of the object G; dual is F^*.  The dual map
    goes G^* -> F^*, and its column j, an element of dual, collects entry
    j of each col (0 for a zero row)."""
    rows = [{} for _ in range(cols[0].module.rank)]
    for i, col in enumerate(cols):
        for (c, m), v in col.terms.items():
            rows[c][(i, m)] = v
    return [FreeElement(dual, t) for t in rows]


def _ext_at(res, i):
    """Ext^i_S(M, S) = ker(d_{i+1}^*) / im(d_i^*) at F_i^*, minimally
    presented over S.

    One F_i^* holds both: the boundaries, the incoming columns, and the
    cycles, the relations of the outgoing columns written into it (all
    of F_i^* when i = L).  Ext^i is the subquotient the cycles span in
    F_i^* modulo the boundaries, presented on their minimal_generators
    modulo the boundaries.  A zero row of d_{i+1} is a zero outgoing
    column, and its basis vector of F_i^* keeps its own twist."""
    ring = res.modules[0].ring
    plain = Algebra(ring, ())
    L = res.length
    if i > L:
        return Presentation(plain, FreeModule(ring, 0), ())
    dual_fi = _dual(res.modules[i])
    # incoming d_i^* : F_{i-1}^* -> F_i^*, from diffs[i-1] : F_i -> F_{i-1}
    boundaries = _transpose_columns(res.diffs[i - 1], dual_fi) if i >= 1 else []
    # outgoing d_{i+1}^* : F_i^* -> F_{i+1}^*, from diffs[i] : F_{i+1} -> F_i
    if i < L:
        outgoing = _transpose_columns(res.diffs[i], _dual(res.modules[i + 1]))
        cycles = lift_relations(outgoing, [], dual_fi)
    else:
        cycles = [dual_fi.basis(j) for j in range(dual_fi.rank)]
    f_dual = Presentation(plain, dual_fi, boundaries)
    return f_dual.subquotient(minimal_generators(cycles, boundaries))


def local_cohomology_duals(pres):
    """The graded duals of the local cohomology of M: the list
    [M_0, ..., M_d] with M_j = Ext^{n-j}_S(M, S), d = dim M, cached on
    pres.  These are the only Ext modules computed: Ext^i vanishes below
    the grade n - d.

    Also validates dim M_j <= j for every j, and cross-checks depth M =
    n - pd M (Auslander-Buchsbaum, pd M the length of the minimal
    resolution) against min{j : M_j != 0}.
    """
    return pres.cached("duals", lambda: _local_cohomology_duals(pres))


def _local_cohomology_duals(pres):
    n = pres.ring.n
    res = free_resolution(pres)
    duals = [_ext_at(res, n - j) for j in range(pres.dim() + 1)]
    for j, mj in enumerate(duals):
        if mj.dim() > j:
            raise EngineBugError(
                f"local cohomology dual M_{j} has dimension {mj.dim()} > {j}"
            )
    if pres.is_zero():
        return duals
    depth_ab = n - res.length
    depth_dual = next((j for j, mj in enumerate(duals) if not mj.is_zero()), None)
    if depth_dual != depth_ab:
        raise EngineBugError(
            f"depth mismatch: Auslander-Buchsbaum gives {depth_ab}, "
            f"first nonzero dual is {depth_dual}"
        )
    return duals


def depth(pres):
    """Depth of M with respect to the irrelevant maximal ideal:
    n - pd M by Auslander-Buchsbaum."""
    if pres.is_zero():
        raise ValueError("depth of the zero module is undefined")
    return pres.ring.n - free_resolution(pres).length


def ext_codims(pres):
    """codim Ext^i = n - dim Ext^i for i = 0..n (None where Ext^i = 0),
    read off the duals: Ext^i = 0 below n - dim M, and Ext^i = M_{n-i}
    from there on."""
    n = pres.ring.n
    duals = local_cohomology_duals(pres)
    tail = [None if e.is_zero() else n - e.dim() for e in reversed(duals)]
    return [None] * (n + 1 - len(duals)) + tail
