"""Minimal graded free resolutions, Ext against the ring, and the graded
local-cohomology duals obtained from them.

Everything is computed over the polynomial cover S; a module over A = S/J
is just an S-module killed by J.  The resolution is minimal (no constant
entries in any differential), so its length equals the projective
dimension and is bounded by the number of variables.  Each syzygy step
is groebner.lift_relations(columns, []), minimally generated.  Ext is the
homology of the dualized resolution, presented by two more lift_relations
calls: the cycles, then the cycles modulo the boundaries.
"""

from .errors import EngineBugError
from .freemod import FreeElement, FreeModule
from .groebner import lift_relations
from .modules import Algebra, Presentation, minimal_generators
from .ring import Polynomial


class FreeResolution:
    """0 <- M <- F_0 <- F_1 <- ... <- F_L <- 0 with minimal differentials.

    modules[i] is F_i; diffs[i] (for i >= 1) is the list of columns of
    d_i : F_i -> F_{i-1}.
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
        lower = modules[-1]
        # re-home the columns in the target of the differential
        cols = [FreeElement(lower, dict(g.terms)) for g in current]
        diffs.append(cols)
        degs = tuple(g.homogeneous_degree() for g in current)
        modules.append(FreeModule(ring, len(current), degs))
        current = minimal_generators(lift_relations(current, []))
    res = FreeResolution(modules, diffs)
    _check_complex(res)
    return res


def _check_complex(res):
    """Verify d_{i} o d_{i+1} = 0 for every consecutive pair."""
    for i in range(1, len(res.diffs)):
        prev_cols = res.diffs[i - 1]
        lower = res.modules[i - 1]
        for col in res.diffs[i]:
            img = lower.zero()
            for (c, m), v in col.terms.items():
                img = img + Polynomial(lower.ring, {m: v}) * prev_cols[c]
            if img:
                raise EngineBugError("resolution differentials do not compose to zero")


def _transpose_columns(cols, source, target):
    """Columns of the dual map: row i of the matrix whose columns are cols.

    cols : source -> target (free modules); the dual map goes
    target^* -> source^*, and its column j collects entry j of each col.
    """
    dual_source = FreeModule(target.ring, target.rank, tuple(-t for t in target.twists))
    dual_target = FreeModule(source.ring, source.rank, tuple(-t for t in source.twists))
    rows = [{} for _ in range(target.rank)]
    for i, col in enumerate(cols):
        for (c, m), v in col.terms.items():
            rows[c][(i, m)] = v
    return dual_source, dual_target, [FreeElement(dual_target, t) for t in rows]


def ext_modules(pres):
    """The tuple of Ext^i_S(M, S) for i = 0..n as Presentations over S,
    cached on pres.

    Computed as homology of the dualized minimal resolution,
    Ext^i = ker(d_{i+1}^*) / im(d_i^*), as minimal presentations.
    """

    def compute():
        plain = Algebra(pres.ring, ())
        res = free_resolution(pres)
        return tuple(_ext_at(plain, res, i) for i in range(pres.ring.n + 1))

    return pres.cached("ext", compute)


def _ext_at(plain, res, i):
    """Ext^i = ker(d_{i+1}^*) / im(d_i^*) at F_i^*, minimally presented.

    The cycles are the relations of the outgoing columns, re-homed to
    F_i^* (all of F_i^* when i = L); Ext^i is the subquotient they span
    in F_i^* modulo the boundaries, the incoming columns."""
    L = res.length
    if i > L:
        return Presentation(plain, 0, (), ())
    fi = res.modules[i]
    dual_fi = FreeModule(plain.ring, fi.rank, tuple(-t for t in fi.twists))
    # incoming dual map d_i^* : F_{i-1}^* -> F_i^*  (image = boundaries)
    if i >= 1:
        # diffs[i-1] maps F_i -> F_{i-1}; its transpose maps F_{i-1}^* to
        # F_i^*, so the boundary columns live in F_i^*.
        _, _, boundaries = _transpose_columns(
            res.diffs[i - 1], res.modules[i], res.modules[i - 1]
        )
    else:
        boundaries = []
    # outgoing dual map d_{i+1}^* : F_i^* -> F_{i+1}^*  (kernel = cycles)
    if i < L:
        _, _, outgoing = _transpose_columns(res.diffs[i], res.modules[i + 1], res.modules[i])
        cycles = [FreeElement(dual_fi, a.terms) for a in lift_relations(outgoing, [])]
    else:
        cycles = [dual_fi.basis(j) for j in range(dual_fi.rank)]
    f_dual = Presentation(plain, dual_fi.rank, dual_fi.twists, boundaries)
    return f_dual.subquotient(cycles).minimized()


def local_cohomology_duals(pres):
    """The graded duals of the local cohomology of M: the list
    [M_0, ..., M_d] with M_j = Ext^{n-j}_S(M, S), d = dim M.

    Also validates dim M_j <= j for every j, and cross-checks
    depth M = n - max{i : Ext^i != 0} against min{j : M_j != 0}.
    """
    ring = pres.ring
    n = ring.n
    d = pres.dim()
    exts = ext_modules(pres)
    duals = [exts[n - j] for j in range(d + 1)]
    for j, mj in enumerate(duals):
        if mj.dim() > j:
            raise EngineBugError(
                f"local cohomology dual M_{j} has dimension {mj.dim()} > {j}"
            )
    nonzero = [i for i, e in enumerate(exts) if not e.is_zero()]
    if pres.is_zero():
        return duals
    if not nonzero:
        raise EngineBugError("nonzero module with all Ext groups zero")
    depth_ab = n - max(nonzero)
    depth_dual = next((j for j, mj in enumerate(duals) if not mj.is_zero()), None)
    if depth_dual is None or depth_dual != depth_ab:
        raise EngineBugError(
            f"depth mismatch: Auslander-Buchsbaum gives {depth_ab}, "
            f"first nonzero dual is {depth_dual}"
        )
    return duals


def depth(pres):
    """Depth of M with respect to the irrelevant maximal ideal."""
    if pres.is_zero():
        raise ValueError("depth of the zero module is undefined")
    ring = pres.ring
    exts = ext_modules(pres)
    nonzero = [i for i, e in enumerate(exts) if not e.is_zero()]
    if not nonzero:
        raise EngineBugError("nonzero module with all Ext groups zero")
    return ring.n - max(nonzero)


def ext_codims(pres):
    """codim Ext^i = n - dim Ext^i for i = 0..n (None where Ext^i = 0)."""
    ring = pres.ring
    exts = ext_modules(pres)
    out = []
    for e in exts:
        if e.is_zero():
            out.append(None)
        else:
            out.append(ring.n - e.dim())
    return out
