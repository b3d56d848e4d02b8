"""Minimal graded free resolutions and the graded local-cohomology duals
M_j = Ext^{n-j}_S(M, S), j = 0..dim M, obtained from them.

Everything is computed over the polynomial cover S; a module over A = S/J
is just an S-module killed by J.  The resolution is minimal (no constant
entries in any differential), so its length equals the projective
dimension and is bounded by the number of variables; depth M = n - pd M
(Auslander-Buchsbaum).  Every minimal presentation is one
groebner.minimal_lift, one tagged Groebner run that keeps a graded-Nakayama
subset of its generators and lifts their relations: F_0 comes from
Presentation.minimized, and each step takes minimal_lift(candidates, (),
F_i), whose kept candidates are the columns of d_{i+1}, whose source is
F_{i+1} and whose relations, written into F_{i+1}, are the candidates of
the next step.

Ext^i vanishes below the grade n - d, d = dim M (Bruns and Herzog,
Cohen-Macaulay Rings, 1.2.10), so the duals are Ext^{n-d}..Ext^n.  Most
readers need only their Hilbert series: F^* has homology Ext^i at
F_i^*, zero for i < n - d, so monomial_ideals.homology_series, reading
F^* backwards, takes them off the cokernels D_i = coker(d_i^*), one
Groebner basis per D_i with i > n - d (dual_series).  A dual is presented
only on demand (dual_module), as the homology of the dualized resolution:
one lift_relations for the cycles, into F_i^*, and one minimal_lift of the
cycles modulo the boundaries (Presentation.subquotient).
"""

from collections import Counter

from .errors import EngineBugError
from .freemod import FreeElement, FreeModule
from .groebner import lift_relations, minimal_lift
from .kernel import mono_mul
from .modules import Algebra, Presentation
from .monomial_ideals import homology_series, series_dim


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
    mini = pres.minimized()
    modules = [mini.ambient]
    diffs = []
    candidates = mini.relation_gens()
    guard = pres.ring.n + 2
    while candidates:
        if len(diffs) >= guard:
            raise EngineBugError("resolution exceeds the syzygy-theorem bound")
        source, kept, candidates = minimal_lift(candidates, (), modules[-1])
        diffs.append(kept)
        modules.append(source)
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


def _cokernel(res, i):
    """D_i = coker(d_i^*) = F_i^* / im(d_i^*), presented on F_i^* by the
    boundaries, the incoming columns (none at i = 0); i <= L."""
    dual_fi = _dual(res.modules[i])
    # d_i^* : F_{i-1}^* -> F_i^*, from diffs[i-1] : F_i -> F_{i-1}
    boundaries = _transpose_columns(res.diffs[i - 1], dual_fi) if i >= 1 else []
    return Presentation(Algebra(dual_fi.ring, ()), dual_fi, boundaries)


def _ext_at(res, i):
    """Ext^i_S(M, S) = ker(d_{i+1}^*) / im(d_i^*) at F_i^*, minimally
    presented over S.

    One F_i^* holds both: the boundaries, the columns of D_i, and the
    cycles, the relations of the outgoing columns written into it (all
    of F_i^* when i = L).  Ext^i is the subquotient the cycles span in
    D_i, coker.subquotient(cycles): one minimal_lift of the cycles modulo
    the boundaries, presented on a minimal subset of them.  A zero row of
    d_{i+1} is a zero outgoing column, and its basis vector of F_i^*
    keeps its own twist."""
    ring = res.modules[0].ring
    L = res.length
    if i > L:
        return Presentation(Algebra(ring, ()), FreeModule(ring, 0), ())
    coker = _cokernel(res, i)
    dual_fi = coker.ambient
    # outgoing d_{i+1}^* : F_i^* -> F_{i+1}^*, from diffs[i] : F_{i+1} -> F_i
    if i < L:
        outgoing = _transpose_columns(res.diffs[i], _dual(res.modules[i + 1]))
        cycles = lift_relations(outgoing, [], dual_fi)
    else:
        cycles = [dual_fi.basis(j) for j in range(dual_fi.rank)]
    return coker.subquotient(cycles)


def dual_series(pres):
    """Hilbert numerators [HS(M_0), ..., HS(M_d)] of the duals M_j =
    Ext^{n-j}_S(M, S), d = dim M, read off one Groebner basis per D_i with
    i > n - d (module docstring) and cached on pres.  Also validates dim M_j
    <= j for every j and dim M_d = d, where the telescoped D_{n-d} meets a
    presented D_{n-d+1} (M_d is nonzero of full dimension: Bruns and Herzog
    3.5.7 with local duality 3.5.8, localized at a minimal prime of
    dimension d), and cross-checks depth M = n - pd M (Auslander-Buchsbaum,
    pd M = L) against min{j : M_j != 0}."""
    return pres.cached("dual_series", lambda: _dual_series(pres))


def _dual_series(pres):
    n, d = pres.ring.n, pres.dim()
    if d < 0:
        return []
    res = free_resolution(pres)
    L = res.length
    # G_k = F_{L-k}^* has H_k = Ext^{L-k} and C_k = D_{L-k}
    frees = [Counter(-t for t in f.twists) for f in reversed(res.modules)]
    exts = homology_series(frees, L - (n - d), lambda k: _cokernel(res, L - k).hilbert_numerator())
    series = ([{}] * (n - L) + exts)[: d + 1]  # M_j = Ext^{n-j} = H_{L-n+j}
    for j, num in enumerate(series):  # dim M_j <= j, and dim M_d = d
        if (dim := series_dim(num, n)) > j or dim < j == d:
            raise EngineBugError(f"local cohomology dual M_{j} has dimension {dim}, dim M = {d}")
    depth_dual = next((j for j, num in enumerate(series) if num), None)
    if depth_dual != n - L:
        raise EngineBugError(
            f"depth mismatch: Auslander-Buchsbaum gives {n - L}, "
            f"first nonzero dual is {depth_dual}"
        )
    return series


def dual_module(pres, j):
    """M_j = Ext^{n-j}_S(M, S), presented by _ext_at on first use and
    cached on pres by j: the hdeg and torsion recursion and the Q H^i = 0
    test need it, every other reader takes dual_series.  Its Hilbert
    numerator must equal dual_series(pres)[j]."""
    presented = pres.cached("duals", dict)
    if j not in presented:
        num = dual_series(pres)[j]
        mj = _ext_at(free_resolution(pres), pres.ring.n - j)
        if mj.hilbert_numerator() != num:
            raise EngineBugError(f"presented dual M_{j} disagrees with its Ext series")
        presented[j] = mj
    return presented[j]


def local_cohomology_duals(pres):
    """Every dual [M_0, ..., M_d] presented, by dual_module.  The report
    never asks for them all."""
    return [dual_module(pres, j) for j in range(len(dual_series(pres)))]


def depth(pres):
    """Depth of M with respect to the irrelevant maximal ideal:
    n - pd M by Auslander-Buchsbaum."""
    if pres.is_zero():
        raise ValueError("depth of the zero module is undefined")
    return pres.ring.n - free_resolution(pres).length


def ext_codims(pres):
    """codim Ext^i = n - dim Ext^i for i = 0..n (None where Ext^i = 0),
    read off dual_series: Ext^i = 0 below n - dim M, and Ext^i = M_{n-i}
    from there on."""
    n = pres.ring.n
    series = dual_series(pres)
    tail = [n - series_dim(num, n) if num else None for num in reversed(series)]
    return [None] * (n + 1 - len(series)) + tail
