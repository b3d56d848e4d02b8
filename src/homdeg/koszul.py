"""Koszul homology of a sequence of ring elements acting on a module.

H_i(a_1, ..., a_d; M) is computed from the explicit Koszul complex
M otimes wedge^i: the chain module in degree i has one copy of M per
subset T of {1..d} with |T| = i, twisted by sum of the degrees of the a_t
so that the differential e_T -> sum_j (-1)^pos a_{t_j} e_{T - t_j} is
homogeneous of degree zero.  Cycles and boundaries are found by
modules.homology, the helper Ext (resolution) shares, on top of
groebner.lift_relations, so everything stays exact.
"""

from itertools import combinations

from .errors import EngineBugError
from .freemod import FreeElement, FreeModule
from .modules import homology, ideal_cache_key


def koszul_homology(pres, seq):
    """[H_0, ..., H_d] of the Koszul complex of seq on M, as Presentations.

    M is the cokernel of pres.  Every element of seq must be a nonzero
    homogeneous ring element.
    """
    d = len(seq)
    degs = []
    for a in seq:
        if not a:
            raise ValueError("Koszul sequence elements must be nonzero")
        degs.append(a.homogeneous_degree())
    return [_homology_at(pres, seq, degs, i) for i in range(d + 1)]


def _chain_module(pres, subsets, seq_degs):
    """Free module for the i-chains; component (k, j) <-> (subsets[k], b_j)
    with twist = twist_j + sum of seq degrees over subsets[k]."""
    twists = []
    for T in subsets:
        extra = sum(seq_degs[t] for t in T)
        for t in pres.twists:
            twists.append(t + extra)
    return FreeModule(pres.ring, len(subsets) * pres.rank, tuple(twists))


def _chain_relations(pres, chain, copies):
    """The relations of M placed in every copy inside the chain module."""
    rank = pres.rank
    out = []
    for rel in pres.relation_gens():
        for k in range(copies):
            terms = {(k * rank + c, m): v for (c, m), v in rel.terms.items()}
            out.append(FreeElement(chain, terms))
    return out


def _apply_diff(pres, seq, T, j, target_chain, target_index):
    """d(e_T otimes b_j) inside the target chain module."""
    rank = pres.rank
    out = target_chain.zero()
    for pos, t in enumerate(T):
        rest = T[:pos] + T[pos + 1 :]
        k = target_index[rest]
        a = seq[t] if pos % 2 == 0 else -seq[t]
        terms = {(k * rank + j, m): v for m, v in a.terms.items()}
        out = out + FreeElement(target_chain, terms)
    return out


def _homology_at(pres, seq, degs, i):
    d = len(seq)
    rank = pres.rank
    subsets_i = list(combinations(range(d), i))
    chain_i = _chain_module(pres, subsets_i, degs)
    chain_rels = _chain_relations(pres, chain_i, len(subsets_i))

    # the images of the (T, j) basis under d_i: the cycles are their
    # relations modulo the relations of M in the copies of chain i-1
    images, lower_rels = None, []
    if i > 0:
        subsets_im1 = list(combinations(range(d), i - 1))
        chain_im1 = _chain_module(pres, subsets_im1, degs)
        lower_index = {T: k for k, T in enumerate(subsets_im1)}
        lower_rels = _chain_relations(pres, chain_im1, len(subsets_im1))
        images = [
            _apply_diff(pres, seq, T, j, chain_im1, lower_index)
            for T in subsets_i
            for j in range(rank)
        ]

    boundaries = []
    if i < d:
        index_i = {T: k for k, T in enumerate(subsets_i)}
        for T in combinations(range(d), i + 1):
            for j in range(rank):
                boundaries.append(_apply_diff(pres, seq, T, j, chain_i, index_i))

    return homology(pres.algebra, chain_i, images, lower_rels, boundaries + chain_rels)


def koszul_homology_lengths(pres, seq):
    """Lengths [l(H_0), ..., l(H_d)]; every H_i must have finite length,
    which holds exactly when seq generates an ideal of definition for M.

    The lengths (not the homology modules) are cached on pres, keyed by
    the sequence up to order (a permuted sequence has an isomorphic
    Koszul complex)."""
    key = ideal_cache_key("koszul_lengths", seq)
    cached = pres._cache.get(key)
    if cached is not None:
        return list(cached)
    out = []
    for i, h in enumerate(koszul_homology(pres, seq)):
        ln = h.length()
        if ln is None:
            raise EngineBugError(
                f"Koszul homology H_{i} has infinite length; "
                "the sequence is not a system of parameters for the module"
            )
        out.append(ln)
    pres._cache[key] = tuple(out)
    return out


def euler_char_1(pres, seq, multiplicity=None):
    """chi_1 = sum_{i>=1} (-1)^(i-1) l(H_i(seq; M)).

    When the Samuel multiplicity of seq on M is supplied, the identity
    chi_1 = l(M/(seq)M) - e(seq; M) is checked exactly; a mismatch means
    the engine miscomputed and is fatal.
    """
    lens = koszul_homology_lengths(pres, seq)
    chi1 = 0
    sign = 1
    for ln in lens[1:]:
        chi1 += sign * ln
        sign = -sign
    if multiplicity is not None:
        if lens[0] - multiplicity != chi1:
            raise EngineBugError(
                f"Euler characteristic inconsistency: chi_1 = {chi1} but "
                f"l(M/QM) - e = {lens[0]} - {multiplicity}"
            )
    return chi1
