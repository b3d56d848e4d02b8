"""Lengths of the Koszul homology of a sequence of ring elements acting on
a module.

The Koszul complex K of a_1, ..., a_d on M has the chain module
K_i = M otimes wedge^i: one copy of M per subset T of {1..d} with
|T| = i, twisted by the sum of the degrees of the a_t so that the
differential e_T -> sum_j (-1)^pos a_{t_j} e_{T - t_j} is homogeneous of
degree zero.  With C_i = K_i / d(K_{i+1}) the cokernel (C_d = K_d), the
differential d_i induces the exact sequence of graded modules

    0 -> H_i -> C_i -> K_{i-1} -> C_{i-1} -> 0,

so HS(H_i) = HS(C_i) - HS(K_{i-1}) + HS(C_{i-1}) and H_0 = C_0.  Each
C_i with i < d is one Presentation (one Groebner basis); HS(K_i) is a sum
of shifted copies of HS(M).  The lengths are read off these series
exactly, and no homology module is ever presented.
"""

from itertools import combinations

from .errors import EngineBugError
from .freemod import FreeElement, FreeModule
from .modules import Presentation
from .monomial_ideals import poly_add, poly_shift, series_length


def _chain_module(pres, subsets, seq_degs):
    """Free module for the i-chains; component (k, j) <-> (subsets[k], b_j)
    with twist = twist_j + sum of seq degrees over subsets[k]."""
    twists = []
    for T in subsets:
        extra = sum(seq_degs[t] for t in T)
        for t in pres.twists:
            twists.append(t + extra)
    return FreeModule(pres.ring, len(subsets) * pres.rank, tuple(twists))


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


def _cokernel_numerator(pres, seq, degs, i):
    """Hilbert numerator of C_i = K_i / d(K_{i+1}) for i < d: the columns
    of M copied into every block plus the boundaries; J enters through
    the presentation's algebra.  C_0 is M/QM, shared with the other users
    of M/QM through pres.quotient_by_ideal."""
    if i == 0:
        return pres.quotient_by_ideal(seq).hilbert_numerator()
    rank = pres.rank
    subsets = list(combinations(range(len(seq)), i))
    chain = _chain_module(pres, subsets, degs)
    cols = []
    for k in range(len(subsets)):
        for col in pres.columns:
            terms = {(k * rank + c, m): v for (c, m), v in col.terms.items()}
            cols.append(FreeElement(chain, terms))
    index = {T: k for k, T in enumerate(subsets)}
    for T in combinations(range(len(seq)), i + 1):
        for j in range(rank):
            cols.append(_apply_diff(pres, seq, T, j, chain, index))
    coker = Presentation(pres.algebra, chain.rank, chain.twists, cols)
    return coker.hilbert_numerator()


def koszul_homology_lengths(pres, seq):
    """Lengths [l(H_0), ..., l(H_d)] of the Koszul homology of seq on the
    cokernel M of pres; every H_i must have finite length, which holds
    exactly when seq generates an ideal of definition for M.  Every
    element of seq must be a nonzero homogeneous ring element.

    The lengths are cached on pres, keyed by the sequence up to order (a
    permuted sequence has an isomorphic Koszul complex)."""
    return list(pres.cached("koszul_lengths", lambda: _homology_lengths(pres, seq), seq))


def _homology_lengths(pres, seq):
    d = len(seq)
    degs = []
    for a in seq:
        if not a:
            raise ValueError("Koszul sequence elements must be nonzero")
        degs.append(a.homogeneous_degree())
    num_m = pres.hilbert_numerator()
    chains = []  # HS numerators of K_0, ..., K_d
    for i in range(d + 1):
        num = {}
        for T in combinations(range(d), i):
            num = poly_add(num, poly_shift(num_m, sum(degs[t] for t in T)))
        chains.append(num)
    cokernels = [_cokernel_numerator(pres, seq, degs, i) for i in range(d)]
    cokernels.append(chains[d])
    out = []
    for i in range(d + 1):
        num = cokernels[i]
        if i > 0:
            num = poly_add(poly_add(num, chains[i - 1], sign=-1), cokernels[i - 1])
        ln = series_length(num, pres.ring.n)
        if ln is None:
            raise EngineBugError(
                f"Koszul homology H_{i} has infinite length; "
                "the sequence is not a system of parameters for the module"
            )
        if ln < 0:
            raise EngineBugError(f"Koszul homology H_{i} has negative length {ln}")
        out.append(ln)
    return tuple(out)


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
