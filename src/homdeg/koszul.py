"""Lengths of the Koszul homology H_i(Q; M) of a system of parameters
Q = (a_1, ..., a_d) of M, read off the minimal free resolution F of M.

Contract: (a_1, ..., a_d) is a parameter ideal of M, as decided by the
one test modules.check_parameter_ideal, and d = dim M; anything else
raises ValueError before any homology is computed.

Such a Q is generated by an S-regular sequence (S the polynomial ring in
n variables): ht(ann M) = n - d and Q + ann M is m-primary, so the
intersection inequality in the regular ring S gives ht Q >= d, and d
forms spanning an ideal of height d in the Cohen-Macaulay ring S are
regular.  So K(Q; S) resolves S/Q, and H_i(Q; M) = Tor_i^S(S/Q, M) =
H_i(F otimes S/Q) (Bruns and Herzog, Cohen-Macaulay Rings, 1.6).  The
series of F_j otimes S/Q is prod_t (1 - t^deg a_t) / (1-t)^n times sum_k
t^(twist_k of F_j).  As Q + ann M is m-primary, H_i(Q; M) = 0 above
d - grade(Q, M) = d - depth M = pd M - (n - d), the grade bound of
dual_series, and not at it (1.6.17; a fatal check).  So homology_series
reads the H_i off these series and the cokernels C_i = F_i / (Q F_i +
im d_{i+1}) below max(pd M - (n - d), 1).  C_0 is M/QM, cached on M.
Each other C_i costs one Groebner basis, over fewer variables when Q has
linear generators l_1..l_r: C_i is killed by them, so it is the cokernel
over S' = S/(l) (modules.LinearBaseChange) of the image of d_{i+1} and of
the images of Q's other generators times F_i.  Its numerator over
(1-t)^(n-r), times (1-t)^r, is the one over (1-t)^n.  No homology module
is ever presented.
"""

from .errors import EngineBugError
from .modules import (
    Algebra,
    LinearBaseChange,
    NotParameterIdealError,
    Presentation,
    check_parameter_ideal,
)
from .monomial_ideals import homology_series, poly_add, poly_shift, series_length
from .resolution import free_resolution


def koszul_homology_lengths(pres, seq):
    """Lengths [l(H_0), ..., l(H_d)] of the Koszul homology of a system of
    parameters seq on the cokernel M of pres; ValueError unless seq is one
    (see the module docstring).

    The lengths are cached on pres, keyed by the sequence up to order (a
    permuted sequence has an isomorphic Koszul complex)."""
    return list(pres.cached("koszul_lengths", lambda: _homology_lengths(pres, seq), seq))


def _homology_lengths(pres, seq):
    check_parameter_ideal(pres, seq)
    d = pres.dim()
    if len(seq) != d:  # a sequence, unlike an ideal, has d terms at d = 0 too
        raise NotParameterIdealError(f"{len(seq)} generators, but dim M = {d}")
    res = free_resolution(pres)
    s_mod_q = {0: 1}  # HS numerator of S/Q
    for a in seq:
        s_mod_q = poly_add(s_mod_q, poly_shift(s_mod_q, a.degree()), sign=-1)
    frees = [{}] * max(d + 1, len(res.modules))  # HS of F_j otimes S/Q
    for j, f in enumerate(res.modules):
        for t in f.twists:
            frees[j] = poly_add(frees[j], poly_shift(s_mod_q, t))
    change = LinearBaseChange(pres.ring, [a for a in seq if a.degree() == 1])
    others = [change.poly(a) for a in seq if a.degree() != 1]
    plain = Algebra(change.target)

    def cokernel(i):
        if i == 0:
            return pres.quotient_by_ideal(seq).hilbert_numerator()
        f = change.free(res.modules[i])
        # Q F_i ahead of the boundaries: Buchberger runs shorter that way
        q_f = [f.inject(a, c) for a in others for c in range(f.rank)]
        cols = [change.element(col, f) for col in res.diffs[i]]
        num = Presentation(plain, f, q_f + cols).hilbert_numerator()
        for _ in change.pivots:  # back over (1-t)^n
            num = poly_add(num, poly_shift(num, 1), sign=-1)
        return num

    top = res.length - (pres.ring.n - d)  # d - depth M
    out = []
    for i, num in enumerate(homology_series(frees, max(top, 1), cokernel)[: d + 1]):
        ln = series_length(num, pres.ring.n)
        if ln is None:
            raise EngineBugError(f"Koszul homology H_{i} has infinite length")
        if ln < 0:
            raise EngineBugError(f"Koszul homology H_{i} has negative length {ln}")
        out.append(ln)
    if (last := max((i for i, ln in enumerate(out) if ln), default=-1)) != top:
        raise EngineBugError(f"Koszul homology ends at H_{last}, but d - depth M = {top}")
    return tuple(out)


def euler_char_1(pres, seq, multiplicity):
    """chi_1 = sum_{i>=1} (-1)^(i-1) l(H_i(seq; M)) for a system of
    parameters seq = (a_1, ..., a_d) of M.

    Serre's identity chi_1 = l(M/(seq)M) - e0, with the required Samuel
    multiplicity e0 = e(seq; M), is checked exactly and fatal on a mismatch.
    Every cokernel C_i cancels in the alternating sum, so it compares e0
    with e(M) * prod deg a_i, read off the twists of F: no C_i with i >= 1
    enters it, and a wrong one passes."""
    lens = koszul_homology_lengths(pres, seq)
    chi1 = sum((-1) ** i * ln for i, ln in enumerate(lens[1:]))
    if lens[0] - multiplicity != chi1:
        raise EngineBugError(
            f"Euler characteristic inconsistency: chi_1 = {chi1} but "
            f"l(M/QM) - e = {lens[0]} - {multiplicity}"
        )
    return chi1
