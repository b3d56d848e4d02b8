"""Homological degree, homological torsions, the Stueckrad-Vogel invariant,
m-torsion length, and the structural predicates built on them: generalized
Cohen-Macaulayness, unmixedness, d-sequences, superficial elements, and the
length formulas expressing Samuel coefficients of a d-sequence.

Superficiality is exact: for I an ideal of definition of M (M/IM of finite
length), a in I is superficial for M iff (0 :_G a*) has finite length, G =
gr_I(M) and a* the initial form of a, both read off the Samuel route's
weighted Groebner basis.  d-sequences are tested via Hilbert series, with
each colon (Q_{i-1}M : f) read off those of M/Q_{i-1}M and M/(Q_{i-1}, f)M.
"""

from dataclasses import dataclass
from math import comb

from .errors import EngineBugError
from .groebner import normal_forms
from .hilbert import (
    HilbertCoefficients, associated_graded, hilbert_coefficients, multiplicity
)
from .koszul import euler_char_1
from .modules import (
    LinearBaseChange,
    Presentation,
    check_ideal_ring,
    check_parameter_ideal,
    colon_by_ideal,
    linear_annihilators,
    saturate,
)
from .monomial_ideals import poly_add, poly_shift, series_dim, series_length
from .resolution import depth as depth_of, dual_module, ext_codims
from .resolution import dual_series as _duals


class NotDSequenceError(ValueError):
    """Raised with the first failing colon pair when a sequence is required
    to be a d-sequence but is not."""

    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"not a d-sequence: colon test fails at (i, j) = {pair}")


def hdeg(pres, q_gens):
    """Homological degree of M with respect to the ideal Q:

        hdeg = e0(Q; M) + sum_{j=0}^{s-1} C(s-1, j) hdeg(M_j)   (s = dim M),

    with hdeg = l(M) when s <= 0.  The recursion descends through the
    graded local-cohomology duals and terminates because dim M_j <= j < s.
    A dual of dimension <= 0 adds its length, read off dual_series; only
    an M_j of dimension >= 1 is presented (dual_module).  It is taken,
    with Q, over S' = S/(l) for the linear forms l that kill it
    (modules.linear_annihilators; the pair cached on M_j): lengths and e0
    are the same there, and by Rees' lemma so are the duals of M_j up to
    a twist, so hdeg is too.  M itself stays over S.
    Cached on pres, keyed by Q, so the duals (cached on pres too) keep
    their own hdeg across calls.
    """
    check_ideal_ring(pres, q_gens)
    if pres.is_zero():
        return 0
    return pres.cached("hdeg", lambda: _hdeg(pres, q_gens), q_gens)


def _hdeg(pres, q_gens):
    s = pres.dim()
    if s <= 0:
        return pres.length()
    out = multiplicity(pres, q_gens)
    for j in range(s):
        out += comb(s - 1, j) * _dual_hdeg(pres, j, q_gens)
    return out


def _dual_hdeg(pres, j, q_gens):
    """hdeg(M_j): its length off dual_series when dim M_j <= 0, else that
    of the presented M_j over S/(l) (see hdeg)."""
    num, n = _duals(pres)[j], pres.ring.n
    if series_dim(num, n) < 1:
        return series_length(num, n)
    dual = dual_module(pres, j)

    def descend():
        change = LinearBaseChange(dual.ring, linear_annihilators(dual))
        return change, change.presentation(dual)

    change, down = dual.cached("descent", descend)
    return hdeg(down, [change.poly(g) for g in q_gens])


def torsion(pres, q_gens, i):
    """Homological torsion T^i = sum_{j=1}^{s-i} C(s-i-1, j-1) hdeg(M_j)."""
    s = pres.dim()
    if s < 2:
        raise ValueError("torsion requires dim M >= 2")
    if not 1 <= i <= s - 1:
        raise ValueError(f"torsion index {i} out of range 1..{s - 1}")
    return sum(
        comb(s - i - 1, j - 1) * _dual_hdeg(pres, j, q_gens) for j in range(1, s - i + 1)
    )


def torsions(pres, q_gens):
    """(T^1, ..., T^{s-1}); empty for dim < 2."""
    s = pres.dim()
    if s < 2:
        return ()
    return tuple(torsion(pres, q_gens, i) for i in range(1, s))


def h0_torsion_gens(pres):
    """Reduced Groebner basis of (0 :_M m^infinity) + relations inside the
    ambient of pres, cached on pres."""
    return pres.cached("h0_sat", lambda: saturate(pres, [], pres.algebra.irrelevant_gens()))


def h0_torsion_module(pres):
    """H^0_m(M) = (0 :_M m^infinity) presented as a module."""
    return pres.subquotient(h0_torsion_gens(pres))


def _series_drop(quotient, cut):
    """HS(F/N) - HS(F/N') as a numerator, for quotient = F/N, cut = F/N' and
    N in N'.  For N' = N + fF it is t^(deg f) HS(F/(N : f)), f homogeneous:
    0 -> F/(N : f)(-deg f) -> F/N -> F/(N + fF) -> 0 (times f) is exact."""
    return poly_add(quotient.hilbert_numerator(), cut.hilbert_numerator(), sign=-1)


def _sub_length(quotient, gens):
    """l(<gens> / N) for quotient = F/N and gens in F spanning a submodule
    containing N, read off HS(F/N) - HS(F/<gens>); None if infinite.  It
    is 0 when every generator lies in N, which one packing of N's cached
    basis decides; otherwise F/<gens> costs one Groebner basis.  No
    submodule is presented."""
    if not any(normal_forms(gens, quotient.gb())):
        return 0
    outer = Presentation(quotient.algebra, quotient.ambient, gens)
    return series_length(_series_drop(quotient, outer), quotient.ring.n)


def h0_length(pres):
    """l(H^0_m(M)), cached on pres.  Computed once from the Hilbert series
    of M and of F/(0 :_M m^infinity), and cross-checked against the length
    of the dual module M_0 (duality preserves length), read off
    dual_series."""
    return pres.cached("h0_length", lambda: _h0_length(pres))


def _h0_length(pres):
    if pres.is_zero():
        return 0
    via_sat = _sub_length(pres, h0_torsion_gens(pres))
    if via_sat is None:
        raise EngineBugError("m-torsion submodule has infinite length")
    via_dual = series_length(_duals(pres)[0], pres.ring.n)
    if via_sat != via_dual:
        raise EngineBugError(
            f"H^0 length mismatch: saturation gives {via_sat}, "
            f"dual module gives {via_dual}"
        )
    return via_sat


def is_generalized_cm(pres):
    """True iff every dual M_j with j < dim M has finite length, read off
    dual_series."""
    s = pres.dim()
    if s <= 0:
        return True
    duals = _duals(pres)
    return all(series_dim(duals[j], pres.ring.n) <= 0 for j in range(s))


def stuckrad_vogel(pres, q_gens=None):
    """The invariant sum C(s-1, j) l(M_j) over j < s, defined exactly for
    generalized Cohen-Macaulay modules; None otherwise.  Each l(M_j) is
    read off dual_series.

    With the ideal supplied, the identity sv = hdeg - e0 is asserted.
    """
    if pres.is_zero():
        return 0
    if not is_generalized_cm(pres):
        return None
    s = pres.dim()
    duals = _duals(pres)
    sv = sum(comb(s - 1, j) * series_length(duals[j], pres.ring.n) for j in range(s))
    if q_gens is not None and s > 0:
        h = hdeg(pres, q_gens)
        e0 = multiplicity(pres, q_gens)
        if sv != h - e0:
            raise EngineBugError(
                f"Stueckrad-Vogel identity fails: {sv} != {h} - {e0}"
            )
    return sv


def is_unmixed(pres):
    """True iff every associated prime has maximal dimension, decided by the
    codimension criterion on the transposed-resolution cohomology: M is
    unmixed iff codim Ext^i >= i + 1 for every i > n - dim M."""
    if pres.is_zero():
        raise ValueError("unmixedness of the zero module is undefined")
    n = pres.ring.n
    c = n - pres.dim()
    for i, codim in enumerate(ext_codims(pres)):
        if codim is None or i <= c:
            continue
        if codim < i + 1:
            return False
    return True


def is_d_sequence(pres, seq):
    """Test the colon conditions

        ((a_1..a_{i-1})M : a_i a_j) = ((a_1..a_{i-1})M : a_j),  1 <= i <= j <= d.

    Returns (True, None) or (False, (i, j)) with the first failing pair.
    No colon is presented: for N = relations + Q_{i-1}F, (N : a_j) lies in
    (N : a_i a_j), so they are equal iff their quotients of F have one
    Hilbert series, by _series_drop iff t^(deg a_i) (HS(M/Q_{i-1}M) -
    HS(M/(Q_{i-1}, a_j)M)) = HS(M/Q_{i-1}M) - HS(M/(Q_{i-1}, a_i a_j)M),
    the last quotient used once and not cached.
    """
    check_ideal_ring(pres, seq)
    d = len(seq)
    for i in range(1, d + 1):
        a = seq[i - 1]
        quotient = pres.quotient_by_ideal(seq[: i - 1])
        for j in range(i, d + 1):
            cut = pres.quotient_by_ideal([*seq[: i - 1], seq[j - 1]])
            rhs = poly_shift(_series_drop(quotient, cut), a.homogeneous_degree())
            cols = quotient.columns + tuple(pres.ideal_times_ambient([a * seq[j - 1]]))
            by_product = Presentation(pres.algebra, pres.ambient, cols)
            if _series_drop(quotient, by_product) != rhs:
                return False, (i, j)
    return True, None


def is_superficial(pres, a, ideal_gens):
    """True iff a in I is superficial for M with respect to I, decided
    exactly on G = gr_I(M) (Rossi and Valla, Hilbert Functions of Filtered
    Modules, 2010): a is superficial iff (0 :_G a*) vanishes in high
    degree, a* the initial form of a in I/I^2.  I must be an ideal of
    definition (M/IM of finite length); then every graded piece of G has
    finite length, and the criterion is that (0 :_G a*) has finite length.

    G and a* come from the weighted basis of the Samuel route.  Raises
    ValueError for a = 0, for M/IM of infinite length and for a not in
    I + J.
    """
    if not a:
        raise ValueError("the zero element is never superficial")
    if pres.quotient_by_ideal(ideal_gens).length() is None:
        raise ValueError("M/IM has infinite length: I is not an ideal of definition")
    gr, a_star = associated_graded(pres, ideal_gens, a)
    return _sub_length(gr, colon_by_ideal(gr, [], [a_star])) is not None


def dseq_coefficients(pres, seq):
    """Samuel coefficients of Q = (seq) on M assembled from colon and
    m-torsion lengths, valid when seq is a d-sequence and a system of
    parameters:

        e0 = l(M/QM) - l((Q_{d-1}M : a_d) / Q_{d-1}M)
        (-1)^i e_i = l(H^0(M/Q_{d-i}M)) - l(H^0(M/Q_{d-i-1}M)),  1 <= i <= d-1
        (-1)^d e_d = l(H^0(M))

    The colon correction is l((N : a_d)/N), N = Q_{d-1}F + relations, the
    kernel of a_d on M' = M/Q_{d-1}M; by _series_drop its series times
    t^(deg a_d) is t^(deg a_d) HS(M') - (HS(M') - HS(M/QM)).  A mismatch
    with the exact Samuel polynomial is fatal.  M must have positive
    dimension: at d = 0 the zero ideal is no Samuel ideal, so there is no
    polynomial to check against.  Returns (HilbertCoefficients, details).
    """
    if pres.dim() < 1:
        raise ValueError("the d-sequence formulas concern modules of positive dimension")
    d = len(seq)
    ok, pair = is_d_sequence(pres, seq)
    if not ok:
        raise NotDSequenceError(pair)
    check_parameter_ideal(pres, seq)
    details = {}

    l_mqm = details["l_M_QM"] = pres.quotient_by_ideal(seq).length()
    quotient = pres.quotient_by_ideal(seq[: d - 1])
    shifted = poly_shift(quotient.hilbert_numerator(), seq[d - 1].homogeneous_degree())
    kernel = poly_add(shifted, _series_drop(quotient, pres.quotient_by_ideal(seq)), sign=-1)
    correction = series_length(kernel, pres.ring.n)
    if correction is None:
        raise EngineBugError("colon correction module has infinite length")
    details["l_colon_correction"] = correction
    e = [l_mqm - correction]
    for i in range(1, d):
        hi, lo = (h0_length(pres.quotient_by_ideal(seq[:k])) for k in (d - i, d - i - 1))
        details[f"h0_M_Q{d - i}M"], details[f"h0_M_Q{d - i - 1}M"] = hi, lo
        e.append((-1) ** i * (hi - lo))
    details["h0_M"] = h0_length(pres)
    e.append((-1) ** d * details["h0_M"])
    samuel = hilbert_coefficients(pres, seq)
    if tuple(e) != samuel.e:
        raise EngineBugError(
            f"d-sequence coefficient formulas give {tuple(e)} but the "
            f"Samuel polynomial has {samuel.e}"
        )
    return samuel, details


@dataclass(frozen=True)
class InvariantReport:
    """All numerical invariants of one (module, parameter ideal) instance."""

    dim: int
    depth: int
    e: HilbertCoefficients
    hdeg: int
    torsions: tuple
    h0_length: int
    sv_invariant: object  # int or None
    chi1: int
    generalized_cm: bool
    unmixed: bool
    cohen_macaulay: bool


def invariant_report(pres, q_gens):
    """The full report of (M, Q), cached on pres and keyed by Q: every
    check reads its numbers from here.  Q must be a parameter ideal of M,
    as decided by modules.check_parameter_ideal, the one contract; it
    raises ValueError before anything is computed.  The internal
    cross-checks (Serre identity, duality of H^0 lengths, Stueckrad-Vogel
    identity, chi1 <= hdeg - e0) all run as part of the computation and
    raise EngineBugError on any inconsistency."""
    return pres.cached("report", lambda: _invariant_report(pres, q_gens), q_gens)


def _invariant_report(pres, q_gens):
    check_parameter_ideal(pres, q_gens)
    s = pres.dim()
    dep = depth_of(pres)
    e = hilbert_coefficients(pres, q_gens)
    h = hdeg(pres, q_gens)
    t = torsions(pres, q_gens)
    h0 = h0_length(pres)
    sv = stuckrad_vogel(pres, q_gens)
    chi1 = euler_char_1(pres, q_gens, multiplicity=e[0]) if s >= 1 else 0
    gcm = is_generalized_cm(pres)
    unm = is_unmixed(pres)
    cm = dep == s
    if h < e[0]:
        raise EngineBugError(f"hdeg {h} < multiplicity {e[0]}")
    if chi1 > h - e[0]:
        raise EngineBugError(f"chi1 {chi1} exceeds hdeg - e0 = {h - e[0]}")
    if cm and (h != e[0] or chi1 != 0):
        raise EngineBugError("Cohen-Macaulay module with hdeg > e0 or chi1 != 0")
    return InvariantReport(
        dim=s,
        depth=dep,
        e=e,
        hdeg=h,
        torsions=t,
        h0_length=h0,
        sv_invariant=sv,
        chi1=chi1,
        generalized_cm=gcm,
        unmixed=unm,
        cohen_macaulay=cm,
    )
