"""Hilbert series and Hilbert-Samuel functions, polynomials, and
multiplicities with respect to an ideal generated by homogeneous forms.

One route serves every homogeneous Q.  The package's one linear change of
coordinates (modules.LinearBaseChange), with S kept as its target rather
than S/(l) as for Tor and the descent of the duals, turns the linear
generators of Q into variables x_p (p a pivot).  Each remaining
generator f_j is adjoined as a new variable u_j of degree deg f_j, with
the relations u_j e_i - f_j e_i: then M' = F'/(N + (u_j - f_j)F') is M
again, and (x_P, u)^n M' = Q^n M.  One Groebner basis of the relations
under the pivot-weight order (weight 1 on the x_p and the u_j, smaller
weight first) presents gr_Q(M) by its initial module, and the bigraded
Hilbert series of that monomial module (pivot degree, other degree) gives
the Samuel polynomial exactly: its coefficients, its postulation number
and its value table.  Nothing is sampled.  When every generator is
linear, no variable is adjoined.  The same basis presents gr_Q(M) itself
(associated_graded), on which superficiality is decided.
"""

from dataclasses import dataclass
from math import comb

from .errors import EngineBugError, InhomogeneousError
from .freemod import FreeElement, FreeModule
from .groebner import GroebnerEngine, TermOrder
from .modules import Algebra, LinearBaseChange, Presentation, check_ideal_ring
from .monomial_ideals import hilbert_numerators, poly_add, reduce_pole, series_length
from .ring import PolyRing, Polynomial


@dataclass(frozen=True)
class HilbertCoefficients:
    """The Samuel polynomial of Q on M in binomial form:

        l(M / Q^(n+1) M) = sum_i (-1)^i e[i] C(n + s - i, s - i)  (n >= postulation)

    samples holds the Samuel function l(M / Q^(n+1) M) for
    n <= postulation + 2s + 2, read off the Hilbert series of gr_Q(M).
    """

    s: int
    e: tuple
    postulation: int
    samples: tuple

    def __iter__(self):
        return iter(self.e)

    def __getitem__(self, i):
        return self.e[i]

    def __len__(self):
        return len(self.e)

    def value_at(self, n):
        return _eval_samuel(self.e, n, self.s)


def _ideal_gens(q_gens):
    """The nonzero generators of Q, each checked homogeneous and of
    positive degree."""
    gens = [g for g in q_gens if g]
    if not gens:
        raise ValueError("Samuel function needs a nonzero ideal")
    for g in gens:
        if not g.is_homogeneous():
            raise InhomogeneousError(repr(g))
        if g.degree() == 0:
            raise ValueError("Samuel function needs a proper ideal: Q contains a unit")
    return gens


def _adjoin(pres, others):
    """(ambient, relations) of M' = F'/(N + (u_j - f_j)F') over the ring
    with a variable u_j of degree deg f_j appended for each f_j."""
    ring = pres.ring
    n, k = ring.n, len(others)
    big = PolyRing(
        ring.names + tuple(f"u{j}" for j in range(k)),
        ring.field,
        ring.degree_cap,
        ring.degrees + tuple(f.degree() for f in others),
    )
    ambient = FreeModule(big, pres.rank, pres.twists)
    pad = (0,) * k
    rels = [
        FreeElement(ambient, {(c, m + pad): v for (c, m), v in r.terms.items()})
        for r in pres.relation_gens()
    ]
    one = ring.field.one
    for j, f in enumerate(others):
        u = (0,) * (n + j) + (1,) + (0,) * (k - j - 1)
        for i in range(pres.rank):
            terms = {(i, m + pad): -v for m, v in f.terms.items()}
            terms[(i, u)] = one
            rels.append(FreeElement(ambient, terms))
    return ambient, rels


def check_ideal_of_definition(pres, q_gens):
    """ValueError unless M/QM (cached on M) has finite length."""
    if pres.quotient_by_ideal(q_gens).length() is None:
        raise ValueError("not an ideal of definition: M/QM has infinite length")


def hilbert_coefficients(pres, q_gens):
    """The Samuel polynomial of Q on M in binomial form, cached on pres."""
    check_ideal_ring(pres, q_gens)
    if pres.dim() < 0:
        raise ValueError("the zero module has no Samuel polynomial")
    return pres.cached("samuel", lambda: exact_coefficients(pres, q_gens), q_gens)


def _gr_basis(pres, q_gens):
    """The one weighted Groebner basis that presents gr_Q(M).

    A LinearBaseChange that keeps S makes each row-reduced linear
    generator of Q a variable x_p; _adjoin then turns Q into (x_p : p in
    P) + (u_j), and the relations of M' go into one engine under
    TermOrder(rank, pivot), pivot the weight 1 on the x_p and the u_j.
    Returns (computed engine, pivot, the change of coordinates).
    """
    gens = _ideal_gens(q_gens)
    change = LinearBaseChange(pres.ring, [g for g in gens if g.degree() == 1], quotient=False)
    pres = change.presentation(pres)
    others = [change.poly(g) for g in gens if g.degree() != 1]
    if others:
        ambient, rels = _adjoin(pres, others)
    else:
        ambient, rels = pres.ambient, pres.relation_gens()
    nvars = ambient.ring.n
    pivot = [0] * nvars
    for p in change.pivots + list(range(pres.ring.n, nvars)):
        pivot[p] = 1
    eng = GroebnerEngine(ambient, TermOrder(pres.rank, pivot))
    for rel in rels:
        eng.add(rel)
    eng.compute()
    return eng, pivot, change


def exact_coefficients(pres, q_gens):
    """The Samuel polynomial of Q on M from one weighted Groebner basis.

    After _gr_basis's change of coordinates and _adjoin, Q = (x_p : p in
    P) + (u_j) with r pivots and k adjoined variables, c = n - r other
    variables.  The lead terms of the relations under TermOrder(rank,
    weight = pivot indicator) span a monomial module with the bigraded
    Hilbert series of gr_Q(M),

        N(t_x, t_y) / ((1 - t_x)^(r + k) (1 - t_y)^c),

    t_x counting the pivot degree.  Every graded piece Q^j M / Q^(j+1) M
    has finite length iff (1 - t_y)^c divides N exactly: series_length of
    each t_x-row over (1 - t_y)^c is then finite (ValueError if not
    because M/QM has infinite length, else an engine bug).  Setting t_y =
    1 leaves sum_j l(Q^j M / Q^(j+1) M) t^j = h(t) / (1 - t)^s, so
    e_i = h^(i)(1) / i! and l(M / Q^(n+1) M) = sum_k h_k C(n - k + s, s).
    """
    s = pres.dim()
    eng, pivot, _ = _gr_basis(pres, q_gens)
    nvars = len(pivot)
    other = [1 - w for w in pivot]
    per = [[] for _ in range(pres.rank)]
    for c, m in eng.leads:
        per[c].append(m)
    # Twists shift only the t_y-degree, which is set to 1, so they are
    # left out of the numerator.
    num = {}
    for part in hilbert_numerators(per, (pivot, other)):
        num = poly_add(num, part)
    rows = {}
    for (a, b), c in num.items():
        rows.setdefault(a, {})[b] = c
    series = {}
    for a, p in rows.items():
        ln = series_length(p, nvars - sum(pivot))
        if ln is None:
            check_ideal_of_definition(pres, q_gens)
            raise EngineBugError("a graded piece of gr_Q(M) has infinite length")
        if ln:
            series[a] = ln
    h, pole = reduce_pole(series, sum(pivot))
    if pole != s:
        raise EngineBugError(
            f"Samuel series of gr_Q(M) has pole order {pole}, but dim M = {s}"
        )
    e = tuple(sum(c * comb(k, i) for k, c in h.items()) for i in range(s + 1))

    def value(n):
        return sum(c * comb(n - k + s, s) for k, c in h.items() if k <= n)

    post = 0
    for n in range(max(h) - s - 1, -1, -1):
        if value(n) != _eval_samuel(e, n, s):
            post = n + 1
            break
    samples = tuple(value(n) for n in range(post + 2 * s + 3))
    return HilbertCoefficients(s, e, post, samples)


def associated_graded(pres, q_gens, a):
    """(G, a*): G = gr_Q(M) presented over the ring of the weighted basis
    (the x_p, the u_j and the other variables), and a* in Q/Q^2 the
    initial form of a in Q + J, as a polynomial over that ring.

    G = F'/in_w(N') is presented by the lowest-weight parts of the
    weighted reduced basis, which generate in_w(N').  a* is the weight-1
    part of the normal form of a (in the coordinates of _gr_basis) modulo
    J + (u_j - f_j), whose basis is the weighted basis of A itself.
    Reduction under the weighted order never lowers the weight of the
    term it reduces, so a term of weight 0 survives iff a is not in
    Q + J: then ValueError.
    """
    eng, pivot, change = _gr_basis(pres, q_gens)
    a = change.poly(a)
    same = pres.rank == 1 and not pres.columns  # M = A: one basis serves both
    j_basis = eng if same else _gr_basis(pres.algebra.as_module(), q_gens)[0]
    ring = eng.ring

    def weight(m):
        return sum(w * e for w, e in zip(pivot, m))

    pad = (0,) * (ring.n - pres.ring.n)
    lifted = {(0, m + pad): v for m, v in a.terms.items()}
    nf = j_basis.normal_form(lifted)
    if any(weight(m) == 0 for _, m in nf):
        raise ValueError("element does not lie in the given ideal")
    a_star = Polynomial(ring, {m: v for (_, m), v in nf.items() if weight(m) == 1})
    cols = []
    for g in eng.reduced_elements():
        low = weight(next(iter(g.terms))[1])
        terms = {(c, m): v for (c, m), v in g.terms.items() if weight(m) == low}
        cols.append(FreeElement(eng.module, terms))
    return Presentation(Algebra(ring, ()), eng.module, cols), a_star


def _eval_samuel(coeffs, n, s):
    return sum(
        c * ((-1) ** i) * comb(n + s - i, s - i) for i, c in enumerate(coeffs)
    )


def multiplicity(pres, q_gens):
    """Samuel multiplicity e(Q; M) = e_0 of the Samuel polynomial."""
    return hilbert_coefficients(pres, q_gens)[0]
