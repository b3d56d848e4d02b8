"""Hilbert series and Hilbert-Samuel functions, polynomials, and
multiplicities with respect to an ideal generated by homogeneous forms.

When every generator of Q is linear, a change of coordinates makes Q an
ideal of variables, Q = (x_p : p a pivot).  One Groebner basis of the
relations under the pivot-weight order (smaller pivot degree first) then
presents gr_Q(M) by its initial module, and the bigraded Hilbert series of
that monomial module (pivot degree, other degree) gives the Samuel
polynomial exactly: its coefficients, its postulation number and its
value table.  Nothing is sampled and no sample cap applies.

For non-linear Q the Samuel function n -> l(M / Q^{n+1} M) is sampled, one
Groebner run per n below a sample cap (PolyRing.sample_cap unless a
call passes its own).  The powers of Q are built once, in normal form
modulo the relations: level k + 1 multiplies each entry of level k by the
generators of Q from its last factor on and reduces the products (see
SamuelFunction).  A sample adds one level to a copy of the relations'
basis and reads its length off the Hilbert numerators of the lead
monomials.  The Samuel polynomial is recovered
by solving for its coefficients in the binomial basis and confirming the
fit on a window of further samples, sliding past the postulation number if
needed.  The sampled fit also serves as the test oracle of the exact route.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import EngineBugError, InhomogeneousError, SampleCapError
from .freemod import FreeElement
from .groebner import GroebnerEngine, TermOrder
from .modules import Presentation, ideal_cache_key
from .monomial_ideals import (
    count_standard_monomials,
    divide_one_minus_t,
    eval_at_one,
    hilbert_numerator,
    poly_add,
    reduce_pole,
)


@dataclass(frozen=True)
class HilbertCoefficients:
    """The Samuel polynomial of Q on M in binomial form:

        l(M / Q^(n+1) M) = sum_i (-1)^i e[i] C(n + s - i, s - i)  (n >= postulation)

    samples holds a table of the Samuel function l(M / Q^(n+1) M) from
    n = 0: the values sampled by the fit, or for linear Q the values for
    n <= postulation + 2s + 2 read off the Hilbert series.
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


def hilbert_series(pres):
    """(numerator, n) with series = numerator / (1-t)^n, twists included."""
    return pres.hilbert_series()


class SamuelFunction:
    """Incremental evaluator of n -> l(M / Q^{n+1} M).

    Q is given by homogeneous generators q_0..q_{m-1} in the polynomial
    cover.  The Groebner basis of the module relations N is computed once.
    The powers of Q are kept as levels: level k holds the normal forms,
    modulo that basis, of p e_i for every product p of k generators and
    every basis vector e_i, each with the index of p's last factor.  Level
    0 is NF(e_i); level k + 1 is NF(q_j v) for v in level k and every j at
    least v's last index.  Since q_j (v - p e_i) lies in N, level k + 1
    and N generate N + Q^{k+1} F; equal normal forms are kept once, with
    the smaller last index.  A sample clones the base engine, adds one
    level (one Groebner run) and reads the length off the Hilbert
    numerators of the lead monomials.  When all generators are linear, an
    initial change of coordinates turns Q into a subset of the variables.
    """

    def __init__(self, pres, q_gens, sample_cap=None):
        q_gens = _ideal_gens(q_gens)
        self.sample_cap = pres.ring.sample_cap if sample_cap is None else sample_cap
        self._values = []
        if all(g.degree() == 1 for g in q_gens):
            pres, q_gens = _linearize(pres, q_gens)
        self.pres = pres
        self.q_gens = q_gens
        self._base = GroebnerEngine(pres.ambient)
        for r in pres.relation_gens():
            self._base.add(r)
        self._base.compute()
        reduce = self._base.order.reduce
        level = []
        for i in range(pres.rank):
            nf = reduce(pres.ambient.basis(i).terms, self._base.by_comp)
            if nf:
                level.append((nf, 0))
        self._levels = [level]

    def _level(self, k):
        """The normal forms of Q^k F, built from level k - 1 on first use."""
        reduce = self._base.order.reduce
        by_comp = self._base.by_comp
        ambient = self.pres.ambient
        while len(self._levels) <= k:
            out = {}
            for terms, last in self._levels[-1]:
                v = FreeElement(ambient, terms)
                for j in range(last, len(self.q_gens)):
                    nf = reduce((self.q_gens[j] * v).terms, by_comp)
                    if not nf:
                        continue
                    key = frozenset(nf.items())
                    hit = out.get(key)
                    if hit is None or hit[1] > j:
                        out[key] = (nf, j)
            self._levels.append(list(out.values()))
        return self._levels[k]

    def _sample(self, k):
        """l(M / Q^{k+1} M): level k + 1 added to the base, one Groebner run."""
        eng = self._base.clone()
        ambient = self.pres.ambient
        for terms, _ in self._level(k + 1):
            eng.add(FreeElement(ambient, terms))
        eng.compute()
        per = [[] for _ in range(ambient.rank)]
        for c, m in eng.leads:
            per[c].append(m)
        total = 0
        for monos in per:
            cnt = count_standard_monomials(monos)
            if cnt is None:
                raise _infinite_length()
            total += cnt
        return total

    def __call__(self, n):
        if n >= self.sample_cap:
            raise SampleCapError(self.sample_cap)
        while len(self._values) <= n:
            self._values.append(self._sample(len(self._values)))
        return self._values[n]


def _ideal_gens(q_gens):
    """The nonzero generators of Q, each checked homogeneous."""
    gens = [g for g in q_gens if g]
    if not gens:
        raise ValueError("Samuel function needs a nonzero ideal")
    for g in gens:
        if not g.is_homogeneous():
            raise InhomogeneousError(repr(g))
    return gens


def _linearize(pres, q_gens):
    """Change coordinates so that every generator of Q becomes a variable.

    Returns (isomorphic presentation, new generators).  Requires all
    generators linear; redundant generators are dropped by row reduction.
    """
    ring = pres.ring
    n = ring.n
    zero = ring.field.zero
    rows = []
    for g in q_gens:
        rows.append(
            [c if c is not None else zero for c in g.coefficient_of_degree_one()]
        )
    # exact Gaussian elimination to reduced row echelon form
    pivots = []
    r = 0
    for col in range(n):
        pr = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    rows = rows[:r]
    # substitution x_p -> x_p - (non-pivot tail of its row)
    sub = [None] * n
    for row, p in zip(rows, pivots):
        tail = ring.zero
        for j in range(n):
            if j != p and row[j]:
                tail = tail + ring.var(j).scale(row[j])
        sub[p] = ring.var(p) - tail
    phi = lambda poly: poly.substitute(sub)
    new_algebra = type(pres.algebra)(ring, [phi(g) for g in pres.algebra.relations])
    new_cols = [c.map_monos(phi) for c in pres.columns]
    new_pres = Presentation(new_algebra, pres.rank, pres.twists, new_cols)
    new_gens = [ring.var(p) for p in pivots]
    return new_pres, new_gens


def _infinite_length():
    return EngineBugError(
        "Samuel quotient has infinite length; the ideal is not "
        "an ideal of definition for the module"
    )


def hilbert_coefficients(pres, q_gens, sample_cap=None):
    """The Samuel polynomial of Q on M in binomial form, cached on pres.

    Exact from the Hilbert series of gr_Q(M) when every generator of Q is
    linear; otherwise fitted to samples taken below sample_cap (None: the
    ring's sample_cap).
    """
    s = pres.dim()
    if s < 0:
        raise ValueError("the zero module has no Samuel polynomial")
    gens = _ideal_gens(q_gens)
    linear = all(g.degree() == 1 for g in gens)
    if sample_cap is None:
        sample_cap = pres.ring.sample_cap
    cache_key = ideal_cache_key("samuel", q_gens)
    if not linear:
        cache_key += (sample_cap,)
    cached = pres._cache.get(cache_key)
    if cached is None:
        if linear:
            cached = exact_coefficients(pres, gens)
        else:
            cached = fitted_coefficients(pres, gens, sample_cap)
        pres._cache[cache_key] = cached
    return cached


def exact_coefficients(pres, q_gens):
    """The Samuel polynomial of a linear Q from one weighted Groebner basis.

    After _linearize, Q = (x_p : p in P) with r = |P| pivots.  The lead
    terms of the relations under TermOrder(rank, weight = pivot indicator)
    span a monomial module with the bigraded Hilbert series of gr_Q(M),

        N(t_x, t_y) / ((1 - t_x)^r (1 - t_y)^(n - r)),

    t_x counting the pivot degree.  Every graded piece Q^j M / Q^(j+1) M
    has finite length iff (1 - t_y)^(n - r) divides N exactly; setting
    t_y = 1 then leaves sum_j l(Q^j M / Q^(j+1) M) t^j = h(t) / (1 - t)^s,
    so e_i = h^(i)(1) / i! and l(M / Q^(n+1) M) = sum_k h_k C(n - k + s, s).
    """
    s = pres.dim()
    pres, q_gens = _linearize(pres, _ideal_gens(q_gens))
    nvars = pres.ring.n
    pivot = [0] * nvars
    for g in q_gens:
        pivot[g.lead_monomial().index(1)] = 1
    other = [1 - w for w in pivot]
    eng = GroebnerEngine(pres.ambient, TermOrder(pres.rank, pivot))
    for rel in pres.relation_gens():
        eng.add(rel)
    eng.compute()
    per = [[] for _ in range(pres.rank)]
    for c, m in eng.leads:
        per[c].append(m)
    # Twists shift only the t_y-degree, which is set to 1, so they are
    # left out of the numerator.
    num = {}
    memo = {}
    for monos in per:
        num = poly_add(num, hilbert_numerator(monos, memo, (pivot, other)))
    rows = {}
    for (a, b), c in num.items():
        rows.setdefault(a, {})[b] = c
    series = {}
    for a, p in rows.items():
        for _ in range(nvars - len(q_gens)):
            if eval_at_one(p):
                raise _infinite_length()
            p = divide_one_minus_t(p)
        if eval_at_one(p):
            series[a] = eval_at_one(p)
    h, pole = reduce_pole(series, len(q_gens))
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


def fitted_coefficients(pres, q_gens, sample_cap=None):
    """The Samuel polynomial of Q on M fitted to sampled values.

    The fit uses s + 1 consecutive samples, is confirmed on s + 2 further
    samples, and the window slides past any pre-polynomial values.  The
    postulation index is the least n from which every computed sample
    agrees with the polynomial.  Not cached; hilbert_coefficients is.
    """
    s = pres.dim()
    if s < 0:
        raise ValueError("the zero module has no Samuel polynomial")
    f = SamuelFunction(pres, q_gens, sample_cap=sample_cap)
    if s == 0:
        ln = pres.length()
        n = 0
        while f(n) != ln:
            n += 1
        return HilbertCoefficients(0, (ln,), n, tuple(f._values))
    window = s + 2
    n0 = 0
    while True:
        samples = [f(n0 + k) for k in range(s + 1 + window)]
        coeffs = _fit_binomial(samples[: s + 1], n0, s)
        if coeffs is not None and all(
            _eval_samuel(coeffs, n0 + s + 1 + k, s) == samples[s + 1 + k]
            for k in range(window)
        ):
            out = []
            for c in coeffs:
                if c.denominator != 1:
                    raise EngineBugError("non-integer Samuel coefficient")
                out.append(int(c))
            e = tuple(out)
            all_samples = tuple(f._values)
            post = len(all_samples)
            while post > 0 and _eval_samuel(e, post - 1, s) == all_samples[post - 1]:
                post -= 1
            return HilbertCoefficients(s, e, post, all_samples)
        n0 += 1


def _fit_binomial(values, n0, s):
    """Solve for (e_0..e_s) from s+1 consecutive Samuel values at n0..n0+s."""
    size = s + 1
    mat = []
    for k in range(size):
        n = n0 + k
        row = [
            Fraction((-1) ** i * comb(n + s - i, s - i)) for i in range(size)
        ]
        row.append(Fraction(values[k]))
        mat.append(row)
    for col in range(size):
        pr = next((i for i in range(col, size) if mat[i][col]), None)
        if pr is None:
            return None
        mat[col], mat[pr] = mat[pr], mat[col]
        pv = mat[col][col]
        mat[col] = [x / pv for x in mat[col]]
        for i in range(size):
            if i != col and mat[i][col]:
                fct = mat[i][col]
                mat[i] = [a - fct * b for a, b in zip(mat[i], mat[col])]
    return [mat[i][size] for i in range(size)]


def _eval_samuel(coeffs, n, s):
    return sum(
        c * ((-1) ** i) * comb(n + s - i, s - i) for i, c in enumerate(coeffs)
    )


def multiplicity(pres, q_gens, sample_cap=None):
    """Samuel multiplicity e(Q; M) = e_0 of the Samuel polynomial."""
    return hilbert_coefficients(pres, q_gens, sample_cap=sample_cap)[0]
