"""Monomial-ideal combinatorics: Hilbert series numerators.

The graded dimension data of a quotient by a submodule only depends on the
lead-term module, which is monomial.  Callers pass exponent tuples; inside
`hilbert_numerators` a monomial is one int, laid out like the variable
fields of kernel.Layout: one field per variable, e_1 lowest, each of
`width` bits plus a guard bit that is 0 in every monomial, with no
component or degree field.  A "series polynomial" is a dict degree -> int
coeff (degrees may be negative once twists enter).
"""

#: Krull dimension marker for the zero module.
DIM_ZERO = -1


def poly_add(p, q, sign=1):
    out = dict(p)
    for d, c in q.items():
        s = out.get(d, 0) + sign * c
        if s:
            out[d] = s
        else:
            out.pop(d, None)
    return out


def poly_shift(p, k):
    """Multiply by t^k."""
    return {d + k: c for d, c in p.items()}


def homology_series(frees, top, cokernel):
    """[HS(H_0), ..., HS(H_m)] of a complex of free modules G_m -> ... ->
    G_0, frees[k] = HS(G_k), exact above top.  With C_k = coker(G_{k+1} ->
    G_k), 0 -> H_k -> C_k -> G_{k-1} -> C_{k-1} -> 0 is exact, so HS(H_k) =
    HS(C_k) - HS(G_{k-1}) + HS(C_{k-1}).  cokernel(k) gives HS(C_k) for
    k < top only: from top up, 0 -> G_m -> ... -> G_k -> C_k -> 0 is exact
    and HS(C_k) telescopes to sum_{j >= k} (-1)^(j-k) HS(G_j), with no
    Groebner basis."""
    cokernels, tail = [None] * len(frees), {}
    for k in range(len(frees) - 1, -1, -1):
        tail = poly_add(frees[k], tail, sign=-1)
        cokernels[k] = tail if k >= top else cokernel(k)
    terms = zip(cokernels, [{}] + frees, [{}] + cokernels)  # G_{-1} = C_{-1} = 0
    return [poly_add(poly_add(c, g, sign=-1), below) for c, g, below in terms]


def hilbert_numerators(per_component_monos, weights=None):
    """For each list of exponent tuples, the numerator N(t) with Hilbert
    series of S/(monos) = N(t)/(1-t)^n: {0: 1} for the zero ideal, {} for
    the unit ideal.

    With weights, a list of k weight vectors (one nonnegative int per
    variable), the series is k-graded instead: a degree is the k-tuple of
    weighted degrees and the denominator is prod_i (1 - t^deg(x_i)).

    Exponents never grow in the recursion (a colon subtracts, a pivot is
    an existing exponent), so one field width, from the largest exponent,
    and one memo serve the whole call.  A k-graded degree is one int of k
    slots of `bits` bits: no degree exceeds that of the lcm of the
    generators, so no slot carries.
    """
    flat = [m for monos in per_component_monos for m in monos]
    top = max((e for m in flat for e in m), default=0)
    width = max(top.bit_length(), 1)
    stride, fmax = width + 1, (1 << width) - 1
    n = len(flat[0]) if flat else 0
    shifts = [v * stride for v in range(n)]
    guard = sum(1 << (s + width) for s in shifts)
    rows = [(1,) * n] if weights is None else weights
    bits = max(top * max(map(sum, rows), default=0), 1).bit_length()
    vdeg = [sum(row[v] << (bits * r) for r, row in enumerate(rows)) for v in range(n)]
    memo = {}

    def minimal(monos):
        # Ascending ints list every divisor of a monomial (a copy too) first.
        out = []
        for m in sorted(monos):
            mg = m | guard
            for g in out:
                if (mg - g) & guard == guard:
                    break
            else:
                out.append(m)
        return out

    def numerator(gens):
        """Bigatti's pivot recursion on the minimal generators of a proper
        ideal.  Pure powers of distinct variables are a complete
        intersection, N = prod (1 - t^deg m).  Otherwise p = x_v^e, with
        x_v in the most mixed generators and e the median of their x_v
        exponents, splits the ideal: N(I) = N(I + p) + t^deg(p) N(I : p).
        p strictly divides a mixed generator and lies outside I, so I + p
        (the generators p does not divide, and p) is minimal with fewer
        mixed generators, and I : p has a smaller total degree."""
        key = frozenset(gens)
        hit = memo.get(key)
        if hit is not None:
            return hit
        # A pure power has its lowest set bit in the field of its highest.
        mixed = [
            m for m in gens if (m & -m).bit_length() <= shifts[(m.bit_length() - 1) // stride]
        ]
        if not mixed:
            out = {0: 1}
            for m in gens:
                v = (m.bit_length() - 1) // stride
                out = poly_add(out, poly_shift(out, (m >> shifts[v]) * vdeg[v]), sign=-1)
        else:
            v = max(range(n), key=lambda i: sum(1 for m in mixed if m >> shifts[i] & fmax))
            s = shifts[v]
            exps = sorted(e for e in (m >> s & fmax for m in mixed) if e)
            e = exps[len(exps) // 2]
            plus = [g for g in gens if g >> s & fmax < e] + [e << s]
            colon = minimal([g - (min(e, g >> s & fmax) << s) for g in gens])
            out = poly_add(numerator(plus), poly_shift(numerator(colon), e * vdeg[v]))
        memo[key] = out
        return out

    out, mask = [], (1 << bits) - 1
    for monos in per_component_monos:
        gens = minimal([sum(e << s for e, s in zip(m, shifts)) for m in monos])
        p = {} if gens[:1] == [0] else numerator(gens)
        if weights is not None:
            p = {tuple(d >> bits * r & mask for r in range(len(rows))): c for d, c in p.items()}
        out.append(dict(p))
    return out


def divide_one_minus_t(p):
    """p / (1 - t) for a series polynomial with p(1) = 0, where the
    division is exact: q_d = sum_{e <= d} p_e."""
    if not p:
        return {}
    q = {}
    acc = 0
    for d in range(min(p), max(p) + 1):
        acc += p.get(d, 0)
        if acc:
            q[d] = acc
    return q


def reduce_pole(num, n):
    """Cancel (1-t) factors: return (p, s) with num/(1-t)^n = p/(1-t)^s and
    p(1) != 0, or (p={}, s=n) for the zero series.  s is the Krull dimension
    of the nonzero module the series came from."""
    s = n
    p = dict(num)
    while p and s > 0 and eval_at_one(p) == 0:
        p = divide_one_minus_t(p)
        s -= 1
    return p, s


def eval_at_one(p):
    return sum(p.values())


def series_dim(num, n):
    """Krull dimension of a module with series num/(1-t)^n; DIM_ZERO for
    the zero series."""
    p, s = reduce_pole(num, n)
    return s if p else DIM_ZERO


def series_length(num, n):
    """Total length of a module with series num/(1-t)^n: 0 for the zero
    series, None if infinite (a pole survives the cancelled (1-t)
    factors), else the cancelled numerator at 1."""
    if not num:
        return 0
    p, s = reduce_pole(num, n)
    return None if s else eval_at_one(p)
