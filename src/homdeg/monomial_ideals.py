"""Monomial-ideal combinatorics: Hilbert series numerators.

The graded dimension data of a quotient by a submodule only depends on the
lead-term module, which is monomial; everything here works on plain
exponent tuples.  A "series polynomial" is a dict degree -> int coeff
(degrees may be negative once twists enter).
"""

from .kernel import mono_deg, mono_divides


def minimalize(monos):
    """Minimal generators of the monomial ideal generated by monos."""
    monos = sorted(set(monos), key=mono_deg)
    out = []
    for m in monos:
        if not any(mono_divides(g, m) for g in out):
            out.append(m)
    return out


def _colon(monos, m):
    """Minimal generators of (monos) : m."""
    return minimalize([tuple(max(a - b, 0) for a, b in zip(g, m)) for g in monos])


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
    """Multiply by t^k; a tuple k shifts a multigraded polynomial."""
    if isinstance(k, tuple):
        return {tuple(a + b for a, b in zip(d, k)): c for d, c in p.items()}
    return {d + k: c for d, c in p.items()}


def hilbert_numerator(monos, _memo=None, weights=None):
    """Numerator N(t) with Hilbert series of S/(monos) = N(t)/(1-t)^n.

    With weights, a list of k weight vectors (one int per variable), the
    series is k-graded instead: a degree is the k-tuple of weighted
    degrees and the denominator is prod_i (1 - t^deg(x_i)).  A memo must
    serve a single grading.
    """
    if _memo is None:
        _memo = {}
    if weights is None:
        return _numerator(monos, _memo, mono_deg, 0)
    rows = [tuple(w) for w in weights]

    def deg(m):
        return tuple(sum(w * e for w, e in zip(row, m)) for row in rows)

    return _numerator(monos, _memo, deg, (0,) * len(rows))


def _numerator(monos, memo, deg, zero):
    """Bigatti's pivot recursion.  Pure powers of distinct variables are a
    complete intersection, N = prod (1 - t^deg m).  Otherwise p = x_v^e,
    with x_v in the most mixed generators and e the median of their x_v
    exponents, splits the ideal: N(I) = N(I + p) + t^deg(p) N(I : p).  p
    strictly divides a mixed generator and lies outside I, so I + p has
    fewer mixed generators and I : p a smaller total degree."""
    monos = minimalize(monos)
    key = frozenset(monos)
    hit = memo.get(key)
    if hit is not None:
        return hit
    mixed = [m for m in monos if sum(1 for e in m if e) > 1]
    if not mixed:
        out = {zero: 1}
        for m in monos:
            out = poly_add(out, poly_shift(out, deg(m)), sign=-1)
    else:
        n = len(mixed[0])
        v = max(range(n), key=lambda i: sum(1 for m in mixed if m[i]))
        exps = sorted(m[v] for m in mixed if m[v])
        p = tuple(exps[len(exps) // 2] if i == v else 0 for i in range(n))
        out = poly_add(
            _numerator(monos + [p], memo, deg, zero),
            poly_shift(_numerator(_colon(monos, p), memo, deg, zero), deg(p)),
        )
    memo[key] = out
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


def series_length(num, n):
    """Total length of a module with series num/(1-t)^n: 0 for the zero
    series, None if infinite (a pole survives the cancelled (1-t)
    factors), else the cancelled numerator at 1."""
    if not num:
        return 0
    p, s = reduce_pole(num, n)
    return None if s else eval_at_one(p)
