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
    monos = minimalize(monos)
    key = frozenset(monos)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if not monos:
        out = {zero: 1}
    elif len(monos) == 1:
        out = {zero: 1, deg(monos[0]): -1} if any(monos[0]) else {}
    else:
        rest = monos[:-1]
        m = monos[-1]
        out = poly_add(
            _numerator(rest, memo, deg, zero),
            poly_shift(_numerator(_colon(rest, m), memo, deg, zero), deg(m)),
            sign=-1,
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
    p(1) != 0, or (p={}, s=0) for the zero series.  s is the Krull dimension
    of the module the series came from."""
    s = n
    p = dict(num)
    while p and s > 0 and eval_at_one(p) == 0:
        p = divide_one_minus_t(p)
        s -= 1
    return p, s


def eval_at_one(p):
    return sum(p.values())


def count_standard_monomials(monos):
    """Number of monomials outside the monomial ideal (monos), or None if
    infinite.  The standard monomials form an order ideal, so a breadth
    search from 1 enumerates them all."""
    monos = minimalize(monos)
    if not monos:
        return None
    n = len(monos[0])
    zero = (0,) * n
    if zero in monos:
        return 0
    # finite iff some pure power of every variable is a generator
    for i in range(n):
        if not any(m[i] > 0 and sum(m) == m[i] for m in monos):
            return None
    seen = {zero}
    stack = [zero]
    while stack:
        m = stack.pop()
        for i in range(n):
            m2 = m[:i] + (m[i] + 1,) + m[i + 1 :]
            if m2 in seen:
                continue
            if any(mono_divides(g, m2) for g in monos):
                continue
            seen.add(m2)
            stack.append(m2)
    return len(seen)
