"""The reduction kernel: the hot inner loops of the Groebner engine.

Data layout:

* a monomial is a tuple of nonnegative ints (one exponent per variable);
* a free-module term index is a pair (component, monomial);
* an element is a dict mapping term indices to nonzero field coefficients.

The term order is grevlex on monomials, term-over-position on components
(lower component wins ties).  `split` turns the order into a block
elimination order: components < split dominate components >= split.  With
split = rank the order degenerates to the plain module order.  `order_key`
extends the order by a weight on the variables (terms of smaller weight
come first).

Contract: `reduce_by_key` emits its remainder in strictly descending term
order, so the lead term of a normal form is its first key,
`next(iter(nf))`.  Callers rely on that instead of rescanning for the lead.
"""

from heapq import heapify, heappop, heappush

KERNEL_NAME = "python"  # read by the benchmark's result stamp


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def mono_divides(a, b):
    """True if a divides b."""
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_deg(a):
    return sum(a)


def order_key(split, weight=None):
    """Sort key on (comp, mono) pairs that puts the largest term first:
    min() picks the lead term, and a min-heap pops it first.

    Without a weight it is the order above: a component below split beats
    one at or above it, then the higher degree wins, then grevlex (the
    smaller exponent at the last variable that differs), then the lower
    component.  With a weight (an int per variable), a term of smaller
    weight is larger, and the unweighted order breaks ties.  This is the
    one definition of the term order.
    """
    if weight is None:
        def key(t):
            c, m = t
            return (c >= split, -sum(m), m[::-1], c)
    else:
        def key(t):
            c, m = t
            return (sum(w * e for w, e in zip(weight, m)), c >= split, -sum(m), m[::-1], c)
    return key


def reduce_by_key(f, by_comp, key):
    """Full normal form of f against a monic basis, under the term order
    whose order_key-style key is key.

    by_comp maps a component to a list of (lead_mono, terms) entries whose
    lead coefficient is 1.  Returns the remainder in descending term order:
    no remaining term is divisible by any basis lead term.

    The remainder's terms sit in a min-heap under key, each key computed
    once, when its term enters.  A term cancelled to zero leaves a stale
    heap entry, skipped when popped; it may be pushed again if it comes
    back.  A popped term never comes back: every term a reduction step
    adds is smaller than the term it reduces.
    """
    work = dict(f)
    heap = [(key(t), t) for t in work]
    heapify(heap)
    out = {}
    while heap:
        t = heappop(heap)[1]
        coef = work.pop(t, None)
        if coef is None:
            continue  # cancelled after it was pushed
        c, m = t
        for bm, bt in by_comp.get(c, ()):
            if mono_divides(bm, m):
                break
        else:
            out[t] = coef
            continue
        q = mono_div(m, bm)
        for (tc, tm), tcoef in bt.items():
            if tc == c and tm == bm:
                continue  # lead term cancels against the popped term
            u = (tc, mono_mul(q, tm))
            s = work.get(u)
            if s is None:
                work[u] = -coef * tcoef
                heappush(heap, (key(u), u))
            else:
                s = s - coef * tcoef
                if s:
                    work[u] = s
                else:
                    del work[u]
    return out
