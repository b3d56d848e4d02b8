"""The reduction kernel: the hot inner loops of the Groebner engine.

Outside the engine a monomial is a tuple of nonnegative ints (one exponent
per variable), a free-module term index is a pair (component, monomial)
and an element is a dict from term indices to nonzero coefficients.  The
tuple helpers below serve that side.  The other packed user is
monomial_ideals.hilbert_numerators: only the variable fields, no others.

The term order is grevlex on monomials, term-over-position on components
(lower component wins ties).  `split` turns the order into a block
elimination order: components < split dominate components >= split.  With
split = rank the order degenerates to the plain module order.  `order_key`
extends the order by a weight on the variables (terms of smaller weight
come first), and is the one definition of the order.

Data layout inside the engine (`Layout`): a term (c, m) is one int, packed
in the style of Monagan & Pearce ("Sparse polynomial division using a
heap", J. Symb. Comp. 46, 2011).  From the low bits up it holds

* the component c;
* one field per variable, e_1 lowest and e_n highest, each of `width`
  bits plus one guard bit, which is 0 in every term;
* the raw degree sum(m), stored inverted as fmax - sum(m) in `width` bits;
* one flag bit, set when c >= split;
* the weight sum(w_i e_i), when the order has one.

Read as a plain int, a packed term is its order key: the smaller int is
the larger term, so min() picks the lead term and a heap of ints pops it
first.  Packing is linear in m: with units[i] the packed multiplier of
x_i, pack(c, m m') = pack(c, m) + sum(m'_i units[i]), so a product is one
addition and a quotient one subtraction.  Of two terms
in one component, a divides b iff ((b | G) - a) & G == G, G the mask of
the variable guard bits.  Packing is plain arithmetic: a term whose raw
degree exceeds fmax would wrap into its neighbours, so the engine refuses,
with DegreeCapError, any term from which a reduction could make one
(groebner._pack).

Contract: `reduce` emits its remainder in strictly descending term order,
so the lead term of a normal form is its first key, `next(iter(nf))`.
Callers rely on that instead of rescanning for the lead.  Every basis
element a reduction reads leads with its lead term too.  Its lead
coefficient need not be 1: over QQ the engine keeps primitive integer
elements, and `reduce` is fraction-free, returning the remainder with
one scale instead of dividing by a lead coefficient.
"""

from heapq import heapify, heappop, heappush
from operator import add, mul

KERNEL_NAME = "python"  # read by the benchmark's result stamp


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


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
    one definition of the term order; `Layout` packs terms into ints that
    sort the same way.
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


class Layout:
    """The packed form of the terms of one free module of rank `rank` over
    n variables, under order_key(split, weight), with fields of `width`
    bits: see the module docstring.  A value; the engine caches one per
    (rank, width, order) on the ring.

    base[c] is the packed term (c, 1), units[i] the packed multiplier of
    x_i, so pack(c, m) = base[c] + sum(m_i units[i]); guard is the mask of
    the variable guard bits and cmask that of the component field.
    """

    __slots__ = ("fmax", "cmask", "guard", "shifts", "units", "base")

    def __init__(self, n, rank, width, split, weight):
        cbits = (rank - 1).bit_length()
        self.fmax = (1 << width) - 1
        self.cmask = (1 << cbits) - 1
        self.shifts = tuple(cbits + i * (width + 1) for i in range(n))
        self.guard = sum(1 << (s + width) for s in self.shifts)
        dshift = cbits + n * (width + 1)
        flag = 1 << (dshift + width)
        wshift = dshift + width + 1
        weight = (0,) * n if weight is None else weight
        self.units = tuple(
            (1 << s) - (1 << dshift) + (w << wshift) for s, w in zip(self.shifts, weight)
        )
        self.base = tuple(
            c | (self.fmax << dshift) | (flag if c >= split else 0) for c in range(rank)
        )

    def pack(self, terms):
        """{(c, m): v} -> {packed term: v}, in the same iteration order."""
        base, units = self.base, self.units
        return {base[c] + sum(map(mul, m, units)): v for (c, m), v in terms.items()}

    def unpack_term(self, t):
        """The (c, m) of the packed term t."""
        fmax = self.fmax
        return t & self.cmask, tuple([(t >> s) & fmax for s in self.shifts])

    def unpack(self, terms):
        """{packed term: v} -> {(c, m): v}, in the same iteration order."""
        unpack_term = self.unpack_term
        return {unpack_term(t): v for t, v in terms.items()}

    def divides(self, a, b):
        """True if the packed term a divides the packed term b; both lie
        in one component."""
        guard = self.guard
        return ((b | guard) - a) & guard == guard

    def reduce(self, f, by_comp, field):
        """Full normal form of the packed element f against a basis, up to
        a scale: (r, c) with r = c * NF(f) and c a nonzero field element.

        by_comp maps a component to a list of (lead, lc, terms) entries,
        lead the packed lead term, terms a packed dict whose first key is
        lead, and lc its lead coefficient, or None when that is 1 (always
        over GF(p)); over QQ an entry with an lc holds ints.  r is in
        descending term order: no remaining term is divisible by any
        basis lead term.

        c starts at the lcm of the denominators of f (field.integral).  A
        step by an entry with an lc takes (k, q) = field.cofactors(coef,
        lc), scales the remainder (pending and emitted) and c by k, and
        subtracts q times the shifted entry.  With positive leads, c is a
        positive int and r holds ints; over GF(p), c is one.

        The remainder's terms sit in a min-heap of ints.  A term cancelled
        to zero leaves a stale heap entry, skipped when popped; it may be
        pushed again if it comes back.  A popped term never comes back:
        every term a reduction step adds is smaller than the term it
        reduces.
        """
        guard, cmask = self.guard, self.cmask
        work, c = field.integral(f)
        heap = list(work)
        heapify(heap)
        out = {}
        while heap:
            t = heappop(heap)
            coef = work.pop(t, None)
            if coef is None:
                continue  # cancelled after it was pushed
            tg = t | guard
            for entry in by_comp.get(t & cmask, ()):
                if (tg - entry[0]) & guard == guard:
                    break  # indexing beats unpacking every entry scanned
            else:
                out[t] = coef
                continue
            lead, lc, bt = entry
            if lc is not None:
                k, coef = field.cofactors(coef, lc)
                if k != 1:
                    c *= k
                    for u, v in work.items():
                        work[u] = v * k
                    for u, v in out.items():
                        out[u] = v * k
            q = t - lead
            tail = iter(bt.items())
            next(tail)  # the lead term cancels against the popped term
            for u, tcoef in tail:
                u += q
                s = work.get(u)
                if s is None:
                    work[u] = -coef * tcoef
                    heappush(heap, u)
                else:
                    s = s - coef * tcoef
                    if s:
                        work[u] = s
                    else:
                        del work[u]
        return out, c
