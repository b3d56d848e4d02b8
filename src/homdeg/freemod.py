"""Graded free modules S^r with degree twists, and their elements."""

from .errors import InhomogeneousError, RingMismatchError
from .kernel import mono_mul
from .ring import Polynomial


class FreeModule:
    """S^r with basis degrees (twists).  twists[i] is the degree of e_i;
    low = min(0, *twists), the twist floor the Groebner engine's packed
    layout reserves room for."""

    def __init__(self, ring, rank, twists=None):
        self.ring = ring
        self.rank = rank
        self.twists = tuple(twists) if twists is not None else (0,) * rank
        if len(self.twists) != rank:
            raise ValueError("twists length must equal rank")
        self.low = min((0, *self.twists))

    def zero(self):
        return FreeElement(self, {})

    def basis(self, i):
        if not 0 <= i < self.rank:
            raise ValueError("basis index out of range")
        return FreeElement(self, {(i, self.ring.zero_mono): self.ring.field.one})

    def inject(self, poly, i=0):
        """poly * e_i as a free element."""
        return FreeElement(self, {(i, m): c for m, c in poly.terms.items()})

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FreeModule)
            and self.ring == other.ring
            and self.rank == other.rank
            and self.twists == other.twists
        )

    def __hash__(self):
        return hash((self.ring, self.rank, self.twists))

    def __repr__(self):
        return f"{self.ring}^{self.rank}{list(self.twists)}"


class FreeElement:
    """Immutable element of a graded free module.

    terms maps (component, monomial) to a nonzero coefficient; the twisted
    degree of a term is deg(monomial) + twists[component].
    """

    __slots__ = ("module", "terms", "_hash")

    def __init__(self, module, terms):
        self.module = module
        self.terms = terms
        self._hash = None

    def _check(self, other):
        if self.module != other.module:
            raise RingMismatchError("free elements over different ambients")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, FreeElement):
            return NotImplemented
        return self.module == other.module and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for t, c in other.terms.items():
            s = out.get(t)
            s = c if s is None else s + c
            if s:
                out[t] = s
            else:
                out.pop(t, None)
        return FreeElement(self.module, out)

    def __neg__(self):
        return FreeElement(self.module, {t: -c for t, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, poly):
        """Multiplication by a ring element (or int)."""
        if isinstance(poly, int):
            poly = self.module.ring.const(poly)
        if not isinstance(poly, Polynomial):
            return NotImplemented
        out = {}
        for m, c in poly.terms.items():
            for (tc, tm), tcoef in self.terms.items():
                key = (tc, mono_mul(m, tm))
                v = c * tcoef
                s = out.get(key)
                s = v if s is None else s + v
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return FreeElement(self.module, out)

    def scale(self, coeff):
        if not coeff:
            return self.module.zero()
        return FreeElement(self.module, {t: coeff * c for t, c in self.terms.items()})

    def degree(self):
        """Twisted degree; -1 (unset marker) for zero."""
        if not self.terms:
            return -1
        deg, twists = self.module.ring.mono_degree, self.module.twists
        return max(deg(m) + twists[c] for c, m in self.terms)

    def is_homogeneous(self):
        deg, twists = self.module.ring.mono_degree, self.module.twists
        return len({deg(m) + twists[c] for c, m in self.terms}) <= 1

    def homogeneous_degree(self):
        if not self.is_homogeneous():
            raise InhomogeneousError(str(self))
        return self.degree()

    def component(self, i):
        """The polynomial entry at component i."""
        terms = {m: c for (c_, m), c in self.terms.items() if c_ == i}
        return Polynomial(self.module.ring, terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for i in range(self.module.rank):
            p = self.component(i)
            if p:
                parts.append(f"({p})*e{i}")
        return " + ".join(parts)
