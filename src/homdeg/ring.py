"""Multivariate polynomial rings over an exact field, grevlex order."""

from operator import mul

from .errors import InhomogeneousError, RingMismatchError
from .fields import QQ
from .kernel import mono_deg, mono_mul, order_key


class PolyRing:
    """k[x_1, ..., x_n] with the degree-reverse-lexicographic order.

    degree_cap bounds every Groebner computation over this ring; exceeding
    it raises DegreeCapError rather than hanging.  degrees gives each
    variable a positive degree (all 1 by default); `mono_degree` is the
    degree of an exponent tuple under them, a plain `sum` in the standard
    grading.  Only the Samuel route sets degrees, when it adjoins a
    variable u_j = f_j for a non-linear generator f_j of Q.
    """

    def __init__(self, names, field=QQ, degree_cap=64, degrees=None):
        self.names = tuple(names)
        self.n = len(self.names)
        self.field = field
        self.degree_cap = degree_cap
        self.degrees = (1,) * self.n if degrees is None else tuple(degrees)
        if len(self.degrees) != self.n:
            raise ValueError("one degree per variable")
        if all(d == 1 for d in self.degrees):
            self.mono_degree = sum
        else:
            self.mono_degree = lambda m, degs=self.degrees: sum(map(mul, degs, m))
        self.zero_mono = (0,) * self.n
        # The Groebner engine's packed term layouts over this ring, one per
        # (rank, field width, term order): see groebner._layout.
        self.layouts = {}

    def var(self, i):
        m = [0] * self.n
        m[i] = 1
        return Polynomial(self, {tuple(m): self.field.one})

    def gens(self):
        return tuple(self.var(i) for i in range(self.n))

    def const(self, n):
        if n == 0:
            return Polynomial(self, {})
        return Polynomial(self, {self.zero_mono: self.field.from_int(n)})

    @property
    def zero(self):
        return Polynomial(self, {})

    @property
    def one(self):
        return self.const(1)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PolyRing)
            and self.names == other.names
            and self.field == other.field
            and self.degrees == other.degrees
        )

    def __hash__(self):
        return hash((self.names, self.field, self.degrees))

    def __repr__(self):
        return f"{self.field}[{', '.join(self.names)}]"


class Polynomial:
    """Immutable sparse polynomial: dict from exponent tuple to coefficient.

    Zero coefficients are never stored; the term map is canonical, so dict
    equality is polynomial equality.
    """

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms
        self._hash = None

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise RingMismatchError("polynomials over different rings")
            return other
        if isinstance(other, int):
            return self.ring.const(other)
        return NotImplemented

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            s = c if s is None else s + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                c = c1 * c2
                s = out.get(m)
                s = c if s is None else s + c
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = self.ring.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def scale(self, c):
        if not c:
            return self.ring.zero
        return Polynomial(self.ring, {m: c * v for m, v in self.terms.items()})

    def degree(self):
        """Degree under the ring's variable degrees; -1 for the zero
        polynomial."""
        if not self.terms:
            return -1
        return max(map(self.ring.mono_degree, self.terms))

    def is_homogeneous(self):
        return len(set(map(self.ring.mono_degree, self.terms))) <= 1

    def homogeneous_degree(self):
        if not self.is_homogeneous():
            raise InhomogeneousError(str(self))
        return self.degree()

    def coefficient_of_degree_one(self):
        """Vector of coefficients of the linear monomials; None entries mean 0.

        Only meaningful for homogeneous degree-1 polynomials."""
        vec = [None] * self.ring.n
        for m, c in self.terms.items():
            if mono_deg(m) != 1:
                raise ValueError("not a linear form")
            vec[m.index(1)] = c
        return vec

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        key = order_key(1)
        for m in sorted(self.terms, key=lambda m: key((0, m))):
            c = self.terms[m]
            mono = "*".join(
                f"{name}^{e}" if e > 1 else name
                for name, e in zip(self.ring.names, m)
                if e
            )
            if not mono:
                parts.append(str(c))
            elif str(c) == "1":
                parts.append(mono)
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts)
