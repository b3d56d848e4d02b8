"""Exact coefficient fields: the rationals and prime fields GF(p).

A rational is a Python int when it is integral and a fractions.Fraction
only when it is not, so the common integral case runs on int arithmetic.
Sums and products of a Fraction may be integral Fractions; they compare
and hash as the equal int, and `div`, `integral`, `primitive` and
`monic` hand back ints for them.  Every coefficient division of the
package is here: the true division `/` of two ints is a float.

Each field also says how the Groebner engine scales its basis elements
(`primitive`) and reduced elements (`monic`).  Its reduction kernel
divides nothing: it clears denominators (`integral`) and scales by the
`cofactors` of a step; normal forms leave divided by that scale.  A term
dict there leads with its lead term.
"""

from fractions import Fraction
from math import gcd, lcm


class FpElement:
    """An element of GF(p).  Immutable."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def __add__(self, other):
        return FpElement(self.v + other.v, self.p)

    def __sub__(self, other):
        return FpElement(self.v - other.v, self.p)

    def __mul__(self, other):
        return FpElement(self.v * other.v, self.p)

    def __truediv__(self, other):
        return FpElement(self.v * pow(other.v, -1, self.p), self.p)

    def __neg__(self):
        return FpElement(-self.v, self.p)

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        return isinstance(other, FpElement) and self.v == other.v and self.p == other.p

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return f"{self.v}"


class RationalField:
    """The field of rational numbers."""

    name = "QQ"
    char = 0

    zero = 0
    one = 1

    def from_int(self, n):
        return n

    def div(self, a, b):
        """a / b, an int when it is integral."""
        if type(a) is int and type(b) is int:
            q, r = divmod(a, b)
            return Fraction(a, b) if r else q
        q = a / b
        return q.numerator if q.denominator == 1 else q

    def primitive(self, terms):
        """The integer multiple of terms with content 1 and a positive lead
        coefficient: the Groebner engine's basis elements over QQ.  math.gcd
        takes ints only, so one call both tests the types and gives the
        content; once the running gcd is 1 (a lead of 1) it only checks the
        types, which is faster than a Python loop over them."""
        try:
            g = gcd(*terms.values())
        except TypeError:  # a Fraction among the values: clear denominators
            terms = self.integral(terms)[0]
            g = gcd(*terms.values())
        if next(iter(terms.values())) < 0:
            g = -g
        return terms if g == 1 else {t: v // g for t, v in terms.items()}

    def integral(self, terms):
        """(d * terms, d), a new dict, for the least int d > 0 that makes
        every coefficient an int."""
        try:
            gcd(*terms.values())  # a TypeError unless every value is an int
            return dict(terms), 1
        except TypeError:
            d = lcm(*(v.denominator for v in terms.values() if type(v) is not int))
            return {t: v * d if type(v) is int else v.numerator * (d // v.denominator)
                    for t, v in terms.items()}, d

    def cofactors(self, a, b):
        """(b / g, a / g), g = gcd(a, b), for ints a and b != 0: the least
        s > 0 (for b > 0) and the q with s a = q b."""
        g = gcd(a, b)
        return b // g, a // g

    def monic(self, terms):
        """terms, of int coefficients, scaled to lead coefficient 1."""
        lc = next(iter(terms.values()))
        if lc == 1:
            return terms
        div = self.div
        return {t: div(v, lc) for t, v in terms.items()}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


# Miller-Rabin with the first thirteen primes (2..41) as bases decides
# primality exactly for every n below this bound, the least strong
# pseudoprime to all thirteen bases (Sorenson and Webster, Math. Comp. 86
# (2017); OEIS A014233).  Twelve bases (2..37) would not do: the composite
# 318665857834031151167461 passes all of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n):
    """Deterministic Miller-Rabin primality test for n < _MR_BOUND."""
    if n >= _MR_BOUND:
        raise ValueError(f"prime too large: {n} (primality is decided below {_MR_BOUND})")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """GF(p) for a prime p.  Offered as a fast surrogate for an infinite
    coefficient field; p should be large (>= 32003) when random linear
    recombinations matter."""

    def __init__(self, p):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"GF({p})"
        self.char = p
        self.zero = FpElement(0, p)
        self.one = FpElement(1, p)

    def from_int(self, n):
        return FpElement(n, self.p)

    def div(self, a, b):
        return a / b

    def integral(self, terms):
        return dict(terms), self.one

    def monic(self, terms):
        """terms scaled to lead coefficient 1."""
        lc = next(iter(terms.values()))
        if lc == self.one:
            return terms
        inv = self.div(self.one, lc)
        return {t: v * inv for t, v in terms.items()}

    primitive = monic  # the engine keeps GF(p) basis elements monic

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return self.name


QQ = RationalField()
