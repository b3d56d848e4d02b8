"""Input language for describing rings, ideals, modules, and checks.

Grammar (statements end with ';'):

    ring NAME = FIELD[var, var, ...];        FIELD: QQ | FP(prime)
    ideal NAME = iexpr;
    algebra NAME = RINGNAME / IDEALNAME;
    module NAME = coker [[poly, ...], ...];  rows = ambient components
    params NAME = (poly, poly, ...);
    example ex39 l=INT m=INT;                built-in families
    example ex46 l=INT;
    check thm1 | thm2 | invariants | audit;

    iexpr := '(' poly, ..., poly ')'
           | intersect(iexpr, iexpr)
           | product(iexpr, iexpr)
           | power(iexpr, INT)

Polynomials use integer or INT/INT coefficients, identifiers declared in
the ring, and the operators + - * ^ with parentheses.  All declared
generators must be homogeneous.  Errors carry line and column.  A power
above the ring's degree cap, and a `*`, `^`, `power` or `product` whose
expansion could exceed MAX_TERMS terms, is an error at its token, before
it is expanded.

Each `ring` opens a new scope: a name declared under an earlier ring may
not be used, so a script never mixes two rings.  A `module` lives over
the latest algebra in scope, else over the ring itself.  A `check` needs
a module, algebra or example and a parameter ideal or example declared
since the last `ring`.
"""

from dataclasses import dataclass, field
from math import comb

from .errors import DegreeCapError, DslError
from .fields import QQ, PrimeField
from .freemod import FreeElement, FreeModule
from .modules import Algebra, Presentation, intersect_submodules
from .ring import PolyRing, Polynomial

_KEYWORDS = {
    "ring",
    "ideal",
    "algebra",
    "module",
    "params",
    "check",
    "example",
    "coker",
    "intersect",
    "product",
    "power",
    "QQ",
    "FP",
}

_CHECKS = ("thm1", "thm2", "invariants", "audit")

#: The most terms, over all its generators, that one `*`, `^`, `power` or
#: `product` may expand to.
MAX_TERMS = 10_000


@dataclass(frozen=True)
class Token:
    kind: str  # name | int | punct
    text: str
    line: int
    col: int


def _tokenize(text):
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("name", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in "=[](),;/^*+-":
            toks.append(Token("punct", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise DslError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


@dataclass
class RingDecl:
    name: str
    ring: PolyRing

    def unparse(self):
        f = self.ring.field
        tag = "QQ" if f == QQ else f"FP({f.p})"
        return f"ring {self.name} = {tag}[{', '.join(self.ring.names)}];"


@dataclass
class IdealDecl:
    name: str
    gens: tuple  # Polynomial

    def unparse(self):
        return f"ideal {self.name} = ({', '.join(map(repr, self.gens))});"


@dataclass
class AlgebraDecl:
    name: str
    algebra: Algebra
    ring_name: str
    ideal_name: str

    def unparse(self):
        return f"algebra {self.name} = {self.ring_name} / {self.ideal_name};"


@dataclass(eq=False)
class ModuleDecl:
    name: str
    pres: Presentation

    def __eq__(self, other):
        return (
            isinstance(other, ModuleDecl)
            and self.name == other.name
            and self.pres.algebra == other.pres.algebra
            and self.pres.rank == other.pres.rank
            and self.pres.twists == other.pres.twists
            and self.pres.columns == other.pres.columns
        )

    def unparse(self):
        rows = []
        cols = self.pres.columns
        for i in range(self.pres.rank):
            rows.append("[" + ", ".join(repr(c.component(i)) for c in cols) + "]")
        return f"module {self.name} = coker [{', '.join(rows)}];"


@dataclass
class ParamsDecl:
    name: str
    gens: tuple

    def unparse(self):
        return f"params {self.name} = ({', '.join(map(repr, self.gens))});"


@dataclass
class ExampleCmd:
    family: str
    args: tuple  # sorted (key, int) pairs
    # position of the `example` keyword, for errors raised when it runs
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)

    def unparse(self):
        tail = " ".join(f"{k}={v}" for k, v in self.args)
        return f"example {self.family} {tail};"


@dataclass
class CheckCmd:
    kind: str
    # position of the `check` keyword, for errors raised when the check runs
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)

    def unparse(self):
        return f"check {self.kind};"


@dataclass
class InputScript:
    statements: list = field(default_factory=list)

    def unparse(self):
        return "\n".join(s.unparse() for s in self.statements) + "\n"


def _monomials(nvars, lo, hi):
    """The number of monomials in nvars variables of degree lo..hi."""
    return comb(hi + nvars, nvars) - (comb(lo - 1 + nvars, nvars) if lo else 0)


def _spread(polys):
    """The lowest and the highest degree of a term of polys, and the set
    of variables that occur in them."""
    monos = [m for p in polys for m in p.terms]
    degs = [sum(m) for m in monos] or [0]
    return min(degs), max(degs), {v for m in monos for v, e in enumerate(m) if e}


def _product_size(a, b):
    """A bound on the terms of the products f*g, f in a and g in b: each
    has at most |f|*|g| terms, and at most as many as the monomials in the
    variables of a and b of degree lo_a + lo_b..hi_a + hi_b."""
    size = sum(len(f.terms) for f in a) * sum(len(g.terms) for g in b)
    if size <= MAX_TERMS:
        return size
    (lo_a, hi_a, va), (lo_b, hi_b, vb) = _spread(a), _spread(b)
    return min(size, len(a) * len(b) * _monomials(len(va | vb), lo_a + lo_b, hi_a + hi_b))


def _power_size(a, k):
    """A bound on the terms of the products of k of the polynomials a
    (f^k for a = [f], the generators of (a)^k).  Each term of a product
    comes from a multiset of k of the S terms of a, its factors' terms, so
    all the products have at most C(k + S - 1, k) terms; and there are at
    most C(k + len(a) - 1, k) products, each within the monomials in the
    variables of a of degree k*lo..k*hi."""
    size = comb(k + max(sum(len(f.terms) for f in a), 1) - 1, k)
    if size <= MAX_TERMS:
        return size
    lo, hi, v = _spread(a)
    return min(size, comb(k + len(a) - 1, k) * _monomials(len(v), k * lo, k * hi))


def _dedupe(polys):
    """Drop repeated generators, preserving first-seen order."""
    seen = set()
    out = []
    for p in polys:
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


class _Parser:
    def __init__(self, text, degree_cap):
        self.toks = _tokenize(text)
        self.degree_cap = degree_cap
        self.pos = 0
        # the declarations of the current ring by name, and the last example
        # under its keyword, which no name can take; each `ring` clears it
        self.scope = {}
        self.declared = {}  # every name ever declared -> the name of its ring
        self.ring = None  # the RingDecl of the current ring

    # ---- token plumbing ----------------------------------------------

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, text):
        t = self.next()
        if t.text != text:
            raise DslError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def expect_name(self):
        t = self.next()
        if t.kind != "name":
            raise DslError(f"expected a name, found {t.text!r}", t.line, t.col)
        return t

    def expect_int(self):
        t = self.next()
        if t.kind != "int":
            raise DslError(f"expected an integer, found {t.text!r}", t.line, t.col)
        return int(t.text)

    def _list(self, item, brackets="()"):
        """item, item, ... between the two brackets."""
        self.expect(brackets[0])
        out = [item()]
        while self.peek().text == ",":
            self.next()
            out.append(item())
        self.expect(brackets[1])
        return out

    # ---- scope -------------------------------------------------------

    def _head(self, keyword):
        """`keyword NAME =`, NAME not declared before under any ring:
        returns the keyword's token and the name's token."""
        kw = self.expect(keyword)
        ntok = self.expect_name()
        if ntok.text in _KEYWORDS:
            raise DslError(f"{ntok.text!r} is a reserved word", ntok.line, ntok.col)
        if ntok.text in self.declared:
            raise DslError(f"{ntok.text!r} is already declared", ntok.line, ntok.col)
        self.expect("=")
        return kw, ntok

    def _declare(self, decl):
        self.scope[decl.name] = decl
        self.declared[decl.name] = self.ring.name
        return decl

    def _in_scope(self, tok):
        """Reject tok if it names a declaration of an earlier ring."""
        owner = self.declared.get(tok.text)
        if owner is not None and tok.text not in self.scope:
            raise DslError(
                f"{tok.text!r} is out of scope: it belongs to ring {owner!r}, "
                f"and ring {self.ring.name!r} is current",
                tok.line,
                tok.col,
            )

    def _lookup(self, kind, noun):
        """The declaration of kind in scope that the next name names."""
        t = self.expect_name()
        self._in_scope(t)
        decl = self.scope.get(t.text)
        if not isinstance(decl, kind):
            raise DslError(f"undeclared {noun} {t.text!r}", t.line, t.col)
        return decl

    def _latest(self, *kinds):
        """The last declaration in scope of one of kinds, or None."""
        return next((d for d in reversed(self.scope.values()) if isinstance(d, kinds)), None)

    def _require_ring(self, tok):
        if self.ring is None:
            raise DslError("no ring declared yet", tok.line, tok.col)
        return self.ring.ring

    # ---- statements --------------------------------------------------

    def parse(self):
        script = InputScript()
        while self.peek().kind != "eof":
            t = self.peek()
            handler = {
                "ring": self._ring,
                "ideal": self._ideal,
                "algebra": self._algebra,
                "module": self._module,
                "params": self._params,
                "example": self._example,
                "check": self._check,
            }.get(t.text)
            if handler is None:
                raise DslError(f"unknown statement {t.text!r}", t.line, t.col)
            script.statements.append(handler())
            self.expect(";")
        return script

    def _ring(self):
        _, ntok = self._head("ring")
        ftok = self.next()
        if ftok.text == "QQ":
            fld = QQ
        elif ftok.text == "FP":
            self.expect("(")
            p = self.expect_int()
            try:
                fld = PrimeField(p)
            except ValueError as exc:
                raise DslError(str(exc), ftok.line, ftok.col)
            self.expect(")")
        else:
            raise DslError(
                f"expected QQ or FP(p), found {ftok.text!r}", ftok.line, ftok.col
            )
        names = self._list(lambda: self.expect_name().text, "[]")
        if len(set(names)) != len(names):
            raise DslError("duplicate variable name", ntok.line, ntok.col)
        ring = PolyRing(names, field=fld, degree_cap=self.degree_cap)
        self.ring, self.scope = RingDecl(ntok.text, ring), {}
        return self._declare(self.ring)

    def _generators(self, ntok, parse, what):
        """The nonzero generators parse() returns, each homogeneous, else
        an error naming the offender an inhomogeneous `what`."""
        gens = parse()
        for g in gens:
            if g and not g.is_homogeneous():
                raise DslError(f"inhomogeneous {what} {g!r}", ntok.line, ntok.col)
        return tuple(g for g in gens if g)

    def _ideal(self):
        kw, ntok = self._head("ideal")
        self._require_ring(kw)
        gens = self._generators(ntok, self._ideal_expr, "generator")
        return self._declare(IdealDecl(ntok.text, gens))

    def _ideal_expr(self):
        t = self.peek()
        if t.text == "(":
            return [g for item in self._list(self._ideal_item) for g in item]
        if t.text in ("intersect", "product", "power"):
            self.next()
            self.expect("(")
            a = self._ideal_expr()
            self.expect(",")
            b = self.expect_int() if t.text == "power" else self._ideal_expr()
            self.expect(")")
            if t.text == "intersect":
                return self._intersect(t, a, b)
            if t.text == "product":
                self._within_size(t, _product_size(a, b))
                return _dedupe(f * g for f in a for g in b)
            self._within_cap(t, b * max((g.degree() for g in a), default=0))
            self._within_size(t, _power_size(a, b))
            out = a
            for _ in range(b - 1):
                out = _dedupe(f * g for f in out for g in a)
            return out if b >= 1 else [self.ring.ring.one]
        if t.kind == "name":
            self._in_scope(t)
            if isinstance(self.scope.get(t.text), IdealDecl):
                self.next()
                return list(self.scope[t.text].gens)
        raise DslError(
            f"expected an ideal expression, found {t.text!r}", t.line, t.col
        )

    def _ideal_item(self):
        """One entry of a generator list: a polynomial, or a nested ideal
        expression whose generators are spliced in."""
        t = self.peek()
        if t.text in ("intersect", "product", "power") or (
            isinstance(self.scope.get(t.text), IdealDecl)
            and t.text not in self.ring.ring.names
        ):
            return self._ideal_expr()
        return [self._poly()]

    def _intersect(self, tok, a, b):
        """The generators of (a) cap (b); a degree-cap stop is an error at
        tok."""
        one_mod = FreeModule(self.ring.ring, 1)
        a = [one_mod.inject(g) for g in a if g]
        b = [one_mod.inject(g) for g in b if g]
        try:
            inter = intersect_submodules(a, b, one_mod)
        except DegreeCapError as exc:
            raise DslError(str(exc), tok.line, tok.col) from exc
        return [el.component(0) for el in inter]

    def _within_cap(self, tok, degree):
        """A power of degree above the ring's degree cap is an error at
        tok, before it is expanded."""
        cap = self.ring.ring.degree_cap
        if degree > cap:
            raise DslError(str(DegreeCapError(cap)), tok.line, tok.col)

    def _within_size(self, tok, size):
        """An expansion bounded by more than MAX_TERMS terms is an error at
        tok, before it is expanded."""
        if size > MAX_TERMS:
            raise DslError(
                f"expansion may have up to {size} terms; the limit is {MAX_TERMS}",
                tok.line,
                tok.col,
            )

    def _algebra(self):
        _, ntok = self._head("algebra")
        ring = self._lookup(RingDecl, "ring")
        self.expect("/")
        ideal = self._lookup(IdealDecl, "ideal")
        alg = Algebra(ring.ring, ideal.gens)
        return self._declare(AlgebraDecl(ntok.text, alg, ring.name, ideal.name))

    def _module(self):
        kw, ntok = self._head("module")
        self.expect("coker")
        ring = self._require_ring(kw)
        rows = self._list(lambda: self._list(self._poly, "[]"), "[]")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DslError("ragged presentation matrix", ntok.line, ntok.col)
        latest = self._latest(AlgebraDecl)
        alg = latest.algebra if latest else Algebra(ring, ())
        rank = len(rows)
        ambient = FreeModule(ring, rank)
        cols = []
        for j in range(width):
            terms = {}
            for i in range(rank):
                for m, c in rows[i][j].terms.items():
                    terms[(i, m)] = c
            el = FreeElement(ambient, terms)
            if el and not el.is_homogeneous():
                raise DslError(
                    f"inhomogeneous matrix column {j}", ntok.line, ntok.col
                )
            cols.append(el)
        pres = Presentation(alg, ambient, cols)
        return self._declare(ModuleDecl(ntok.text, pres))

    def _params(self):
        kw, ntok = self._head("params")
        self._require_ring(kw)
        gens = self._generators(ntok, lambda: self._list(self._poly), "parameter")
        if not gens:
            raise DslError("empty parameter list", ntok.line, ntok.col)
        return self._declare(ParamsDecl(ntok.text, gens))

    def _example(self):
        kw = self.expect("example")
        ftok = self.expect_name()
        if ftok.text not in ("ex39", "ex46"):
            raise DslError(
                f"unknown example family {ftok.text!r}", ftok.line, ftok.col
            )
        args = {}
        while self.peek().kind == "name":
            k = self.expect_name()
            self.expect("=")
            args[k.text] = self.expect_int()
        wanted = {"ex39": {"l", "m"}, "ex46": {"l"}}[ftok.text]
        if set(args) != wanted:
            raise DslError(
                f"{ftok.text} needs arguments {sorted(wanted)}", ftok.line, ftok.col
            )
        cmd = ExampleCmd(ftok.text, tuple(sorted(args.items())), kw.line, kw.col)
        self.scope["example"] = cmd
        return cmd

    def _check(self):
        kw = self.expect("check")
        t = self.next()
        if t.text not in _CHECKS:
            raise DslError(
                f"unknown check {t.text!r}; expected one of {', '.join(_CHECKS)}",
                t.line,
                t.col,
            )
        if self._latest(AlgebraDecl, ModuleDecl, ExampleCmd) is None:
            raise DslError("no module or algebra in scope for check", kw.line, kw.col)
        if self._latest(ParamsDecl, ExampleCmd) is None:
            raise DslError("no parameter ideal in scope for check", kw.line, kw.col)
        return CheckCmd(t.text, kw.line, kw.col)

    # ---- polynomial expressions --------------------------------------

    def _poly(self):
        out = self._term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self._term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def _term(self):
        out = self._factor()
        while self.peek().text == "*":
            tok = self.next()
            rhs = self._factor()
            self._within_size(tok, _product_size([out], [rhs]))
            out = out * rhs
        return out

    def _factor(self):
        base = self._atom()
        while self.peek().text == "^":
            tok = self.next()
            k = self.expect_int()
            self._within_cap(tok, base.degree() * k)
            self._within_size(tok, _power_size([base], k))
            base = base**k
        return base

    def _atom(self):
        t = self.next()
        ring = self.ring.ring
        if t.text == "-":
            return -self._factor()
        if t.kind == "int":
            num = int(t.text)
            if self.peek().text == "/":
                self.next()
                den = ring.field.from_int(self.expect_int())
                if not den:  # 0 in the field: p | den over FP(p)
                    raise DslError("zero denominator", t.line, t.col)
                c = ring.field.div(ring.field.from_int(num), den)
                return Polynomial(ring, {ring.zero_mono: c} if c else {})
            return ring.const(num)
        if t.kind == "name":
            if t.text in ring.names:
                return ring.var(ring.names.index(t.text))
            self._in_scope(t)
            raise DslError(f"unknown variable {t.text!r}", t.line, t.col)
        if t.text == "(":
            inner = self._poly()
            self.expect(")")
            return inner
        raise DslError(f"expected a polynomial, found {t.text!r}", t.line, t.col)


def parse_input(text, degree_cap=64):
    """Parse a script; raises DslError with line/column on any problem.
    Every ring it declares bounds its Groebner runs by degree_cap."""
    return _Parser(text, degree_cap).parse()
