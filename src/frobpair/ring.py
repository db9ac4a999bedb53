"""Exact multivariate Laurent-polynomial arithmetic over Z, Q, and Z/2.

Elements are kept in a unique normal form: a map from monomials to nonzero
coefficients.  Monomials are sorted tuples of (variable, exponent) pairs with
no zero exponents; negative exponents are only legal on variables declared
invertible.  Everything is immutable after construction.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import NamedTuple

INTEGERS = "integers"
RATIONALS = "rationals"
MOD2 = "integers-mod-2"
DOMAINS = (INTEGERS, RATIONALS, MOD2)
#: the coefficients of cube homology: rationals, integers (with torsion), integers mod 2
COEFFS = ("q", "z", "z2")
#: the largest exponent substitution raises a value to, unless the value is 0 or
#: +-1 times a monomial, whose powers stay one term with coefficient +-1
MAX_POWER = 64

class FrobpairError(ValueError):
    """The base of every frobpair error; the CLI maps each to exit code 2."""


class RingError(FrobpairError):
    """Malformed ring input: mismatched rings, bad parses, non-units."""


class VarDecl(NamedTuple):
    name: str
    invertible: bool = False


class RingDecl:
    """A coefficient domain plus an ordered tuple of variable declarations,
    equal to and hashed as another with the same domain and variables."""

    def __init__(self, domain: str, vars: tuple = ()):
        if domain not in DOMAINS:
            raise RingError(f"unknown coefficient domain {domain!r}")
        names = [v.name for v in vars]
        if len(names) != len(set(names)):
            raise RingError("variable names must be unique within a ring declaration")
        self.domain, self.vars = domain, vars

    def _key(self):
        return self.domain, self.vars

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is RingDecl else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"RingDecl{self._key()!r}"

    def var(self, name):
        for v in self.vars:
            if v.name == name:
                return v
        return None

    # -- element constructors ------------------------------------------------

    def const(self, c) -> "RingElem":
        if not isinstance(c, (int, Fraction)):
            raise RingError(f"constant {c!r} is neither an int nor a Fraction")
        c = _coerce(self.domain, c)
        return RingElem(self, {(): c} if c != 0 else {})

    def zero(self) -> "RingElem":
        return RingElem(self, {})

    def one(self) -> "RingElem":
        return self.const(1)

    def gen(self, name, power=1) -> "RingElem":
        v = self.var(name)
        if v is None:
            raise RingError(f"unknown variable {name}")
        if power < 0 and not v.invertible:
            raise RingError(f"negative exponent on non-invertible variable {name}")
        if power == 0:
            return self.one()
        return RingElem(self, {((name, power),): _coerce(self.domain, 1)})

    def parse(self, text) -> "RingElem":
        return parse_ring_elem(text, self)


def ring(domain, *var_specs) -> RingDecl:
    """Build a RingDecl; a trailing '^-1' on a name marks it invertible."""
    decls = []
    for s in var_specs:
        if s.endswith("^-1"):
            decls.append(VarDecl(s[:-3], invertible=True))
        else:
            decls.append(VarDecl(s))
    return RingDecl(domain, tuple(decls))


def _coerce(domain, c):
    if domain == MOD2:
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise RingError("rational coefficient in Z/2 ring")
            c = c.numerator
        return c % 2
    if domain == RATIONALS:
        return Fraction(c)
    if isinstance(c, Fraction):
        if c.denominator != 1:
            raise RingError("rational coefficient in integer ring")
        return c.numerator
    return int(c)


def _mono_mul(m1, m2):
    d = dict(m1)
    for v, e in m2:
        e2 = d.get(v, 0) + e
        if e2 == 0:
            d.pop(v, None)
        else:
            d[v] = e2
    return tuple(sorted(d.items()))


class RingElem:
    """Normal-form element: dict monomial -> nonzero coefficient of the
    domain's type (int, Fraction over Q, 1 over Z/2), given in that form."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring_decl, terms):
        self.ring, self.terms, self._hash = ring_decl, terms, None

    # -- ring operations -----------------------------------------------------

    def _check(self, other) -> "RingElem":
        if type(other) is not RingElem:
            if isinstance(other, (int, Fraction)):
                return self.ring.const(other)
            return NotImplemented
        if other.ring is not self.ring and other.ring != self.ring:
            raise RingError("ring mismatch")
        return other

    def __add__(self, other):
        # both operands are in normal form, so only cancelling terms need care
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        mod2 = self.ring.domain == MOD2
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.pop(m, None)
            if s is None:
                terms[m] = c
            elif not mod2:  # over Z/2 every coefficient is 1, and 1 + 1 = 0
                s += c
                if s:
                    terms[m] = s
        return RingElem(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        if self.ring.domain == MOD2:
            return self
        return RingElem(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self.ring.const(other) - self

    def __mul__(self, other):
        # int * int is an int and Fraction * Fraction a Fraction, so products of
        # normal-form coefficients need no coercion; only Z/2 sums are reduced
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) == 1 and len(b) == 1:  # a domain has no zero divisors
            (m1, c1), = a.items()
            (m2, c2), = b.items()
            m = m2 if not m1 else m1 if not m2 else _mono_mul(m1, m2)
            return RingElem(self.ring, {m: c1 * c2})
        terms = {}
        get = terms.get
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = m2 if not m1 else m1 if not m2 else _mono_mul(m1, m2)
                s = get(m)
                terms[m] = c1 * c2 if s is None else s + c1 * c2
        if self.ring.domain == MOD2:
            terms = {m: 1 for m, c in terms.items() if c % 2}
        else:
            terms = {m: c for m, c in terms.items() if c}
        return RingElem(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return unit_invert(self) ** (-k)
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        terms = self.terms
        return not terms or len(terms) == 1 and () in terms

    def constant_value(self):
        """The coefficient of the empty monomial (element must be constant)."""
        terms = self.terms
        if len(terms) == 1 and () in terms:
            return terms[()]
        if not terms:
            return _coerce(self.ring.domain, 0)
        raise RingError(f"not a constant: {self}")

    def is_unit(self) -> bool:
        if len(self.terms) != 1:
            return False
        (m, c), = self.terms.items()
        if any(not self.ring.var(v).invertible for v, _ in m):
            return False
        if self.ring.domain == INTEGERS:
            return c in (1, -1)
        return c != 0  # rationals, Z/2

    def __eq__(self, other):
        if type(other) is not RingElem:
            if not isinstance(other, int):
                return NotImplemented
            other = self.ring.const(other)
        return (self.ring is other.ring or self.ring == other.ring) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    # -- printing ------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            factors = [v if e == 1 else f"{v}^{e}" for v, e in m]
            if not factors:
                body = _digits(c)
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([_digits(c)] + factors)
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"RingElem({self})"


def _digits(c) -> str:
    """abs(c) as text; RingError past the digits Python prints of an int."""
    try:
        return str(abs(c))
    except ValueError:
        bits = max(abs(c.numerator).bit_length(), c.denominator.bit_length())
        raise RingError(f"a coefficient of {bits} bits is too long to print "
                        f"(over {sys.get_int_max_str_digits()} digits)") from None


def unit_invert(x: RingElem) -> RingElem:
    """Invert a unit: a single monomial in invertible variables with unit coefficient."""
    if not x.is_unit():
        raise RingError(f"not a unit: {x}")
    (m, c), = x.terms.items()
    if x.ring.domain == RATIONALS:
        inv = Fraction(1) / c
    else:
        inv = c  # +-1 over Z, 1 over Z/2
    return RingElem(x.ring, {tuple((v, -e) for v, e in m): inv})


def substitution(decl: RingDecl, assignment):
    """The function on elements of decl that substitutes assignment's values (ring elements
    or literals) for variables: checked once, each power and each distinct element taken once.

    Invertible variables must be assigned units of the same ring.  A value
    that is not 0 or +-1 times a monomial is raised to no exponent past
    MAX_POWER in absolute value: RingError refuses such a power.
    """
    values, powers, images = {}, {}, {}  # images: each substituted element's image
    for name, val in assignment.items():
        var = decl.var(name)
        if var is None:
            raise RingError(f"unknown variable {name}")
        if isinstance(val, str):
            val = decl.parse(val)
        elif isinstance(val, (int, Fraction)):
            val = decl.const(val)
        elif val.ring != decl:
            raise RingError("ring mismatch")
        if var.invertible and not val.is_unit():
            raise RingError(f"non-unit assigned to invertible variable {name}")
        values[name] = val

    def substitute(x: RingElem) -> RingElem:
        if x in images:
            return images[x]
        out = decl.zero()
        for m, c in x.terms.items():
            term = decl.const(c)
            for v, e in m:
                if v in values and (v, e) not in powers:
                    val = values[v]
                    if abs(e) > MAX_POWER and (len(val.terms) > 1 or
                                               any(abs(coef) != 1 for coef in val.terms.values())):
                        raise RingError(f"the power {v}^{e} is over the limit of {MAX_POWER} "
                                        f"for the value {val}")
                    powers[v, e] = val ** e
                term = term * (powers[v, e] if v in values else decl.gen(v, e))
            out = out + term
        images[x] = out
        return out

    return substitute


_TOKEN = re.compile(r"(\d+/\d+)|(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*^])")


def _tokenize(text):
    tokens, pos = [], 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise RingError(f"syntax error at position {pos}: {text[pos:pos + 10]!r}")
        kind = "rat" if m.group(1) else "int" if m.group(2) else "name" if m.group(3) else "op"
        tokens.append((kind, m.group(0), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent for: expr := ('-')? term (('+'|'-') term)*;
    term := factor ('*' factor)*; factor := INT | RAT | VAR ('^' SINT)? | '(' expr ')'."""

    def __init__(self, text, ring_decl):
        self.text = text
        self.ring = ring_decl
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, msg):
        kind, val, pos = self.peek()
        raise RingError(f"{msg} at position {pos}")

    def integer(self, text, pos):
        try:
            return int(text)
        except ValueError:  # more digits than the interpreter converts
            raise RingError(f"integer literal too long at position {pos}") from None

    def parse(self):
        e = self.expr()
        if self.peek()[0] != "end":
            self.error("trailing input")
        return e

    def expr(self):
        negate = False
        if self.peek()[:2] == ("op", "-"):
            self.take()
            negate = True
        e = self.term()
        if negate:
            e = -e
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.take()[1]
            t = self.term()
            e = e + t if op == "+" else e - t
        return e

    def term(self):
        e = self.factor()
        while self.peek()[:2] == ("op", "*"):
            self.take()
            e = e * self.factor()
        return e

    def factor(self):
        kind, val, pos = self.peek()
        if kind == "int":
            self.take()
            return self.ring.const(self.integer(val, pos))
        if kind == "rat":
            self.take()
            if self.ring.domain != RATIONALS:
                raise RingError(f"rational literal in non-rational ring at position {pos}")
            num, den = (self.integer(part, pos) for part in val.split("/"))
            if den == 0:
                raise RingError(f"zero denominator at position {pos}")
            return self.ring.const(Fraction(num, den))
        if kind == "name":
            self.take()
            if self.ring.var(val) is None:
                raise RingError(f"unknown variable {val}")
            power = 1
            if self.peek()[:2] == ("op", "^"):
                self.take()
                sign = 1
                if self.peek()[:2] == ("op", "-"):
                    self.take()
                    sign = -1
                k, v2, p2 = self.peek()
                if k != "int":
                    raise RingError(f"expected integer exponent at position {p2}")
                self.take()
                power = sign * self.integer(v2, p2)
            return self.ring.gen(val, power)
        if (kind, val) == ("op", "("):
            self.take()
            e = self.expr()
            if self.peek()[:2] != ("op", ")"):
                self.error("expected ')'")
            self.take()
            return e
        self.error(f"unexpected token {val!r}")


def parse_ring_elem(text: str, ring_decl: RingDecl) -> RingElem:
    try:
        return _Parser(text, ring_decl).parse()
    except RecursionError:  # the parser recurses once per parenthesis
        raise RingError("expression nested too deeply") from None
