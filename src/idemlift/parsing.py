"""Recursive-descent parsers for ring expressions and element literals.

Ring grammar::

    ring       := "Z(" int ")" [polyLayer] [groupLayer]
    polyLayer  := "[i]" | "[x]/(" poly ")"
    groupLayer := "{" cyclic ("x" cyclic)* "}"
    cyclic     := "C" int

Polynomials are "+"-separated monomials with "^" powers, lowest degree
first in canonical output but accepted in any order.  Element literals
reuse the canonical element text of each carrier, with "*" optional
between a coefficient and its basis symbol.  Whitespace is insignificant
everywhere.  All failures raise ParseError with the offending position.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import cache

from .errors import ParseError, SizeLimitError
from .groups import group_from_factors
from .group_rings import GroupRing, Ring
from .quotients import QuotientRing, ResidueRing

MAX_INPUT_BYTES = 1024
MAX_EXPONENT = 1024  # x^k in a literal expands to k + 1 coefficients
MAX_RING_DIMENSION = 2**20  # |G| * deg q coefficients per element
_SPACE = re.compile(r"\s*")
_INT = re.compile(r"\s*(\d+)?")


@cache
def _token(literal: str):
    """Match whitespace, then ``literal`` if it is there."""
    return re.compile(r"\s*(" + re.escape(literal) + ")?").match


class _Cursor:
    """Text cursor with positioned errors; each read is one regex match that
    first skips whitespace."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(f"{message} at position {self.pos} in {self.text!r}")

    def skip_ws(self) -> None:
        self.pos = _SPACE.match(self.text, self.pos).end()

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos : self.pos + 1]

    def take(self, literal: str) -> bool:
        found = _token(literal)(self.text, self.pos)
        self.pos = found.end()
        return found[1] is not None

    def expect(self, literal: str) -> None:
        if not self.take(literal):
            raise self.error(f"expected {literal!r}")

    def int_or_none(self) -> int | None:
        found = _INT.match(self.text, self.pos)
        self.pos = found.end()
        return None if found[1] is None else int(found[1])

    def read_int(self) -> int:
        value = self.int_or_none()
        if value is None:
            raise self.error("expected an integer")
        return value


class RingExpression(namedtuple("RingExpression", "modulus poly_coeffs group_factors")):
    """Parsed ring tower: base modulus, optional quotient, optional group."""

    __slots__ = ()

    def build(self) -> Ring:
        base: Ring = ResidueRing(self.modulus)
        if self.poly_coeffs is not None:
            base = QuotientRing(self.modulus, self.poly_coeffs)
        if self.group_factors is None:
            return base
        ring = GroupRing(base, group_from_factors(self.group_factors))
        if ring.dimension > MAX_RING_DIMENSION:
            raise SizeLimitError(
                f"ring dimension {ring.dimension} exceeds cap {MAX_RING_DIMENSION}"
            )
        return ring


def _parse_poly_body(cur: _Cursor, modulus: int, var: str) -> tuple[int, ...]:
    """Monomial sum over ``var``; returns lowest-first coefficients."""
    terms: dict[int, int] = {}
    while True:
        coeff, power = _parse_monomial(cur, var)
        terms[power] = (terms.get(power, 0) + coeff) % modulus if modulus > 1 else 0
        if not cur.take("+"):
            break
    degree = max(terms)
    return tuple(terms.get(k, 0) for k in range(degree + 1))


def _parse_monomial(cur: _Cursor, var: str) -> tuple[int, int]:
    coeff = cur.int_or_none()
    if coeff is not None:
        cur.take("*")
    if cur.take(var):
        power = cur.read_int() if cur.take("^") else 1
        if power > MAX_EXPONENT:
            raise cur.error(f"exponent {power} is above {MAX_EXPONENT}")
        return (1 if coeff is None else coeff), power
    if coeff is None:
        raise cur.error(f"expected a coefficient or {var!r}")
    return coeff, 0


def parse_ring(text: str) -> RingExpression:
    """Parse a ring expression; see the module docstring for the grammar."""
    if len(text.encode()) > MAX_INPUT_BYTES:
        raise ParseError(f"ring expression exceeds {MAX_INPUT_BYTES} bytes")
    cur = _Cursor(text)
    cur.expect("Z")
    cur.expect("(")
    modulus = cur.read_int()
    if modulus < 1:
        raise cur.error("modulus must be >= 1")
    cur.expect(")")
    poly_coeffs = None
    group_factors = None
    if cur.take("["):
        if cur.take("i"):
            cur.expect("]")
            poly_coeffs = (1, 0, 1)
        else:
            cur.expect("x")
            cur.expect("]")
            cur.expect("/")
            cur.expect("(")
            poly_coeffs = _parse_poly_body(cur, modulus, "x")
            cur.expect(")")
        if len(poly_coeffs) < 2:
            raise cur.error("quotient polynomial must have degree >= 1")
        if modulus > 1 and poly_coeffs[-1] != 1:
            raise cur.error("quotient polynomial must be monic")
    if cur.take("{"):
        factors = []
        while True:
            cur.expect("C")
            n = cur.read_int()
            if n < 2:
                raise cur.error("cyclic factor must be >= 2")
            factors.append(n)
            if not cur.take("x"):
                break
        cur.expect("}")
        group_factors = tuple(factors)
    if not cur.at_end():
        if cur.peek() == "[":
            raise cur.error(
                "duplicate or misplaced polynomial layer" if poly_coeffs is None
                else "duplicate polynomial layer"
            )
        if cur.peek() == "{":
            raise cur.error("duplicate group layer")
        raise cur.error("unexpected trailing input")
    return RingExpression(modulus, poly_coeffs, group_factors)


def build_ring(text: str) -> Ring:
    return parse_ring(text).build()


def _parse_group_basis(cur: _Cursor, group, names: tuple[str, ...]) -> int:
    """A basis symbol: ``e``, ``g^k``, or ``(a^i b^j)``; returns the group index."""
    if cur.take("e"):
        return 0
    parenthesized = cur.take("(")
    exponents = [0] * group.rank
    matched = False
    while True:
        for k, name in enumerate(names):
            if cur.take(name):
                break
        else:
            break
        matched = True
        exponents[k] += cur.read_int() if cur.take("^") else 1
    if parenthesized:
        cur.expect(")")
    if not matched:
        raise cur.error(f"expected a group generator from {list(names)}")
    return group.index(tuple(x % n for x, n in zip(exponents, group.factors)))


def _parse_group_element(cur: _Cursor, ring: GroupRing):
    """``[coefficient[*]] basis`` terms joined by "+", summed unreduced."""
    base, group = ring.base, ring.group
    bd, m = base.dimension, base.coefficient_modulus
    names = group.generator_names()
    heads = {name[0] for name in names}
    starts = {"e", "("} | heads
    quotient = isinstance(base, QuotientRing)
    flat = [0] * ring.dimension
    while True:
        start = cur.pos
        # "(" opens a coefficient unless a generator follows: "(a b)" is a basis symbol
        if quotient and cur.take("(") and cur.peek() not in heads:
            coeff = base.from_polynomial(_parse_poly_body(cur, m, base._var_name)).coeff_vector()
            cur.expect(")")
        else:
            cur.pos = start
            value = cur.int_or_none()
            coeff = None if value is None else (value,)
        starred = coeff is not None and cur.take("*")
        if cur.peek() in starts:
            idx = _parse_group_basis(cur, group, names)
        elif coeff is not None and not starred:
            idx = 0
        else:
            raise cur.error("expected a coefficient or basis symbol")
        for k, c in enumerate(coeff or (1,)):
            flat[idx * bd + k] += c
        if not cur.take("+"):
            break
    return ring.from_coeffs(flat)


def parse_element(text: str, ring: Ring):
    """Parse an element literal of ``ring`` in its canonical text format."""
    if len(text.encode()) > MAX_INPUT_BYTES:
        raise ParseError(f"element literal exceeds {MAX_INPUT_BYTES} bytes")
    cur = _Cursor(text)
    if isinstance(ring, GroupRing):
        out = _parse_group_element(cur, ring)
    elif isinstance(ring, QuotientRing):
        out = ring.from_polynomial(
            _parse_poly_body(cur, ring.coefficient_modulus, ring._var_name)
        )
    elif isinstance(ring, ResidueRing):
        out = ring.from_int(cur.read_int())
    else:
        raise ParseError(f"no element syntax for {ring!r}")
    if not cur.at_end():
        raise cur.error("unexpected trailing input")
    return out
