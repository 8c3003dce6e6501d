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

from dataclasses import dataclass

from .errors import ParseError
from .groups import AbelianGroup
from .group_rings import GroupRing
from .polynomials import Polynomial
from .quotients import QuotientRing
from .rings import ResidueRing, Ring

MAX_INPUT_BYTES = 1024


class _Cursor:
    """Character cursor with whitespace skipping and positioned errors."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(f"{message} at position {self.pos} in {self.text!r}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.take(literal):
            raise self.error(f"expected {literal!r}")

    def read_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        return int(self.text[start : self.pos])


@dataclass(frozen=True)
class RingExpression:
    """Parsed ring tower: base modulus, optional quotient, optional group."""

    modulus: int
    poly_coeffs: tuple[int, ...] | None
    group_factors: tuple[int, ...] | None

    def text(self) -> str:
        out = f"Z({self.modulus})"
        if self.poly_coeffs is not None:
            if self.poly_coeffs == (1, 0, 1):
                out += "[i]"
            else:
                out += f"[x]/({Polynomial(self.poly_coeffs, self.modulus).to_text()})"
        if self.group_factors is not None:
            out += "{" + "x".join(f"C{n}" for n in self.group_factors) + "}"
        return out

    def build(self) -> Ring:
        base: Ring = ResidueRing(self.modulus)
        if self.poly_coeffs is not None:
            base = QuotientRing(
                self.modulus, Polynomial(self.poly_coeffs, self.modulus)
            )
        if self.group_factors is not None:
            return GroupRing(base, AbelianGroup(self.group_factors))
        return base


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
    cur.skip_ws()
    coeff = None
    if cur.peek().isdigit():
        coeff = cur.read_int()
        cur.take("*")
    if cur.take(var):
        power = cur.read_int() if cur.take("^") else 1
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


def _parse_quotient_coeff(cur: _Cursor, ring: QuotientRing):
    """A parenthesized polynomial or a bare integer, as a quotient element."""
    if cur.take("("):
        coeffs = _parse_poly_body(cur, ring.coefficient_modulus, ring._var_name)
        cur.expect(")")
        return ring.from_polynomial(Polynomial(coeffs, ring.coefficient_modulus))
    return ring.from_int(cur.read_int())


def _parse_group_basis(cur: _Cursor, ring: GroupRing) -> int:
    """A basis symbol: ``e``, ``g^k``, or ``(a^i b^j)``; returns the group index."""
    group = ring.group
    names = group.generator_names()
    if cur.take("e"):
        return 0
    parenthesized = cur.take("(")
    exponents = [0] * group.rank
    matched = False
    while True:
        cur.skip_ws()
        which = None
        for k, name in enumerate(names):
            if cur.take(name):
                which = k
                break
        if which is None:
            break
        matched = True
        exponents[which] += cur.read_int() if cur.take("^") else 1
    if parenthesized:
        cur.expect(")")
    if not matched:
        raise cur.error(f"expected a group generator from {list(names)}")
    return group.index(tuple(x % n for x, n in zip(exponents, group.factors)))


def _parse_group_element(cur: _Cursor, ring: GroupRing):
    base = ring.base
    bd = base.dimension
    flat = [0] * ring.dimension
    while True:
        cur.skip_ws()
        coeff = None
        starred = False
        if isinstance(base, QuotientRing) and cur.peek() == "(":
            coeff = _parse_quotient_coeff(cur, base)
            starred = cur.take("*")
        elif cur.peek().isdigit():
            coeff = base.from_int(cur.read_int())
            starred = cur.take("*")
        starts = {"e", "("} | {name[0] for name in ring.group.generator_names()}
        if cur.peek() in starts:
            idx = _parse_group_basis(cur, ring)
        elif coeff is not None and not starred:
            idx = 0
        else:
            raise cur.error("expected a coefficient or basis symbol")
        if coeff is None:
            coeff = base.from_int(1)
        for k, c in enumerate(coeff.coeffs):
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
        coeffs = _parse_poly_body(cur, ring.coefficient_modulus, ring._var_name)
        if len(coeffs) > ring.dimension:
            out = ring.from_polynomial(
                Polynomial(coeffs, ring.coefficient_modulus)
            )
        else:
            out = ring.from_coeffs(
                tuple(coeffs) + (0,) * (ring.dimension - len(coeffs))
            )
    elif isinstance(ring, ResidueRing):
        out = ring.from_int(cur.read_int())
    else:
        raise ParseError(f"no element syntax for {ring!r}")
    if not cur.at_end():
        raise cur.error("unexpected trailing input")
    return out
