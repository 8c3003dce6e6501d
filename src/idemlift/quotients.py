"""Quotient rings Z_m[x]/(q) for monic q, including the Gaussian case q = x^2 + 1.

Elements are residue polynomials of degree below deg q, held as their flat
coefficient tuples, lowest degree first.  When q = x^2 + 1 the ring prints
with ``i`` instead of ``x`` so Z_p[i] elements read as a + b*i.
"""

from __future__ import annotations

import math

from .errors import UnsupportedError
from .polynomials import Polynomial
from .rings import Element, Ring, is_prime, modular_inverse


class PolyQuotientElement(Element):
    # The benchmark's span tracer (perfbench/spans.py) wraps this through
    # this class's own __dict__, so it is bound here and not inherited.
    __slots__ = ()
    __mul__ = Element.__mul__


class QuotientRing(Ring):
    """Z_m[x]/(q) with q monic of degree >= 1."""

    element = PolyQuotientElement

    def __init__(self, modulus: int, q: Polynomial):
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        q = Polynomial(q.coeffs, modulus)
        if modulus == 1:
            # zero ring; the polynomial layer collapses
            self.coefficient_modulus = 1
            self.q = q
            self.dimension = 1
            return
        if q.is_zero() or not q.is_monic():
            raise ValueError(f"quotient modulus must be monic, got {q}")
        if q.degree < 1:
            raise ValueError("quotient modulus must have degree >= 1")
        self.coefficient_modulus = modulus
        self.q = q
        self.dimension = q.degree

    @property
    def variable(self) -> PolyQuotientElement:
        if self.dimension < 2:
            raise ValueError("quotient of degree 1 has no residual variable")
        return self.from_coeffs((0, 1) + (0,) * (self.dimension - 2))

    def from_polynomial(self, poly: Polynomial) -> PolyQuotientElement:
        rem = Polynomial(poly.coeffs, self.coefficient_modulus)
        if self.coefficient_modulus > 1:
            rem = rem % self.q
        cs = rem.coeffs + (0,) * (self.dimension - len(rem.coeffs))
        return self.element(self, cs[: self.dimension])

    def mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        acc = [0] * (2 * self.dimension - 1)
        for i, u in enumerate(a):
            if u:
                for j, v in enumerate(b):
                    acc[i + j] += u * v
        return self.reduce_product(acc)

    def reduce_product(self, acc: list[int]) -> tuple[int, ...]:
        """The unreduced product of two elements (2n - 1 raw coefficients,
        overwritten here) reduced by the monic q and mod m."""
        n, m = self.dimension, self.coefficient_modulus
        tail = self.q.coeffs[:-1]
        for top in range(len(acc) - 1, n - 1, -1):
            c = acc[top] % m
            if c:
                for k, t in enumerate(tail):
                    acc[top - n + k] -= c * t
        return tuple(c % m for c in acc[:n])

    def reduce_to(self, c: int) -> "QuotientRing":
        return QuotientRing(c, Polynomial(self.q.coeffs, c))

    @property
    def is_gaussian(self) -> bool:
        return self.q.coeffs == (1, 0, 1)

    @property
    def _var_name(self) -> str:
        return "i" if self.is_gaussian else "x"

    def expression(self) -> str:
        if self.is_gaussian:
            return f"Z({self.coefficient_modulus})[i]"
        return f"Z({self.coefficient_modulus})[x]/({self.q.to_text()})"

    def element_text(self, x: PolyQuotientElement) -> str:
        if not any(x.coeffs):
            return "0"
        return Polynomial(x.coeffs, self.coefficient_modulus).to_text(self._var_name)

    def structure_constants(self) -> list[list[tuple[int, ...]]]:
        n = self.dimension
        table = []
        for i in range(n):
            row = []
            for j in range(n):
                prod = self.from_polynomial(
                    Polynomial((0,) * (i + j) + (1,), self.coefficient_modulus)
                )
                row.append(prod.coeffs)
            table.append(row)
        return table

    def __eq__(self, other):
        return (
            isinstance(other, QuotientRing)
            and other.coefficient_modulus == self.coefficient_modulus
            and other.q.coeffs == self.q.coeffs
        )

    def __hash__(self):
        return hash(("QuotientRing", self.coefficient_modulus, self.q.coeffs))

    def __repr__(self):
        return f"QuotientRing({self.coefficient_modulus}, {self.q!r})"


def gaussian_ring(m: int) -> QuotientRing:
    """Z_m[i] as Z_m[x]/(x^2 + 1)."""
    return QuotientRing(m, Polynomial((1, 0, 1), m))


def gaussian_idempotents(p: int) -> list[PolyQuotientElement]:
    """The four idempotents of Z_p[i] for primes p == 1 (mod 4).

    The nontrivial pair is (p+1)/2 +- w*i with w = ((p-1)/2)! / 2 taken
    mod p; for p == 3 (mod 4) the ring Z_p[i] is a field and only 0 and 1
    remain, which is reported as the unsupported case.
    """
    if not is_prime(p):
        raise ValueError(f"gaussian_idempotents requires a prime, got {p}")
    if p % 4 != 1:
        raise UnsupportedError(
            f"Z_{p}[i] has only the trivial idempotents unless p == 1 (mod 4)"
        )
    ring = gaussian_ring(p)
    half_fact = math.factorial((p - 1) // 2) % p
    w = half_fact * modular_inverse(2, p) % p
    a = (p + 1) // 2
    e_plus = ring.from_coeffs((a, w))
    e_minus = ring.from_coeffs((a, (-w) % p))
    for e in (e_plus, e_minus):
        if e * e != e:
            raise ArithmeticError(f"constructed element {e} is not idempotent")
    return [ring.zero, ring.one, e_plus, e_minus]
