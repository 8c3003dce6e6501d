"""Integer residue rings, the one element type, and the carrier interface.

Every carrier in this package is a finite commutative ring whose elements
are fixed-length vectors of integers modulo m: the residue ring Z_m itself
(length 1), polynomial quotients Z_m[x]/(q) (length deg q), and group rings
over either (length multiplied by the group order, group index major, base
coefficient minor).  Every element is an ``Element`` holding that flat
tuple; each carrier contributes a single product kernel on such tuples.
That shared shape gives uniform arithmetic, enumeration, serialization,
reduction mod a divisor of m, and the structure constants the brute-force
scan kernel consumes.

All arithmetic is exact; Python integers are unbounded, so no operation here
can overflow.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import SizeLimitError, UnsupportedError

FACTORIZATION_BOUND = 2**63


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: return (g, x, y) with a*x + b*y == g == gcd(a, b) > 0.

    gcd(0, 0) is undefined and raises ValueError.
    """
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def modular_inverse(a: int, m: int) -> int:
    """Least non-negative x with a*x == 1 (mod m); m == 1 returns 0."""
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    if m == 1:
        return 0
    g, x, _ = ext_gcd(a % m, m)
    if g != 1:
        raise UnsupportedError(f"{a} is not invertible modulo {m}")
    return x % m


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (desk-scale moduli)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PrimePower:
    prime: int
    exponent: int

    @property
    def value(self) -> int:
        return self.prime**self.exponent


@dataclass(frozen=True)
class PrimePowerFactorization:
    """m = prod p_i^{r_i} together with the CRT data the combiners need.

    cofactors[i] is m_i = m / p_i^{r_i}; inverses[i] is the least positive
    s_i with s_i * m_i == 1 (mod p_i^{r_i}).  The weights s_i * m_i are the
    coefficients of the idempotent decomposition of 1 in Z_m.
    """

    modulus: int
    factors: tuple[PrimePower, ...]
    cofactors: tuple[int, ...]
    inverses: tuple[int, ...]

    @property
    def crt_weights(self) -> tuple[int, ...]:
        return tuple(s * c for s, c in zip(self.inverses, self.cofactors))

    @property
    def radical(self) -> int:
        return math.prod(pp.prime for pp in self.factors)

    @property
    def max_exponent(self) -> int:
        return max(pp.exponent for pp in self.factors)


def factorize(m: int) -> PrimePowerFactorization:
    """Factor 2 <= m < 2**63 by trial division, with CRT cofactors and inverses."""
    if m < 2:
        raise ValueError(f"factorize needs m >= 2, got {m}")
    if m >= FACTORIZATION_BOUND:
        raise SizeLimitError(f"factorize supports m < 2**63, got {m}")
    factors = []
    rest = m
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            factors.append(PrimePower(d, e))
        d += 1 if d == 2 else 2
    if rest > 1:
        factors.append(PrimePower(rest, 1))
    cofactors = tuple(m // pp.value for pp in factors)
    inverses = tuple(
        modular_inverse(c, pp.value) for c, pp in zip(cofactors, factors)
    )
    return PrimePowerFactorization(m, tuple(factors), cofactors, inverses)


class Element:
    """One element of any carrier: its flat coefficient vector, reduced mod m.

    The vector is group index major, base coefficient minor (see the module
    docstring).  Sums, integer scaling, equality and the power are the same
    for every carrier; a product goes through the ring's ``mul`` kernel.
    Mixing elements of different rings raises ValueError.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: "Ring", coeffs: tuple[int, ...]):
        self.ring = ring
        self.coeffs = coeffs

    def _new(self, coeffs: tuple[int, ...]) -> "Element":
        return type(self)(self.ring, coeffs)

    def _match(self, other: "Element"):
        if other.ring is not self.ring and other.ring != self.ring:
            raise ValueError(f"mismatched rings: {self.ring!r} vs {other.ring!r}")

    def __add__(self, other):
        self._match(other)
        m = self.ring.coefficient_modulus
        return self._new(tuple((a + b) % m for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._match(other)
        m = self.ring.coefficient_modulus
        return self._new(tuple((a - b) % m for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        m = self.ring.coefficient_modulus
        return self._new(tuple(-a % m for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            m = self.ring.coefficient_modulus
            return self._new(tuple(a * other % m for a in self.coeffs))
        self._match(other)
        return self._new(self.ring.mul(self.coeffs, other.coeffs))

    def __rmul__(self, scalar: int):
        return self * scalar

    def __pow__(self, e: int):
        """Square-and-multiply in ``pow_mults(e)`` products of the ring's kernel."""
        if e < 0:
            raise ValueError("negative exponents are not defined here")
        mul = self.ring.mul
        result = None
        base = self.coeffs
        while e:
            if e & 1:
                result = base if result is None else mul(result, base)
            e >>= 1
            if e:
                base = mul(base, base)
        return self.ring.one if result is None else self._new(result)

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.coeffs == other.coeffs
            and (self.ring is other.ring or self.ring == other.ring)
        )

    def __hash__(self):
        return hash(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def coeff_vector(self) -> tuple[int, ...]:
        return self.coeffs

    def __str__(self):
        return self.ring.element_text(self)

    def __repr__(self):
        return f"{type(self).__name__}({self.ring!r}, {self.coeffs!r})"


def pow_mults(e: int) -> int:
    """Products ``x ** e`` costs: one squaring per bit below the highest and
    one multiply per set bit after the first (the first is free)."""
    return e.bit_length() + e.bit_count() - 2 if e else 0


class Ring:
    """Interface shared by the concrete carriers.

    Subclasses set ``coefficient_modulus`` (the m above) and ``dimension``
    (the coefficient-vector length), may set ``element`` (the Element
    subclass they hand out), and implement the product kernel
    ``mul(a, b)`` on reduced coefficient tuples, ``reduce_to``,
    ``expression``, ``element_text`` and ``structure_constants``.  A ring
    that serves as a group ring's base also implements ``reduce_product``.
    Everything else is generic.
    """

    coefficient_modulus: int
    dimension: int
    element = Element

    @property
    def cardinality(self) -> int:
        return self.coefficient_modulus**self.dimension

    @property
    def characteristic(self) -> int:
        return self.coefficient_modulus

    @property
    def zero(self):
        return self.element(self, (0,) * self.dimension)

    @property
    def one(self):
        return self.from_int(1)

    def from_coeffs(self, coeffs: Sequence[int]):
        if len(coeffs) != self.dimension:
            raise ValueError(f"expected {self.dimension} coefficients, got {len(coeffs)}")
        m = self.coefficient_modulus
        return self.element(self, tuple(c % m for c in coeffs))

    def from_int(self, v: int):
        """The scalar v * 1: v at flat index 0 (identity, constant term)."""
        return self.from_coeffs((v,) + (0,) * (self.dimension - 1))

    def mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        raise NotImplementedError

    def reduce_to(self, c: int) -> "Ring":
        """The structurally identical ring with coefficient modulus c."""
        raise NotImplementedError

    def expression(self) -> str:
        """Canonical ring expression, parseable by the CLI grammar."""
        raise NotImplementedError

    def element_text(self, x) -> str:
        raise NotImplementedError

    def structure_constants(self) -> list[list[tuple[int, ...]]]:
        """n x n table of basis products as coefficient vectors."""
        raise NotImplementedError

    def elements(self) -> Iterator:
        """All elements, ascending in the lexicographic coefficient order."""
        for coeffs in itertools.product(
            range(self.coefficient_modulus), repeat=self.dimension
        ):
            yield self.element(self, coeffs)

    def include(self, x):
        """Canonical-representative lift from a reduced twin of this ring."""
        return self.from_coeffs(x.coeff_vector())

    def reduce(self, x, target: "Ring"):
        """Push x from this ring onto a reduced twin (coefficients mod c)."""
        return target.from_coeffs(x.coeff_vector())


class ResidueRing(Ring):
    """The ring Z_m of integers modulo m >= 1; m = 1 is the zero ring, where 0 == 1."""

    def __init__(self, modulus: int):
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        self.coefficient_modulus = modulus
        self.dimension = 1

    @property
    def modulus(self) -> int:
        return self.coefficient_modulus

    def mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return (a[0] * b[0] % self.coefficient_modulus,)

    def reduce_product(self, acc: list[int]) -> tuple[int, ...]:
        """The unreduced product of two elements (one raw integer), mod m."""
        return (acc[0] % self.coefficient_modulus,)

    def reduce_to(self, c: int) -> "ResidueRing":
        return ResidueRing(c)

    def expression(self) -> str:
        return f"Z({self.modulus})"

    def element_text(self, x: Element) -> str:
        return str(x.coeffs[0])

    def structure_constants(self) -> list[list[tuple[int, ...]]]:
        return [[(1 % self.modulus,)]]

    def __eq__(self, other):
        return isinstance(other, ResidueRing) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("ResidueRing", self.modulus))

    def __repr__(self):
        return f"ResidueRing({self.modulus})"
