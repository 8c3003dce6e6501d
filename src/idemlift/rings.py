"""Integer helpers, factorization, and the one element type.

Every carrier in this package is a finite commutative ring whose elements
are fixed-length vectors of integers modulo m: the residue ring Z_m itself
(length 1), polynomial quotients Z_m[x]/(q) (length deg q), and group rings
over either (length multiplied by the group order, group index major, base
coefficient minor).  Each is a ``group_rings.Ring``.  Every element is an
``Element`` holding one int, that vector packed in the one Kronecker layout
of ``group_rings`` with every coefficient reduced below m; a Z_m residue
packs as itself.  Products, sums, negation, scaling, equality, hashing and
``Ring.embed``, the one crossing between carriers, are whole-int
operations; coefficient tuples appear only at the boundary
(``from_coeffs``, ``coeff_vector``, text, JSON and the brute-force scan,
which builds its own table of basis products from the carrier's shape).
Carriers are equal when their expressions are.

All arithmetic is exact; Python integers are unbounded, so no operation here
can overflow.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import SizeLimitError, UnsupportedError

FACTORIZATION_BOUND = 2**63


def modular_inverse(a: int, m: int) -> int:
    """Least non-negative x with a*x == 1 (mod m); m == 1 returns 0."""
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise UnsupportedError(f"{a} is not invertible modulo {m}") from None


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Miller-Rabin with the bases 2..37 has no strong pseudoprime below this
# (Sorenson & Webster, Math. Comp. 86, 2017), so is_prime is exact under it.
MILLER_RABIN_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < MILLER_RABIN_BOUND (about 2**78).

    Trial division by the twelve primes 2..37 settles every n < 37**2;
    above that, Miller-Rabin with those twelve bases is exact.  Larger n
    raise SizeLimitError rather than risk a wrong answer.
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < 37 * 37:
        return True
    if n >= MILLER_RABIN_BOUND:
        raise SizeLimitError(f"is_prime supports n < {MILLER_RABIN_BOUND}, got {n}")
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A proper factor of an odd composite n (Pollard 1975, Brent 1980).

    Iterates y -> y^2 + c from y = 2 with c = 1, 2, ... until one constant
    yields a factor; products of |x - y| are batched 128 to a gcd.
    """
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"Pollard-Brent rho found no factor of {n}")


class PrimePower(namedtuple("PrimePower", "prime exponent")):
    __slots__ = ()

    @property
    def value(self) -> int:
        return self.prime**self.exponent


class PrimePowerFactorization(
    namedtuple("PrimePowerFactorization", "modulus factors cofactors inverses")
):
    """m = prod p_i^{r_i} together with the CRT data the combiners need.

    factors[i] is the PrimePower p_i^{r_i}; cofactors[i] is m_i = m /
    p_i^{r_i}; inverses[i] is the least positive s_i with s_i * m_i == 1
    (mod p_i^{r_i}).  The weights s_i * m_i are the coefficients of the
    idempotent decomposition of 1 in Z_m.
    """

    __slots__ = ()

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
    """Factor 2 <= m < 2**63, with CRT cofactors and inverses.

    The primes 2..37 are divided out; composite cofactors are split by
    Pollard-Brent rho and every piece is tested with ``is_prime``.  The
    prime powers come out in ascending order of their primes.
    """
    if m < 2:
        raise ValueError(f"factorize needs m >= 2, got {m}")
    if m >= FACTORIZATION_BOUND:
        raise SizeLimitError(f"factorize supports m < 2**63, got {m}")
    exponents: dict[int, int] = {}
    rest = m
    for q in _SMALL_PRIMES:
        while rest % q == 0:
            rest //= q
            exponents[q] = exponents.get(q, 0) + 1
    pending = [rest] if rest > 1 else []
    while pending:
        n = pending.pop()
        if is_prime(n):
            exponents[n] = exponents.get(n, 0) + 1
        else:
            d = _pollard_brent(n)
            pending += [d, n // d]
    factors = tuple(PrimePower(q, e) for q, e in sorted(exponents.items()))
    cofactors = tuple(m // pp.value for pp in factors)
    inverses = tuple(
        modular_inverse(c, pp.value) for c, pp in zip(cofactors, factors)
    )
    return PrimePowerFactorization(m, factors, cofactors, inverses)


class Element:
    """One element of any carrier: its coefficient vector packed in one int.

    ``value`` is the ring's packed int; ``coeff_vector`` unpacks it on each use
    and keeps nothing, so a listing holds its members' ints, sorted by
    ``ring.order_key``, and no tuples.  Every operation is the ring's
    whole-int kernel.  Mixing elements of different rings raises
    ValueError; an operand that is neither an element nor (for scaling) an
    int gives NotImplemented, so Python raises TypeError.
    """

    __slots__ = ("ring", "value")

    def __init__(self, ring: "Ring", value: int):
        self.ring = ring
        self.value = value

    def _value_of(self, other: "Element") -> int:
        if other.ring is not self.ring and other.ring != self.ring:
            raise ValueError(f"mismatched rings: {self.ring!r} vs {other.ring!r}")
        return other.value

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return type(self)(self.ring, self.ring.add(self.value, self._value_of(other)))

    def __sub__(self, other):
        return self + -other if isinstance(other, Element) else NotImplemented

    def __neg__(self):
        return type(self)(self.ring, self.ring.neg(self.value))

    def __mul__(self, other):
        if isinstance(other, Element):
            return type(self)(self.ring, self.ring.mul(self.value, self._value_of(other)))
        if isinstance(other, int):
            return type(self)(self.ring, self.ring.mul(self.value, other % self.ring.coefficient_modulus))
        return NotImplemented

    __rmul__ = __mul__  # only ever reached with a non-element on the left

    def __pow__(self, e: int):
        """Square-and-multiply in ``pow_mults(e)`` products of the ring's kernel."""
        if e < 0:
            raise ValueError("negative exponents are not defined here")
        mul = self.ring.mul
        result = None
        base = self.value
        while e:
            if e & 1:
                result = base if result is None else mul(result, base)
            e >>= 1
            if e:
                base = mul(base, base)
        return self.ring.one if result is None else type(self)(self.ring, result)

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.value == other.value
            and (self.ring is other.ring or self.ring == other.ring)
        )

    def __hash__(self):
        return hash(self.value)

    def is_zero(self) -> bool:
        return not self.value

    def coeff_vector(self) -> tuple[int, ...]:
        return self.ring.unpack(self.value)

    def __str__(self):
        return self.ring.element_text(self)

    def __repr__(self):
        return f"{type(self).__name__}({self.ring!r}, {self.coeff_vector()!r})"


def pow_mults(e: int) -> int:
    """Products ``x ** e`` costs: one squaring per bit below the highest and
    one multiply per set bit after the first (the first is free)."""
    return e.bit_length() + e.bit_count() - 2 if e else 0

