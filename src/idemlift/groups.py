"""Finite abelian groups as products of cyclic factors, written multiplicatively.

Elements are exponent vectors indexed in row-major mixed radix: the element
with exponents (a_1, ..., a_r) over factors (n_1, ..., n_r) has index
sum a_i * prod_{j>i} n_j.  Index 0 is the identity.  Rank-1 groups print
their generator as ``g``, rank-2 groups as ``a`` and ``b``.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, lcm, prod

from .errors import SizeLimitError, UnsupportedError
from .rings import is_prime

DEFAULT_GROUP_ORDER_CAP = 2**16
DEFAULT_SUBGROUP_ORDER_CAP = 4096


class AbelianGroup:
    """Direct product of cyclic groups C_{n_1} x ... x C_{n_r}."""

    def __init__(self, factors: tuple[int, ...]):
        if any(n < 2 for n in factors):
            raise ValueError(f"cyclic factors must be >= 2, got {factors}")
        self.factors = tuple(factors)
        self.order = prod(self.factors)
        self._strides = tuple(prod(self.factors[k + 1 :]) for k in range(len(self.factors)))

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def exponents(self, index: int) -> tuple[int, ...]:
        return tuple([index // s % n for n, s in zip(self.factors, self._strides)])

    def index(self, exponents) -> int:
        return sum(
            (a % n) * s for a, n, s in zip(exponents, self.factors, self._strides)
        )

    def mul(self, i: int, j: int) -> int:
        ei, ej = self.exponents(i), self.exponents(j)
        return self.index(a + b for a, b in zip(ei, ej))

    def power(self, i: int, k: int) -> int:
        return self.index(a * k for a in self.exponents(i))

    def expression(self) -> str:
        return "{" + "x".join(f"C{n}" for n in self.factors) + "}"

    def generator_names(self) -> tuple[str, ...]:
        if self.rank == 1:
            return ("g",)
        if self.rank == 2:
            return ("a", "b")
        return tuple(f"g{k + 1}" for k in range(self.rank))

    def element_name(self, index: int) -> str:
        """Multiplicative name of the element: e, g^2, (a b^3), ..."""
        if index == 0:
            return "e"
        exps = zip(self.generator_names(), self.exponents(index))
        parts = [name if a == 1 else f"{name}^{a}" for name, a in exps if a]
        if self.rank == 1:
            return parts[0]
        return "(" + " ".join(parts) + ")"

    def is_elementary_abelian(self) -> bool:
        if not self.factors:
            return False
        q = self.factors[0]
        return is_prime(q) and all(n == q for n in self.factors)

    def __eq__(self, other):
        return isinstance(other, AbelianGroup) and other.factors == self.factors

    def __hash__(self):
        return hash(("AbelianGroup", self.factors))

    def __repr__(self):
        return f"AbelianGroup({self.factors})"


def group_from_factors(factors) -> AbelianGroup:
    """Build C_{n_1} x ... x C_{n_r}; the order is capped at 2**16."""
    group = AbelianGroup(tuple(int(n) for n in factors))
    if group.order > DEFAULT_GROUP_ORDER_CAP:
        raise SizeLimitError(f"group order {group.order} exceeds cap {DEFAULT_GROUP_ORDER_CAP}")
    return group


TRIVIAL_GROUP = AbelianGroup(())


class Subgroup(namedtuple("Subgroup", "group generators members")):
    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.members)


def subgroup_generated(group: AbelianGroup, generators) -> Subgroup:
    """Closure of the generator set, as sorted parent indices."""
    gens = tuple(sorted({g % group.order for g in generators} - {0})) or ()
    members = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = group.mul(x, g)
            if y not in members:
                members.add(y)
                frontier.append(y)
    return Subgroup(group, gens, tuple(sorted(members)))


def all_subgroups(group: AbelianGroup) -> list[Subgroup]:
    """Every subgroup, found by closing each known subgroup under one more generator.

    Each subgroup of a finite abelian group arises by adjoining generators
    one at a time, so iterating to a fixpoint is exhaustive at every rank.
    S and x generate the same subgroup as S and any other member of the
    coset xS, so S is closed once per coset, under its least member.
    Sorted by (order, member indices); the group order is capped at 4096.
    """
    if group.order > DEFAULT_SUBGROUP_ORDER_CAP:
        raise SizeLimitError(f"subgroup enumeration capped at order {DEFAULT_SUBGROUP_ORDER_CAP}")
    seen: dict[tuple[int, ...], Subgroup] = {}
    trivial = subgroup_generated(group, ())
    seen[trivial.members] = trivial
    frontier = [trivial]
    while frontier:
        sub = frontier.pop()
        covered = set(sub.members)
        for x in range(1, group.order):
            if x in covered:
                continue
            covered.update(group.mul(x, s) for s in sub.members)
            bigger = subgroup_generated(group, sub.generators + (x,))
            if bigger.members not in seen:
                seen[bigger.members] = bigger
                frontier.append(bigger)
    return sorted(seen.values(), key=lambda s: (s.order, s.members))


def order_q_subgroups(group: AbelianGroup) -> list[Subgroup]:
    """The q + 1 subgroups of order q of C_q x C_q: <(1, 0)> and <(j, 1)>, j < q.

    The multiples k * (a, b) of each generator, read as indices a * q + b;
    no closure and no group products.
    """
    q = group.factors[0]
    return [
        Subgroup(group, (a * q + b,), tuple(sorted(k * a % q * q + k * b % q for k in range(q))))
        for a, b in [(1, 0)] + [(j, 1) for j in range(q)]
    ]


def frobenius_orbit_count(group: AbelianGroup, p: int, degree: int = 1) -> int:
    """Number of orbits of g -> g^q, q = p^degree, on the group.

    Defined for gcd(|G|, p) = 1, where it equals the number of simple
    components of F_q G, so |E(F_q G)| = 2**count.  In closed form, with no
    element visited: the sum over e | exp(G) of N_e / ord_e(q), N_e the
    number of elements of order e, from the prod_i gcd(e, n_i) of order
    dividing e by Moebius inversion (Perlis & Walker 1950).
    """
    if degree < 1:
        raise ValueError(f"frobenius_orbit_count requires a degree >= 1, got {degree}")
    if not is_prime(p):
        raise ValueError(f"frobenius_orbit_count requires a prime, got {p}")
    if gcd(group.order, p) != 1:
        raise UnsupportedError(
            f"F_{p}G is not semisimple: p = {p} divides |G| = {group.order}"
        )
    exponent = lcm(*group.factors)
    divisors = [e for e in range(1, exponent + 1) if exponent % e == 0]
    primes = [r for r in divisors if is_prime(r)]
    phi = exponent // prod(primes) * prod(r - 1 for r in primes)
    orders = [t for t in range(1, phi + 1) if phi % t == 0]  # ord_e(q) | phi(e) | phi
    q, exact, count = pow(p, degree, exponent), [], 0
    for e in divisors:  # ascending: N_d is known for every d < e
        exact.append(prod(gcd(e, n) for n in group.factors)
                     - sum(n for d, n in zip(divisors, exact) if e % d == 0))
        count += exact[-1] // next(t for t in orders if pow(q, t, e) == 1 % e)
    return count
