"""Finite abelian groups as products of cyclic factors, written multiplicatively.

Elements are exponent vectors indexed in row-major mixed radix: the element
with exponents (a_1, ..., a_r) over factors (n_1, ..., n_r) has index
sum a_i * prod_{j>i} n_j.  Index 0 is the identity.  Rank-1 groups print
their generator as ``g``, rank-2 groups as ``a`` and ``b``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

from .errors import SizeLimitError, UnsupportedError
from .rings import is_prime

DEFAULT_GROUP_ORDER_CAP = 2**16
DEFAULT_SUBGROUP_ORDER_CAP = 4096
_MUL_TABLE_CAP = 1024


class AbelianGroup:
    """Direct product of cyclic groups C_{n_1} x ... x C_{n_r}."""

    def __init__(self, factors: tuple[int, ...]):
        if any(n < 2 for n in factors):
            raise ValueError(f"cyclic factors must be >= 2, got {factors}")
        self.factors = tuple(factors)
        self.order = prod(self.factors) if self.factors else 1
        strides = []
        acc = 1
        for n in reversed(self.factors):
            strides.append(acc)
            acc *= n
        self._strides = tuple(reversed(strides))
        self._mul_table: list[list[int]] | None = None

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def exponents(self, index: int) -> tuple[int, ...]:
        out = []
        for n, s in zip(self.factors, self._strides):
            out.append((index // s) % n)
        return tuple(out)

    def index(self, exponents) -> int:
        return sum(
            (a % n) * s for a, n, s in zip(exponents, self.factors, self._strides)
        )

    def mul(self, i: int, j: int) -> int:
        ei, ej = self.exponents(i), self.exponents(j)
        return self.index(a + b for a, b in zip(ei, ej))

    def inverse(self, i: int) -> int:
        return self.index(-a for a in self.exponents(i))

    def power(self, i: int, k: int) -> int:
        return self.index(a * k for a in self.exponents(i))

    def element_order(self, i: int) -> int:
        result = 1
        for a, n in zip(self.exponents(i), self.factors):
            result = result * (n // gcd(a, n)) // gcd(result, n // gcd(a, n))
        return result

    def mul_table(self) -> list[list[int]]:
        if self._mul_table is None:
            if self.order > _MUL_TABLE_CAP:
                raise SizeLimitError(
                    f"multiplication table capped at order {_MUL_TABLE_CAP}"
                )
            self._mul_table = [self._row(i) for i in range(self.order)]
        return self._mul_table

    def row(self, i: int) -> list[int]:
        """Indices of i*j for every j: the cached table's row up to
        _MUL_TABLE_CAP, computed afresh above it."""
        if self.order <= _MUL_TABLE_CAP:
            return self.mul_table()[i]
        return self._row(i)

    def _row(self, i: int) -> list[int]:
        # j runs over the mixed-radix digits x, most significant first
        row = [0]
        for n, a, s in zip(self.factors, self.exponents(i), self._strides):
            row = [r + (a + x) % n * s for r in row for x in range(n)]
        return row

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
        exps = self.exponents(index)
        names = self.generator_names()
        parts = []
        for name, a in zip(names, exps):
            if a == 0:
                continue
            parts.append(name if a == 1 else f"{name}^{a}")
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


def group_from_factors(
    factors, cap: int = DEFAULT_GROUP_ORDER_CAP
) -> AbelianGroup:
    """Build C_{n_1} x ... x C_{n_r}; the order is capped (default 2**16)."""
    factors = tuple(int(n) for n in factors)
    group = AbelianGroup(factors)
    if group.order > cap:
        raise SizeLimitError(f"group order {group.order} exceeds cap {cap}")
    return group


TRIVIAL_GROUP = AbelianGroup(())


@dataclass(frozen=True)
class Subgroup:
    group: AbelianGroup
    generators: tuple[int, ...]
    members: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)

    def is_trivial(self) -> bool:
        return self.order == 1


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


def all_subgroups(
    group: AbelianGroup, cap: int = DEFAULT_SUBGROUP_ORDER_CAP
) -> list[Subgroup]:
    """Every subgroup, found by closing each known subgroup under one more generator.

    Each subgroup of a finite abelian group arises by adjoining generators
    one at a time, so iterating to a fixpoint is exhaustive at every rank.
    Sorted by (order, member indices).
    """
    if group.order > cap:
        raise SizeLimitError(f"subgroup enumeration capped at order {cap}")
    seen: dict[tuple[int, ...], Subgroup] = {}
    trivial = subgroup_generated(group, ())
    seen[trivial.members] = trivial
    frontier = [trivial]
    while frontier:
        sub = frontier.pop()
        for x in range(1, group.order):
            if x in sub.members:
                continue
            bigger = subgroup_generated(group, sub.generators + (x,))
            if bigger.members not in seen:
                seen[bigger.members] = bigger
                frontier.append(bigger)
    return sorted(seen.values(), key=lambda s: (s.order, s.members))


def minimal_nontrivial_subgroups(group: AbelianGroup) -> list[Subgroup]:
    """Subgroups of prime order (the atoms of the subgroup lattice).

    Each is cyclic, generated by any of its nonidentity elements, so they
    are the <x> for the x of prime order; sorted by (order, member indices).
    """
    found: dict[tuple[int, ...], Subgroup] = {}
    for x in range(1, group.order):
        if is_prime(group.element_order(x)):
            sub = subgroup_generated(group, (x,))
            found.setdefault(sub.members, sub)
    return sorted(found.values(), key=lambda s: (s.order, s.members))


def frobenius_orbit_count(group: AbelianGroup, p: int) -> int:
    """Number of orbits of g -> g^p on the group.

    Defined for gcd(|G|, p) = 1, where it equals the number of simple
    components of F_p G, so |E(F_p G)| = 2**count.
    """
    if not is_prime(p):
        raise ValueError(f"frobenius_orbit_count requires a prime, got {p}")
    if gcd(group.order, p) != 1:
        raise UnsupportedError(
            f"F_{p}G is not semisimple: p = {p} divides |G| = {group.order}"
        )
    visited = [False] * group.order
    count = 0
    for start in range(group.order):
        if visited[start]:
            continue
        count += 1
        x = start
        while not visited[x]:
            visited[x] = True
            x = group.power(x, p)
    return count
