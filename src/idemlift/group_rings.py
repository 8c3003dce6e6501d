"""Group rings RG for a finite abelian group G over the rings defined here.

An element is the flat coefficient vector of ``rings.Element``: one block
of ``base.dimension`` coefficients per group element, in the group's
canonical index order.  The product is a single block convolution over
the mixed-radix index; the base ring reduces each output block.
"""

from __future__ import annotations

from .groups import AbelianGroup, Subgroup
from .rings import Element, Ring, modular_inverse


class GroupRingElement(Element):
    # The benchmark's span tracer (perfbench/spans.py) wraps these through
    # this class's own __dict__, so they are bound here and not inherited.
    __slots__ = ()
    __mul__ = Element.__mul__
    __pow__ = Element.__pow__


class GroupRing(Ring):
    """RG for a base coefficient ring R and finite abelian G."""

    element = GroupRingElement

    def __init__(self, base: Ring, group: AbelianGroup):
        self.base = base
        self.group = group
        self.coefficient_modulus = base.coefficient_modulus
        self.dimension = group.order * base.dimension

    def mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        """Coefficient d of block g times coefficient e of block h adds to
        coefficient d + e of block g*h of an unreduced product whose blocks
        are 2*bd - 1 wide; the base then reduces each block (by q)."""
        bd = self.base.dimension
        width = 2 * bd - 1
        order = self.group.order
        acc = [0] * (order * width)
        right = [(k // bd, k % bd, v) for k, v in enumerate(b) if v]
        for g in range(order):
            block = a[g * bd : (g + 1) * bd]
            if not any(block):
                continue
            row = self.group.row(g)
            for d, u in enumerate(block):
                if u:
                    for h, e, v in right:
                        acc[row[h] * width + d + e] += u * v
        reduce = self.base.reduce_product
        return tuple(
            c for k in range(0, len(acc), width) for c in reduce(acc[k : k + width])
        )

    def hat(self, sub: Subgroup) -> GroupRingElement:
        """|H|^{-1} * sum of the subgroup's elements; |H| must be invertible."""
        if sub.group != self.group:
            raise ValueError("subgroup belongs to a different group")
        m = self.coefficient_modulus
        inv = modular_inverse(sub.order, m) if m > 1 else 0
        coeffs = [0] * self.dimension
        for idx in sub.members:
            coeffs[idx * self.base.dimension] = inv
        return self.from_coeffs(coeffs)

    def reduce_to(self, c: int) -> "GroupRing":
        return GroupRing(self.base.reduce_to(c), self.group)

    def expression(self) -> str:
        return self.base.expression() + self.group.expression()

    def element_text(self, x: GroupRingElement) -> str:
        """Canonical text: ``c0*e + c1*g + c2*g^2`` / rank-2 ``c*(a^i b^j)`` terms.

        Rank-1 output is dense (a coefficient for every power of g) so
        listings line up column-wise; higher ranks print only nonzero
        terms since those carriers have |G| >= 4 basis elements.
        """
        dense = self.group.rank <= 1
        bd = self.base.dimension
        terms = []
        for idx in range(self.group.order):
            block = x.coeffs[idx * bd : (idx + 1) * bd]
            if not any(block) and not dense:
                continue
            cname = self.base.element_text(self.base.element(self.base, block))
            if bd > 1 and any(block):
                cname = f"({cname})"
            terms.append(f"{cname}*{self.group.element_name(idx)}")
        return " + ".join(terms) if terms else "0"

    def structure_constants(self) -> list[list[tuple[int, ...]]]:
        base_sc = self.base.structure_constants()
        bd = self.base.dimension
        n = self.dimension
        order = self.group.order
        table = []
        for gi in range(order):
            for bi in range(bd):
                row = []
                for gj in range(order):
                    gk = self.group.mul(gi, gj)
                    for bj in range(bd):
                        vec = [0] * n
                        prod = base_sc[bi][bj]
                        for bk, v in enumerate(prod):
                            vec[gk * bd + bk] = v
                        row.append(tuple(vec))
                table.append(row)
        return table

    def __eq__(self, other):
        return (
            isinstance(other, GroupRing)
            and other.base == self.base
            and other.group == self.group
        )

    def __hash__(self):
        return hash(("GroupRing", self.base, self.group))

    def __repr__(self):
        return f"GroupRing({self.base!r}, {self.group!r})"


def pow_tower(x, s: int, count: int):
    """x**(s**count) as count successive s-th powers.

    This is how exponents beyond 2**63 stay feasible: the flat value is
    never materialized.
    """
    if s < 0 or count < 0:
        raise ValueError("tower exponents must be non-negative")
    for _ in range(count):
        x = x**s
    return x
