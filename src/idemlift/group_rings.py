"""Group rings RG for a finite abelian group G over the rings defined here.

An element is the flat coefficient vector of ``rings.Element``: one block
of ``base.dimension`` coefficients per group element, in the group's
canonical index order.  The product is one exact integer product by
Kronecker substitution (Schoenhage 1982; Harvey 2009), folded back onto
the group; the base ring reduces the whole output in one call, and renders
all blocks in one call for the text.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from math import prod

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
        self._layout = None
        self._names = None

    def mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        """Pack each operand into one int, multiply once, fold; the base ring
        reduces the output."""
        if self._layout is None:
            shape = (self.group.factors, self.base.dimension, self.coefficient_modulus)
            self._layout = _layout(*shape)
        pack, bits, wrap, folds, slices = self._layout
        x = pack(a)
        z = x * (x if a is b else pack(b))
        z = (z & wrap) + (z >> bits)
        if z >= wrap:
            z -= wrap
        for shift, mask in folds:
            z += (z >> shift) & mask
        return self.base.reduce_slots(z.to_bytes(bits // 8, "little"), slices)

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
        if self._names is None:
            self._names = tuple(map(self.group.element_name, range(self.group.order)))
        dense, texts = self.group.rank <= 1, self.base.coefficient_texts(x.coeffs)
        terms = [f"{t}*{name}" for t, name in zip(texts, self._names) if dense or t != "0"]
        return " + ".join(terms) or "0"

    def structure_constants(self) -> list[list[tuple[int, ...]]]:
        base_sc, bd = self.base.structure_constants(), self.base.dimension
        zeros, order = (0,) * self.dimension, self.group.order
        table = []
        for gi in range(order):
            for bi in range(bd):
                row = []
                for gj in range(order):
                    k = self.group.mul(gi, gj) * bd
                    row += [zeros[:k] + v + zeros[k + bd :] for v in base_sc[bi]]
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


@lru_cache(maxsize=256)
def _layout(factors: tuple[int, ...], bd: int, m: int):
    """Where ``GroupRing.mul`` puts each coefficient, for one ring shape.

    Coefficient d of the element with exponents (e_1, ..., e_r) takes slot
    d + sum e_i * Q_i, with Q_r = w = 2 bd - 1 and Q_i = (2 n_{i+1} - 1) *
    Q_{i+1}: no exponent sum of a product overlaps the next.  A slot sums at
    most order * bd products below m^2.  Modulo 2^bits - 1 the first factor
    wraps in the product itself; each other one folds by a (shift, mask).
    Offsets below are in bytes; ``slices`` holds w output slots per element.
    """
    factors, width = factors or (1,), 2 * bd - 1
    slot = ((prod(factors) * bd * m * m).bit_length() + 7) // 8
    blocks, strides, q = [0], [], width * slot
    for n in reversed(factors):
        blocks = [p + e * q for e in range(n) for p in blocks]
        strides.insert(0, q)
        q *= 2 * n - 1
    total = factors[0] * strides[0]
    starts = [p + d * slot for p in blocks for d in range(bd)] + [total]
    widths = [nxt - cur for cur, nxt in zip(starts, starts[1:])]
    masks = [(b"\xff" * (span - n * q) + bytes(n * q)) * (total // span)
             for n, q, span in zip(factors[1:], strides[1:], strides)]
    folds = [(n * q * 8, int.from_bytes(mask, "little"))
             for n, q, mask in zip(factors[1:], strides[1:], masks)]
    slices = [slice(p + d * slot, p + d * slot + slot) for p in blocks for d in range(width)]

    def pack(c: tuple[int, ...]) -> int:
        return int.from_bytes(b"".join(map(int.to_bytes, c, widths, repeat("little"))), "little")

    return pack, total * 8, (1 << total * 8) - 1, folds, slices


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
