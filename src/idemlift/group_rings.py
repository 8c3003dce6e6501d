"""Every carrier's one class, ``Ring``, and the packed layout and kernel it
runs on, for group rings RG of a finite abelian group G, Z_m[x]/(q) and
Z_m = Z_m[x]/(x).

An element of RG is one block of ``base.dimension`` coefficients per group
element, in the group's canonical index order, held as one int: Kronecker
substitution (Schoenhage 1982; Harvey 2009) gives each coefficient a slot
wide enough that a product carries into no other slot.  A product is one
integer product, wrapped and folded onto the group; a SWAR ("SIMD within
a register") program then takes every slot mod m at once, a quotient base
reduces every block by its monic q, and the same steps reduce 256 squares
side by side.  A sum is one addition and one guarded subtraction of m, as
is a negation m - a.  Z_m[x]/(q) alone is the layout of the trivial group.
Carriers cross by ``Ring.embed`` and are equal by their expressions.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from functools import cached_property, lru_cache
from math import gcd, prod
from operator import itemgetter
from types import SimpleNamespace

from .groups import AbelianGroup, Subgroup, frobenius_orbit_count
from .rings import Element, modular_inverse


class Ring:
    """A finite commutative carrier held in the Kronecker layout of its
    ``_shape`` = (group factors, base tail, m): RG, and Z_m[x]/(q) and Z_m
    as the trivial group's, where q is the monic x^d + tail and Z_m is
    Z_m[x]/(x).  ``Ring(shape)`` sets the shape, ``coefficient_modulus``
    (m) and ``dimension`` (|G| * d, the coefficient-vector length).  The
    layout is built on first use, so a ring refused by a size cap builds
    none of its masks.  This is every carrier's kernel:

    - ``pack``/``unpack`` between a tuple of reduced coefficients and the
      packed int.  Flat index 0 sits in the low bits, below every other
      slot, so the scalar v * 1 is the int v mod m (``from_int``,
      ``scalar_of``);
    - the whole-int ``mul(a, b)``, ``add(a, b)`` and ``neg(a)``, and
      ``add_to_each(values, b)``, one addend for a whole list;
    - ``order_key(v)``, an int that orders packed values as their
      coefficient tuples, that ``add`` sums as it sums the values and
      that holds v, which ``key_values`` reads back;
    - ``unpack_many`` and ``square_mismatch``, a listing a block at a time;
    - ``embed(x)``, x read into this carrier, and identity by ``expression()``.

    A carrier may set ``element`` (the Element subclass it hands out) and
    implements ``row_text`` of a coefficient tuple, ``reduce_to(c)`` (the
    ring over Z_c) and ``expression``; a group ring's base also has
    ``coefficient_texts`` (each block's text, "0" if zero), at most one
    call per group-ring element.
    """

    element = Element

    def __init__(self, shape: tuple):
        factors, tail, m = self._shape = shape
        self.coefficient_modulus = m
        self.dimension = prod(factors) * len(tail)

    @property
    def cardinality(self) -> int:
        return self.coefficient_modulus**self.dimension

    @property
    def zero(self):
        return self.element(self, 0)

    @property
    def one(self):
        return self.from_int(1)

    def from_coeffs(self, coeffs: Sequence[int]):
        if len(coeffs) != self.dimension:
            raise ValueError(f"expected {self.dimension} coefficients, got {len(coeffs)}")
        m = self.coefficient_modulus
        return self.element(self, self.pack([c % m for c in coeffs]))

    def from_int(self, v: int):
        """The scalar v * 1: v at flat index 0 (identity, constant term)."""
        return self.element(self, v % self.coefficient_modulus)

    def scalar_of(self, x) -> int | None:
        """c when x == c * 1 for an integer c, else None (always None over
        Z_1, where 1 == 0)."""
        v, m = x.value, self.coefficient_modulus
        return v if m > 1 and v < m else None

    def element_text(self, x) -> str:
        return self.row_text(self.unpack(x.value))

    def elements(self) -> Iterator:
        """All elements, ascending in the lexicographic coefficient order."""
        for coeffs in itertools.product(
            range(self.coefficient_modulus), repeat=self.dimension
        ):
            yield self.from_coeffs(coeffs)

    @cached_property
    def _layout(self) -> SimpleNamespace:
        return _layout(*self._shape)

    def pack(self, coeffs) -> int:
        lay = self._layout
        slots = [0] * lay.count
        for p, c in zip(lay.positions, coeffs):
            slots[p] = c
        return _join(slots, lay.slot)

    def unpack(self, v: int) -> tuple[int, ...]:
        lay = self._layout
        return lay.pick(_split(v, lay.count, lay.slot))

    def unpack_many(self, values):
        """``map(self.unpack, values)``, by slot columns for <= 32 slots."""
        lay = self._layout
        if lay.count > 32:
            yield from map(self.unpack, values)
            return
        mask, shifts = (1 << lay.slot) - 1, [p * lay.slot for p in lay.positions]
        for i in range(0, len(values), 1024):
            block = values[i : i + 1024]
            yield from zip(*[[(v >> s) & mask for v in block] for s in shifts])

    def order_key(self, v: int) -> int:
        """v's slots reversed, flat index 0 on top, above v itself in the low
        ``bits``: an int that orders as the tuples do and that ``add`` sums."""
        lay = self._layout
        return _join(_split(v, lay.count, lay.slot)[::-1], lay.slot) << lay.bits | v

    def key_values(self, keys: list[int]) -> list[int]:
        wrap = self._layout.wrap
        return [k & wrap for k in keys]

    def mul(self, a: int, b: int) -> int:
        return _reduce(a * b, self._layout)

    def square_mismatch(self, values: list[int]) -> int | None:
        """Start of the first block of 256 values holding one that is not its
        own square, or None.  A block's squares sit side by side in one int,
        one byte-aligned field each, and ``_reduce`` reduces them at once."""
        lay, n = self._layout, min(len(values), 256) or 1
        size = (2 * lay.bits + 8) // 8  # at least 2 * bits + 1 bits: a square and a spare bit
        block = _tiled(lay, _repeat(1, 8 * size, n))
        for i in range(0, len(values), n):
            vs = values[i : i + n]
            squares = b"".join([(v * v).to_bytes(size, "little") for v in vs])
            fields = b"".join([v.to_bytes(size, "little") for v in vs])
            if _reduce(int.from_bytes(squares, "little"), block) != int.from_bytes(fields, "little"):
                return i
        return None

    def add(self, a: int, b: int) -> int:
        lay = self._layout
        z = a + b
        return z - (((z + lay.add_m) & lay.guard) >> lay.top) * self.coefficient_modulus

    def add_to_each(self, values: list[int], b: int) -> list[int]:
        """``[self.add(a, b) for a in values]``, in one comprehension."""
        lay, m = self._layout, self.coefficient_modulus
        guard, top, add_m = lay.guard, lay.top, lay.add_m + b
        return [a + b - (((a + add_m) & guard) >> top) * m for a in values]

    def neg(self, a: int) -> int:
        """m - a in every slot, then ``add``'s guarded subtraction of m."""
        return self.add(self._layout.m_all - a, 0)

    def embed(self, x):
        """x read into this carrier: block g of x's coefficients, zero-padded,
        is block g here (block 0 for a source without a group), mod m."""
        (src, tail, n), (factors, own, m) = x.ring._shape, self._shape
        have, lay, ds, dt = x.ring._layout, self._layout, len(tail), len(own)
        if src not in ((), factors) or ds > dt:
            raise ValueError(f"cannot read {x.ring!r} into {self!r}")
        slots = _split(x.value, have.count, have.slot)
        slots = [c % m for c in slots] if n > m else slots
        if (src, ds) != (factors, dt):  # pad every block; equal blocks move no slot
            slots, old = [0] * lay.count, slots
            for i, p in enumerate(have.positions):
                slots[lay.positions[i // ds * dt + i % ds]] = old[p]
        return self.element(self, _join(slots, lay.slot))

    def __eq__(self, other):
        return isinstance(other, Ring) and other.expression() == self.expression()

    def __hash__(self):
        return hash(self.expression())


class GroupRingElement(Element):
    # The benchmark's span tracer (perfbench/spans.py) wraps these through
    # this class's own __dict__, so they are bound here and not inherited.
    # Traced counts miss listings' squarings: packed ints, a block at a time.
    __slots__ = ()
    __mul__ = Element.__mul__
    __pow__ = Element.__pow__


class GroupRing(Ring):
    """RG for a base coefficient ring R (Z_m or Z_m[x]/(q)) and finite abelian G."""

    element = GroupRingElement

    def __init__(self, base: Ring, group: AbelianGroup):
        if base._shape[0]:
            raise ValueError(f"a group ring's base has no group, got {base!r}")
        super().__init__((group.factors,) + base._shape[1:])
        self.base = base
        self.group = group
        self._names = self._dense_row = None

    def hat(self, sub: Subgroup) -> GroupRingElement:
        """|H|^{-1} * sum of the subgroup's elements; |H| must be invertible."""
        if sub.group != self.group:
            raise ValueError("subgroup belongs to a different group")
        inv = modular_inverse(sub.order, self.coefficient_modulus)  # 0 over Z_1
        coeffs = [0] * self.dimension
        for idx in sub.members:
            coeffs[idx * self.base.dimension] = inv
        return self.from_coeffs(coeffs)

    def reduce_to(self, c: int) -> "GroupRing":
        return GroupRing(self.base.reduce_to(c), self.group)

    @cached_property
    def _components(self) -> int:
        """Simple components of F_{p^d} G, over a field base only: orbits of
        g -> g^(p^d) on the p'-part of G, in closed form, on first read."""
        p = self.coefficient_modulus
        coprime = [f // gcd(f, p**f.bit_length()) for f in self.group.factors]  # without p-parts
        group = AbelianGroup(tuple(f for f in coprime if f > 1))
        return frobenius_orbit_count(group, p, degree=self.base.dimension)

    def expression(self) -> str:
        return self.base.expression() + self.group.expression()

    def row_text(self, coeffs) -> str:
        """Canonical text: ``c0*e + c1*g + c2*g^2`` / rank-2 ``c*(a^i b^j)`` terms.

        Rank-1 output is dense (a coefficient for every power of g) so
        listings line up column-wise; it fills one row template, with bare
        ints over a base of dimension 1.  Higher ranks print only nonzero
        terms since those carriers have |G| >= 4 basis elements.
        """
        if self._names is None:
            self._names = tuple(map(self.group.element_name, range(self.group.order)))
            self._dense_row = " + ".join(f"{{}}*{name}" for name in self._names).format
        if self.group.rank > 1:
            texts = self.base.coefficient_texts(coeffs)
            return " + ".join(f"{t}*{n}" for t, n in zip(texts, self._names) if t != "0") or "0"
        if self.base.dimension > 1:
            coeffs = self.base.coefficient_texts(coeffs)
        return self._dense_row(*coeffs)

    def __repr__(self):
        return f"GroupRing({self.base!r}, {self.group!r})"


def _repeat(pattern: int, period: int, count: int) -> int:
    """pattern at bit offsets 0, period, ..., (count - 1) * period."""
    out, have = pattern, 1
    while have < count:
        out |= out << have * period
        have *= 2
    return out & ((1 << count * period) - 1)


def _split(v: int, count: int, width: int) -> list[int]:
    """The low count width-bit slots of v, lowest first; v is halved until
    a piece holds at most 32 slots or is zero, so a wide v costs
    O(bits * log count)."""
    if count <= 32:
        mask = (1 << width) - 1
        return [(v >> s) & mask for s in range(0, count * width, width)]
    if not v:
        return [0] * count
    half = count // 2
    low = _split(v & ((1 << half * width) - 1), half, width)
    return low + _split(v >> half * width, count - half, width)


def _join(slots: list[int], width: int) -> int:
    """The int whose width-bit slots are ``slots``, lowest first."""
    if len(slots) <= 32:
        v = 0
        for c in reversed(slots):
            v = (v << width) | c
        return v
    if not any(slots):
        return 0
    half = len(slots) // 2
    return _join(slots[:half], width) | (_join(slots[half:], width) << half * width)


def _sweep_steps(bound: int, m: int, top: int, ones: int) -> tuple:
    """The SWAR program that takes every slot <= bound to its residue mod m,
    in slots of top + 1 bits (``ones`` holds a 1 in each): folds
    ``z = ((z >> h) & HI) * (2^h mod m) + (z & LO)``, each with the h of
    least new bound, while a fold halves the bound; then a ladder of guarded
    subtractions ``z -= (((z + ADD) & G) >> top) * K`` for K = m * 2^j, j
    descending, where ADD holds 2^top - K, so the guard bit G of a slot is
    set exactly when the slot is at least K.
    """
    folds = []
    while bound >= m:
        new, h = min(
            ((bound >> h) * pow(2, h, m) + min(bound, (1 << h) - 1), h)
            for h in range(m.bit_length() - 1, bound.bit_length())
        )
        if 2 * new > bound:
            break
        c = pow(2, h, m)
        folds.append((h, ((1 << top + 1 - h) - 1) * ones, c, ((1 << h) - 1) * ones))
        bound = new
    ladder = [
        (((1 << top) - (m << j)) * ones, m << j)
        for j in reversed(range((bound // m).bit_length()))
    ]
    return folds, ladder, ones << top, top


def _sweep(z: int, steps: tuple) -> int:
    folds, ladder, guard, top = steps
    for h, hi, c, lo in folds:
        z = ((z >> h) & hi) * c + (z & lo) if c else z & lo
    for add, k in ladder:
        z -= (((z + add) & guard) >> top) * k
    return z


def _reduce(z: int, lay: SimpleNamespace) -> int:
    """A product z, wrapped and folded onto the group, every slot reduced."""
    z = (z & lay.wrap) + ((z >> lay.bits) & lay.wrap)
    for shift, mask in lay.folds:
        z += (z >> shift) & mask
    if lay.first:
        z = _sweep(z, lay.first)
    low = z & lay.low
    for shift, r in lay.tops:
        low += ((z >> shift) & lay.slot0) * r
    return _sweep(low, lay.last)


def _tiled(lay: SimpleNamespace, t: int) -> SimpleNamespace:
    """``_reduce``'s steps of lay for products side by side in fields: every
    mask times t, which holds a 1 at the foot of each field."""

    def steps(s):
        folds, ladder, guard, top = s
        folds = [(h, hi * t, c, lo * t) for h, hi, c, lo in folds]
        return folds, [(add * t, k) for add, k in ladder], guard * t, top

    return SimpleNamespace(
        bits=lay.bits, wrap=lay.wrap * t, folds=[(shift, mask * t) for shift, mask in lay.folds],
        first=lay.first and steps(lay.first), low=lay.low * t, slot0=lay.slot0 * t,
        tops=lay.tops, last=steps(lay.last),
    )


@lru_cache(maxsize=256)
def _layout(factors: tuple[int, ...], tail: tuple[int, ...], m: int) -> SimpleNamespace:
    """Where a packed ring puts each coefficient, and how it reduces, for one
    ring shape; every ring of that shape shares it.

    Coefficient k of the block with exponents (e_1, ..., e_r) takes slot
    k + sum e_i Q_i, with Q_r = w = 2d - 1 and Q_i = (2 n_{i+1} - 1) *
    Q_{i+1}: no exponent sum of a product overlaps the next.  A product
    slot sums at most |G| d products below m^2, under 2^L; a slot is L + 1
    bits, the top one the guard bit.  Modulo 2^bits - 1 the first factor
    wraps in the product itself; each other one folds by a (shift, mask).
    ``low`` clears the slots folded from and the top d - 1 of each block,
    whose slot k, taken mod m, is added in times x^k mod q (``tops``; blocks
    are 2d - 1 slots apart, so nothing spills).
    """
    factors, d = factors or (1,), len(tail)
    order, width = prod(factors), 2 * d - 1
    bound = order * d * (m - 1) ** 2
    top = bound.bit_length()
    slot = top + 1
    blocks, strides, q = [0], [], width
    for n in reversed(factors):
        blocks = [p + e * q for e in range(n) for p in blocks]
        strides.insert(0, q)
        q *= 2 * n - 1
    count = factors[0] * strides[0]
    ones, low, slot0 = _repeat(1, slot, count), _repeat(1, slot, d), 1
    for n, q in zip(reversed(factors), reversed(strides)):
        low, slot0 = _repeat(low, q * slot, n), _repeat(slot0, q * slot, n)
    tops, power = [], [-t % m for t in tail]  # x^d mod q
    for k in range(d, width):
        tops.append((k * slot, _join(power, slot)))
        power = [(a - power[-1] * t) % m for a, t in zip([0] + power, tail)]
    first, last = None, bound
    if d > 1:
        first, last = _sweep_steps(bound, m, top, ones), m - 1 + (d - 1) * (m - 1) ** 2
    positions = [p + k for p in blocks for k in range(d)]
    both = _repeat(1, slot, 2 * count)  # ``add`` sums an order key's two halves
    return SimpleNamespace(
        slot=slot,
        top=top,
        count=positions[-1] + 1,
        positions=positions,
        pick=tuple if len(positions) == positions[-1] + 1 else itemgetter(*positions),
        bits=count * slot,
        wrap=(1 << count * slot) - 1,
        folds=[
            (n * q * slot, _repeat((1 << (n - 1) * q * slot) - 1, span * slot, count // span))
            for n, q, span in zip(factors[1:], strides[1:], strides)
        ],
        first=first,
        low=low * ((1 << slot) - 1),
        slot0=slot0 * ((1 << slot) - 1),
        tops=tops,
        last=_sweep_steps(last, m, top, ones),
        guard=both << top,
        add_m=((1 << top) - m) * both,
        m_all=m * ones,
    )

