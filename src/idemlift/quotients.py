"""Quotient rings Z_m[x]/(q) for monic q, including the Gaussian case
q = x^2 + 1, and the residue ring Z_m as Z_m[x]/(x).

Both are ``group_rings.Ring``s of the trivial group's shape.  Elements
are residue polynomials of degree below deg q, coefficients lowest degree
first, packed in that layout: a product is one integer product, one SWAR
pass mod m, one reduction by q of every slot at or above deg q, and a
second pass.  A residue of Z_m fills the one slot, so its packed int is
itself.  When q = x^2 + 1 the ring prints with ``i`` instead of ``x`` so
Z_p[i] elements read as a + b*i.
"""

from __future__ import annotations

from .group_rings import Ring
from .polynomials import _trim, poly_text, reduce_mod
from .rings import Element


class PolyQuotientElement(Element):
    # The benchmark's span tracer (perfbench/spans.py) wraps this through
    # this class's own __dict__, so it is bound here and not inherited.
    __slots__ = ()
    __mul__ = Element.__mul__


class QuotientRing(Ring):
    """Z_m[x]/(q) with q monic of degree >= 1.

    q is a coefficient sequence, lowest degree first; it is stored as the
    tuple ``self.q``, reduced mod m with trailing zeros trimmed.
    """

    element = PolyQuotientElement

    def __init__(self, modulus: int, q):
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        q = tuple(_trim([c % modulus for c in q]))
        # the zero ring (m = 1) keeps one coefficient, as if q were x
        tail = q[:-1] if modulus > 1 else (0,)
        if modulus > 1 and q[-1:] != (1,):
            raise ValueError(f"quotient modulus must be monic, got {poly_text(q, 'x')}")
        if not tail:
            raise ValueError("quotient modulus must have degree >= 1")
        super().__init__(((), tail, modulus))
        self.q = q

    def from_polynomial(self, coeffs) -> PolyQuotientElement:
        """The residue of a coefficient sequence of any length."""
        cs = reduce_mod(list(coeffs), self._shape[1], self.coefficient_modulus)
        return self.element(self, self.pack(cs))  # pack pads with zeros

    def reduce_to(self, c: int) -> "QuotientRing":
        return QuotientRing(c, self.q)

    @property
    def is_gaussian(self) -> bool:
        return self.q == (1, 0, 1)

    @property
    def _var_name(self) -> str:
        return "i" if self.is_gaussian else "x"

    def expression(self) -> str:
        m = self.coefficient_modulus
        if self.is_gaussian:
            return f"Z({m})[i]"
        # over Z_1, q is 0: print x, as __init__ reads it
        return f"Z({m})[x]/({poly_text(self.q, 'x') if m > 1 else 'x'})"

    def row_text(self, coeffs) -> str:
        return poly_text(coeffs, self._var_name)

    def coefficient_texts(self, coeffs):
        """Each block's text; nonzero blocks of n > 1 in parentheses."""
        n, var = self.dimension, self._var_name
        for k in range(0, len(coeffs), n):
            text = poly_text(coeffs[k : k + n], var)
            yield text if n == 1 or text == "0" else f"({text})"

    def __repr__(self):
        return f"QuotientRing({self.coefficient_modulus}, {self.q!r})"


class ResidueRing(Ring):
    """The ring Z_m of integers modulo m >= 1 (m = 1 is the zero ring, where
    0 == 1): Z_m[x]/(x) in that layout, printed as its integers."""

    def __init__(self, modulus: int):
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        super().__init__(((), (0,), modulus))

    def coefficient_texts(self, coeffs):
        return map(str, coeffs)

    def reduce_to(self, c: int) -> "ResidueRing":
        return ResidueRing(c)

    def expression(self) -> str:
        return f"Z({self.coefficient_modulus})"

    def row_text(self, coeffs) -> str:
        return str(coeffs[0])

    def __repr__(self):
        return f"ResidueRing({self.coefficient_modulus})"


def gaussian_ring(m: int) -> QuotientRing:
    """Z_m[i] as Z_m[x]/(x^2 + 1)."""
    return QuotientRing(m, (1, 0, 1))
