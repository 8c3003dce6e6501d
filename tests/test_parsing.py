"""Ring-expression and element-literal parsing.

The load-bearing property is the round trip: for every carrier kind,
``parse_element(ring.element_text(x), ring) == x`` over random elements,
and the built ring's ``expression()`` reproduces the canonical text.
"""

import random

import pytest

from idemlift.errors import ParseError, SizeLimitError
from idemlift.group_rings import GroupRing
from idemlift.groups import AbelianGroup
from idemlift.parsing import RingExpression, build_ring, parse_element, parse_ring
from idemlift.polynomials import Polynomial
from idemlift.quotients import QuotientRing
from idemlift.rings import ResidueRing


RING_EXPRESSIONS = [
    "Z(12)",
    "Z(1)",
    "Z(200){C3}",
    "Z(25)[i]",
    "Z(8)[x]/(1 + x + x^2)",
    "Z(8)[x]/(1 + x + x^2){C5xC5}",
    "Z(936){C5xC5}",
    "Z(7){C2xC3xC5}",
    "Z(2)[i]{C3}",
]


class TestParseRing:
    @pytest.mark.parametrize("text", RING_EXPRESSIONS)
    def test_round_trip(self, text):
        expr = parse_ring(text)
        assert build_ring(text).expression() == text
        assert parse_ring(build_ring(text).expression()) == expr

    def test_component_fields(self):
        expr = parse_ring("Z(8)[x]/(x^2 + x + 1){C5xC5}")
        assert expr.modulus == 8
        assert expr.poly_coeffs == (1, 1, 1)
        assert expr.group_factors == (5, 5)

    def test_gaussian_sugar(self):
        expr = parse_ring("Z(25)[i]")
        assert expr.poly_coeffs == (1, 0, 1)
        assert build_ring("Z(25)[i]").expression() == "Z(25)[i]"

    def test_gaussian_normalization(self):
        # x^2 + 1 is the gaussian layer, so expression() prints the sugar form
        expr = parse_ring("Z(2)[x]/(1 + x^2){C3}")
        assert build_ring("Z(2)[x]/(1 + x^2){C3}").expression() == "Z(2)[i]{C3}"
        assert expr == parse_ring("Z(2)[i]{C3}")

    def test_whitespace_tolerated(self):
        assert parse_ring(" Z( 200 ) { C3 } ") == parse_ring("Z(200){C3}")

    def test_poly_term_order_and_folding(self):
        a = parse_ring("Z(5)[x]/(x^2 + x + 1)")
        b = parse_ring("Z(5)[x]/(1 + x + x^2)")
        assert a == b
        folded = parse_ring("Z(5)[x]/(3 + 4*x^2 + 2*x^2 + x^3)")
        assert folded.poly_coeffs == (3, 0, 1, 1)

    def test_built_ring_types(self):
        assert isinstance(build_ring("Z(12)"), ResidueRing)
        assert isinstance(build_ring("Z(25)[i]"), QuotientRing)
        ring = build_ring("Z(8)[x]/(1 + x + x^2){C5xC5}")
        assert isinstance(ring, GroupRing)
        assert isinstance(ring.base, QuotientRing)
        assert ring.group == AbelianGroup((5, 5))
        assert ring.cardinality == 8**50

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "Z(0)",
            "Z(-3)",
            "Z(x)",
            "Q(5)",
            "Z(12",
            "Z(12) extra",
            "Z(4)[x]/(3)",
            "Z(4)[x]/(2*x + 1)",
            "Z(4)[y]/(y^2)",
            "Z(6){C1}",
            "Z(6){C3}{C2}",
            "Z(4)[i][x]/(x^2)",
            "Z(4){C3}[i]",
            "Z(6){}",
            "Z(6){C3x}",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(ParseError):
            parse_ring(text)

    def test_size_limit(self):
        with pytest.raises(ParseError):
            parse_ring("Z(" + "9" * 2000 + ")")

    def test_group_order_cap(self):
        # the parse succeeds; building the group enforces the 2^16 order cap
        assert parse_ring("Z(2){C100003}").group_factors == (100003,)
        with pytest.raises(SizeLimitError):
            build_ring("Z(2){C100003}")
        with pytest.raises(SizeLimitError):
            build_ring("Z(2){C256xC257}")
        assert build_ring("Z(2){C256xC256}").group.order == 2**16

    def test_expression_value_semantics(self):
        assert RingExpression(12, None, None) == parse_ring("Z(12)")


class TestParseElement:
    def test_residue(self):
        ring = ResidueRing(12)
        assert parse_element("7", ring) == ring.from_int(7)
        assert parse_element("19", ring) == ring.from_int(7)

    def test_residue_trailing_rejected(self):
        with pytest.raises(ParseError):
            parse_element("7 junk", ResidueRing(12))

    def test_gaussian(self):
        ring = build_ring("Z(25)[i]")
        assert parse_element("13 + 16*i", ring).coeff_vector() == (13, 16)
        assert parse_element("3 + i", ring).coeff_vector() == (3, 1)
        assert parse_element("i", ring).coeff_vector() == (0, 1)
        assert parse_element("0", ring).coeff_vector() == (0, 0)

    def test_quotient_reduces_high_powers(self):
        ring = QuotientRing(5, Polynomial((1, 1, 1), 5))
        assert parse_element("x^2", ring).coeff_vector() == (4, 4)

    def test_cyclic_group_ring(self):
        ring = build_ring("Z(5){C3}")
        assert parse_element("3 + 3*g + 3*g^2", ring).coeff_vector() == (3, 3, 3)
        assert parse_element("3*e + 3*g + 3*g^2", ring).coeff_vector() == (3, 3, 3)
        assert parse_element("g", ring).coeff_vector() == (0, 1, 0)
        assert parse_element("g^5", ring).coeff_vector() == (0, 0, 1)
        assert parse_element("g + g + 4", ring).coeff_vector() == (4, 2, 0)

    def test_rank_two_group_ring(self):
        ring = build_ring("Z(3){C2xC2}")
        assert parse_element("(a b)", ring).coeff_vector() == (0, 0, 0, 1)
        assert parse_element("2*(a^2 b)", ring).coeff_vector() == (0, 2, 0, 0)
        assert parse_element("a", ring).coeff_vector() == (0, 0, 1, 0)
        assert parse_element("1 + 2*b", ring).coeff_vector() == (1, 2, 0, 0)

    def test_quotient_base_group_ring(self):
        ring = build_ring("Z(2)[x]/(1 + x + x^2){C3}")
        x = parse_element("(1 + x)*e + 0*g + (x)*g^2", ring)
        assert x.coeff_vector() == (1, 1, 0, 0, 0, 1)

    def test_group_garbage_rejected(self):
        ring = build_ring("Z(5){C3}")
        for bad in ["", "h", "g^", "3*", "g + ", "(g"]:
            with pytest.raises(ParseError):
                parse_element(bad, ring)

    def test_size_limit(self):
        with pytest.raises(ParseError):
            parse_element("1" * 2000, ResidueRing(7))

    def test_polynomial_exponent_cap(self):
        # x^k expands to k + 1 coefficients, so k is capped; group exponents
        # reduce modulo the factor order and need no cap
        ring = build_ring("Z(5)[i]")
        assert parse_element("i^1024", ring) == ring.one
        with pytest.raises(ParseError, match="exponent 99999999999 is above 1024"):
            parse_element("i^99999999999", ring)
        with pytest.raises(ParseError):
            parse_ring("Z(5)[x]/(1 + x^99999999999)")
        assert parse_element("g^99999999998", build_ring("Z(5){C3}")).coeffs == (0, 0, 1)


ROUND_TRIP_RINGS = [
    ResidueRing(12),
    ResidueRing(1),
    build_ring("Z(25)[i]"),
    build_ring("Z(8)[x]/(1 + x + x^2)"),
    build_ring("Z(5){C3}"),
    build_ring("Z(200){C3}"),
    build_ring("Z(936){C5xC5}"),
    build_ring("Z(2)[x]/(1 + x + x^2){C3}"),
    build_ring("Z(4)[x]/(1 + x^2){C2xC2}"),
]


@pytest.mark.parametrize("ring", ROUND_TRIP_RINGS, ids=lambda r: r.expression())
def test_element_text_round_trip(ring):
    rng = random.Random(20260815)
    m = ring.coefficient_modulus
    for _ in range(25):
        vec = tuple(rng.randrange(m) if m > 1 else 0 for _ in range(ring.dimension))
        x = ring.from_coeffs(vec)
        assert parse_element(ring.element_text(x), ring) == x
    zero = ring.from_coeffs((0,) * ring.dimension)
    assert parse_element(ring.element_text(zero), ring) == zero


@pytest.mark.parametrize("text", RING_EXPRESSIONS)
def test_ring_expression_matches_built_ring(text):
    ring = build_ring(text)
    assert build_ring(ring.expression()) == ring
