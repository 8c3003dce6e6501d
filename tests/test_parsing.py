"""Ring-expression and element-literal parsing.

The load-bearing property is the round trip: for every carrier kind,
``parse_element(ring.element_text(x), ring) == x`` over random elements,
and the built ring's ``expression()`` reproduces the canonical text.
"""

import json
import random
from pathlib import Path

import pytest

from idemlift.errors import ParseError, SizeLimitError
from idemlift.group_rings import GroupRing
from idemlift.groups import AbelianGroup
from idemlift.parsing import RingExpression, build_ring, parse_element, parse_ring
from idemlift.quotients import QuotientRing, ResidueRing


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
        expr = parse_ring("Z(12)[x]/(1 + x^2){C2}")
        assert expr == RingExpression(modulus=12, poly_coeffs=(1, 0, 1), group_factors=(2,))
        assert hash(expr) == hash(RingExpression(12, (1, 0, 1), (2,)))
        for other in ("Z(13)[x]/(1 + x^2){C2}", "Z(12){C2}", "Z(12)[x]/(1 + x^2)"):
            assert parse_ring(other) != expr, other


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
        ring = QuotientRing(5, (1, 1, 1))
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

    @pytest.mark.parametrize(
        "ring_text, bare, spelled",
        [
            ("Z(5)[i]{C2xC2}", "(a b) + e", "(1)*(a b) + (1)*e"),
            ("Z(5)[i]{C2xC2}", "( b ) + 2*(a)", "(1)*(b) + (2)*(a)"),
            ("Z(5)[i]{C2xC2xC2}", "(g1 g2)", "(1)*(g1 g2)"),
            ("Z(5)[i]{C2xC2xC2}", "(1 + i)*(g3) + (g1 g2 g3)", "(1 + i)*(g3) + (1)*(g1 g2 g3)"),
            ("Z(7)[x]/(1 + x + x^3){C3xC3}", "(a b^2) + (2 + x)*(b)", "(1)*(a b^2) + (2 + x)*(b)"),
            ("Z(7)[x]/(1 + x + x^3){C2xC3xC5}", "(g1 g3^4) + 3*(g2)", "(1)*(g1 g3^4) + (3)*(g2)"),
        ],
    )
    def test_bare_basis_symbol_over_a_quotient_base(self, ring_text, bare, spelled):
        # "(" opens a coefficient only when no generator follows it
        ring = build_ring(ring_text)
        assert parse_element(bare, ring) == parse_element(spelled, ring)

    def test_bare_basis_symbol_coefficients(self):
        ring = build_ring("Z(5)[i]{C2xC2xC2}")
        x = parse_element("(g1 g2) + e", ring)
        assert x.coeff_vector() == (1,) + (0,) * 11 + (1,) + (0,) * 3

    def test_unicode_whitespace_anywhere(self):
        ring = build_ring("Z(5)[i]{C3}")
        text = "\t(3\u2003+ i)\n*\u00a0g ^\t2 +\r1 \u2003"
        assert parse_element(text, ring).coeff_vector() == (1, 0, 0, 0, 3, 1)
        assert parse_element("\u2003 7 \t", ResidueRing(12)) == ResidueRing(12).from_int(7)

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
        assert parse_element("g^99999999998", build_ring("Z(5){C3}")).coeff_vector() == (0, 0, 1)


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


# Malformed literals over every carrier kind with their exact ParseError text,
# position included: the cursor may change how it scans, not what it reports.
ERROR_SNAPSHOT = [
    ('Z(12)', '', "expected an integer at position 0 in ''"),
    ('Z(12)', '   ', "expected an integer at position 3 in '   '"),
    ('Z(12)', 'x', "expected an integer at position 0 in 'x'"),
    ('Z(12)', '2 3', "unexpected trailing input at position 2 in '2 3'"),
    ('Z(12)', '-3', "expected an integer at position 0 in '-3'"),
    ('Z(12)', '3 + 4', "unexpected trailing input at position 2 in '3 + 4'"),
    ('Z(25)[i]', '3 + ', "expected a coefficient or 'i' at position 4 in '3 + '"),
    ('Z(25)[i]', '2*j', "unexpected trailing input at position 2 in '2*j'"),
    ('Z(25)[i]', 'i^', "expected an integer at position 2 in 'i^'"),
    ('Z(25)[i]', 'i^5000', "exponent 5000 is above 1024 at position 6 in 'i^5000'"),
    ('Z(25)[i]', '(1 + i)', "expected a coefficient or 'i' at position 0 in '(1 + i)'"),
    ('Z(8)[x]/(1 + x + x^2)', '*x', "expected a coefficient or 'x' at position 0 in '*x'"),
    ('Z(8)[x]/(1 + x + x^2)', 'x x', "unexpected trailing input at position 2 in 'x x'"),
    ('Z(8)[x]/(1 + x + x^2)', 'x^2000 + 1', "exponent 2000 is above 1024 at position 6 in 'x^2000 + 1'"),
    ('Z(200){C3}', 'e + ', "expected a coefficient or basis symbol at position 4 in 'e + '"),
    ('Z(200){C3}', '3*g*g', "unexpected trailing input at position 3 in '3*g*g'"),
    ('Z(200){C3}', 'g^-1', "expected an integer at position 2 in 'g^-1'"),
    ('Z(200){C3}', '2 3', "unexpected trailing input at position 2 in '2 3'"),
    ('Z(200){C3}', 'g12', "unexpected trailing input at position 1 in 'g12'"),
    ('Z(200){C3}', '(e)', "expected ')' at position 1 in '(e)'"),
    ('Z(200){C3}', 'h', "expected a coefficient or basis symbol at position 0 in 'h'"),
    ('Z(200){C3}', '3*', "expected a coefficient or basis symbol at position 2 in '3*'"),
    ('Z(200){C3}', '(g', "expected ')' at position 2 in '(g'"),
    ('Z(200){C3}', ' 5 * g ^ 2 + + g', "expected a coefficient or basis symbol at position 13 in ' 5 * g ^ 2 + + g'"),
    ('Z(936){C5xC5}', '(a)(b)', "unexpected trailing input at position 3 in '(a)(b)'"),
    ('Z(936){C5xC5}', '3*(a b', "expected ')' at position 6 in '3*(a b'"),
    ('Z(936){C5xC5}', 'c', "expected a coefficient or basis symbol at position 0 in 'c'"),
    ('Z(936){C5xC5}', '(a b)^2', "unexpected trailing input at position 5 in '(a b)^2'"),
    ('Z(936){C5xC5}', 'a^ b', "expected an integer at position 3 in 'a^ b'"),
    ('Z(7){C2xC3xC5}', 'g1 g2 g4', "unexpected trailing input at position 6 in 'g1 g2 g4'"),
    ('Z(7){C2xC3xC5}', '(a)', "expected ')' at position 1 in '(a)'"),
    ('Z(2)[i]{C3}', '(x)(x)*g', "expected a coefficient or 'i' at position 1 in '(x)(x)*g'"),
    ('Z(2)[i]{C3}', '(i^5000)*g', "exponent 5000 is above 1024 at position 7 in '(i^5000)*g'"),
    ('Z(2)[i]{C3}', '(1 + i)*', "expected a coefficient or basis symbol at position 8 in '(1 + i)*'"),
    ('Z(8)[x]/(1 + x + x^2){C5xC5}', '(x)(x)*a', "expected ')' at position 4 in '(x)(x)*a'"),
    ('Z(8)[x]/(1 + x + x^2){C5xC5}', '(x + )*a', "expected a coefficient or 'x' at position 5 in '(x + )*a'"),
    ('Z(8)[x]/(1 + x + x^2){C5xC5}', '(x)*(a b', "expected ')' at position 8 in '(x)*(a b'"),
    ('Z(1){C3}', 'g^', "expected an integer at position 2 in 'g^'"),
    ('Z(200){C3}', '3*g +\t\n', "expected a coefficient or basis symbol at position 7 in '3*g +\\t\\n'"),
    ('Z(12)', '\u2003', "expected an integer at position 1 in '\\u2003'"),
    ('Z(936){C5xC5}', '( a  b^2 ) + 2*( b', "expected ')' at position 18 in '( a  b^2 ) + 2*( b'"),
    ('Z(8)[x]/(1 + x + x^2)', '3 + 2 * x ^', "expected an integer at position 11 in '3 + 2 * x ^'"),
]


@pytest.mark.parametrize("ring_text, literal, message", ERROR_SNAPSHOT)
def test_parse_error_text_unchanged(ring_text, literal, message):
    with pytest.raises(ParseError) as caught:
        parse_element(literal, build_ring(ring_text))
    assert str(caught.value) == message


def test_oversize_literal_text_unchanged():
    with pytest.raises(ParseError) as caught:
        parse_element("1" * 1025, ResidueRing(5))
    assert str(caught.value) == "element literal exceeds 1024 bytes"


GOLDEN_RINGS = sorted(
    {case["argv"][1] for case in json.loads(
        (Path(__file__).parent / "golden" / "cli_bytes.json").read_text(encoding="utf-8"))}
)
ZERO_RINGS = ["Z(1)", "Z(1)[i]", "Z(1)[x]/(x)", "Z(1)[x]/(1 + x^3){C2}", "Z(1){C3}"]


@pytest.mark.parametrize("text", sorted(set(RING_EXPRESSIONS + GOLDEN_RINGS + ZERO_RINGS)))
def test_expression_round_trip(text):
    # Ring.expression promises text the grammar accepts; over Z(1) every
    # quotient is the zero ring and prints as Z(1)[x]/(x)
    ring = build_ring(text)
    assert build_ring(ring.expression()) == ring


@pytest.mark.parametrize("literal", ["²", "1²", "g^²", "(²)*g"])
@pytest.mark.parametrize("ring_text", ["Z(5)", "Z(5)[i]", "Z(5){C3}", "Z(5)[i]{C3}"])
def test_non_decimal_digits_are_parse_errors(ring_text, literal):
    # "²" is a digit to str.isdigit but not to int(); it is malformed input
    with pytest.raises(ParseError):
        parse_element(literal, build_ring(ring_text))
