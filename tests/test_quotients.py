"""Polynomial quotient rings, Gaussian-integer rings, and their idempotents."""

import random
import time

import pytest

from idemlift.catalog import enumerate_idempotents
from idemlift.oracle import _structure_tensor, brute_force_scan
from idemlift.quotients import QuotientRing, ResidueRing, gaussian_ring


class TestQuotientRing:
    def test_shape_and_cardinality(self):
        ring = QuotientRing(8, (1, 1, 1))
        assert ring.dimension == 2
        assert ring.cardinality == 64
        assert ring.coefficient_modulus == 8
        assert ring.expression() == "Z(8)[x]/(1 + x + x^2)"

    def test_gaussian_sugar(self):
        ring = gaussian_ring(25)
        assert ring.is_gaussian
        assert ring.expression() == "Z(25)[i]"
        assert ring.element_text(ring.from_coeffs((13, 16))) == "13 + 16*i"

    def test_requires_monic(self):
        with pytest.raises(ValueError):
            QuotientRing(4, (1, 2))

    def test_requires_degree(self):
        with pytest.raises(ValueError):
            QuotientRing(4, (3,))

    def test_variable_squared_reduces(self):
        ring = gaussian_ring(5)
        i = ring.from_coeffs((0, 1))
        assert (i * i).coeff_vector() == (4, 0)

    def test_from_polynomial_reduces_high_degree(self):
        ring = QuotientRing(7, (1, 0, 0, 1))
        x5 = ring.from_polynomial((0,) * 5 + (1,))
        x = ring.from_coeffs((0, 1, 0))
        assert x5 == x * x * x * x * x
        assert x5.coeff_vector() == (0, 0, 6)  # x^5 = -x^2 mod x^3 + 1
        assert ring.from_polynomial([8, 0, 0, 0, 0, 1]) == x5 + ring.one
        assert ring.from_polynomial(()) == ring.zero


class TestTupleContract:
    """q is a coefficient tuple, lowest degree first, reduced and trimmed."""

    def test_q_reduced_mod_m_and_trimmed(self):
        ring = QuotientRing(5, (6, 0, 1, 0))
        assert ring == QuotientRing(5, (1, 0, 1))
        assert hash(ring) == hash(QuotientRing(5, (1, 0, 1)))
        assert ring.q == (1, 0, 1)
        assert ring.dimension == 2
        assert repr(ring) == "QuotientRing(5, (1, 0, 1))"
        assert QuotientRing(3, [4, 2, 1]).q == (1, 2, 1)

    @pytest.mark.parametrize(
        "m, q", [(4, (1, 2)), (7, (1, 3, 0)), (6, (0, 1, 5)), (5, ()), (5, (0, 0))]
    )
    def test_non_monic_rejected(self, m, q):
        with pytest.raises(ValueError, match="must be monic"):
            QuotientRing(m, q)

    @pytest.mark.parametrize("m, q", [(4, (1,)), (5, (1, 5)), (2, (3, 0, 0))])
    def test_degree_zero_rejected(self, m, q):
        with pytest.raises(ValueError, match="degree >= 1"):
            QuotientRing(m, q)

    @pytest.mark.parametrize("q", [(1, 0, 1), (5, 3), (2,), ()])
    def test_zero_ring_has_dimension_one(self, q):
        ring = QuotientRing(1, q)
        assert ring.dimension == 1
        assert ring.expression() == "Z(1)[x]/(x)"
        assert ring == QuotientRing(1, (0, 1))

    def test_ring_axioms_random(self):
        rng = random.Random(77)
        ring = QuotientRing(6, (2, 5, 1))
        elems = list(ring.elements())
        for _ in range(200):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert (a + b) - b == a

    def test_reduce_to_twin_shape(self):
        ring = gaussian_ring(25)
        small = ring.reduce_to(5)
        assert small.dimension == ring.dimension
        assert small.coefficient_modulus == 5
        x = ring.from_coeffs((13, 16))
        assert small.embed(x).coeff_vector() == (3, 1)

    def test_elements_iteration_lexicographic(self):
        ring = QuotientRing(2, (1, 1, 1))
        assert [x.coeff_vector() for x in ring.elements()] == [
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
        ]

    def test_structure_constants_match_products(self):
        ring = QuotientRing(9, (3, 2, 1))
        table = _structure_tensor(ring).tolist()
        basis = [ring.from_coeffs((1, 0)), ring.from_coeffs((0, 1))]
        for i in range(2):
            for j in range(2):
                assert (basis[i] * basis[j]).coeff_vector() == tuple(table[i][j])


class TestGaussianIdempotents:
    """E(Z_p[i]) through the general pipeline: for p == 1 (mod 4) it is
    0, 1 and the pair (p+1)/2 +- w*i with w^2 = -1/4."""

    @staticmethod
    def members(p):
        return sorted(x.coeff_vector() for x in enumerate_idempotents(gaussian_ring(p)).members)

    def test_p5(self):
        assert self.members(5) == [(0, 0), (1, 0), (3, 1), (3, 4)]

    def test_p13(self):
        assert self.members(13) == [(0, 0), (1, 0), (7, 4), (7, 9)]

    def test_matches_brute_force(self):
        for p in (5, 13, 17):
            brute = sorted(x.coeff_vector() for x in brute_force_scan(gaussian_ring(p)))
            assert self.members(p) == brute

    @pytest.mark.parametrize("p", [1000033, 2305843009213693973])
    def test_large_primes_fast(self, p):
        # the split of x^2 + 1 over F_p costs O(log p) products, not O(p)
        t0 = time.perf_counter()
        family = enumerate_idempotents(gaussian_ring(p))
        assert time.perf_counter() - t0 < 1.0
        assert all(e * e == e for e in family.members)
        assert len({e.coeff_vector() for e in family.members}) == 4
        e, f = family.primitive
        assert (e * f).is_zero() and e + f == gaussian_ring(p).one

    def test_three_mod_four_brute_force_only_trivial(self):
        for p in (3, 7, 11):
            ring = gaussian_ring(p)
            got = sorted(x.coeff_vector() for x in brute_force_scan(ring))
            assert got == [(0, 0), (1, 0)]
            assert self.members(p) == got


class TestZeroRing:
    def test_modulus_one_collapses(self):
        ring = QuotientRing(1, (1, 0, 1))
        assert ring.cardinality == 1
        assert ring.zero == ring.one
