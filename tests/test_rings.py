"""Integer helpers, residue rings, and prime-power factorization."""

import random

import pytest

from idemlift.errors import SizeLimitError, UnsupportedError
from idemlift.rings import (
    ResidueRing,
    ext_gcd,
    factorize,
    is_prime,
    modular_inverse,
)


class TestExtGcd:
    def test_bezout_identity_random(self):
        rng = random.Random(101)
        for _ in range(500):
            a = rng.randrange(-10**6, 10**6)
            b = rng.randrange(-10**6, 10**6)
            if a == 0 and b == 0:
                continue
            g, x, y = ext_gcd(a, b)
            assert g > 0
            assert a % g == 0 and b % g == 0
            assert a * x + b * y == g

    def test_zero_pair_rejected(self):
        with pytest.raises(ValueError):
            ext_gcd(0, 0)

    def test_coprime_pair_117_8(self):
        g, x, _ = ext_gcd(117, 8)
        assert g == 1
        assert (117 * x) % 8 == 1
        assert x % 8 == 5

    def test_coprime_pair_104_9(self):
        g, x, _ = ext_gcd(104, 9)
        assert g == 1
        assert x % 9 == 2


class TestModularInverse:
    def test_small_table(self):
        assert modular_inverse(3, 7) == 5
        assert modular_inverse(1, 2) == 1
        assert modular_inverse(7, 25) == 18

    def test_zero_ring(self):
        assert modular_inverse(1, 1) == 0

    def test_non_invertible(self):
        with pytest.raises(UnsupportedError):
            modular_inverse(2, 4)
        with pytest.raises(UnsupportedError):
            modular_inverse(0, 5)

    def test_random_against_pow(self):
        rng = random.Random(202)
        for _ in range(200):
            p = rng.choice([2, 3, 5, 7, 11, 13, 101])
            a = rng.randrange(1, p)
            assert modular_inverse(a, p) == pow(a, -1, p)


class TestIsPrime:
    def test_small_values(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
        for n in range(-3, 25):
            assert is_prime(n) == (n in primes)

    def test_square_of_prime(self):
        assert not is_prime(169)
        assert is_prime(167)


class TestFactorize:
    def test_200(self):
        fact = factorize(200)
        assert [(pp.prime, pp.exponent) for pp in fact.factors] == [(2, 3), (5, 2)]
        assert fact.cofactors == (25, 8)
        assert fact.inverses == (1, 22)
        assert fact.crt_weights == (25, 176)
        assert fact.radical == 10
        assert fact.max_exponent == 3

    def test_936(self):
        fact = factorize(936)
        assert [(pp.prime, pp.exponent) for pp in fact.factors] == [
            (2, 3),
            (3, 2),
            (13, 1),
        ]
        assert fact.crt_weights == (585, 208, 144)

    def test_weights_are_orthogonal_idempotent_scalars(self):
        rng = random.Random(303)
        for _ in range(100):
            m = rng.randrange(2, 10**6)
            fact = factorize(m)
            assert sum(fact.crt_weights) % m == 1 % m
            for i, w in enumerate(fact.crt_weights):
                assert (w * w) % m == w % m
                for j, v in enumerate(fact.crt_weights):
                    if i != j:
                        assert (w * v) % m == 0

    def test_bounds(self):
        with pytest.raises(ValueError):
            factorize(1)
        with pytest.raises(SizeLimitError):
            factorize(2**63)


class TestResidueRing:
    def test_arithmetic_mod_12(self):
        r = ResidueRing(12)
        a, b = r.from_int(7), r.from_int(9)
        assert (a + b).coeff_vector() == (4,)
        assert (a - b).coeff_vector() == (10,)
        assert (a * b).coeff_vector() == (3,)
        assert (-a).coeff_vector() == (5,)
        assert (a**2).coeff_vector() == (1,)
        assert (3 * a).coeff_vector() == (9,)

    def test_elements_order_and_cardinality(self):
        r = ResidueRing(6)
        assert [x.coeff_vector() for x in r.elements()] == [(v,) for v in range(6)]
        assert r.cardinality == 6
        assert r.characteristic == 6

    def test_include_reduce_round_trip(self):
        big = ResidueRing(200)
        small = ResidueRing(8)
        x = big.from_int(59)
        assert big.reduce(x, small).coeff_vector() == (3,)
        assert small.from_int(3).coeff_vector() == (3,)

    def test_zero_ring(self):
        r = ResidueRing(1)
        assert r.cardinality == 1
        assert r.zero == r.one

    def test_mixed_modulus_rejected(self):
        with pytest.raises(ValueError):
            ResidueRing(4).from_int(1) + ResidueRing(6).from_int(1)

    def test_pow_negative_rejected(self):
        with pytest.raises(ValueError):
            ResidueRing(4).from_int(3) ** -1

    def test_structure_constants_shape(self):
        r = ResidueRing(5)
        assert r.structure_constants() == [[(1,)]]
