"""Integer helpers, residue rings, and prime-power factorization.

Primality and factorization are cross-checked against sympy's ``isprime``
and ``factorint`` (skipped when sympy is missing), on fixed hard cases and
on hypothesis-drawn n < 2**63.
"""

import random

import pytest

from idemlift.errors import SizeLimitError, UnsupportedError
from idemlift.oracle import _structure_tensor
from idemlift.parsing import build_ring
from idemlift.quotients import ResidueRing
from idemlift.rings import (
    MILLER_RABIN_BOUND,
    factorize,
    is_prime,
    modular_inverse,
)


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
            x = modular_inverse(a, p)
            # pow is also the implementation, so check the defining property too
            assert x == pow(a, -1, p) and 0 <= x < p and a * x % p == 1


class TestIsPrime:
    def test_small_values(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
        for n in range(-3, 25):
            assert is_prime(n) == (n in primes)

    def test_square_of_prime(self):
        assert not is_prime(169)
        assert is_prime(167)

    def test_pseudoprimes_rejected(self):
        # Carmichael numbers, then strong pseudoprimes to the bases 2; 2..7; 2..23
        for n in (561, 41041, 825265, 2047, 3215031751, 3825123056546413051):
            assert not is_prime(n), n

    def test_large_primes(self):
        for n in (2**31 - 1, 2**32 - 5, 2**61 - 1, 2**64 - 59):
            assert is_prime(n)
        assert not is_prime((2**31 - 1) ** 2)
        assert not is_prime((2**31 - 1) * (2**32 - 5))

    def test_size_bound(self):
        with pytest.raises(SizeLimitError):
            is_prime(2**89 - 1)
        with pytest.raises(SizeLimitError):
            is_prime(MILLER_RABIN_BOUND)

    def test_matches_sympy_below_10_5(self):
        sympy = pytest.importorskip("sympy")
        assert [n for n in range(10**5) if is_prime(n)] == list(
            sympy.primerange(10**5)
        )

    def test_matches_sympy_drawn(self):
        sympy = pytest.importorskip("sympy")
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=500, deadline=None, derandomize=True, database=None)
        @hypothesis.given(st.integers(min_value=0, max_value=2**63 - 1))
        def check(n):
            assert is_prime(n) == sympy.isprime(n)

        check()


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

    def test_hard_cases_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        below = sympy.prevprime(2**31)
        above = sympy.nextprime(2**31)
        cases = [
            (2**31 - 1) ** 2,
            below * above,
            (2**31 - 1) * below,
            sympy.prevprime(below) * above,
            sympy.prevprime(3037000500) ** 2,  # largest prime square < 2**63
            sympy.prevprime(2097152) ** 3,  # largest prime cube < 2**63
            2**62,
            3**39,
            1000003**3,
            2**63 - 25,  # the largest prime < 2**63
        ]
        for n in cases:
            assert n < 2**63
            got = [(pp.prime, pp.exponent) for pp in factorize(n).factors]
            assert got == sorted(sympy.factorint(n).items()), n

    def test_matches_sympy_drawn(self):
        sympy = pytest.importorskip("sympy")
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @hypothesis.given(st.integers(min_value=2, max_value=2**63 - 1))
        def check(n):
            fact = factorize(n)
            got = [(pp.prime, pp.exponent) for pp in fact.factors]
            assert got == sorted(sympy.factorint(n).items())
            assert sum(fact.crt_weights) % n == 1

        check()

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
        assert r.coefficient_modulus == 6

    def test_include_reduce_round_trip(self):
        big = ResidueRing(200)
        small = ResidueRing(8)
        x = big.from_int(59)
        assert small.embed(x).coeff_vector() == (3,)
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
        assert _structure_tensor(r).tolist() == [[[1]]]


class TestNonElementOperands:
    @pytest.mark.parametrize(
        "text", ["Z(12)", "Z(25)[i]", "Z(8)[x]/(1 + x + x^3)", "Z(6){C2xC3}", "Z(9)[i]{C4}"]
    )
    def test_type_error_not_attribute_error(self, text):
        # an operand that is neither an element nor (for scaling) an int is
        # Python's TypeError; ints scale from either side, and no element
        # equals an int
        ring = build_ring(text)
        x = ring.from_coeffs(range(1, ring.dimension + 1))
        for bad in (lambda: x + 1, lambda: 1 + x, lambda: x - 1, lambda: 1 - x,
                    lambda: 2.5 * x, lambda: x * 2.5, lambda: x * "a", lambda: "a" * x,
                    lambda: x + None, lambda: x * [1]):
            with pytest.raises(TypeError):
                bad()
        assert 3 * x == x * 3 == x + x + x
        assert (x == 1) is False and (x != 1) is True
        assert x != ring.one.value and ring.one != 1
