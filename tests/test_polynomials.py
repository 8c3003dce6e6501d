"""Polynomial arithmetic and factorization over prime fields.

The independent oracle for factorization is exhaustive: a polynomial of
degree d over F_p is irreducible iff no monic polynomial of degree
1..d//2 divides it, checked by trial division.  Frozen factorizations
below were derived with that oracle.  Over large primes, where no
exhaustive oracle is feasible, factorizations are compared with sympy's
``gf_factor`` (skipped when sympy is missing).
"""

import random

import pytest

from idemlift.errors import SizeLimitError, UnsupportedError
from idemlift.polynomials import (
    Polynomial,
    _split_by,
    berlekamp_factor,
    poly_ext_gcd,
    poly_gcd,
    poly_powmod,
)


def _all_monic(p: int, degree: int):
    """All monic polynomials of exactly the given degree over F_p."""
    def rec(prefix):
        if len(prefix) == degree:
            yield Polynomial(tuple(prefix) + (1,), p)
            return
        for c in range(p):
            yield from rec(prefix + [c])
    yield from rec([])


def oracle_is_irreducible(f: Polynomial) -> bool:
    if f.degree < 1:
        return False
    for d in range(1, f.degree // 2 + 1):
        for g in _all_monic(f.modulus, d):
            if (f % g).is_zero():
                return False
    return True


def oracle_factor_multiplicity(f: Polynomial, q: Polynomial) -> int:
    count = 0
    while (f % q).is_zero():
        f = f // q
        count += 1
    return count


class TestArithmetic:
    def test_construction_trims_and_reduces(self):
        f = Polynomial((3, 9, 0, 0), 3)
        assert f.coeffs == (0,) or f.is_zero()
        g = Polynomial((1, 7), 5)
        assert g.coeffs == (1, 2)
        assert g.degree == 1

    def test_degree_of_zero(self):
        assert Polynomial((0,), 7).degree == -1

    def test_ring_axioms_random(self):
        rng = random.Random(11)
        for _ in range(200):
            p = rng.choice([2, 3, 5])
            mk = lambda: Polynomial(
                tuple(rng.randrange(p) for _ in range(rng.randrange(1, 6))), p
            )
            f, g, h = mk(), mk(), mk()
            assert (f + g) - g == f
            assert f * (g + h) == f * g + f * h
            assert f * g == g * f

    def test_divmod_reconstructs(self):
        rng = random.Random(22)
        for _ in range(200):
            p = rng.choice([2, 3, 5, 7])
            f = Polynomial(tuple(rng.randrange(p) for _ in range(6)), p)
            g = Polynomial(
                tuple(rng.randrange(p) for _ in range(3)) + (1,), p
            )
            q, r = f.divmod_by(g)
            assert q * g + r == f
            assert r.degree < g.degree

    def test_divmod_needs_invertible_leading(self):
        f = Polynomial((1, 1), 4)
        g = Polynomial((1, 2), 4)
        with pytest.raises(UnsupportedError):
            f.divmod_by(g)

    def test_pow_and_powmod_agree(self):
        # moduli of degree 0..12; every third one has a leading unit other than 1
        rng = random.Random(33)
        for p in (2, 3, 1093, 2**61 - 1):
            for deg in range(13):
                lead = rng.randrange(1, p) if deg % 3 == 0 else 1
                mod = Polynomial(tuple(rng.randrange(p) for _ in range(deg)) + (lead,), p)
                f = Polynomial(tuple(rng.randrange(p) for _ in range(rng.randrange(1, 8))), p)
                for e in (0, 1, rng.randrange(2, 40)):
                    assert poly_powmod(f, e, mod) == (f**e) % mod, (p, deg, e)

    def test_powmod_non_prime_modulus(self):
        # Z_12: the leading 5 of the modulus is a unit, so the remainder exists
        f, mod = Polynomial((7, 3, 11), 12), Polynomial((1, 4, 5), 12)
        for e in range(6):
            assert poly_powmod(f, e, mod) == (f**e) % mod

    def test_evaluation(self):
        f = Polynomial((1, 2, 1), 5)
        assert f(0) == 1
        assert f(1) == 4
        assert f(4) == (1 + 8 + 16) % 5

    def test_text_format(self):
        f = Polynomial((1, 0, 3, 1), 5)
        assert f.to_text() == "1 + 3*x^2 + x^3"
        assert Polynomial((0,), 5).to_text() == "0"
        assert Polynomial((0, 1), 5).to_text("i") == "i"


class TestGcd:
    def test_gcd_is_monic_common_divisor(self):
        rng = random.Random(44)
        for _ in range(100):
            p = rng.choice([2, 3, 5])
            f = Polynomial(tuple(rng.randrange(p) for _ in range(5)), p)
            g = Polynomial(tuple(rng.randrange(p) for _ in range(5)), p)
            if f.is_zero() and g.is_zero():
                continue
            d = poly_gcd(f, g)
            assert d.is_monic()
            assert (f % d).is_zero() and (g % d).is_zero()

    def test_ext_gcd_bezout(self):
        rng = random.Random(55)
        for _ in range(100):
            p = rng.choice([2, 3, 5, 7])
            f = Polynomial(tuple(rng.randrange(p) for _ in range(4)) + (1,), p)
            g = Polynomial(tuple(rng.randrange(p) for _ in range(3)) + (1,), p)
            d, u, v = poly_ext_gcd(f, g)
            assert u * f + v * g == d

    def test_prime_modulus_required(self):
        f = Polynomial((1, 1), 6)
        with pytest.raises(ValueError):
            poly_gcd(f, f)
        with pytest.raises(ValueError):
            poly_ext_gcd(f, f)


class TestSplitBy:
    @pytest.mark.parametrize(
        "p, roots",
        [
            (2, [0, 1]),  # the gcd branch: no quadratic character over F_2
            (3, [0, 1, 2]),
            (1009, [0, 5, 17, 1000]),
            (2**61 - 1, [1, 2, 3, 2**60]),
        ],
    )
    def test_linear_factors_split_by_x(self, p, roots):
        u = Polynomial.constant(1, p)
        for r in roots:
            u = u * Polynomial((-r, 1), p)
        pieces = _split_by(list(u.coeffs), [0, 1], p)
        assert sorted(map(tuple, pieces)) == sorted(((-r) % p, 1) for r in roots)

    def test_x7_minus_1_needs_a_later_shift(self):
        # 1093 = 1 mod 7, and every 7th root of unity is a square mod 1093,
        # so the shift a = 0 puts all seven roots into one gcd
        p = 1093
        roots = [r for r in range(1, p) if pow(r, 7, p) == 1]
        assert len(roots) == 7
        assert all(pow(r, (p - 1) // 2, p) == 1 for r in roots)
        pieces = _split_by([p - 1, 0, 0, 0, 0, 0, 0, 1], [0, 1], p)
        assert sorted(map(tuple, pieces)) == sorted(((-r) % p, 1) for r in roots)


class TestBerlekamp:
    def test_x3_minus_1_over_f2(self):
        f = Polynomial((1, 0, 0, 1), 2)
        fact = berlekamp_factor(f)
        got = sorted((fac.poly.coeffs, fac.multiplicity) for fac in fact.factors)
        assert got == [((1, 1), 1), ((1, 1, 1), 1)]

    def test_x7_minus_1_over_f5(self):
        f = Polynomial((4,) + (0,) * 6 + (1,), 5)
        fact = berlekamp_factor(f)
        got = sorted((fac.poly.coeffs, fac.multiplicity) for fac in fact.factors)
        assert got == [((1, 1, 1, 1, 1, 1, 1), 1), ((4, 1), 1)]

    def test_x2_plus_1_over_f5(self):
        f = Polynomial((1, 0, 1), 5)
        fact = berlekamp_factor(f)
        got = sorted(fac.poly.coeffs for fac in fact.factors)
        assert got == [(2, 1), (3, 1)]

    def test_x2_plus_1_over_f3_irreducible(self):
        f = Polynomial((1, 0, 1), 3)
        fact = berlekamp_factor(f)
        assert len(fact.factors) == 1
        assert fact.factors[0].poly == f
        assert fact.factors[0].multiplicity == 1

    def test_square_factor_multiplicity(self):
        f = Polynomial((1, 0, 1), 2)
        fact = berlekamp_factor(f)
        assert len(fact.factors) == 1
        assert fact.factors[0].poly.coeffs == (1, 1)
        assert fact.factors[0].multiplicity == 2

    def test_cofactor_inverse_contract(self):
        f = Polynomial((4,) + (0,) * 6 + (1,), 5)
        fact = berlekamp_factor(f)
        for fac, cof, inv in zip(fact.factors, fact.cofactors, fact.inverses):
            q_power = fac.poly**fac.multiplicity
            assert cof * q_power == f.monic()
            assert ((inv * cof) % q_power) == Polynomial((1,), 5)

    def test_against_exhaustive_oracle(self):
        rng = random.Random(66)
        for _ in range(60):
            p = rng.choice([2, 3, 5])
            deg = rng.randrange(2, 7 if p == 2 else 5)
            f = Polynomial(
                tuple(rng.randrange(p) for _ in range(deg)) + (1,), p
            )
            fact = berlekamp_factor(f)
            product = Polynomial((fact.unit,), p)
            for fac in fact.factors:
                assert oracle_is_irreducible(fac.poly), fac.poly
                assert oracle_factor_multiplicity(f, fac.poly) == fac.multiplicity
                product = product * fac.poly**fac.multiplicity
            assert product == f

    def test_degree_cap(self):
        f = Polynomial((1,) + (0,) * 70 + (1,), 2)
        with pytest.raises(SizeLimitError):
            berlekamp_factor(f)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            berlekamp_factor(Polynomial((1, 0, 1), 6))

    def test_prime_checked_once(self, monkeypatch):
        # the splitting, coprimality and Bezout gcds trust the entry check
        import idemlift.polynomials as polynomials

        calls = []
        real = polynomials.is_prime
        monkeypatch.setattr(polynomials, "is_prime", lambda n: calls.append(n) or real(n))
        p = 2**61 - 1  # = 1 mod 7, so x^7 - 1 splits into seven linear factors
        fact = berlekamp_factor(Polynomial((p - 1,) + (0,) * 6 + (1,), p))
        assert [fac.poly.degree for fac in fact.factors] == [1] * 7
        assert calls == [p]


def _sympy_factorization(f: Polynomial):
    """(unit, sorted (coeffs, multiplicity) pairs) of f by sympy's gf_factor."""
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    unit, factors = galoistools.gf_factor(
        ZZ.map(list(reversed(f.coeffs))), f.modulus, ZZ
    )
    return int(unit), sorted(
        (tuple(int(c) for c in reversed(g)), e) for g, e in factors
    )


class TestBerlekampAgainstSympy:
    PRIMES = [1009, 1000003, 2**61 - 1]

    @staticmethod
    def _check(f: Polynomial):
        fact = berlekamp_factor(f)
        got = sorted((fac.poly.coeffs, fac.multiplicity) for fac in fact.factors)
        assert (fact.unit, got) == _sympy_factorization(f), f

    @pytest.mark.parametrize("p", PRIMES)
    def test_random_inputs(self, p):
        rng = random.Random(p)
        for _ in range(25):
            deg = rng.randrange(1, 10)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
            self._check(Polynomial(tuple(coeffs), p))

    @pytest.mark.parametrize("p", PRIMES)
    def test_repeated_factors(self, p):
        rng = random.Random(p + 1)
        for _ in range(15):
            f = Polynomial.constant(rng.randrange(1, p), p)
            for _ in range(rng.randrange(1, 4)):
                deg = rng.randrange(1, 4)
                g = Polynomial(tuple(rng.randrange(p) for _ in range(deg)) + (1,), p)
                f = f * g ** rng.randrange(1, 4)
            self._check(f)

    @pytest.mark.parametrize("p", PRIMES)
    def test_split_into_linear_factors(self, p):
        # the largest splitting jobs: every factor has degree 1
        rng = random.Random(p + 2)
        for _ in range(5):
            f = Polynomial.constant(1, p)
            for _ in range(rng.randrange(2, 12)):
                f = f * Polynomial((rng.randrange(p), 1), p)
            self._check(f)

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("n", [7, 12, 31, 64])
    def test_x_n_minus_1(self, p, n):
        self._check(Polynomial((p - 1,) + (0,) * (n - 1) + (1,), p))
