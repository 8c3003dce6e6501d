"""Polynomial arithmetic and factorization over prime fields.

Polynomials are coefficient tuples, lowest degree first.  The independent
oracle for factorization is exhaustive: a polynomial of degree d over F_p
is irreducible iff no monic polynomial of degree 1..d//2 divides it,
checked by trial division.  Frozen factorizations below were derived with
that oracle.  Over large primes, where no exhaustive oracle is feasible,
factorizations are compared with sympy's ``gf_factor`` (skipped when sympy
is missing).
"""

import random
from itertools import product, zip_longest

import pytest

from idemlift.errors import SizeLimitError, UnsupportedError, VerificationError
from idemlift.group_rings import GroupRing
from idemlift.groups import TRIVIAL_GROUP, AbelianGroup
from idemlift.quotients import QuotientRing, ResidueRing
from idemlift.polynomials import (
    _divmod,
    _ext_gcd,
    _powmod,
    _product,
    _split_by,
    _trim,
    berlekamp_factor,
    frobenius_fixed_basis,
    poly_gcd,
    poly_mulmod,
    poly_text,
)


def _norm(a, p: int) -> tuple[int, ...]:
    """a reduced mod p with trailing zeros trimmed."""
    return tuple(_trim([c % p for c in a]))


def _add(a, b, p: int) -> tuple[int, ...]:
    return _norm([x + y for x, y in zip_longest(a, b, fillvalue=0)], p)


def _sub(a, b, p: int) -> tuple[int, ...]:
    return _norm([x - y for x, y in zip_longest(a, b, fillvalue=0)], p)


def _mul(a, b, p: int) -> tuple[int, ...]:
    return _norm(_product(a, b), p)


def _pow(a, e: int, p: int) -> tuple[int, ...]:
    out = (1,)
    for _ in range(e):
        out = _mul(out, a, p)
    return out


def _rem(a, b, p: int) -> tuple[int, ...]:
    return _norm(_divmod(a, b, p)[1], p)


def _all_monic(p: int, degree: int):
    """All monic polynomials of exactly the given degree over F_p."""
    def rec(prefix):
        if len(prefix) == degree:
            yield tuple(prefix) + (1,)
            return
        for c in range(p):
            yield from rec(prefix + [c])
    yield from rec([])


def oracle_is_irreducible(f, p: int) -> bool:
    degree = len(f) - 1
    if degree < 1:
        return False
    for d in range(1, degree // 2 + 1):
        for g in _all_monic(p, d):
            if not _rem(f, g, p):
                return False
    return True


def oracle_factor_multiplicity(f, q, p: int) -> int:
    count = 0
    while not _rem(f, q, p):
        f = _norm(_divmod(f, q, p)[0], p)
        count += 1
    return count


class TestArithmetic:
    def test_ring_axioms_random(self):
        # in Z_p[x]/(x^4 + x + 1), so that poly_mulmod reduces as well
        tail = (1, 1, 0, 0)
        rng = random.Random(11)
        for _ in range(200):
            p = rng.choice([2, 3, 5])
            mk = lambda: _norm(
                [rng.randrange(p) for _ in range(rng.randrange(1, 6))], p
            )
            f, g, h = mk(), mk(), mk()
            mul = lambda a, b: _norm(poly_mulmod(a, b, tail, p), p)
            assert _sub(_add(f, g, p), g, p) == f
            assert mul(f, _add(g, h, p)) == _add(mul(f, g), mul(f, h), p)
            assert mul(f, g) == mul(g, f)
            assert mul(mul(f, g), h) == mul(f, mul(g, h))

    def test_divmod_reconstructs(self):
        rng = random.Random(22)
        for _ in range(200):
            p = rng.choice([2, 3, 5, 7])
            f = _norm([rng.randrange(p) for _ in range(6)], p)
            g = tuple(rng.randrange(p) for _ in range(3)) + (1,)
            q, r = _divmod(f, g, p)
            assert _add(_mul(q, g, p), r, p) == f
            assert len(_norm(r, p)) < len(g)  # deg r < deg g

    def test_divmod_needs_invertible_leading(self):
        with pytest.raises(UnsupportedError):
            _divmod((1, 1), (1, 2), 4)

    @staticmethod
    def _check_powmod(f, e: int, mod, m: int):
        """_powmod against e repeated poly_mulmod products, reduced by the
        (possibly non-monic) mod through _divmod."""
        inv = pow(mod[-1], -1, m)
        tail = [c * inv % m for c in mod[:-1]]
        ref = [1]
        for _ in range(e):
            ref = poly_mulmod(ref, f, tail, m)
        ref = _divmod(ref, mod, m)[1]
        assert _norm(_powmod(list(f), e, tail, m), m) == _norm(ref, m), (m, mod, e)

    def test_pow_and_powmod_agree(self):
        # moduli of degree 0..12; every third one has a leading unit other than 1
        rng = random.Random(33)
        for p in (2, 3, 1093, 2**61 - 1):
            for deg in range(13):
                lead = rng.randrange(1, p) if deg % 3 == 0 else 1
                mod = tuple(rng.randrange(p) for _ in range(deg)) + (lead,)
                f = tuple(rng.randrange(p) for _ in range(rng.randrange(1, 8)))
                for e in (0, 1, rng.randrange(2, 40)):
                    self._check_powmod(f, e, mod, p)

    def test_powmod_non_prime_modulus(self):
        # Z_12: the leading 5 of the modulus is a unit, so the remainder exists
        f, mod = (7, 3, 11), (1, 4, 5)
        for e in range(6):
            self._check_powmod(f, e, mod, 12)

    def test_text_format(self):
        assert poly_text((1, 0, 3, 1), "x") == "1 + 3*x^2 + x^3"
        assert poly_text((), "x") == "0"
        assert poly_text((0,), "x") == "0"
        assert poly_text((0, 1), "i") == "i"


class TestGcd:
    def test_gcd_is_monic_common_divisor(self):
        rng = random.Random(44)
        for _ in range(100):
            p = rng.choice([2, 3, 5])
            f = tuple(rng.randrange(p) for _ in range(5))
            g = tuple(rng.randrange(p) for _ in range(5))
            if not any(f) and not any(g):
                continue
            d = poly_gcd(f, g, p)
            assert d[-1] == 1
            assert not _rem(f, d, p) and not _rem(g, d, p)

    def test_ext_gcd_bezout(self):
        rng = random.Random(55)
        for _ in range(100):
            p = rng.choice([2, 3, 5, 7])
            f = tuple(rng.randrange(p) for _ in range(4)) + (1,)
            g = tuple(rng.randrange(p) for _ in range(3)) + (1,)
            d, u = _ext_gcd(f, g, p)
            v, rem = _divmod(_sub(d, _mul(u, f, p), p), g, p)
            assert not _norm(rem, p)
            assert _add(_mul(u, f, p), _mul(v, g, p), p) == tuple(d)

    def test_prime_modulus_required(self):
        with pytest.raises(ValueError):
            poly_gcd((1, 1), (1, 1), 6)

    def test_gcd_of_zeros_undefined(self):
        with pytest.raises(ValueError):
            poly_gcd((), (0, 5), 5)


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
        u = (1,)
        for r in roots:
            u = _mul(u, (-r, 1), p)
        pieces = _split_by(list(u), [0, 1], p)
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
        fact = berlekamp_factor((1, 0, 0, 1), 2)
        assert sorted(fact.factors) == [((1, 1), 1), ((1, 1, 1), 1)]

    def test_x7_minus_1_over_f5(self):
        fact = berlekamp_factor((4,) + (0,) * 6 + (1,), 5)
        assert sorted(fact.factors) == [((1, 1, 1, 1, 1, 1, 1), 1), ((4, 1), 1)]

    def test_x2_plus_1_over_f5(self):
        fact = berlekamp_factor((1, 0, 1), 5)
        got = sorted(q for q, _ in fact.factors)
        assert got == [(2, 1), (3, 1)]

    def test_x2_plus_1_over_f3_irreducible(self):
        fact = berlekamp_factor((1, 0, 1), 3)
        assert fact.factors == (((1, 0, 1), 1),)

    def test_square_factor_multiplicity(self):
        fact = berlekamp_factor((1, 0, 1), 2)
        assert fact.factors == (((1, 1), 2),)

    def test_cofactor_inverse_contract(self):
        p, f = 5, (4,) + (0,) * 6 + (1,)
        fact = berlekamp_factor(f, p)
        for (q, e), cof, inv in zip(fact.factors, fact.cofactors, fact.inverses):
            q_power = _pow(q, e, p)
            assert _mul(cof, q_power, p) == f
            assert _rem(_mul(inv, cof, p), q_power, p) == (1,)

    def test_against_exhaustive_oracle(self):
        rng = random.Random(66)
        for _ in range(60):
            p = rng.choice([2, 3, 5])
            deg = rng.randrange(2, 7 if p == 2 else 5)
            f = tuple(rng.randrange(p) for _ in range(deg)) + (1,)
            fact = berlekamp_factor(f, p)
            product = (fact.unit,)
            for q, e in fact.factors:
                assert oracle_is_irreducible(q, p), q
                assert oracle_factor_multiplicity(f, q, p) == e
                product = _mul(product, _pow(q, e, p), p)
            assert product == f

    def test_degree_cap(self):
        with pytest.raises(SizeLimitError, match="^degree 71 exceeds cap 64$"):
            berlekamp_factor((1,) + (0,) * 70 + (1,), 2)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            berlekamp_factor((1, 0, 1), 6)

    @pytest.mark.parametrize("f, p", [((4, 0, 1), 5), ((1, 0, 1), 3), ((4,) + (0,) * 6 + (1,), 29)])
    def test_duplicated_factor_rejected(self, monkeypatch, f, p):
        # a factor split out twice divides what the first copy leaves 0 times,
        # and its cofactor check modulo q^0 = 1 would pass; no pairwise gcd
        # is taken, so the exponent check must catch it
        import idemlift.polynomials as polynomials

        real = polynomials._split_squarefree
        monkeypatch.setattr(polynomials, "_split_squarefree",
                            lambda g, q: real(g, q)[:1] + real(g, q))
        with pytest.raises(VerificationError, match="does not divide"):
            berlekamp_factor(f, p)

    @pytest.mark.parametrize(
        "f, p, degrees",
        [
            # (x^7 - 1)^9: x^7 - 1 is split once, not once per multiplicity
            (_pow((1008,) + (0,) * 6 + (1,), 9, 1009), 1009, [7]),
            # (x^2 + 1)^6 (x + 1): x + 1, then the cube root's squarefree part
            (_mul(_pow((1, 0, 1), 6, 3), (1, 1), 3), 3, [1, 2]),
        ],
    )
    def test_each_squarefree_part_split_once(self, monkeypatch, f, p, degrees):
        import idemlift.polynomials as polynomials

        calls = []
        real = polynomials._split_squarefree
        monkeypatch.setattr(polynomials, "_split_squarefree",
                            lambda g, q: calls.append(len(g) - 1) or real(g, q))
        fact = berlekamp_factor(f, p)
        assert calls == degrees
        assert (fact.unit, sorted(fact.factors)) == _sympy_factorization(f, p)

    def test_prime_checked_once(self, monkeypatch):
        # the splitting and Bezout gcds trust the entry check
        import idemlift.polynomials as polynomials

        calls = []
        real = polynomials.is_prime
        monkeypatch.setattr(polynomials, "is_prime", lambda n: calls.append(n) or real(n))
        p = 2**61 - 1  # = 1 mod 7, so x^7 - 1 splits into seven linear factors
        fact = berlekamp_factor((p - 1,) + (0,) * 6 + (1,), p)
        assert [len(q) - 1 for q, _ in fact.factors] == [1] * 7
        assert calls == [p]


# (p, monic q or None for F_p itself, groups): irreducible and reducible
# squarefree q, and groups of order prime to p and divisible by it
_FIXED_SPACE_GRID = [
    (p, q, group)
    for p, qs, groups in [
        (2, [None, (1, 1, 1), (1, 1, 0, 1), (0, 1, 1)], [(), (2,), (3,), (4,), (7,), (2, 2), (3, 3)]),
        (3, [None, (1, 0, 1), (2, 0, 1)], [(), (2,), (3,), (4,), (6,), (2, 2)]),
        (5, [None, (2, 0, 1)], [(), (3,), (4,), (5,), (2, 2)]),
    ]
    for q, group in product(qs, groups)
]


class TestFrobeniusFixedBasis:
    """The one builder of Frob - I, for Berlekamp's split (trivial group) and
    the group-ring splitter, held against the null space that sympy computes
    over GF(p) from the ring's own p-th power of every basis vector."""

    @pytest.mark.parametrize("p, q, factors", _FIXED_SPACE_GRID)
    def test_spans_the_fixed_space_of_the_p_th_power(self, p, q, factors):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        group = AbelianGroup(factors) if factors else TRIVIAL_GROUP
        ring = GroupRing(ResidueRing(p) if q is None else QuotientRing(p, q), group)
        n, field = ring.dimension, sympy.GF(p)

        def matrix(rows):
            return DomainMatrix([[field(int(v)) for v in row] for row in rows], (len(rows), n), field)

        powers = [(ring.from_coeffs([int(i == j) for j in range(n)]) ** p).coeff_vector()
                  for i in range(n)]
        # Frob - I: column c is the p-th power of unit vector c, less that vector
        frob = matrix([[powers[c][r] - (r == c) for c in range(n)] for r in range(n)])
        expected = frob.nullspace().to_list()
        images = [group.power(g, p) for g in range(group.order)]
        got = frobenius_fixed_basis((0,) if q is None else q[:-1], p, images)
        assert all(len(v) == n for v in got)
        assert matrix(got).rank() == len(got) == len(expected)
        assert matrix(got + expected).rank() == len(got)


def _sympy_factorization(f, p: int):
    """(unit, sorted (coeffs, multiplicity) pairs) of f by sympy's gf_factor."""
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    unit, factors = galoistools.gf_factor(
        ZZ.map(list(reversed(f))), p, ZZ
    )
    return int(unit), sorted(
        (tuple(int(c) for c in reversed(g)), e) for g, e in factors
    )


class TestBerlekampAgainstSympy:
    # the small primes meet multiplicities divisible by p, and p-th roots
    PRIMES = [2, 3, 5, 1009, 1000003, 2**61 - 1]

    @staticmethod
    def _check(f, p: int):
        fact = berlekamp_factor(f, p)
        assert (fact.unit, sorted(fact.factors)) == _sympy_factorization(f, p), f

    @pytest.mark.parametrize("p", PRIMES)
    def test_random_inputs(self, p):
        rng = random.Random(p)
        for _ in range(25):
            deg = rng.randrange(1, 10)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
            self._check(tuple(coeffs), p)

    @pytest.mark.parametrize("p", PRIMES)
    def test_repeated_factors(self, p):
        rng = random.Random(p + 1)
        for _ in range(15):
            f = (rng.randrange(1, p),)
            for _ in range(rng.randrange(1, 4)):
                deg = rng.randrange(1, 4)
                g = tuple(rng.randrange(p) for _ in range(deg)) + (1,)
                f = _mul(f, _pow(g, rng.randrange(1, 4), p), p)
            self._check(f, p)

    @pytest.mark.parametrize("p", PRIMES[:3])
    def test_multiplicities_multiple_of_p(self, p):
        # the first six irreducibles to the powers p, p + 1, 2p, p^2, 1, 1:
        # three splits, the second after one p-th root, the third after two
        irreducibles = (q for d in range(1, 5) for q in _all_monic(p, d)
                        if oracle_is_irreducible(q, p))
        f = (p - 1,)
        for q, e in zip(irreducibles, [p, p + 1, 2 * p, p * p, 1, 1]):
            f = _mul(f, _pow(q, e, p), p)
        self._check(f, p)

    @pytest.mark.parametrize("p", PRIMES)
    def test_split_into_linear_factors(self, p):
        # the largest splitting jobs: every factor has degree 1
        rng = random.Random(p + 2)
        for _ in range(5):
            f = (1,)
            for _ in range(rng.randrange(2, 12)):
                f = _mul(f, (rng.randrange(p), 1), p)
            self._check(f, p)

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("n", [7, 12, 31, 64])
    def test_x_n_minus_1(self, p, n):
        self._check((p - 1,) + (0,) * (n - 1) + (1,), p)
