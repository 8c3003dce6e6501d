"""Binomial, power, and chain lifts, plus chain construction and verification."""

import random
from itertools import combinations

import pytest

import idemlift.cli as cli
import idemlift.lifting as lifting
from idemlift.catalog import enumerate_idempotents, hat_family
from idemlift.errors import UnsupportedError, VerificationError
from idemlift.group_rings import GroupRing
from idemlift.groups import AbelianGroup
from idemlift.lifting import (
    CncChain,
    binomial_lift,
    chain_for_nilpotent_ideal,
    chain_lift,
    nilpotency_index,
    power_lift,
    standard_chain,
    verify_family,
    verify_idempotent,
    verify_orthogonal,
)
from idemlift.oracle import brute_force_scan
from idemlift.quotients import QuotientRing, ResidueRing, gaussian_ring


@pytest.fixture
def factorize_calls(monkeypatch):
    """The arguments of every ``factorize`` call the lifting module makes."""
    calls = []
    real = lifting.factorize

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(lifting, "factorize", counting)
    return calls


class TestNilpotencyIndex:
    def test_exact_indices(self):
        z12 = ResidueRing(12)
        assert nilpotency_index(z12.from_int(6)) == 2
        assert nilpotency_index(ResidueRing(8).from_int(2)) == 3
        assert nilpotency_index(z12.from_int(0)) == 1

    def test_non_nilpotent_returns_none(self):
        assert nilpotency_index(ResidueRing(12).from_int(1)) is None
        assert nilpotency_index(ResidueRing(12).from_int(4)) is None


class TestBinomialLift:
    def test_z9_from_3(self):
        e = binomial_lift(ResidueRing(9).from_int(3))
        assert e.coeff_vector() == (0,)

    def test_z4_from_2(self):
        e = binomial_lift(ResidueRing(4).from_int(2))
        assert e.coeff_vector() == (0,)

    def test_idempotent_input_fixed(self):
        z12 = ResidueRing(12)
        for v in (0, 1, 4, 9):
            assert binomial_lift(z12.from_int(v)).coeff_vector() == (v,)

    def test_precondition_failure(self):
        # 2^2 - 2 = 2 is a unit mod 5, never nilpotent
        with pytest.raises(VerificationError):
            binomial_lift(ResidueRing(5).from_int(2))

    def test_congruence_and_idempotency_random(self):
        rng = random.Random(444)
        rings = [
            ResidueRing(8),
            ResidueRing(27),
            ResidueRing(200),
            GroupRing(ResidueRing(8), AbelianGroup((3,))),
            gaussian_ring(25),
        ]
        for ring in rings:
            fact_rad = {8: 2, 27: 3, 200: 10, 25: 5}[ring.coefficient_modulus]
            elems = list(ring.elements())
            idems = [x for x in elems if verify_idempotent(x)]
            for _ in range(20):
                e0 = rng.choice(idems)
                n = fact_rad * rng.choice(elems)
                f = e0 + n
                e = binomial_lift(f)
                assert verify_idempotent(e)
                # e - f must vanish modulo the radical
                diff = e - f
                small = ring.reduce_to(fact_rad)
                assert small.embed(diff).is_zero()
                assert e == e0


class TestPowerLift:
    def test_gaussian_25(self):
        ring = gaussian_ring(25)
        f = ring.from_coeffs((3, 1))
        e = power_lift(f, 5)
        assert e.coeff_vector() == (13, 16)

    def test_idempotent_any_s(self):
        ring = ResidueRing(12)
        for v in (0, 1, 4, 9):
            assert power_lift(ring.from_int(v), 7).coeff_vector() == (v,)

    def test_checked_failure(self):
        with pytest.raises(VerificationError):
            power_lift(ResidueRing(7).from_int(3), 2)


class TestChainValidation:
    def test_prime_factor_condition(self):
        ring = ResidueRing(8)
        with pytest.raises(ValueError):
            CncChain(ring, (2,), (3,))
        CncChain(ring, (3,), (3,))
        CncChain(ring, (2,), (2,))

    def test_t_below_two_rejected(self):
        with pytest.raises(ValueError):
            CncChain(ResidueRing(8), (2,), (1,))

    def test_exponent_tower_forms(self):
        ring = ResidueRing(8)
        assert CncChain(ring, (2, 2, 2), (2, 2, 2)).exponent_tower() == (2, 3)
        assert CncChain(ring, (), ()).exponent_tower() == (1, 0)

    def test_mixed_steps_explicit(self):
        chain = CncChain(ResidueRing(36), (2, 3), (2, 2))
        assert chain.exponent_tower() == ((2, 1), (3, 1))
        chain = CncChain(ResidueRing(36), (2, 2, 3), (2, 2, 2))
        assert chain.exponent_tower() == ((2, 2), (3, 1))

    def test_lift_by_2_times_3_reads_apart_from_2_cubed(self):
        # 2 * 3 and 2^3 were both (2, 3); the report, its JSON and the text
        # tower must tell them apart, and a uniform chain keeps its old form
        ring = ResidueRing(36)
        f = ring.from_int(15)
        mixed = chain_lift(f, CncChain(ring, (2, 3), (2, 2)))
        uniform = chain_lift(f, CncChain(ring, (2, 2, 2), (2, 2, 2)))
        assert (mixed.tower, uniform.tower) == (((2, 1), (3, 1)), (2, 3))
        assert mixed.to_json_dict(ring)["tower"] != uniform.to_json_dict(ring)["tower"]
        assert uniform.to_json_dict(ring)["tower"] == [2, 3]
        assert (cli._render_tower(mixed.tower), cli._render_tower(uniform.tower)) == ("2 * 3", "2^3")
        assert cli._render_tower(CncChain(ring, (2, 2, 3), (2, 2, 2)).exponent_tower()) == "2^2 * 3"

    def test_each_distinct_step_factorized_once(self, factorize_calls):
        calls = factorize_calls
        CncChain(ResidueRing(3**41), (3,) * 40, (3,) * 40)
        assert calls == [3]
        calls.clear()
        CncChain(ResidueRing(5**4 * 7), (35, 35, 5, 35), (3, 3, 3, 3))
        assert calls == [35, 5]
        calls.clear()
        # t = 2 admits every s >= 2, so those steps factorize nothing
        CncChain(ResidueRing(36), (6, 6, 3, 6), (2, 2, 2, 2))
        assert calls == []


class TestChainForNilpotentIdeal:
    def test_z12_generator_6(self):
        ring = ResidueRing(12)
        chain = chain_for_nilpotent_ideal(ring, ring.from_int(6))
        assert chain.ss == (6,)
        assert chain.ts == (2,)
        assert chain.base_ring.coefficient_modulus == 6
        e = chain_lift(ring.from_int(3), chain).lifted
        assert e.coeff_vector() == (9,)

    def test_z27_generator_3(self):
        ring = ResidueRing(27)
        chain = chain_for_nilpotent_ideal(ring, ring.from_int(3))
        assert chain.ss == (3, 3)
        assert chain.base_ring.coefficient_modulus == 3

    def test_non_nilpotent_generator(self):
        ring = ResidueRing(12)
        with pytest.raises(VerificationError):
            chain_for_nilpotent_ideal(ring, ring.from_int(4))

    @pytest.mark.parametrize("m", [1, 2, 12, 36, 200, 3**5, 2**70, 2**63 - 25])
    def test_integer_index_matches_ring_powers(self, m):
        for ring in (ResidueRing(m), gaussian_ring(m), GroupRing(ResidueRing(m), AbelianGroup((3,)))):
            cs = set(range(min(m, 100))) | {m - 1, m // 2, m // 3, 2, 4, 8, 6**5, 2**35}
            for c in sorted(c % m for c in cs):
                want = nilpotency_index(ring.from_int(c))
                assert lifting._scalar_nilpotency_index(c, m) == want, (ring, c)

    @pytest.mark.parametrize(
        "ring",
        [
            ResidueRing(2),
            ResidueRing(12),
            ResidueRing(36),
            ResidueRing(200),
            ResidueRing(3**5),
            ResidueRing(2**62),
            gaussian_ring(25),
            GroupRing(ResidueRing(8), AbelianGroup((3,))),
        ],
        ids=lambda r: r.expression(),
    )
    def test_scalar_index_matches_ring_powers(self, ring):
        # scalar generators take their index from integer powers mod m; the
        # ring's own powers must give the same index, or the same refusal
        m = ring.coefficient_modulus
        cs = set(range(min(m, 250))) | {m - 1, m // 2, m // 3, 2, 4, 8, 6**5, 2**35}
        for c in sorted(c % m for c in cs):
            a = ring.from_int(c)
            k = nilpotency_index(a)
            if k is None:
                with pytest.raises(VerificationError, match="not nilpotent"):
                    chain_for_nilpotent_ideal(ring, a)
            else:
                chain = chain_for_nilpotent_ideal(ring, a)
                assert len(chain.ss) == k - 1, (m, c)

    def test_non_scalar_needs_char(self):
        ring = GroupRing(ResidueRing(4), AbelianGroup((2,)))
        n = ring.from_coeffs((2, 2))
        assert nilpotency_index(n) is not None
        with pytest.raises(ValueError):
            chain_for_nilpotent_ideal(ring, n)
        chain = chain_for_nilpotent_ideal(ring, n, char=2)
        assert chain.ss == (2,) and chain.base_ring is None


class TestChainLift:
    def test_z8c3_worked_example(self):
        ring = GroupRing(ResidueRing(8), AbelianGroup((3,)))
        f = ring.from_coeffs((0, 1, 1))
        report = chain_lift(f, standard_chain(ring))
        assert report.lifted.coeff_vector() == (6, 5, 5)
        assert report.tower == (2, 2)
        assert report.verified
        assert report.verified_congruent is True
        assert report.multiplications == 4

    def test_idempotent_short_circuit(self):
        ring = ResidueRing(200)
        report = chain_lift(ring.from_int(25), standard_chain(ring))
        assert report.lifted.coeff_vector() == (25,)
        assert report.multiplications == 1

    @pytest.mark.parametrize("s, mults", [(2, 3), (3, 4), (5, 5), (7, 6), (13, 7)])
    def test_multiplication_count_one_step(self, s, mults):
        # one idempotency check, bit_length(s) + popcount(s) - 2 products
        # for f**s (the first set bit is free), one final check
        ring = ResidueRing(s * s)
        report = chain_lift(ring.from_int(1 + s), standard_chain(ring))
        assert report.lifted == ring.one
        assert report.multiplications == mults

    def test_multiplication_count_multi_step(self):
        ring = ResidueRing(36)
        report = chain_lift(ring.from_int(15), CncChain(ring, (2, 3), (2, 2)))
        assert report.lifted.coeff_vector() == (9,)
        assert report.multiplications == 1 + 1 + 2 + 1
        ring = GroupRing(ResidueRing(625), AbelianGroup((3,)))
        report = chain_lift(ring.from_coeffs((6, 5, 0)), standard_chain(ring))
        assert report.tower == (5, 3)
        assert report.verified
        assert report.multiplications == 1 + 3 * 3 + 1

    def test_idempotent_short_circuit_on_multi_step_chain(self):
        ring = GroupRing(ResidueRing(36), AbelianGroup((2,)))
        e = ring.from_coeffs((9, 0))
        report = chain_lift(e, CncChain(ring, (2, 3, 3), (2, 2, 2)))
        assert report.lifted == e
        assert report.multiplications == 1

    def test_failure_raises_in_checked_mode(self):
        ring = ResidueRing(8)
        chain = CncChain(ring, (3,), (2,))  # wrong s for the 2-adic chain
        with pytest.raises(VerificationError):
            chain_lift(ring.from_int(2) + ring.one, chain)

    def test_agreement_with_binomial(self):
        rng = random.Random(555)
        rings = [
            GroupRing(ResidueRing(8), AbelianGroup((3,))),
            GroupRing(ResidueRing(9), AbelianGroup((2,))),
            gaussian_ring(25),
        ]
        for ring in rings:
            rad = {8: 2, 9: 3, 25: 5}[ring.coefficient_modulus]
            chain = standard_chain(ring)
            elems = list(ring.elements())
            idems = [x for x in elems if verify_idempotent(x)]
            for _ in range(25):
                f = rng.choice(idems) + rad * rng.choice(elems)
                via_chain = chain_lift(f, chain).lifted
                via_binomial = binomial_lift(f)
                assert via_chain == via_binomial


class TestFactorizationCount:
    """How often one CLI ``lift`` factorizes: once for the standard chain's
    modulus, never for a ``--tower`` chain, whose steps all have t = 2."""

    @pytest.mark.parametrize(
        "ring, element, m",
        [("Z(625){C3}", "6*e + 5*g", 625), ("Z(200)", "15", 200), ("Z(25)[i]", "3 + i", 25)],
    )
    def test_standard_chain_lift_factorizes_once(self, capsys, factorize_calls, ring, element, m):
        assert cli.main(["lift", ring, element]) == 0
        assert "verified: true" in capsys.readouterr().out
        assert factorize_calls == [m]

    def test_tower_lift_factorizes_nothing(self, capsys, factorize_calls):
        assert cli.main(["lift", "Z(625){C3}", "6*e + 5*g", "--tower", "5", "3"]) == 0
        assert "verified: true" in capsys.readouterr().out
        assert factorize_calls == []


class TestStandardChain:
    def test_prime_modulus_trivial(self):
        chain = standard_chain(ResidueRing(5))
        assert chain.ss == ()
        assert chain.exponent_tower() == (1, 0)

    def test_z200_tower(self):
        chain = standard_chain(ResidueRing(200))
        assert chain.ss == (10, 10)
        assert chain.base_ring.coefficient_modulus == 10

    def test_zero_ring(self):
        chain = standard_chain(ResidueRing(1))
        report = chain_lift(ResidueRing(1).zero, chain)
        assert report.verified


class TestVerifyFamily:
    def test_zero_one_pair(self):
        ring = ResidueRing(12)
        check = verify_family([ring.zero, ring.one], ring, expected_components=1)
        assert check.orthogonal
        assert check.sums_to_one
        assert check.all_idempotent
        assert not check.all_nonzero
        assert not check.primitive_certified

    def test_one_one_not_orthogonal(self):
        ring = ResidueRing(12)
        check = verify_family([ring.one, ring.one], ring)
        assert not check.orthogonal

    @pytest.mark.parametrize(
        "ring",
        [
            ResidueRing(36),
            ResidueRing(200),
            GroupRing(ResidueRing(8), AbelianGroup((3,))),
            GroupRing(ResidueRing(12), AbelianGroup((2,))),
            GroupRing(ResidueRing(10), AbelianGroup((2, 2))),
            gaussian_ring(25),
            gaussian_ring(13),
            QuotientRing(10, (1, 1, 1)),
            GroupRing(QuotientRing(2, (1, 0, 1)), AbelianGroup((3,))),
        ],
        ids=lambda r: r.expression(),
    )
    def test_prefix_check_agrees_with_pairwise(self, ring):
        # families drawn from the oracle's idempotents, and from them plus
        # non-idempotents (where every pair is multiplied)
        idems = brute_force_scan(ring)
        others = [x for x in ring.elements() if not verify_idempotent(x)][:8]
        rng = random.Random(ring.expression())
        for trial in range(300):
            pool = idems if trial % 3 else idems + others
            family = rng.choices(pool, k=rng.randint(0, 6))
            pairwise = all(verify_orthogonal(x, y) for x, y in combinations(family, 2))
            assert verify_family(family, ring).orthogonal == pairwise

    def test_forged_families_rejected(self):
        ring = GroupRing(ResidueRing(10), AbelianGroup((2, 2)))
        fam = enumerate_idempotents(ring)
        primitive = list(fam.primitive)
        k = len(primitive)
        check = verify_family(primitive, ring, k)
        assert check.primitive_certified
        a, b = primitive[0], primitive[1]
        forged = {
            "overlapping": primitive + [a + b],
            "merged": [a + b] + primitive[1:],
            "repeated": primitive[:1] + primitive,
            "repeated last": primitive + primitive[-1:],
            "missing": primitive[1:],
            "zero": primitive[:-1] + [ring.zero, primitive[-1]],
        }
        for name, family in forged.items():
            check = verify_family(family, ring, k)
            assert not check.primitive_certified, name
        assert not verify_family(forged["overlapping"], ring).orthogonal
        assert not verify_family(forged["repeated"], ring).orthogonal
        assert not verify_family(forged["repeated last"], ring).orthogonal
        missing = verify_family(forged["missing"], ring)
        assert missing.orthogonal and not missing.sums_to_one
        zero = verify_family(forged["zero"], ring, k + 1)
        assert zero.complete_orthogonal and not zero.all_nonzero

    @pytest.mark.parametrize("factors, p", [((5, 5), 2), ((13, 13), 2), ((3, 3), 2)])
    def test_certified_family_costs_2k_minus_1_products(self, monkeypatch, factors, p):
        fam = hat_family(AbelianGroup(factors), p)
        ring, k = fam.ring, len(fam.primitive)
        calls = []
        real = GroupRing.mul

        def counting(self, a, b):
            calls.append(1)
            return real(self, a, b)

        monkeypatch.setattr(GroupRing, "mul", counting)
        assert verify_family(fam.primitive, ring, k).primitive_certified
        assert len(calls) == 2 * k - 1

    def test_pairs_above_the_cap_are_left_unchecked(self, monkeypatch):
        # 2 is not idempotent in Z(6), so the family is checked pair by pair,
        # and above PAIR_CAP members no pair is multiplied: only the squarings
        from idemlift.catalog import _build_family
        from idemlift.group_rings import Ring

        ring = ResidueRing(6)
        family = [ring.from_int(2)] + [ring.zero] * lifting.PAIR_CAP
        calls = []
        real = Ring.mul
        monkeypatch.setattr(Ring, "mul", lambda self, a, b: calls.append(1) or real(self, a, b))
        check = verify_family(family, ring, 1)
        assert check.idempotent == (False,) + (True,) * lifting.PAIR_CAP
        assert check.orthogonal is None and not check.primitive_certified
        assert len(calls) == len(family)
        assert verify_family(family[:-1], ring).orthogonal is True
        with pytest.raises(VerificationError, match="orthogonal=None"):
            _build_family(ring, family, 1, "factorization")

    def test_orthogonal_helpers(self):
        z12 = ResidueRing(12)
        assert verify_orthogonal(z12.from_int(4), z12.from_int(9))
        assert not verify_orthogonal(z12.from_int(4), z12.from_int(4))
        assert verify_idempotent(z12.from_int(9))
        assert not verify_idempotent(z12.from_int(5))
