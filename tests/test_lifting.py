"""Binomial, power, and chain lifts, plus chain construction and verification."""

import random

import pytest

from idemlift.errors import UnsupportedError, VerificationError
from idemlift.group_rings import GroupRing
from idemlift.groups import AbelianGroup
from idemlift.lifting import (
    CncChain,
    binomial_lift,
    chain_for_group_ring,
    chain_for_nilpotent_ideal,
    chain_lift,
    nilpotency_index,
    power_lift,
    standard_chain,
    trusted_chain,
    verify_family,
    verify_idempotent,
    verify_orthogonal,
)
from idemlift.quotients import gaussian_ring
from idemlift.rings import ResidueRing


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

    def test_explicit_index_checked(self):
        with pytest.raises(VerificationError):
            binomial_lift(ResidueRing(9).from_int(3), n=1)

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
                assert ring.reduce(diff, small).is_zero()
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

    def test_unchecked_passthrough(self):
        out = power_lift(ResidueRing(7).from_int(3), 2, checked=False)
        assert out.coeff_vector() == (2,)


class TestChainValidation:
    def test_prime_factor_condition(self):
        ring = ResidueRing(8)
        with pytest.raises(ValueError):
            CncChain(ring, (2,), (3,), "trusted")
        CncChain(ring, (3,), (3,), "trusted")
        CncChain(ring, (2,), (2,), "trusted")

    def test_t_below_two_rejected(self):
        with pytest.raises(ValueError):
            CncChain(ResidueRing(8), (2,), (1,), "trusted")

    def test_unknown_provenance(self):
        with pytest.raises(ValueError):
            CncChain(ResidueRing(8), (2,), (2,), "guessed")

    def test_exponent_tower_forms(self):
        ring = ResidueRing(8)
        assert CncChain(ring, (2, 2, 2), (2, 2, 2), "trusted").exponent_tower() == (2, 3)
        assert CncChain(ring, (), (), "trusted").exponent_tower() == (1, 0)

    def test_mixed_steps_explicit(self):
        chain = CncChain(ResidueRing(36), (2, 3), (2, 2), "trusted")
        assert chain.exponent_tower() == (2, 3)


class TestChainForNilpotentIdeal:
    def test_z12_generator_6(self):
        ring = ResidueRing(12)
        chain = chain_for_nilpotent_ideal(ring, ring.from_int(6))
        assert chain.ss == (6,)
        assert chain.ts == (2,)
        assert chain.provenance == "principal-nilpotent"
        e = chain_lift(ring.from_int(3), chain).lifted
        assert e.coeff_vector() == (9,)

    def test_z27_generator_3(self):
        ring = ResidueRing(27)
        chain = chain_for_nilpotent_ideal(ring, ring.from_int(3))
        assert chain.ss == (3, 3)
        assert chain.provenance == "prime-power"

    def test_wrong_index_claim(self):
        ring = ResidueRing(27)
        with pytest.raises(VerificationError):
            chain_for_nilpotent_ideal(ring, ring.from_int(3), index=2)

    def test_non_nilpotent_generator(self):
        ring = ResidueRing(12)
        with pytest.raises(VerificationError):
            chain_for_nilpotent_ideal(ring, ring.from_int(4))

    def test_non_scalar_needs_char(self):
        ring = GroupRing(ResidueRing(4), AbelianGroup((2,)))
        n = ring.from_coeffs((2, 2))
        assert nilpotency_index(n) is not None
        with pytest.raises(ValueError):
            chain_for_nilpotent_ideal(ring, n)
        chain = chain_for_nilpotent_ideal(ring, n, char=2)
        assert chain.provenance == "validated-numerically"


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
        report = chain_lift(ring.from_int(15), trusted_chain(ring, (2, 3), (2, 2)))
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
        report = chain_lift(e, trusted_chain(ring, (2, 3, 3), (2, 2, 2)))
        assert report.lifted == e
        assert report.multiplications == 1

    def test_failure_raises_in_checked_mode(self):
        ring = ResidueRing(8)
        chain = trusted_chain(ring, (3,), (2,))  # wrong s for the 2-adic chain
        with pytest.raises(VerificationError):
            chain_lift(ring.from_int(2) + ring.one, chain)

    def test_unchecked_reports_failure_without_raising(self):
        ring = ResidueRing(8)
        chain = trusted_chain(ring, (3,), (2,))
        report = chain_lift(ring.from_int(3), chain, checked=False)
        assert not report.verified_idempotent

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

    def test_transported_chain_checks_congruence(self):
        base = ResidueRing(8)
        ring = GroupRing(base, AbelianGroup((3,)))
        chain = chain_for_group_ring(standard_chain(base), ring)
        f = ring.from_coeffs((0, 1, 1))
        report = chain_lift(f, chain)
        assert report.verified_congruent is True
        assert report.lifted.coeff_vector() == (6, 5, 5)

    def test_transport_rejects_foreign_base(self):
        with pytest.raises(ValueError):
            chain_for_group_ring(
                standard_chain(ResidueRing(9)),
                GroupRing(ResidueRing(8), AbelianGroup((3,))),
            )


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

    def test_orthogonal_helpers(self):
        z12 = ResidueRing(12)
        assert verify_orthogonal(z12.from_int(4), z12.from_int(9))
        assert not verify_orthogonal(z12.from_int(4), z12.from_int(4))
        assert verify_idempotent(z12.from_int(9))
        assert not verify_idempotent(z12.from_int(5))
