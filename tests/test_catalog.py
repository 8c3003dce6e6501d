"""Idempotent family providers, full enumeration, and the CRT combiners.

Every enumeration route is held against the brute-force oracle wherever
the carrier is small enough to scan; the combiners are additionally held
against each other (summed vs power form) and against frozen values.
"""

import pytest

from idemlift.catalog import (
    IdempotentFamily,
    base_field_idempotents,
    brute_force_idempotents,
    crt_combine,
    crt_combine_powerform,
    cyclic_base_idempotents,
    enumerate_idempotents,
    hat_family,
    poly_crt_combine,
)
from idemlift.errors import SizeLimitError, UnsupportedError, VerificationError
from idemlift.group_rings import GroupRing
from idemlift.groups import AbelianGroup, TRIVIAL_GROUP
from idemlift.oracle import brute_force_scan
from idemlift.polynomials import Polynomial
from idemlift.quotients import QuotientRing, gaussian_ring
from idemlift.rings import ResidueRing


def _vectors(elems):
    return sorted(x.coeff_vector() for x in elems)


class TestBruteForceFamilies:
    def test_z12(self):
        fam = brute_force_idempotents(ResidueRing(12))
        assert _vectors(fam.members) == [(0,), (1,), (4,), (9,)]
        assert fam.complete and fam.count == 4
        assert fam.provenance == "brute-force"
        assert fam.orthogonal_primitive
        assert _vectors(fam.primitive) == [(4,), (9,)]

    def test_atoms_of_f2c3(self):
        ring = GroupRing(ResidueRing(2), AbelianGroup((3,)))
        fam = brute_force_idempotents(ring)
        assert fam.count == 4
        assert _vectors(fam.primitive) == [(0, 1, 1), (1, 1, 1)]
        assert fam.orthogonal_primitive

    def test_zero_ring(self):
        fam = brute_force_idempotents(ResidueRing(1))
        assert fam.count == 1
        assert fam.complete
        assert fam.primitive == ()


class TestCyclicBase:
    def test_f5c7(self):
        fam = cyclic_base_idempotents(7, 5)
        assert fam.provenance == "factorization"
        assert fam.count == 4
        assert _vectors(fam.primitive) == [
            (3, 2, 2, 2, 2, 2, 2),
            (3, 3, 3, 3, 3, 3, 3),
        ]
        assert _vectors(fam.members) == [
            (0, 0, 0, 0, 0, 0, 0),
            (1, 0, 0, 0, 0, 0, 0),
            (3, 2, 2, 2, 2, 2, 2),
            (3, 3, 3, 3, 3, 3, 3),
        ]

    def test_f2c3_matches_oracle(self):
        fam = cyclic_base_idempotents(3, 2)
        ring = fam.ring
        assert _vectors(fam.members) == _vectors(brute_force_scan(ring))

    def test_f5c6_sixteen(self):
        fam = cyclic_base_idempotents(6, 5)
        assert fam.count == 16
        assert len(fam.primitive) == 4
        assert fam.orthogonal_primitive
        assert _vectors(fam.members) == _vectors(brute_force_scan(fam.ring))

    def test_non_semisimple_rejected(self):
        with pytest.raises(UnsupportedError):
            cyclic_base_idempotents(3, 3)
        with pytest.raises(UnsupportedError):
            cyclic_base_idempotents(10, 5)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            cyclic_base_idempotents(3, 4)


class TestHatFamily:
    def test_c5xc5_over_2_3_13(self):
        for p in (2, 3, 13):
            fam = hat_family(AbelianGroup((5, 5)), p)
            assert fam.provenance == "hat-family"
            assert len(fam.primitive) == 7
            assert fam.count == 128
            assert fam.orthogonal_primitive

    def test_rank1_c3_over_f2(self):
        fam = hat_family(AbelianGroup((3,)), 2)
        assert _vectors(fam.primitive) == [(0, 1, 1), (1, 1, 1)]
        assert _vectors(fam.members) == _vectors(
            brute_force_scan(GroupRing(ResidueRing(2), AbelianGroup((3,))))
        )

    def test_certification_failure_c7_over_f2(self):
        # the orbit count is 3, the two-member candidate cannot be complete
        with pytest.raises(UnsupportedError):
            hat_family(AbelianGroup((7,)), 2)

    def test_certification_failure_c5xc5_over_f11(self):
        # 11 = 1 mod 5, so the power map is the identity: 25 components
        with pytest.raises(UnsupportedError):
            hat_family(AbelianGroup((5, 5)), 11)

    def test_non_elementary_rejected(self):
        with pytest.raises(UnsupportedError):
            hat_family(AbelianGroup((4,)), 3)
        with pytest.raises(UnsupportedError):
            hat_family(AbelianGroup((2, 2, 2)), 3)

    def test_non_semisimple_rejected(self):
        with pytest.raises(UnsupportedError):
            hat_family(AbelianGroup((5, 5)), 5)


class TestBaseFieldDispatch:
    def test_residue_field(self):
        fam = base_field_idempotents(ResidueRing(7))
        assert _vectors(fam.members) == [(0,), (1,)]

    def test_hat_preferred_when_certified(self):
        ring = GroupRing(ResidueRing(3), AbelianGroup((2, 2)))
        fam = base_field_idempotents(ring)
        assert fam.provenance == "hat-family"
        assert fam.count == 16
        assert _vectors(fam.members) == _vectors(brute_force_scan(ring))

    def test_cyclic_fallback_when_hat_fails(self):
        ring = GroupRing(ResidueRing(2), AbelianGroup((7,)))
        fam = base_field_idempotents(ring)
        assert fam.provenance == "factorization"
        assert fam.count == 8
        assert _vectors(fam.members) == _vectors(brute_force_scan(ring))

    def test_cyclic_non_prime_order(self):
        ring = GroupRing(ResidueRing(3), AbelianGroup((4,)))
        fam = base_field_idempotents(ring)
        assert fam.provenance == "factorization"
        assert fam.count == 8

    def test_brute_fallback_non_semisimple(self):
        ring = GroupRing(ResidueRing(2), AbelianGroup((2,)))
        fam = base_field_idempotents(ring)
        assert fam.provenance == "brute-force"
        assert _vectors(fam.members) == [(0, 0), (1, 0)]

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError):
            base_field_idempotents(ResidueRing(6))


class TestPolyCrtCombine:
    def test_gaussian_f5_matches_closed_form(self):
        fam = poly_crt_combine(5, Polynomial((1, 0, 1), 5))
        assert _vectors(fam.members) == [(0, 0), (1, 0), (3, 1), (3, 4)]
        assert fam.provenance == "crt-combined"
        assert fam.orthogonal_primitive

    def test_irreducible_modulus_gives_field(self):
        fam = poly_crt_combine(3, Polynomial((1, 0, 1), 3))
        assert _vectors(fam.members) == [(0, 0), (1, 0)]
        assert fam.provenance == "factorization"

    def test_square_linear_factor_with_group(self):
        # (F2[x]/((x+1)^2)) C3: 64-element carrier, |E| = 4
        fam = poly_crt_combine(2, Polynomial((1, 0, 1), 2), AbelianGroup((3,)))
        assert fam.count == 4
        assert fam.provenance == "lifted"
        assert _vectors(fam.members) == _vectors(brute_force_scan(fam.ring))

    def test_extension_field_with_group_rejected(self):
        with pytest.raises(UnsupportedError):
            poly_crt_combine(2, Polynomial((1, 1, 1), 2), AbelianGroup((3,)))

    def test_extension_field_trivial_group_fine(self):
        fam = poly_crt_combine(2, Polynomial((1, 1, 1), 2), TRIVIAL_GROUP)
        assert _vectors(fam.members) == [(0, 0), (1, 0)]

    def test_mixed_factors_against_oracle(self):
        # x^3 + x over F5 = x (x+2)(x+3): three linear factors
        fam = poly_crt_combine(5, Polynomial((0, 1, 0, 1), 5))
        assert fam.count == 8
        assert _vectors(fam.members) == _vectors(brute_force_scan(fam.ring))


class TestCrtCombine:
    def test_z200c3_full_table(self):
        fam = crt_combine(200, AbelianGroup((3,)))
        assert fam.count == 16
        assert fam.provenance == "crt-combined"
        assert fam.orthogonal_primitive
        assert len(fam.primitive) == 4
        assert _vectors(fam.members) == _vectors(
            brute_force_scan(fam.ring, cap=2**23)
        )

    def test_power_form_agrees(self):
        group = AbelianGroup((3,))
        summed = crt_combine(200, group)
        powered = crt_combine_powerform(200, group)
        assert _vectors(summed.members) == _vectors(powered.members)

    def test_explicit_base_families(self):
        group = AbelianGroup((3,))
        bases = [
            base_field_idempotents(GroupRing(ResidueRing(2), group)),
            base_field_idempotents(GroupRing(ResidueRing(5), group)),
        ]
        fam = crt_combine(200, group, base_families=bases)
        assert fam.count == 16

    def test_base_family_modulus_checked(self):
        group = AbelianGroup((3,))
        bases = [
            base_field_idempotents(GroupRing(ResidueRing(5), group)),
            base_field_idempotents(GroupRing(ResidueRing(2), group)),
        ]
        with pytest.raises(ValueError):
            crt_combine(200, group, base_families=bases)

    def test_tampered_base_family_caught(self):
        group = AbelianGroup((3,))
        good = base_field_idempotents(GroupRing(ResidueRing(2), group))
        bad_ring = good.ring
        bogus = IdempotentFamily(
            ring=bad_ring,
            members=(bad_ring.from_coeffs((1, 1, 0)),),
            primitive=(),
            count=1,
            complete=True,
            orthogonal_primitive=False,
            provenance="brute-force",
        )
        five = base_field_idempotents(GroupRing(ResidueRing(5), group))
        with pytest.raises(VerificationError):
            crt_combine(200, group, base_families=[bogus, five])

    def test_powerform_cap(self):
        with pytest.raises(SizeLimitError):
            crt_combine_powerform(200, AbelianGroup((3,)), list_cap=8)


class TestEnumerate:
    def test_z12(self):
        fam = enumerate_idempotents(ResidueRing(12))
        assert _vectors(fam.members) == [(0,), (1,), (4,), (9,)]
        assert fam.provenance == "crt-combined"

    def test_z27_lifted(self):
        fam = enumerate_idempotents(ResidueRing(27))
        assert _vectors(fam.members) == [(0,), (1,)]
        assert fam.provenance == "lifted"

    def test_zero_ring(self):
        fam = enumerate_idempotents(ResidueRing(1))
        assert fam.count == 1

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
            QuotientRing(10, Polynomial((1, 1, 1), 10)),
            GroupRing(QuotientRing(2, Polynomial((1, 0, 1), 2)), AbelianGroup((3,))),
        ],
        ids=lambda r: r.expression(),
    )
    def test_matches_oracle(self, ring):
        fam = enumerate_idempotents(ring)
        assert fam.complete
        assert _vectors(fam.members) == _vectors(brute_force_scan(ring))

    def test_deep_tower_group_ring_over_quotient(self):
        ring = GroupRing(QuotientRing(25, Polynomial((1, 0, 1), 25)), AbelianGroup((3,)))
        fam = enumerate_idempotents(ring)
        assert fam.count == 16
        assert fam.complete
        assert fam.orthogonal_primitive and len(fam.primitive) == 4

    def test_count_only_mode(self):
        ring = GroupRing(ResidueRing(936), AbelianGroup((5, 5)))
        fam = enumerate_idempotents(ring, list_cap=0)
        assert fam.count == 2**21
        assert not fam.complete
        assert fam.members == ()
        assert len(fam.primitive) == 21
        assert fam.orthogonal_primitive

    def test_json_shape(self):
        fam = enumerate_idempotents(ResidueRing(12))
        payload = fam.to_json_dict()
        assert payload["ring"] == "Z(12)"
        assert payload["count"] == 4
        assert payload["complete"] is True
        assert payload["members"] == [[0], [1], [4], [9]]
        assert sorted(payload["primitive"]) == [[4], [9]]
