"""Abelian groups, subgroup enumeration, and Frobenius orbit counting."""

import random

import pytest

from idemlift.errors import SizeLimitError, UnsupportedError
from idemlift.groups import (
    AbelianGroup,
    TRIVIAL_GROUP,
    all_subgroups,
    frobenius_orbit_count,
    group_from_factors,
    minimal_nontrivial_subgroups,
    subgroup_generated,
)
from idemlift.rings import is_prime


class TestAbelianGroup:
    def test_order_and_indexing_round_trip(self):
        g = AbelianGroup((4, 6))
        assert g.order == 24
        for idx in range(g.order):
            assert g.index(g.exponents(idx)) == idx

    def test_identity_and_inverse(self):
        g = AbelianGroup((5, 5))
        for idx in range(g.order):
            assert g.mul(idx, g.inverse(idx)) == 0
            assert g.mul(idx, 0) == idx

    def test_mul_matches_exponent_addition(self):
        rng = random.Random(88)
        g = AbelianGroup((3, 4))
        for _ in range(100):
            i, j = rng.randrange(12), rng.randrange(12)
            ei, ej = g.exponents(i), g.exponents(j)
            expected = tuple((a + b) % n for a, b, n in zip(ei, ej, g.factors))
            assert g.exponents(g.mul(i, j)) == expected

    def test_element_order_divides_group_order(self):
        g = AbelianGroup((4, 6))
        for idx in range(g.order):
            d = g.element_order(idx)
            assert g.order % d == 0
            assert g.power(idx, d) == 0

    def test_trivial_group(self):
        assert TRIVIAL_GROUP.order == 1
        assert TRIVIAL_GROUP.is_trivial

    def test_factor_below_two_rejected(self):
        with pytest.raises(ValueError):
            AbelianGroup((1, 3))

    def test_group_from_factors_cap(self):
        with pytest.raises(SizeLimitError):
            group_from_factors((2,) * 20)

    def test_element_names(self):
        c3 = AbelianGroup((3,))
        assert [c3.element_name(k) for k in range(3)] == ["e", "g", "g^2"]
        c22 = AbelianGroup((2, 2))
        assert c22.element_name(0) == "e"
        assert set(c22.element_name(k) for k in range(1, 4)) == {
            "(a)",
            "(b)",
            "(a b)",
        }

    def test_expression(self):
        assert AbelianGroup((5, 5)).expression() == "{C5xC5}"
        assert AbelianGroup((3,)).expression() == "{C3}"


class TestSubgroups:
    def test_c7_has_two(self):
        subs = all_subgroups(AbelianGroup((7,)))
        assert sorted(len(s.members) for s in subs) == [1, 7]

    def test_c3_has_two(self):
        subs = all_subgroups(AbelianGroup((3,)))
        assert sorted(len(s.members) for s in subs) == [1, 3]

    def test_c5xc5_has_eight(self):
        g = AbelianGroup((5, 5))
        subs = all_subgroups(g)
        sizes = sorted(len(s.members) for s in subs)
        assert sizes == [1, 5, 5, 5, 5, 5, 5, 25]
        minimal = minimal_nontrivial_subgroups(g)
        assert len(minimal) == 6
        assert all(len(s.members) == 5 for s in minimal)

    @pytest.mark.parametrize(
        "factors",
        [(2, 2), (3, 3), (5, 5), (4, 6), (2, 2, 2), (12,), (7, 7), (2, 4, 3)],
    )
    def test_minimal_subgroups_match_the_subgroup_filter(self, factors):
        g = AbelianGroup(factors)
        expected = [s for s in all_subgroups(g) if is_prime(s.order)]
        assert minimal_nontrivial_subgroups(g) == expected

    def test_c2xc2xc2_counts_all_ranks(self):
        subs = all_subgroups(AbelianGroup((2, 2, 2)))
        # rank-3 elementary abelian: 1 + 7 + 7 + 1 subgroups
        assert len(subs) == 16

    def test_subgroup_generated_closure(self):
        g = AbelianGroup((4, 6))
        sub = subgroup_generated(g, [g.index((2, 3))])
        members = sorted(sub.members)
        for i in members:
            for j in members:
                assert g.mul(i, j) in sub.members

    def test_cap(self):
        with pytest.raises(SizeLimitError):
            all_subgroups(AbelianGroup((2,) * 13), cap=4096)


class TestFrobeniusOrbits:
    def test_known_counts(self):
        assert frobenius_orbit_count(AbelianGroup((3,)), 2) == 2
        assert frobenius_orbit_count(AbelianGroup((5, 5)), 2) == 7
        assert frobenius_orbit_count(AbelianGroup((5, 5)), 3) == 7
        assert frobenius_orbit_count(AbelianGroup((5, 5)), 13) == 7
        assert frobenius_orbit_count(AbelianGroup((7,)), 5) == 2
        assert frobenius_orbit_count(AbelianGroup((3,)), 5) == 2
        assert frobenius_orbit_count(AbelianGroup((2,)), 3) == 2
        assert frobenius_orbit_count(AbelianGroup((4,)), 3) == 3
        assert frobenius_orbit_count(AbelianGroup((2, 2)), 3) == 4

    def test_trivial_group_single_orbit(self):
        assert frobenius_orbit_count(TRIVIAL_GROUP, 5) == 1

    def test_non_coprime_rejected(self):
        with pytest.raises(UnsupportedError):
            frobenius_orbit_count(AbelianGroup((6,)), 3)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            frobenius_orbit_count(AbelianGroup((5,)), 4)

    def test_orbits_partition_the_group(self):
        rng = random.Random(99)
        for _ in range(50):
            factors = tuple(
                rng.choice([2, 3, 4, 5, 7]) for _ in range(rng.randrange(1, 3))
            )
            g = AbelianGroup(factors)
            p = rng.choice([2, 3, 5, 7, 11])
            if any(n % p == 0 for n in factors):
                continue
            count = frobenius_orbit_count(g, p)
            # independent recount: follow g -> g^p from every start
            seen = set()
            orbits = 0
            for idx in range(g.order):
                if idx in seen:
                    continue
                orbits += 1
                cur = idx
                while cur not in seen:
                    seen.add(cur)
                    cur = g.power(cur, p)
            assert count == orbits
