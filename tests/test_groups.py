"""Abelian groups, subgroup enumeration, and Frobenius orbit counting."""

import random
from math import gcd

import pytest

from idemlift.errors import SizeLimitError, UnsupportedError
from idemlift.groups import (
    AbelianGroup,
    TRIVIAL_GROUP,
    all_subgroups,
    frobenius_orbit_count,
    group_from_factors,
    order_q_subgroups,
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
            assert g.mul(idx, g.power(idx, g.order - 1)) == 0
            assert g.mul(idx, 0) == idx

    def test_mul_matches_exponent_addition(self):
        rng = random.Random(88)
        g = AbelianGroup((3, 4))
        for _ in range(100):
            i, j = rng.randrange(12), rng.randrange(12)
            ei, ej = g.exponents(i), g.exponents(j)
            expected = tuple((a + b) % n for a, b, n in zip(ei, ej, g.factors))
            assert g.exponents(g.mul(i, j)) == expected

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
        direct = order_q_subgroups(g)
        assert len(direct) == 6
        assert all(len(s.members) == 5 for s in direct)

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
    def test_order_q_subgroups_match_the_subgroup_filter(self, q):
        # the q + 1 subgroups built from their generators are exactly the
        # prime-order subgroups that the closure finds, members sorted
        g = AbelianGroup((q, q))
        direct = order_q_subgroups(g)
        assert all(s.group == g and s.members == tuple(sorted(s.members)) for s in direct)
        expected = {s.members for s in all_subgroups(g) if is_prime(s.order)}
        assert len(direct) == q + 1 and {s.members for s in direct} == expected
        for s in direct:
            assert s.members == subgroup_generated(g, s.generators).members

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
            all_subgroups(AbelianGroup((2,) * 13))


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

    def test_degree_counts_orbits_of_g_to_the_q(self):
        # q = p^d: 4 = 1 mod 3, 8 = 1 mod 7, 4 has order 3 mod 7, 4 = -1 mod 5
        assert frobenius_orbit_count(AbelianGroup((3,)), 2, degree=2) == 3
        assert frobenius_orbit_count(AbelianGroup((7,)), 2, degree=3) == 7
        assert frobenius_orbit_count(AbelianGroup((7,)), 2, degree=2) == 3
        assert frobenius_orbit_count(AbelianGroup((5, 5)), 2, degree=2) == 13
        assert frobenius_orbit_count(AbelianGroup((4,)), 3, degree=2) == 4
        assert frobenius_orbit_count(AbelianGroup((7, 7)), 2, degree=1) == 17
        assert frobenius_orbit_count(TRIVIAL_GROUP, 2, degree=3) == 1
        with pytest.raises(UnsupportedError):
            frobenius_orbit_count(AbelianGroup((6,)), 3, degree=2)
        # degree 0 would make the step 1 (|G| orbits), a negative one an inverse
        assert frobenius_orbit_count(AbelianGroup((5,)), 2, degree=1) == 2
        for degree in (0, -1, -2):
            with pytest.raises(ValueError, match=f"degree >= 1, got {degree}"):
                frobenius_orbit_count(AbelianGroup((5,)), 2, degree=degree)
            with pytest.raises(ValueError, match="degree >= 1"):
                frobenius_orbit_count(TRIVIAL_GROUP, 2, degree=degree)

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
            assert frobenius_orbit_count(g, p) == _walked_orbits(g, p)

    @pytest.mark.parametrize(
        "factors",
        [(2,) * 6, (4, 4, 4), (64,), (7, 7), (3, 9), (8, 8), (2, 6)],
        ids=lambda fs: "x".join(f"C{n}" for n in fs),
    )
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 193, 65537, 2**64 - 59])
    def test_closed_form_matches_the_walk(self, factors, p):
        # where p divides |G|, both count on the p'-part, as
        # ``GroupRing._components`` does
        group = _p_prime_part(factors, p)
        for degree in (1, 2, 3):
            assert frobenius_orbit_count(group, p, degree) == _walked_orbits(group, p**degree)

    def test_closed_form_visits_no_group_element(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a group element was visited")

        for name in ("mul", "power", "exponents", "index"):
            monkeypatch.setattr(AbelianGroup, name, forbidden)
        assert frobenius_orbit_count(AbelianGroup((251, 251)), 2) == 1261
        assert frobenius_orbit_count(AbelianGroup((7, 7)), 2) == 17


def _walked_orbits(group: AbelianGroup, q: int) -> int:
    """Orbits of g -> g^q on the group, followed from every start."""
    seen, orbits = set(), 0
    for start in range(group.order):
        if start not in seen:
            orbits += 1
            x = start
            while x not in seen:
                seen.add(x)
                x = group.power(x, q)
    return orbits


def _p_prime_part(factors, p: int) -> AbelianGroup:
    """G_p': every cyclic factor without its p-part, the trivial ones dropped."""
    coprime = [n // gcd(n, p**n.bit_length()) for n in factors]
    return AbelianGroup(tuple(n for n in coprime if n > 1))
