"""Group-ring convolution, hat elements, and power towers."""

import random

import pytest

from idemlift.groups import AbelianGroup, all_subgroups, subgroup_generated
from idemlift.group_rings import GroupRing, pow_tower
from idemlift.polynomials import Polynomial
from idemlift.quotients import QuotientRing
from idemlift.rings import ResidueRing


def naive_convolution(ring: GroupRing, x, y):
    """O(|G|^2) double loop over flat coefficient vectors; the kernel's oracle.

    Each coefficient block is read as a polynomial and the block products
    are reduced by the base's q through Polynomial arithmetic (by x for a
    residue base), so nothing here goes through a ring's multiply kernel.
    """
    group, m, d = ring.group, ring.coefficient_modulus, ring.base.dimension
    q = ring.base.q if isinstance(ring.base, QuotientRing) else Polynomial((0, 1), m)
    a, b = x.coeff_vector(), y.coeff_vector()
    blocks_a = [Polynomial(a[i * d : (i + 1) * d], m) for i in range(group.order)]
    blocks_b = [Polynomial(b[j * d : (j + 1) * d], m) for j in range(group.order)]
    out = [Polynomial((), m) for _ in range(group.order)]
    for i, pi in enumerate(blocks_a):
        if pi.is_zero():
            continue
        for j, pj in enumerate(blocks_b):
            if pj.is_zero():
                continue
            k = group.mul(i, j)
            out[k] = out[k] + pi * pj
    flat = []
    for poly in out:
        rem = (poly % q).coeffs
        flat.extend(rem + (0,) * (d - len(rem)))
    return ring.from_coeffs(flat)


def _random_element(rng, ring: GroupRing):
    m = ring.coefficient_modulus
    return ring.from_coeffs(tuple(rng.randrange(m) for _ in range(ring.dimension)))


def _sparse_element(rng, ring: GroupRing, terms: int):
    m = ring.coefficient_modulus
    vec = [0] * ring.dimension
    for _ in range(terms):
        vec[rng.randrange(ring.dimension)] = rng.randrange(1, m)
    return ring.from_coeffs(vec)


class TestConvolution:
    def test_agrees_with_naive_loop(self):
        rng = random.Random(111)
        rings = [
            GroupRing(ResidueRing(8), AbelianGroup((3,))),
            GroupRing(ResidueRing(200), AbelianGroup((3,))),
            GroupRing(ResidueRing(7), AbelianGroup((2, 2))),
            GroupRing(ResidueRing(936), AbelianGroup((5, 5))),
            GroupRing(QuotientRing(4, Polynomial((1, 1, 1), 4)), AbelianGroup((3,))),
        ]
        for ring in rings:
            for _ in range(20):
                x = _random_element(rng, ring)
                y = _random_element(rng, ring)
                assert x * y == naive_convolution(ring, x, y)

    def test_no_table_path_agrees_with_naive_loop(self):
        # groups above the cached multiplication table's cap
        rng = random.Random(112)
        rings = [
            GroupRing(ResidueRing(6), AbelianGroup((1031,))),
            GroupRing(QuotientRing(4, Polynomial((1, 1, 1), 4)), AbelianGroup((2, 521))),
        ]
        for ring in rings:
            assert ring.group.order > 1024
            for _ in range(5):
                x = _sparse_element(rng, ring, 6)
                y = _sparse_element(rng, ring, 6)
                assert x * y == naive_convolution(ring, x, y)

    def test_identity_and_zero(self):
        ring = GroupRing(ResidueRing(12), AbelianGroup((4,)))
        rng = random.Random(222)
        for _ in range(20):
            x = _random_element(rng, ring)
            assert x * ring.one == x
            assert x * ring.zero == ring.zero

    def test_known_square_in_z8c3(self):
        ring = GroupRing(ResidueRing(8), AbelianGroup((3,)))
        u = ring.from_coeffs((0, 1, 1))
        assert (u * u).coeff_vector() == (2, 1, 1)
        assert (u**4).coeff_vector() == (6, 5, 5)

    def test_scalar_multiplication(self):
        ring = GroupRing(ResidueRing(10), AbelianGroup((3,)))
        x = ring.from_coeffs((1, 2, 3))
        assert (7 * x).coeff_vector() == (7, 4, 1)
        assert ring.from_int(7) * x == 7 * x

    def test_mismatched_carriers_rejected(self):
        a = GroupRing(ResidueRing(4), AbelianGroup((3,))).one
        b = GroupRing(ResidueRing(4), AbelianGroup((2,))).one
        with pytest.raises(ValueError):
            a * b

    def test_flat_coeff_vector_round_trip(self):
        base = QuotientRing(9, Polynomial((1, 0, 1), 9))
        ring = GroupRing(base, AbelianGroup((2,)))
        assert ring.dimension == 4
        vec = (1, 2, 3, 4)
        assert ring.from_coeffs(vec).coeff_vector() == vec


class TestHat:
    def test_hats_are_idempotent_wherever_defined(self):
        cases = [
            (GroupRing(ResidueRing(5), AbelianGroup((3,))), AbelianGroup((3,))),
            (GroupRing(ResidueRing(2), AbelianGroup((5, 5))), AbelianGroup((5, 5))),
            (GroupRing(ResidueRing(13), AbelianGroup((5, 5))), AbelianGroup((5, 5))),
            (GroupRing(ResidueRing(936), AbelianGroup((5, 5))), AbelianGroup((5, 5))),
        ]
        for ring, group in cases:
            for sub in all_subgroups(group):
                hat = ring.hat(sub)
                assert hat * hat == hat

    def test_whole_group_hat_z5c3(self):
        ring = GroupRing(ResidueRing(5), AbelianGroup((3,)))
        whole = subgroup_generated(ring.group, range(3))
        assert ring.hat(whole).coeff_vector() == (2, 2, 2)

    def test_non_invertible_order_rejected(self):
        from idemlift.errors import UnsupportedError

        ring = GroupRing(ResidueRing(2), AbelianGroup((2,)))
        whole = subgroup_generated(ring.group, [1])
        with pytest.raises(UnsupportedError):
            ring.hat(whole)


class TestPowTower:
    def test_tower_equals_flat_exponentiation(self):
        rng = random.Random(333)
        ring = GroupRing(ResidueRing(200), AbelianGroup((3,)))
        for _ in range(30):
            x = _random_element(rng, ring)
            s = rng.choice([2, 3, 5])
            count = rng.randrange(0, 5)
            if s**count > 2**20:
                continue
            assert pow_tower(x, s, count) == x ** (s**count)

    def test_tower_z125c7_example(self):
        ring = GroupRing(ResidueRing(125), AbelianGroup((7,)))
        f = ring.from_coeffs((3,) * 7)
        lifted = pow_tower(f, 5, 2)
        assert lifted.coeff_vector() == (18,) * 7


class TestText:
    def test_cyclic_text(self):
        ring = GroupRing(ResidueRing(8), AbelianGroup((3,)))
        x = ring.from_coeffs((6, 5, 5))
        assert ring.element_text(x) == "6*e + 5*g + 5*g^2"

    def test_rank2_text_skips_zero_terms(self):
        ring = GroupRing(ResidueRing(3), AbelianGroup((2, 2)))
        x = ring.from_coeffs((1, 0, 2, 1))
        assert ring.element_text(x) == "1*e + 2*(a) + 1*(a b)"

    def test_quotient_base_text_parenthesizes(self):
        base = QuotientRing(4, Polynomial((1, 1, 1), 4))
        ring = GroupRing(base, AbelianGroup((3,)))
        x = ring.from_coeffs((1, 1, 0, 0, 2, 3))
        assert ring.element_text(x) == "(1 + x)*e + 0*g + (2 + 3*x)*g^2"

    def test_reduce_to_twin(self):
        ring = GroupRing(ResidueRing(200), AbelianGroup((3,)))
        small = ring.reduce_to(5)
        assert small.coefficient_modulus == 5
        assert small.group == ring.group
        x = ring.from_coeffs((59, 83, 83))
        assert ring.reduce(x, small).coeff_vector() == (4, 3, 3)
