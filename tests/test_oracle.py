"""The vectorized brute-force scan against its pure-Python reference."""

import pytest

from idemlift.errors import SizeLimitError
from idemlift.group_rings import GroupRing
from idemlift.groups import AbelianGroup
from idemlift.oracle import brute_force_scan, brute_force_scan_slow
from idemlift.quotients import QuotientRing, ResidueRing, gaussian_ring


SMALL_RINGS = [
    ResidueRing(1),
    ResidueRing(2),
    ResidueRing(12),
    ResidueRing(27),
    ResidueRing(36),
    gaussian_ring(5),
    gaussian_ring(7),
    QuotientRing(4, (1, 1, 1)),
    QuotientRing(3, (2, 0, 0, 1)),
    GroupRing(ResidueRing(2), AbelianGroup((3,))),
    GroupRing(ResidueRing(5), AbelianGroup((3,))),
    GroupRing(ResidueRing(3), AbelianGroup((2, 2))),
    GroupRing(ResidueRing(8), AbelianGroup((3,))),
    GroupRing(QuotientRing(2, (1, 0, 1)), AbelianGroup((3,))),
]


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=lambda r: r.expression())
def test_fast_scan_matches_slow_scan(ring):
    fast = sorted(x.coeff_vector() for x in brute_force_scan(ring))
    slow = sorted(x.coeff_vector() for x in brute_force_scan_slow(ring))
    assert fast == slow


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=lambda r: r.expression())
def test_every_hit_is_idempotent_and_no_duplicates(ring):
    found = brute_force_scan(ring)
    assert len({x.coeff_vector() for x in found}) == len(found)
    for x in found:
        assert x * x == x
    # 0 and 1 always present
    vectors = {x.coeff_vector() for x in found}
    assert ring.zero.coeff_vector() in vectors
    assert ring.one.coeff_vector() in vectors


def test_count_is_power_of_two():
    for ring in SMALL_RINGS:
        n = len(brute_force_scan(ring))
        assert n & (n - 1) == 0


def test_cap_enforced():
    with pytest.raises(SizeLimitError):
        brute_force_scan(ResidueRing(3), cap=2)
    with pytest.raises(SizeLimitError):
        brute_force_scan(GroupRing(ResidueRing(200), AbelianGroup((3,))), cap=2**20)


def test_results_are_sorted_by_coefficient_vector():
    ring = ResidueRing(30)
    found = brute_force_scan(ring)
    vectors = [x.coeff_vector() for x in found]
    assert vectors == sorted(vectors)
