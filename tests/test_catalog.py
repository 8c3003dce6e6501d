"""Idempotent family providers, full enumeration, and the CRT combiners.

Every enumeration route is held against the brute-force oracle wherever
the carrier is small enough to scan; the combiners are additionally held
against each other (summed vs power form) and against frozen values.
"""

import re

import pytest

import idemlift.catalog as catalog
from idemlift.catalog import (
    brute_force_idempotents,
    crt_combine,
    crt_combine_powerform,
    cyclic_base_idempotents,
    enumerate_idempotents,
    frobenius_idempotents,
    hat_family,
    poly_crt_combine,
)
from idemlift.errors import SizeLimitError, UnsupportedError, VerificationError
from idemlift.group_rings import GroupRing, Ring
from idemlift.groups import AbelianGroup, TRIVIAL_GROUP
from idemlift.oracle import brute_force_scan
from idemlift.parsing import build_ring
from idemlift.polynomials import frobenius_fixed_basis
from idemlift.quotients import QuotientRing, ResidueRing, gaussian_ring


def _vectors(elems):
    return sorted(x.coeff_vector() for x in elems)


class TestBruteForceFamilies:
    def test_z12(self):
        fam = brute_force_idempotents(ResidueRing(12))
        assert _vectors(fam.members) == [(0,), (1,), (4,), (9,)]
        assert fam.count == 4
        assert fam.provenance == "brute-force"
        assert _vectors(fam.primitive) == [(4,), (9,)]

    def test_atoms_of_f2c3(self):
        ring = GroupRing(ResidueRing(2), AbelianGroup((3,)))
        fam = brute_force_idempotents(ring)
        assert fam.count == 4
        assert _vectors(fam.primitive) == [(0, 1, 1), (1, 1, 1)]

    def test_zero_ring(self):
        fam = brute_force_idempotents(ResidueRing(1))
        assert fam.count == 1
        assert fam.primitive == ()

    def test_scan_that_is_not_a_boolean_algebra_rejected(self, monkeypatch):
        # 8 of the 16 idempotents of Z(210): 0, 1, the four prime
        # components e2 = 105, e3 = 70, e5 = 126, e7 = 120, e2 + e3 = 175
        # and e5 + e7 = 36.  Eight is 2^3, but these are not the eight sums
        # of any three orthogonal idempotents.
        import idemlift.catalog as catalog

        ring = ResidueRing(210)
        scan = [ring.from_int(v) for v in (0, 1, 36, 70, 105, 120, 126, 175)]
        monkeypatch.setattr(catalog, "brute_force_scan", lambda ring, cap: scan)
        with pytest.raises(VerificationError, match="not the Boolean algebra"):
            brute_force_idempotents(ring)

    def test_atoms_of_a_large_scan_are_certified(self, monkeypatch):
        # the scan is fed the pipeline's own 16,384-member listing; its 14
        # atoms are found by refinement, with no cap on the scan's size
        import idemlift.catalog as catalog

        pipeline = enumerate_idempotents(build_ring("Z(4095){C4}"))
        assert pipeline.count == 2**14
        monkeypatch.setattr(
            catalog, "brute_force_scan", lambda ring, cap: list(pipeline.members)
        )
        fam = brute_force_idempotents(pipeline.ring)
        assert fam.primitive == pipeline.primitive
        assert fam.members == pipeline.members

    def test_scan_size_not_a_power_of_two_rejected(self, monkeypatch):
        import idemlift.catalog as catalog

        ring = ResidueRing(12)
        scan = [ring.from_int(v) for v in (0, 1, 4)]
        monkeypatch.setattr(catalog, "brute_force_scan", lambda ring, cap: scan)
        with pytest.raises(VerificationError, match="not a power of 2"):
            brute_force_idempotents(ring)


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
        assert _vectors(fam.members) == _vectors(brute_force_scan(fam.ring))

    def test_non_semisimple_matches_oracle(self):
        for n, p in ((3, 3), (6, 3), (4, 2)):
            fam = cyclic_base_idempotents(n, p)
            assert fam.provenance == "factorization"
            assert _vectors(fam.members) == _vectors(brute_force_scan(fam.ring))

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            cyclic_base_idempotents(3, 4)

    def test_trivial_group_rejected_before_any_ring(self, monkeypatch):
        # C_1 is no cyclic factor: Z(p){} is no ring expression build_ring reads
        import idemlift.catalog as catalog

        monkeypatch.setattr(catalog, "GroupRing", None)
        monkeypatch.setattr(catalog, "ResidueRing", None)
        with pytest.raises(ValueError, match=r"^cyclic factors must be >= 2, got \(1,\)$"):
            cyclic_base_idempotents(1, 5)


def _over(p, q, *factors):
    """(F_p[x]/(q)) G, or F_p G when q is None."""
    base = ResidueRing(p) if q is None else QuotientRing(p, q)
    return GroupRing(base, AbelianGroup(factors))


def _rref(rows, p):
    """The reduced row-echelon form of the rows mod p, zero rows dropped."""
    rows, out = [[v % p for v in row] for row in rows], []
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((row for row in rows if row[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        pivot = [v * pow(pivot[col], -1, p) % p for v in pivot]
        rows, out = ([[(a - row[col] * b) % p for a, b in zip(row, pivot)] for row in block]
                     for block in (rows, out))
        out.append(pivot)
    return out


class TestFrobeniusIdempotents:
    @pytest.mark.parametrize(
        "ring",
        [
            _over(2, None, 7),
            _over(5, None, 6),
            _over(2, None, 4),
            _over(3, None, 9),
            _over(3, None, 6),
            _over(2, None, 2, 2),
            _over(2, None, 4, 2),
            _over(3, None, 3, 2),
            _over(2, None, 3, 3),
            _over(2, None, 2, 2, 2),
            _over(3, None, 2, 2, 2),
            _over(2, None, 3, 2, 2),
            _over(2, (1, 1, 1), 3),
            _over(2, (1, 1, 1), 2),
            _over(2, (1, 1, 1), 5),
            _over(2, (1, 1, 1), 6),
            _over(2, (1, 1, 0, 1), 3),
            _over(3, (1, 0, 1), 4),
            _over(3, (1, 0, 1), 2, 2),
            _over(3, (1, 0, 1), 3),
        ],
        ids=lambda r: r.expression(),
    )
    def test_matches_oracle(self, ring):
        fam = frobenius_idempotents(ring)
        assert fam.provenance == "factorization"
        assert _vectors(fam.members) == _vectors(brute_force_scan(ring, cap=2**16))

    @pytest.mark.parametrize(
        "factors, p",
        [((3,), 2), ((5,), 2), ((7,), 3), ((2, 2), 3), ((3, 3), 2), ((3, 3), 5), ((5, 5), 2)],
    )
    def test_agrees_with_hat_family(self, factors, p):
        hat = hat_family(AbelianGroup(factors), p)
        frob = frobenius_idempotents(hat.ring)
        assert _vectors(frob.primitive) == _vectors(hat.primitive)
        assert _vectors(frob.members) == _vectors(hat.members)

    def test_count_only(self, monkeypatch):
        import idemlift.catalog as catalog

        def forbidden(*args):
            raise AssertionError("E listed for a count")

        monkeypatch.setattr(catalog, "_subset_sums", forbidden)
        fam = frobenius_idempotents(_over(1009, None, 16))
        assert fam.count == 2**16 and len(fam.primitive) == 16

    def test_split_by_characters_not_by_zeros(self, monkeypatch):
        # F_1013 C16 is not split (16 does not divide 1012): its 8 components
        # differ in the quadratic character of h + a for a few shifts a, at
        # O(log p) products each; telling them apart only where h + a is 0
        # would walk hundreds of shifts
        calls = []
        real = Ring.mul

        def counting(self, a, b):
            calls.append(None)
            return real(self, a, b)

        monkeypatch.setattr(Ring, "mul", counting)
        assert len(frobenius_idempotents(_over(1013, None, 16)).primitive) == 8
        # the old bound, 188, counted the products when one combination of
        # the basis split 1 first
        assert len(calls) <= 481

    def test_split_pieces_are_not_refined(self, monkeypatch):
        # F_65521 C64 has 32 components (64 does not divide 65520).  A piece
        # e with e * f = e lies under f and is kept without the products by
        # the other members of f, and the scalar null vector splits nothing;
        # multiplying every piece by every member takes 10,028 products.  The
        # old bound, 944, counted the products when one combination of the
        # basis split 1 first (1,071 without the break)
        calls = []
        real = Ring.mul

        def counting(self, a, b):
            calls.append(None)
            return real(self, a, b)

        monkeypatch.setattr(Ring, "mul", counting)
        assert len(frobenius_idempotents(_over(65521, None, 64)).primitive) == 32
        assert len(calls) <= 7634

    @pytest.mark.parametrize(
        "ring",
        [
            _over(2, None, 4),
            _over(3, None, 6),
            _over(2, None, 2, 6),
            _over(3, None, 2, 2, 2, 2, 2, 2),
            _over(2, None, 2, 2, 2, 2, 2, 2),
            _over(5, None, 5, 5),
            _over(7, None, 3, 7),
            _over(2, None, 7, 7),
            _over(2, None, 63),
            _over(193, None, 64),
        ],
        ids=lambda r: r.expression(),
    )
    def test_orbit_sums_span_the_fixed_space(self, ring):
        # over F_p, p dividing |G| or not, the orbit sums of g -> g^p on the
        # p'-elements span the null space of Frob - I on F_p G, and they are
        # the basis its elimination gives, in its order, so the splitter
        # makes the products it made from that basis
        p, group = ring.coefficient_modulus, ring.group
        null = frobenius_fixed_basis((0,), p, [group.power(g, p) for g in range(group.order)])
        sums = [list(h.coeff_vector()) for h in catalog._orbit_sums(ring, p)]
        assert _rref(sums, p) == _rref(null, p)
        assert sums == null

    def test_dimension_cap(self):
        assert frobenius_idempotents(_over(2, None, 64)).count == 2
        with pytest.raises(SizeLimitError):
            frobenius_idempotents(_over(2, None, 65))
        with pytest.raises(SizeLimitError):
            frobenius_idempotents(_over(2, (1, 1, 1), 33))

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            frobenius_idempotents(_over(4, None, 3))

    @pytest.mark.parametrize("q", [(1, 0, 1), (1, 2, 1)], ids=["(x + 585)(x + 664)", "(x + 1)^2"])
    def test_base_that_is_no_field_rejected(self, q):
        # the certificate's count is a field's: over F_1249[x]/(x^2 + 1) =
        # F_1249^2 it would be 3 where C3 gives 6 components, and the three
        # character idempotents over F_1249^2 would pass it unsplit
        with pytest.raises(ValueError, match="requires a field"):
            frobenius_idempotents(_over(1249, q, 3))
        assert enumerate_idempotents(_over(1249, q, 3)).count == 2 ** (6 if q[1] == 0 else 3)


_P64 = 2**64 - 59


class TestBasisRoute:
    """Every ring that is not split (exp(G) not dividing q - 1) takes one
    path: B's basis less the scalars, refined by ``_splitting_families``
    through ``_refine``.  Its primitives are held against the factorization
    of x^n - 1, against B's basis from Frob - I, and against the oracle."""

    # (n, p): p dividing n or not, p from 2 to 2^64 - 59
    CYCLIC = [
        (3, 2), (5, 2), (7, 2), (9, 2), (12, 2), (15, 2), (21, 2), (27, 2),
        (5, 3), (6, 3), (7, 3), (10, 3), (13, 3), (16, 3), (18, 3),
        (8, 5), (12, 5), (25, 5), (9, 7), (14, 7), (24, 7), (49, 7),
        (4, 11), (7, 11), (9, 11), (11, 13), (15, 17), (20, 31), (7, 41), (8, 103),
        (16, 233), (32, 1019), (16, 1031), (64, 65521), (9, 1000003),
        (12, 2**61 - 1), (3, _P64), (7, _P64), (16, _P64),
    ]

    @pytest.mark.parametrize("n, p", CYCLIC)
    def test_cyclic_matches_the_factorization_of_x_n_minus_1(self, n, p):
        # F_p C_n is F_p[x]/(x^n - 1), g^i for x^i: the poly route splits it
        # by Berlekamp's factorization, with no group ring product
        ring = _over(p, None, n)
        assert catalog._characters(ring) is None
        poly = poly_crt_combine(p, (p - 1,) + (0,) * (n - 1) + (1,))
        assert _vectors(frobenius_idempotents(ring).primitive) == _vectors(poly.primitive)

    RINGS = [
        "Z(2){C7}", "Z(11){C3}", "Z(11){C4}", "Z(17){C6}", "Z(41){C7}", "Z(41){C9}",
        "Z(67){C8}", "Z(233){C16}", "Z(281){C16}", "Z(367){C32}", f"Z({_P64}){{C7}}",
        "Z(2){C2xC6}", "Z(2){C3xC3xC3}", "Z(3){C3xC6}", "Z(3){C2xC2xC4}", "Z(5){C3xC3}",
        "Z(5){C5xC4}", "Z(7){C3xC9}", "Z(11){C3xC5}", "Z(43){C2xC4}", "Z(103){C4xC4}",
        "Z(127){C4xC4}", "Z(199){C5xC5}", "Z(211){C2xC2xC4}", f"Z({_P64}){{C3xC3}}",
        "Z(3)[i]{C5}", "Z(3)[i]{C3xC4}", "Z(7)[i]{C5}", "Z(47)[i]{C9}", "Z(59)[i]{C7}",
        "Z(83)[i]{C13}", "Z(1000003)[i]{C5}", "Z(2)[x]/(1 + x + x^2){C5}",
        "Z(2)[x]/(1 + x + x^2){C2xC3}", "Z(5)[x]/(2 + x^2){C7}", "Z(47)[x]/(2 + x^2){C5}",
        "Z(2)[x]/(1 + x + x^3){C9}", "Z(13)[x]/(2 + x^3){C7}", "Z(2)[x]/(1 + x + x^4){C7}",
    ]

    @pytest.mark.parametrize("expr", RINGS)
    def test_each_primitive_spans_one_line_of_the_fixed_space(self, expr):
        # B, the fixed space of a -> a^p, is F_p^k: e is primitive exactly
        # when e * h is an F_p-multiple of e for every h in B.  B's basis is
        # built here from Frob - I, also over F_p, where the route takes
        # orbit sums instead
        ring = build_ring(expr)
        p, group = ring.coefficient_modulus, ring.group
        assert catalog._characters(ring) is None
        images = [group.power(g, p) for g in range(group.order)]
        basis = [ring.from_coeffs(v) for v in frobenius_fixed_basis(ring._shape[1], p, images)]
        primitive = frobenius_idempotents(ring).primitive
        assert len(primitive) == len(basis) == ring._components
        for e in primitive:
            v = e.coeff_vector()
            i = next(i for i, c in enumerate(v) if c)
            for h in basis:
                w = (e * h).coeff_vector()
                c = w[i] * pow(v[i], -1, p) % p
                assert w == tuple(c * x % p for x in v), (e, h)

    @pytest.mark.parametrize(
        "expr",
        ["Z(2){C9}", "Z(2){C15}", "Z(2){C2xC2xC3}", "Z(3){C5}", "Z(3){C8}", "Z(3){C10}",
         "Z(5){C3}", "Z(7){C4}", "Z(11){C4}", "Z(2)[x]/(1 + x + x^2){C7}", "Z(3)[i]{C5}"],
    )
    def test_matches_oracle(self, expr):
        ring = build_ring(expr)
        assert catalog._characters(ring) is None
        fam = frobenius_idempotents(ring)
        assert _vectors(fam.members) == _vectors(brute_force_scan(ring, cap=2**16))

    def test_refine_keeps_a_piece_under_a_member_whole(self, monkeypatch):
        # F_2 C7 has components a, b, c: {a + b, c} splits 1 in two products,
        # then {b + c, a} splits a + b in two and keeps c after one, c * (b + c)
        a, b, c = frobenius_idempotents(build_ring("Z(2){C7}")).primitive
        ring, calls = a.ring, []
        real = Ring.mul
        monkeypatch.setattr(Ring, "mul", lambda self, x, y: calls.append(None) or real(self, x, y))
        families = iter([[a + b, c], [b + c, a]])
        assert catalog._refine(ring, families, 3) == [b, a, c]
        assert len(calls) == 5

    def test_refine_refuses_families_that_run_out(self):
        a, b, c = frobenius_idempotents(build_ring("Z(2){C7}")).primitive
        with pytest.raises(VerificationError, match="split 1 into 2, not 3, pieces"):
            catalog._refine(a.ring, iter([[a + b, c]]), 3)

    def test_refine_of_the_zero_ring(self):
        assert catalog._refine(ResidueRing(1), iter([]), 0) == []


class TestCharacters:
    """Where exp(G) = e divides q - 1, F_q G is split and its primitives are
    its character idempotents, built with products in F_q alone; they go to
    the same certificate as every other route's."""

    GRID = [
        "Z(7){C3}", "Z(13){C4}", "Z(11){C5}", "Z(1009){C7}", "Z(17){C8}", "Z(257){C16}",
        "Z(97){C32}", "Z(193){C64}", "Z(13){C2xC6}", "Z(1021){C5xC5}", "Z(5){C2xC2xC4}",
        "Z(17){C2xC2xC2xC4}", "Z(3){C2xC2xC2xC2xC2}", "Z(7){C2xC2xC2xC2xC2xC2}",
        "Z(4611686018427388039){C6}", "Z(18446744073709551557){C4}",
        "Z(18446744073709551557){C2xC4}", "Z(7)[i]{C8}", "Z(11)[i]{C3}", "Z(3)[i]{C8}",
        "Z(5)[x]/(2 + x^2){C3xC3}", "Z(2)[x]/(1 + x + x^4){C15}",
        "Z(2)[x]/(1 + x + x^2){C3xC3}",
    ]

    @pytest.mark.parametrize("expr", GRID)
    def test_equals_the_basis_family_splitter(self, monkeypatch, expr):
        ring = build_ring(expr)
        assert len(catalog._characters(ring)) == ring.group.order == ring._components
        fam = frobenius_idempotents(ring)
        monkeypatch.setattr(catalog, "_characters", lambda ring: None)
        assert _vectors(frobenius_idempotents(ring).primitive) == _vectors(fam.primitive)

    @pytest.mark.parametrize("expr", ["Z(5){C4}", "Z(13){C3}", "Z(5){C2xC2}", "Z(3)[i]{C4}"])
    def test_matches_oracle(self, expr):
        ring = build_ring(expr)
        assert catalog._characters(ring) is not None
        fam = frobenius_idempotents(ring)
        assert _vectors(fam.members) == _vectors(brute_force_scan(ring))

    @pytest.mark.parametrize(
        "expr, tried",
        [
            # 1 and 2 (of order 8 mod 17) give z of order 1 and 8; 3 is a
            # primitive root
            ("Z(17){C16}", [[1], [2], [3]]),
            # over F_49, i has order 4 and 1 + i order 24, so z = y^6 has
            # order 2 and 4; 2 + i has order 48
            ("Z(7)[i]{C8}", [[0, 1], [1, 1], [2, 1]]),
        ],
    )
    def test_search_passes_over_candidates_of_lower_order(self, monkeypatch, expr, tried):
        ring = build_ring(expr)
        packed = []
        real = Ring.pack
        monkeypatch.setattr(
            Ring, "pack", lambda self, cs: (self is ring.base and packed.append(list(cs))) or real(self, cs)
        )
        assert len(frobenius_idempotents(ring).primitive) == ring.group.order
        assert packed == tried

    NOT_SPLIT = ["Z(11){C3}", "Z(2){C7}", "Z(3){C6}", "Z(7)[i]{C5}", "Z(17){C6}"]

    @pytest.mark.parametrize("expr", GRID[:8] + ["Z(1009)[x]/(3 + 2*x + x^5 + x^8){C3}", "Z(5){C2xC2}"])
    def test_split_rings_build_no_fixed_space(self, monkeypatch, expr):
        # neither B's basis nor its splitting families are made for a split
        # ring, whichever public function it reaches the splitter from
        def forbidden(*args):
            raise AssertionError("the fixed space was built for a split ring")

        for name in ("_orbit_sums", "frobenius_fixed_basis", "_splitting_families"):
            monkeypatch.setattr(catalog, name, forbidden)
        ring = build_ring(expr)
        assert enumerate_idempotents(ring).count > 1  # certified, or it raises
        if isinstance(ring.base, ResidueRing):
            assert len(frobenius_idempotents(ring).primitive) == ring.group.order

    @pytest.mark.parametrize("expr", NOT_SPLIT)
    def test_other_rings_build_the_fixed_space(self, monkeypatch, expr):
        def forbidden(*args):
            raise AssertionError("the fixed space was built")

        for name in ("_orbit_sums", "frobenius_fixed_basis", "_splitting_families"):
            monkeypatch.setattr(catalog, name, forbidden)
        with pytest.raises(AssertionError, match="the fixed space was built"):
            frobenius_idempotents(build_ring(expr))


class TestHatFamily:
    def test_c5xc5_over_2_3_13(self):
        for p in (2, 3, 13):
            fam = hat_family(AbelianGroup((5, 5)), p)
            assert fam.provenance == "hat-family"
            assert len(fam.primitive) == 7
            assert fam.count == 128

    def test_rank1_c3_over_f2(self):
        fam = hat_family(AbelianGroup((3,)), 2)
        assert _vectors(fam.primitive) == [(0, 1, 1), (1, 1, 1)]
        assert _vectors(fam.members) == _vectors(
            brute_force_scan(GroupRing(ResidueRing(2), AbelianGroup((3,))))
        )

    def test_certified_once(self, monkeypatch):
        import idemlift.catalog as catalog

        calls = []
        real = catalog.verify_family

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(catalog, "verify_family", counting)
        fam = hat_family(AbelianGroup((5, 5)), 2)
        assert len(calls) == 1

    def test_certification_failure_c7_over_f2(self):
        # the orbit count is 3, the two-member candidate cannot be complete
        with pytest.raises(UnsupportedError):
            hat_family(AbelianGroup((7,)), 2)

    def test_certification_failure_c5xc5_over_f11(self):
        # 11 = 1 mod 5, so the power map is the identity: 25 components
        with pytest.raises(UnsupportedError):
            hat_family(AbelianGroup((5, 5)), 11)

    def test_size_mismatch_rejected_before_any_product(self, monkeypatch):
        import idemlift.catalog as catalog

        def forbidden(*args, **kwargs):
            raise AssertionError("work done on a family of the wrong size")

        monkeypatch.setattr(catalog, "verify_family", forbidden)
        monkeypatch.setattr(catalog, "_subset_sums", forbidden)
        monkeypatch.setattr(catalog, "order_q_subgroups", forbidden)
        monkeypatch.setattr(Ring, "mul", forbidden)
        with pytest.raises(UnsupportedError, match="size 7 vs 25 components"):
            hat_family(AbelianGroup((5, 5)), 11)
        with pytest.raises(UnsupportedError, match="size 2 vs 3 components"):
            hat_family(AbelianGroup((7,)), 2)

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
        fam = enumerate_idempotents(ResidueRing(7))
        assert _vectors(fam.members) == [(0,), (1,)]

    def test_hat_preferred_when_certified(self):
        ring = GroupRing(ResidueRing(3), AbelianGroup((2, 2)))
        fam = enumerate_idempotents(ring)
        assert fam.provenance == "hat-family"
        assert fam.count == 16
        assert _vectors(fam.members) == _vectors(brute_force_scan(ring))

    def test_cyclic_fallback_when_hat_fails(self):
        ring = GroupRing(ResidueRing(2), AbelianGroup((7,)))
        fam = enumerate_idempotents(ring)
        assert fam.provenance == "factorization"
        assert fam.count == 8
        assert _vectors(fam.members) == _vectors(brute_force_scan(ring))

    def test_cyclic_non_prime_order(self):
        ring = GroupRing(ResidueRing(3), AbelianGroup((4,)))
        fam = enumerate_idempotents(ring)
        assert fam.provenance == "factorization"
        assert fam.count == 8

    def test_frobenius_fallback_non_semisimple(self):
        ring = GroupRing(ResidueRing(2), AbelianGroup((2,)))
        fam = enumerate_idempotents(ring)
        assert fam.provenance == "factorization"
        assert _vectors(fam.members) == [(0, 0), (1, 0)]


class TestPolyCrtCombine:
    def test_gaussian_f5_matches_closed_form(self):
        fam = poly_crt_combine(5, (1, 0, 1))
        assert _vectors(fam.members) == [(0, 0), (1, 0), (3, 1), (3, 4)]
        assert fam.provenance == "crt-combined"

    def test_irreducible_modulus_gives_field(self):
        fam = poly_crt_combine(3, (1, 0, 1))
        assert _vectors(fam.members) == [(0, 0), (1, 0)]
        assert fam.provenance == "factorization"

    def test_square_linear_factor_with_group(self):
        # (F2[x]/((x+1)^2)) C3: 64-element carrier, |E| = 4
        fam = poly_crt_combine(2, (1, 0, 1), AbelianGroup((3,)))
        assert fam.count == 4
        assert fam.provenance == "lifted"
        assert _vectors(fam.members) == _vectors(brute_force_scan(fam.ring))

    def test_extension_field_with_group(self):
        # F_4 C_3: 4 = 1 mod 3, so three components and 8 idempotents
        fam = poly_crt_combine(2, (1, 1, 1), AbelianGroup((3,)))
        assert fam.count == 8
        assert _vectors(fam.members) == _vectors(brute_force_scan(fam.ring))

    def test_extension_field_trivial_group_fine(self):
        fam = poly_crt_combine(2, (1, 1, 1), TRIVIAL_GROUP)
        assert _vectors(fam.members) == [(0, 0), (1, 0)]

    def test_mixed_factors_against_oracle(self):
        # x^3 + x over F5 = x (x+2)(x+3): three linear factors
        fam = poly_crt_combine(5, (0, 1, 0, 1))
        assert fam.count == 8
        assert _vectors(fam.members) == _vectors(brute_force_scan(fam.ring))


class TestCrtCombine:
    def test_z200c3_full_table(self):
        fam = crt_combine(200, AbelianGroup((3,)))
        assert fam.count == 16
        assert fam.provenance == "crt-combined"
        assert len(fam.primitive) == 4
        assert _vectors(fam.members) == _vectors(
            brute_force_scan(fam.ring, cap=2**23)
        )

    def test_power_form_agrees(self):
        group = AbelianGroup((3,))
        summed = crt_combine(200, group)
        powered = crt_combine_powerform(200, group)
        assert _vectors(summed.members) == _vectors(powered.members)

    def test_tampered_base_family_caught(self, monkeypatch):
        # the glue lifts what the base route hands on, uncertified; a forged
        # base primitive must fail the glued family's certification
        import idemlift.catalog as catalog

        real = catalog._base_route

        def tampered(ring):
            ring, primitive, components, provenance = real(ring)
            if ring.coefficient_modulus == 2:
                primitive = (ring.from_coeffs((1, 1, 0)),) + tuple(primitive)[1:]
            return ring, primitive, components, provenance

        monkeypatch.setattr(catalog, "_base_route", tampered)
        with pytest.raises(VerificationError, match="failed certification"):
            crt_combine(200, AbelianGroup((3,)))

    def test_power_form_members_checked_against_the_listing(self, monkeypatch):
        # the power form builds its members from the subset sums of each
        # prime's base primitives; losing one choice must not go unseen
        import idemlift.catalog as catalog

        real = catalog._subset_sums

        def one_lost(values, ring):
            sums = real(values, ring)
            if ring.coefficient_modulus == 5:
                sums[-1] = sums[0]
            return sums

        monkeypatch.setattr(catalog, "_subset_sums", one_lost)
        with pytest.raises(VerificationError, match="power-form members"):
            crt_combine_powerform(200, AbelianGroup((3,)))

    def test_powerform_cap(self):
        # 2^21 members, above the 2^16 the power form materializes
        with pytest.raises(SizeLimitError, match="the cap 65536"):
            crt_combine_powerform(936, AbelianGroup((5, 5)))

    def test_powerform_cap_checked_before_listing(self, monkeypatch):
        # F_2 C31 has 2^7 members and F_5^3 C31 2^11: 2^18 > 2^16, known
        # from the primitive families alone
        import idemlift.catalog as catalog

        calls = []
        real = catalog._subset_sums
        monkeypatch.setattr(
            catalog, "_subset_sums", lambda *args: calls.append(args) or real(*args)
        )
        with pytest.raises(SizeLimitError, match="262144"):
            crt_combine_powerform(1000, AbelianGroup((31,)))
        assert calls == []


class TestOneCertificate:
    """Routes hand on uncertified candidates and an independent count; the
    public function the caller invoked certifies its answer, and only it."""

    @pytest.fixture
    def certified(self, monkeypatch):
        import idemlift.catalog as catalog

        calls = []
        real = catalog.verify_family
        monkeypatch.setattr(
            catalog, "verify_family", lambda *a: calls.append(a[0]) or real(*a)
        )
        return calls

    @pytest.mark.parametrize(
        "expr",
        [
            "Z(12)",
            "Z(8){C3}",
            "Z(1){C3}",
            "Z(1105)[i]",
            "Z(2310)[x]/(1 + x^4)",
            "Z(221)[i]{C3}",
            "Z(30){C3xC3}",
        ],
    )
    def test_enumerate_certifies_its_answer_once(self, certified, expr):
        fam = enumerate_idempotents(build_ring(expr))
        assert len(certified) == 1
        assert certified[0] is fam.primitive

    def test_power_form_certifies_its_answer_once(self, certified):
        fam = crt_combine_powerform(200, AbelianGroup((3,)))
        assert len(certified) == 1
        assert certified[0] is fam.primitive

    @pytest.mark.parametrize(
        "expr, short", [("Z(200){C3}", 1), ("Z(221)[i]{C3}", 2), ("Z(30){C3xC3}", 1)]
    )
    def test_merged_base_primitives_refused_by_the_count(self, monkeypatch, expr, short):
        # two primitives of F_p G merged into one still give a complete,
        # orthogonal family of nonzero idempotents, one member short: only the
        # independent count tells it from the answer (integer CRT, polynomial
        # CRT and a rank-2 hat base).  Over F_13, E(F_13 C3) serves both
        # linear factors of x^2 + 1, so the glued family is two short.
        import idemlift.catalog as catalog

        real = catalog._base_route
        merged = []

        def merging(ring):
            ring, primitive, components, provenance = real(ring)
            if isinstance(ring, GroupRing) and isinstance(ring.base, ResidueRing):
                if len(primitive) > 1 and not merged:
                    merged.append(provenance)
                    primitive = [primitive[0] + primitive[1], *primitive[2:]]
            return ring, primitive, components, provenance

        monkeypatch.setattr(catalog, "_base_route", merging)
        with pytest.raises(VerificationError, match="failed certification") as err:
            enumerate_idempotents(build_ring(expr))
        assert merged
        found = re.search(
            r"idempotent=True, nonzero=True, orthogonal=True, sum_to_one=True, "
            r"size=(\d+), expected=(\d+)",
            str(err.value),
        )
        assert found and int(found[2]) == int(found[1]) + short


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
            QuotientRing(10, (1, 1, 1)),
            GroupRing(QuotientRing(2, (1, 0, 1)), AbelianGroup((3,))),
        ],
        ids=lambda r: r.expression(),
    )
    def test_matches_oracle(self, ring):
        fam = enumerate_idempotents(ring)
        assert _vectors(fam.members) == _vectors(brute_force_scan(ring))

    def test_deep_tower_group_ring_over_quotient(self):
        ring = GroupRing(QuotientRing(25, (1, 0, 1)), AbelianGroup((3,)))
        fam = enumerate_idempotents(ring)
        assert fam.count == 16
        assert len(fam.primitive) == 4

    def test_count_only_mode(self, monkeypatch):
        import idemlift.catalog as catalog

        def forbidden(*args):
            raise AssertionError("E listed for a count")

        monkeypatch.setattr(catalog, "_subset_sums", forbidden)
        ring = GroupRing(ResidueRing(936), AbelianGroup((5, 5)))
        fam = enumerate_idempotents(ring)
        assert fam.count == 2**21
        assert len(fam.primitive) == 21

    @pytest.mark.parametrize(
        "text, provenance",
        [
            ("Z(7)", "factorization"),
            ("Z(7)[i]", "factorization"),
            ("Z(5){C3xC3}", "hat-family"),
            ("Z(2){C7}", "factorization"),
            ("Z(7)[i]{C3}", "factorization"),
            ("Z(5)[i]{C3}", "crt-combined"),
            ("Z(12){C2}", "crt-combined"),
        ],
    )
    def test_answers_for_the_carrier_it_was_handed(self, text, provenance):
        ring = build_ring(text)
        fam = enumerate_idempotents(ring)
        assert fam.ring is ring
        assert fam.provenance == provenance

    def test_component_count_computed_once_per_ring(self, monkeypatch):
        import idemlift.group_rings as group_rings

        calls = []
        real = group_rings.frobenius_orbit_count
        monkeypatch.setattr(group_rings, "frobenius_orbit_count",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        ring = GroupRing(ResidueRing(2), AbelianGroup((7,)))  # hat refused, then split
        assert enumerate_idempotents(ring).count == enumerate_idempotents(ring).count == 8
        assert len(calls) == 1
        # C65 is not elementary abelian and over the splitter's dimension
        # cap: both routes refuse it before they need its count
        with pytest.raises(SizeLimitError):
            enumerate_idempotents(GroupRing(ResidueRing(2), AbelianGroup((65,))))
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "name, m, call",
        [
            ("hat_family", 4, lambda: hat_family(AbelianGroup((3,)), 4)),
            ("poly_crt_combine", 6, lambda: poly_crt_combine(6, (1, 0, 1), AbelianGroup((3,)))),
            ("frobenius_idempotents", 9, lambda: frobenius_idempotents(_over(9, None, 2))),
            ("cyclic_base_idempotents", 4, lambda: cyclic_base_idempotents(3, 4)),
        ],
    )
    def test_public_providers_refuse_a_composite_modulus(self, name, m, call):
        with pytest.raises(ValueError, match=rf"^{name} requires a prime modulus, got {m}$"):
            call()

    def test_json_shape(self):
        fam = enumerate_idempotents(ResidueRing(12))
        payload = fam.to_json_dict()
        assert payload["ring"] == "Z(12)"
        assert payload["count"] == 4
        assert sorted(payload["primitive"]) == [[4], [9]]
        assert payload["provenance"] == "crt-combined"
        assert set(payload) == {"ring", "count", "primitive", "provenance"}

    def test_members_listed_once_on_first_read(self, monkeypatch):
        import idemlift.catalog as catalog

        calls = []
        real = catalog._subset_sums
        monkeypatch.setattr(
            catalog, "_subset_sums", lambda *args: calls.append(args) or real(*args)
        )
        made, ring = [], ResidueRing(12)
        element = ring.element
        monkeypatch.setattr(ring, "element", lambda *args: made.append(args) or element(*args))
        fam = enumerate_idempotents(ring)
        assert calls == []
        before = len(made)
        assert fam.values is fam.values and fam.members is fam.members
        assert len(calls) == 1  # keys that hold their members: one pass
        assert len(made) - before == fam.count == 4  # one element per member, once

    @pytest.mark.parametrize(
        "last, message",
        [
            (lambda sums, ring: sums[0], "contains duplicates"),
            (lambda sums, ring: ring.add(sums[-1], sums[1]), "not idempotent"),
        ],
        ids=["duplicate", "not-idempotent"],
    )
    def test_listing_checks_its_members(self, monkeypatch, capsys, last, message):
        # the last subset sum is replaced; each sum is a key that holds its
        # member (over Z(30) the value itself), so the member changes with
        # it.  `list` must fail before printing anything
        import idemlift.catalog as catalog
        from idemlift.cli import main

        real = catalog._subset_sums

        def corrupted(values, ring):
            sums = real(values, ring)
            sums[-1] = last(sums, ring)
            return sums

        monkeypatch.setattr(catalog, "_subset_sums", corrupted)
        fam = enumerate_idempotents(ResidueRing(30))
        with pytest.raises(VerificationError, match=message):
            fam.members
        assert main(["list", "Z(30)"]) == 5
        out, err = capsys.readouterr()
        assert out == "" and message in err


class TestListingBlockCheck:
    """``members`` squares its values 256 at a time in one SWAR reduction
    (``Ring.square_mismatch``) and finds duplicates as equal sorted
    neighbours.  A value planted into the listing after the sort, or a sum
    duplicated, must be named wherever it sits: at the first, a middle or
    the last member, or inside a short final block (the sums cut to
    n/2 + 44, so the last block holds 44 of them when n > 256).  The rings
    cover fold masks (C3xC3), a quotient base with its sweep and ``tops``,
    a Gaussian listing of one block and one of 64 blocks."""

    RINGS = ["Z(60){C3xC3}", "Z(221)[i]{C3}", "Z(32045)[i]", "Z(4095){C4}"]
    WHERE = ["first", "middle", "last", "short-final-block"]

    @staticmethod
    def _tamper(monkeypatch, ring, kind, where):
        """Patch the listing; return the text the error must name."""
        import idemlift.catalog as catalog

        n = enumerate_idempotents(ring).count
        size = n // 2 + 44 if where == "short-final-block" else n
        at = {"first": 0, "middle": n // 2, "last": n - 1}.get(where, size - 10)
        sums = sorted(catalog._subset_sums(
            [ring.order_key(x.value) for x in enumerate_idempotents(ring).primitive], ring
        ))[:size]
        value = ring.key_values(sums)[at]
        if kind == "duplicate":
            twin = at - 1 if at else 1  # the first member is duplicated into the second
            sums[twin] = sums[at]
            named = value
        else:
            named = ring.add(value, ring.from_int(2).value)
            assert ring.mul(named, named) != named
            real = Ring.key_values

            def planted(self, keys):
                values = real(self, keys)
                values[at] = named
                return values

            monkeypatch.setattr(Ring, "key_values", planted)
        monkeypatch.setattr(catalog, "_subset_sums", lambda values, r: list(sums))
        return ring.element_text(ring.element(ring, named))

    @pytest.mark.parametrize("where", WHERE)
    @pytest.mark.parametrize("kind", ["not-idempotent", "duplicate"])
    @pytest.mark.parametrize("text", RINGS)
    def test_bad_member_named(self, monkeypatch, capsys, text, kind, where):
        from idemlift.cli import main

        ring = build_ring(text)
        named = self._tamper(monkeypatch, ring, kind, where)
        message = f"contains duplicates of {named}" if kind == "duplicate" else (
            f"claimed member {named} is not idempotent"
        )
        with pytest.raises(VerificationError) as info:
            enumerate_idempotents(ring).members
        assert str(info.value).endswith(message)
        assert main(["list", text]) == 5
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {str(info.value)}\n"

    @pytest.mark.parametrize("text", RINGS)
    def test_square_mismatch_names_the_block(self, text):
        # the block pass flags the block that holds a bad value, and only that
        # one, in full blocks and in a short final block alike
        ring = build_ring(text)
        values = [x.value for x in enumerate_idempotents(ring).members]
        bad = ring.add(values[-1], ring.from_int(2).value)
        assert ring.square_mismatch(values) is None and ring.square_mismatch([]) is None
        for cut in {len(values), len(values) // 2 + 44}:
            for at in {0, cut // 2, cut - 1}:
                tampered = values[:cut]
                tampered[at] = bad
                n = min(cut, 256)
                assert ring.square_mismatch(tampered) == at // n * n


class TestPipelineWithoutOracle:
    """Enumeration answers on every carrier the suite uses without the oracle."""

    @pytest.fixture(autouse=True)
    def no_oracle(self, monkeypatch):
        import idemlift.catalog as catalog
        import idemlift.oracle as oracle

        def forbidden(*args, **kwargs):
            raise AssertionError("the enumeration pipeline called the brute-force oracle")

        monkeypatch.setattr(catalog, "brute_force_scan", forbidden)
        monkeypatch.setattr(oracle, "brute_force_scan", forbidden)

    @pytest.mark.parametrize(
        "expr",
        [
            "Z(12)", "Z(27)", "Z(36)", "Z(200)", "Z(1)", "Z(2){C3}", "Z(5){C7}",
            "Z(5){C6}", "Z(3){C3}", "Z(3){C6}", "Z(2){C4}", "Z(5){C10}", "Z(3){C4}",
            "Z(2){C2}", "Z(3){C2xC2}", "Z(11){C5xC5}", "Z(2){C7}", "Z(200){C3}",
            "Z(8){C3}", "Z(12){C2}", "Z(10){C2xC2}", "Z(936){C5xC5}", "Z(25)[i]",
            "Z(13)[i]", "Z(5)[i]", "Z(3)[i]", "Z(10)[x]/(1 + x + x^2)",
            "Z(5)[x]/(x + x^3)", "Z(2)[i]{C3}", "Z(2)[x]/(1 + x + x^2){C3}",
            "Z(25)[i]{C3}",
        ],
    )
    def test_catalog_carriers(self, expr):
        fam = enumerate_idempotents(build_ring(expr))
        assert fam.count >= 1

    def test_criterion_7_carriers(self, monkeypatch):
        # criterion 7 falls back to the oracle where enumeration is
        # unsupported; record every such fallback while it runs.  The
        # criterion's own checks keep the real oracle.
        import test_acceptance

        monkeypatch.setattr(test_acceptance, "brute_force_scan", brute_force_scan)
        unanswered = []
        real = test_acceptance.enumerate_idempotents

        def recording(ring, *args, **kwargs):
            try:
                return real(ring, *args, **kwargs)
            except UnsupportedError:
                unanswered.append(ring.expression())
                raise

        monkeypatch.setattr(test_acceptance, "enumerate_idempotents", recording)
        test_acceptance.test_criterion_7_property_suite()
        assert unanswered == []
