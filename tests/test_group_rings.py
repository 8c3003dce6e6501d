"""Group-ring convolution, hat elements, power towers, and the packed
carriers' one crossing (``embed``) and one identity (``__eq__``/``__hash__``)."""

import dis
import random

import pytest

import idemlift
from idemlift import rings
from idemlift.groups import AbelianGroup, all_subgroups, subgroup_generated
from idemlift.group_rings import GroupRing, Ring, _split
from idemlift.oracle import _structure_tensor
from idemlift.parsing import build_ring
from idemlift.quotients import QuotientRing, ResidueRing


def naive_convolution(ring: GroupRing, x, y):
    """O(|G|^2) double loop over flat coefficient vectors; the kernel's oracle.

    Each pair of coefficient blocks is multiplied as polynomials into its
    group slot, and each slot is reduced by the base's monic q by long
    division written out here (by x for a residue base), so nothing here
    goes through a ring's multiply kernel.
    """
    group, m, d = ring.group, ring.coefficient_modulus, ring.base.dimension
    if m == 1:
        return ring.zero  # every element of a ring over Z_1 is 0
    q = ring.base.q if isinstance(ring.base, QuotientRing) else (0, 1)
    a, b = x.coeff_vector(), y.coeff_vector()
    blocks_a = [a[i * d : (i + 1) * d] for i in range(group.order)]
    blocks_b = [b[j * d : (j + 1) * d] for j in range(group.order)]
    out = [[0] * (2 * d - 1) for _ in range(group.order)]
    for i, pi in enumerate(blocks_a):
        if not any(pi):
            continue
        for j, pj in enumerate(blocks_b):
            if not any(pj):
                continue
            acc = out[group.mul(i, j)]
            for s, u in enumerate(pi):
                for t, v in enumerate(pj):
                    acc[s + t] += u * v
    flat = []
    for acc in out:
        for top in range(2 * d - 2, d - 1, -1):
            c = acc[top] % m
            for k in range(d):
                acc[top - d + k] -= c * q[k]
        flat.extend(c % m for c in acc[:d])
    return ring.from_coeffs(flat)


def _random_element(rng, ring: GroupRing):
    m = ring.coefficient_modulus
    return ring.from_coeffs(tuple(rng.randrange(m) for _ in range(ring.dimension)))


def _sparse_element(rng, ring: GroupRing, terms: int):
    m = ring.coefficient_modulus
    vec = [0] * ring.dimension
    for _ in range(terms):
        vec[rng.randrange(ring.dimension)] = rng.randrange(1, m) if m > 1 else 0
    return ring.from_coeffs(vec)


class TestConvolution:
    def test_agrees_with_naive_loop(self):
        rng = random.Random(111)
        rings = [
            GroupRing(ResidueRing(8), AbelianGroup((3,))),
            GroupRing(ResidueRing(200), AbelianGroup((3,))),
            GroupRing(ResidueRing(7), AbelianGroup((2, 2))),
            GroupRing(ResidueRing(936), AbelianGroup((5, 5))),
            GroupRing(QuotientRing(4, (1, 1, 1)), AbelianGroup((3,))),
        ]
        for ring in rings:
            for _ in range(20):
                x = _random_element(rng, ring)
                y = _random_element(rng, ring)
                assert x * y == naive_convolution(ring, x, y)

    def test_no_table_path_agrees_with_naive_loop(self):
        rng = random.Random(112)
        rings = [
            GroupRing(ResidueRing(6), AbelianGroup((1031,))),
            GroupRing(QuotientRing(4, (1, 1, 1)), AbelianGroup((2, 521))),
        ]
        for ring in rings:
            assert ring.group.order > 1024
            for _ in range(5):
                x = _sparse_element(rng, ring, 6)
                y = _sparse_element(rng, ring, 6)
                assert x * y == naive_convolution(ring, x, y)

    @pytest.mark.parametrize("m", [1, 2, 6, 5**27, 2**63 - 25])
    @pytest.mark.parametrize("factors", [(), (5,), (3, 4), (2, 3, 2), (2, 2, 2, 2)])
    @pytest.mark.parametrize("poly", [None, (1, 0, 1), (3, 1, 0, 1)])
    def test_kernel_agrees_with_naive_loop(self, m, factors, poly):
        # ranks 0-4 over residue and quotient bases; 2^63 - 25 and the
        # all-(m - 1) operand give the widest slots
        base = ResidueRing(m) if poly is None else QuotientRing(m, poly)
        ring = GroupRing(base, AbelianGroup(factors))
        rng = random.Random(f"{m}:{factors}:{poly}")
        top = ring.from_coeffs((m - 1,) * ring.dimension)
        operands = [_random_element(rng, ring) for _ in range(3)]
        operands += [ring.zero, ring.one, top]
        for x in operands:
            for y in operands:
                assert x * y == naive_convolution(ring, x, y)

    def test_two_rings_of_one_shape(self):
        # two equal ring objects share the kernel's layout; a ring of the same
        # group over another modulus gets its own, and the two alternate here
        rng = random.Random(113)
        group = AbelianGroup((3, 4))
        first, second = GroupRing(ResidueRing(6), group), GroupRing(ResidueRing(6), group)
        wide = GroupRing(ResidueRing(2**63 - 25), AbelianGroup((3, 4)))
        for _ in range(5):
            x, y = _random_element(rng, first), _random_element(rng, second)
            assert x * y == y * x == naive_convolution(first, x, y)
            assert (x * y).ring is first and (y * x).ring is second
            u, v = _random_element(rng, wide), _random_element(rng, wide)
            assert u * v == naive_convolution(wide, u, v)
        assert first._layout is second._layout

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
        base = QuotientRing(9, (1, 0, 1))
        ring = GroupRing(base, AbelianGroup((2,)))
        assert ring.dimension == 4
        vec = (1, 2, 3, 4)
        assert ring.from_coeffs(vec).coeff_vector() == vec


def assert_canonical(x):
    """x's int holds its coefficients, each below m, in the layout's slots,
    every other slot is zero, and pack(unpack(x)) gives the int back."""
    ring, v = x.ring, x.value
    assert ring.pack(ring.unpack(v)) == v
    assert all(0 <= c < ring.coefficient_modulus for c in x.coeff_vector())
    if isinstance(ring, ResidueRing):
        assert v == x.coeff_vector()[0]  # Z_m holds the residue itself
    lay = ring._layout
    slots = _split(v, lay.bits // lay.slot, lay.slot)
    assert 0 <= v < 1 << lay.bits
    assert [slots[p] for p in lay.positions] == list(x.coeff_vector())
    assert sum(slots) == sum(x.coeff_vector())


class TestPackedContract:
    """Every whole-int operation against the structure constants, the
    naive convolution and coefficient-wise arithmetic, with canonical
    results."""

    @pytest.mark.parametrize(
        "m", [1, 2, 3, 2**61 - 1, 2**63 - 25, 2**64 - 59, pytest.param(10**300 + 1, id="10**300+1")]
    )
    @pytest.mark.parametrize("factors", [None, (), (5,), (3, 4), (2, 3, 2), (2, 2, 2, 2)])
    @pytest.mark.parametrize("poly", [None, (2, 1), (1, 0, 1), (3, 1, 0, 1), (1, 1, 0, 0, 0, 0, 0, 0, 1)])
    def test_operations_are_canonical_and_exact(self, m, factors, poly):
        # factors None is the base alone: Z_m or Z_m[x]/(q)
        base = ResidueRing(m) if poly is None else QuotientRing(m, poly)
        ring = base if factors is None else GroupRing(base, AbelianGroup(factors))
        rng = random.Random(f"packed:{m}:{factors}:{poly}")
        top = ring.from_coeffs((m - 1,) * ring.dimension)
        x, y = _random_element(rng, ring), _random_element(rng, ring)
        for a, b in [(x, y), (x, x), (top, top), (top, x), (ring.one, y), (ring.zero, top)]:
            product = a * b
            if ring.dimension <= 32:
                assert product.coeff_vector() == structure_product(ring, a.coeff_vector(), b.coeff_vector())
            if factors is not None:
                assert product == naive_convolution(ring, a, b)
            assert_canonical(product)
        for a, b in [(x, y), (top, top), (top, x), (ring.zero, top)]:
            va, vb = a.coeff_vector(), b.coeff_vector()
            results = [
                (a + b, [(u + v) % m for u, v in zip(va, vb)]),
                (a - b, [(u - v) % m for u, v in zip(va, vb)]),
                (-a, [-u % m for u in va]),
                (a * (m - 1), [u * (m - 1) % m for u in va]),
                (-7 * a, [u * -7 % m for u in va]),
                (a * 2**70, [u * 2**70 % m for u in va]),
            ]
            for got, want in results:
                assert got.coeff_vector() == tuple(want)
                assert_canonical(got)
        assert_canonical(top)
        assert (top - top).is_zero() and top + -top == ring.zero


@pytest.mark.parametrize("cls", [ResidueRing, QuotientRing, GroupRing])
def test_every_carrier_runs_the_one_packed_kernel(cls):
    # a carrier that defined its own kernel would bypass the checks above
    for name in ["mul", "add", "neg", "pack", "unpack", "unpack_many", "order_key",
                 "key_values", "square_mismatch", "embed", "__eq__", "__hash__",
                 "from_int", "scalar_of"]:
        assert getattr(cls, name) is getattr(Ring, name), f"{cls.__name__}.{name}"
    # m and the dimension are read from the shape that Ring.__init__ is given
    stored = {i.argval for i in dis.get_instructions(cls.__init__) if i.opname == "STORE_ATTR"}
    assert not stored & {"_shape", "coefficient_modulus", "dimension"}, cls.__name__
    # one carrier class: rings keeps the element type and no ring class
    assert idemlift.Ring is Ring
    defined = {n for n, v in vars(rings).items() if isinstance(v, type) and v.__module__ == rings.__name__}
    assert defined == {"Element", "PrimePower", "PrimePowerFactorization"}


def test_group_ring_base_has_no_group():
    inner = GroupRing(ResidueRing(5), AbelianGroup((3,)))
    with pytest.raises(ValueError, match="base has no group"):
        GroupRing(inner, AbelianGroup((2,)))


def test_scalar_of_reads_the_packed_scalar():
    gaussian, group_ring = QuotientRing(12, (1, 0, 1)), GroupRing(ResidueRing(12), AbelianGroup((3,)))
    for ring in (ResidueRing(12), gaussian, group_ring):
        assert [ring.scalar_of(ring.from_int(c)) for c in (0, 1, 11, 13)] == [0, 1, 11, 1]
        assert ring.scalar_of(-ring.one) == 11
    assert gaussian.scalar_of(gaussian.from_coeffs((3, 1))) is None
    assert group_ring.scalar_of(group_ring.from_coeffs((0, 1, 0))) is None
    assert ResidueRing(1).scalar_of(ResidueRing(1).one) is None  # 1 == 0 over Z_1


def embed_reference(x, target):
    """Block g of x's coefficients, padded with zeros, as block g of target,
    by ``from_coeffs``; a source without a group has one block."""
    cs = x.coeff_vector()
    order = x.ring.group.order if isinstance(x.ring, GroupRing) else 1
    ds = len(cs) // order
    dt = target.base.dimension if isinstance(target, GroupRing) else target.dimension
    flat = [0] * target.dimension
    for i, c in enumerate(cs):
        flat[i // ds * dt + i % ds] = c
    return target.from_coeffs(flat)


class TestEmbed:
    """``Ring.embed``, the one crossing between carriers, against a
    reference padded by hand and packed by ``from_coeffs``."""

    CASES = [
        # residue to residue of a smaller m, with and without a group
        (ResidueRing(200), ResidueRing(8)),
        (ResidueRing(7**16), ResidueRing(7)),
        (GroupRing(ResidueRing(200), AbelianGroup((3,))), GroupRing(ResidueRing(5), AbelianGroup((3,)))),
        (GroupRing(ResidueRing(7**16), AbelianGroup((32,))), GroupRing(ResidueRing(7), AbelianGroup((32,)))),
        (GroupRing(ResidueRing(3), AbelianGroup((2, 3))), GroupRing(ResidueRing(3**5), AbelianGroup((2, 3)))),
        # F_p[x]/(q) G to Z_m[x]/(f) G with deg q < deg f (a residue base has degree 1)
        (GroupRing(QuotientRing(5, (2, 1)), AbelianGroup((3, 2))),
         GroupRing(QuotientRing(25, (1, 1, 0, 1)), AbelianGroup((3, 2)))),
        (GroupRing(QuotientRing(5, (2, 0, 1)), AbelianGroup((4,))),
         GroupRing(QuotientRing(5, (1, 1, 0, 0, 1)), AbelianGroup((4,)))),
        (GroupRing(ResidueRing(3), AbelianGroup((3, 3))),
         GroupRing(QuotientRing(9, (2, 1, 1)), AbelianGroup((3, 3)))),
        (GroupRing(QuotientRing(49, (3, 1)), AbelianGroup((2, 2, 2))),
         GroupRing(QuotientRing(7, (1, 0, 1)), AbelianGroup((2, 2, 2)))),
        # a quotient or residue without a group to a group ring: block 0 only
        (QuotientRing(5, (1, 1, 1)), GroupRing(QuotientRing(5, (1, 0, 1, 0, 1)), AbelianGroup((3, 3)))),
        (QuotientRing(25, (1, 0, 1)), GroupRing(QuotientRing(5, (1, 0, 1)), AbelianGroup((5,)))),
        (ResidueRing(5), GroupRing(ResidueRing(25), AbelianGroup((4,)))),
        (ResidueRing(5), QuotientRing(25, (1, 0, 1))),
        # an equal ring (the identity), and the zero ring
        (GroupRing(QuotientRing(9, (1, 0, 1)), AbelianGroup((3, 2))),
         GroupRing(QuotientRing(9, (1, 0, 1)), AbelianGroup((3, 2)))),
        (GroupRing(ResidueRing(6), AbelianGroup((4,))), GroupRing(ResidueRing(1), AbelianGroup((4,)))),
    ]

    @pytest.mark.parametrize("source, target", CASES, ids=repr)
    def test_matches_the_padded_reference(self, source, target):
        rng = random.Random(f"embed:{source!r}:{target!r}")
        m = source.coefficient_modulus
        top = source.from_coeffs((m - 1,) * source.dimension)
        for x in [source.zero, source.one, top] + [_random_element(rng, source) for _ in range(8)]:
            got = target.embed(x)
            assert got.ring is target
            assert got == embed_reference(x, target)
            assert_canonical(got)

    def test_equal_blocks_build_no_coefficient_tuple(self, monkeypatch):
        source = GroupRing(ResidueRing(7**16), AbelianGroup((32,)))
        target = GroupRing(ResidueRing(7), AbelianGroup((32,)))
        x = _random_element(random.Random(2), source)
        want = embed_reference(x, target)

        def forbidden(*args):
            raise AssertionError("coefficient tuple built")

        for name in ("pack", "unpack", "from_coeffs"):
            monkeypatch.setattr(Ring, name, forbidden)
        assert target.embed(x).value == want.value

    @pytest.mark.parametrize(
        "source, target",
        [
            # another group, or longer blocks than the target's
            (GroupRing(ResidueRing(5), AbelianGroup((3,))), GroupRing(ResidueRing(5), AbelianGroup((2,)))),
            (GroupRing(ResidueRing(5), AbelianGroup((3,))), ResidueRing(5)),
            (QuotientRing(5, (1, 0, 1)), ResidueRing(5)),
            (GroupRing(QuotientRing(5, (1, 0, 1)), AbelianGroup((3,))), GroupRing(ResidueRing(5), AbelianGroup((3,)))),
        ],
        ids=repr,
    )
    def test_unreadable_source_rejected(self, source, target):
        with pytest.raises(ValueError):
            target.embed(source.one)


class TestCarrierIdentity:
    """Carriers are equal exactly when their canonical expressions are."""

    @pytest.mark.parametrize(
        "text",
        ["Z(12)", "Z(1)", "Z(25)[i]", "Z(1)[x]/(x)", "Z(8)[x]/(1 + x + x^2)", "Z(200){C3}",
         "Z(8)[x]/(1 + x + x^2){C5xC5}", "Z(7){C2xC3xC5}", "Z(2)[i]{C3}"],
    )
    def test_built_twice_equal_and_hash_equal(self, text):
        a, b = build_ring(text), build_ring(text)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a.one + b.one == b.from_int(2)  # elements of equal rings mix

    def test_gaussian_sugar_is_the_same_ring(self):
        a, b = build_ring("Z(5)[i]"), build_ring("Z(5)[x]/(1 + x^2)")
        assert a == b and hash(a) == hash(b)
        assert QuotientRing(5, (6, 5, 1)) == QuotientRing(5, (1, 0, 1))

    @pytest.mark.parametrize(
        "left, right",
        [("Z(5){C3}", "Z(5)[x]/(x){C3}"), ("Z(5)", "Z(5)[x]/(x)"), ("Z(5){C6}", "Z(5){C2xC3}"),
         ("Z(5)[i]", "Z(25)[i]"), ("Z(5){C3}", "Z(5){C4}")],
    )
    def test_different_texts_are_different_rings(self, left, right):
        a, b = build_ring(left), build_ring(right)
        assert a != b and not a == b
        assert a.zero != b.zero  # equal ints, unequal rings
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
            with pytest.raises(ValueError):
                op(a.one, b.one)

    def test_not_equal_to_other_objects(self):
        ring = build_ring("Z(5)")
        assert ring != "Z(5)" and ring != 5 and ring != ring.one


class TestSubtraction:
    """x - y is a sum: m - y in every slot, then one guarded subtraction."""

    @pytest.mark.parametrize(
        "expr",
        ["Z(1)", "Z(1){C2xC3}", "Z(7)", "Z(12){C2xC3}", "Z(25)[i]{C3}",
         "Z(2305843009213693951)[x]/(1 + x^2 + x^3){C4}"],
    )
    def test_costs_no_product(self, expr, monkeypatch):
        ring = build_ring(expr)
        m = ring.coefficient_modulus
        rng = random.Random(f"sub:{expr}")
        x, y = _random_element(rng, ring), _random_element(rng, ring)
        top = ring.from_coeffs((m - 1,) * ring.dimension)
        pairs = [(x, y), (y, x), (x, top), (top, top), (ring.zero, x), (x, ring.zero)]
        wants = [a + (m - 1) * b for a, b in pairs]

        def forbidden(*args):
            raise AssertionError("a product in a subtraction")

        monkeypatch.setattr(Ring, "mul", forbidden)
        monkeypatch.setattr(ResidueRing, "mul", forbidden)
        for (a, b), want in zip(pairs, wants):
            assert a - b == want
            assert_canonical(a - b)
        if expr == "Z(12){C2xC3}":  # rank 2: empty slots between the blocks
            assert ring._layout.count > ring.dimension


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
    def test_tower_z125c7_example(self):
        ring = GroupRing(ResidueRing(125), AbelianGroup((7,)))
        f = ring.from_coeffs((3,) * 7)
        lifted = f ** 5**2
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
        base = QuotientRing(4, (1, 1, 1))
        ring = GroupRing(base, AbelianGroup((3,)))
        x = ring.from_coeffs((1, 1, 0, 0, 2, 3))
        assert ring.element_text(x) == "(1 + x)*e + 0*g + (2 + 3*x)*g^2"

    def test_reduce_to_twin(self):
        ring = GroupRing(ResidueRing(200), AbelianGroup((3,)))
        small = ring.reduce_to(5)
        assert small.coefficient_modulus == 5
        assert small.group == ring.group
        x = ring.from_coeffs((59, 83, 83))
        assert small.embed(x).coeff_vector() == (4, 3, 3)


def structure_product(ring, a, b):
    """sum_ij a_i b_j e_i e_j from the oracle's structure constants, mod m."""
    m, table = ring.coefficient_modulus, _structure_tensor(ring).tolist()
    out = [0] * ring.dimension
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    for k, c in enumerate(table[i][j]):
                        out[k] += x * y * c
    return tuple(c % m for c in out)


class TestWholeElementHooks:
    @pytest.mark.parametrize("m", [1, 2, 6, 2**61 - 1, 2**63 - 25])
    @pytest.mark.parametrize("factors", [(5,), (2, 3), (2, 2, 2)])
    @pytest.mark.parametrize("poly", [None, (1, 0, 1), (3, 1, 0, 1)])
    def test_product_matches_structure_constants(self, m, factors, poly):
        base = ResidueRing(m) if poly is None else QuotientRing(m, poly)
        ring = GroupRing(base, AbelianGroup(factors))
        rng = random.Random(f"sc:{m}:{factors}:{poly}")
        operands = [_random_element(rng, ring) for _ in range(3)]
        operands += [_sparse_element(rng, ring, 2), ring.from_coeffs((m - 1,) * ring.dimension)]
        for x in operands:
            # x * x multiplies one int by itself; an equal copy is another int
            assert (x * x).coeff_vector() == structure_product(ring, x.coeff_vector(), x.coeff_vector())
            twin = ring.from_coeffs(list(x.coeff_vector()))
            assert twin is not x and twin.value == x.value and x * twin == x * x
            for y in operands:
                assert (x * y).coeff_vector() == structure_product(ring, x.coeff_vector(), y.coeff_vector())

    @pytest.mark.parametrize(
        "base",
        [ResidueRing(12), QuotientRing(9, (1, 0, 1)),
         QuotientRing(7, (3, 1, 0, 1))],
        ids=repr,
    )
    @pytest.mark.parametrize("factors", [(4,), (2, 3), (2, 2, 3)])
    def test_one_base_call_per_product_and_text(self, base, factors, monkeypatch):
        # products, sums and powers never call the base ring; text calls
        # its coefficient_texts once per element, except at rank <= 1 over
        # Z_m, where the row template takes the unpacked ints themselves
        ring = GroupRing(base, AbelianGroup(factors))
        rng = random.Random(f"calls:{base!r}:{factors}")
        x, y = _random_element(rng, ring), _random_element(rng, ring)
        calls = []

        def forbidden(*args):
            raise AssertionError("per-block base call")

        hook = base.coefficient_texts
        monkeypatch.setattr(base, "coefficient_texts", lambda *args: calls.append(1) or hook(*args))
        for name in ("mul", "add", "neg", "pack", "unpack", "element",
                     "element_text", "from_coeffs"):
            monkeypatch.setattr(base, name, forbidden)
        assert x * y == naive_convolution(ring, x, y)
        assert x**5 == x * x * x * x * x
        assert (x + y) - y == x and 3 * x == x + x + x
        assert calls == []
        assert ring.element_text(x) == reference_text(ring, x)
        assert ring.element_text(ring.zero) == reference_text(ring, ring.zero)
        dense_over_residues = ring.group.rank <= 1 and isinstance(base, ResidueRing)
        assert calls == ([] if dense_over_residues else [1, 1])


def reference_text(ring, x):
    """Canonical group-ring text block by block, apart from the base's hooks."""
    bd, m, group = ring.base.dimension, ring.coefficient_modulus, ring.group
    var = "i" if isinstance(ring.base, QuotientRing) and ring.base.is_gaussian else "x"
    terms = []
    for idx in range(group.order):
        block = x.coeff_vector()[idx * bd : (idx + 1) * bd]
        if not any(block) and group.rank > 1:
            continue
        monomials = []
        for power, c in enumerate(block):
            if c:
                sym = "" if power == 0 else var if power == 1 else f"{var}^{power}"
                monomials.append(str(c) if not sym else sym if c == 1 else f"{c}*{sym}")
        text = " + ".join(monomials) or "0"
        if bd > 1 and any(block):
            text = f"({text})"
        terms.append(f"{text}*{group.element_name(idx)}")
    return " + ".join(terms) or "0"


class TestTextMatchesReference:
    @pytest.mark.parametrize(
        "text",
        ["Z(12){C5}", "Z(12){C2xC3}", "Z(7){C2xC2xC3}", "Z(1){C3}", "Z(1){C2xC2}",
         "Z(25)[i]{C3}", "Z(9)[i]{C2xC2}", "Z(8)[x]/(1 + x + x^3){C4}",
         "Z(8)[x]/(1 + x + x^3){C2xC3}", "Z(5)[x]/(2 + x){C3}", "Z(5)[x]/(2 + x){C2xC2xC2}",
         "Z(2305843009213693951)[x]/(1 + x^2 + x^3){C2xC3}"],
    )
    def test_text_matches_block_renderer(self, text):
        ring = build_ring(text)
        rng = random.Random(text)
        m, bd = ring.coefficient_modulus, ring.base.dimension
        elements = [ring.zero, ring.one, ring.from_int(3), ring.from_coeffs((m - 1,) * ring.dimension)]
        elements += [_random_element(rng, ring) for _ in range(4)]
        elements += [_sparse_element(rng, ring, 3) for _ in range(4)]
        # zero blocks next to scalar blocks (3) and full blocks
        blocks = [(0,) * bd, (3 % m,) + (0,) * (bd - 1), tuple(rng.randrange(m) for _ in range(bd))]
        for _ in range(6):
            elements.append(ring.from_coeffs(sum((rng.choice(blocks) for _ in range(ring.group.order)), ())))
        for x in elements:
            assert ring.element_text(x) == reference_text(ring, x)

    def test_known_texts(self):
        ring = build_ring("Z(8)[x]/(1 + x + x^3){C2xC2}")
        assert ring.element_text(ring.zero) == "0"
        assert ring.element_text(ring.from_int(3)) == "(3)*e"
        x = ring.from_coeffs((0, 0, 0, 1, 0, 2, 0, 0, 0, 0, 0, 0))
        assert ring.element_text(x) == "(1 + 2*x^2)*(b)"
        dense = build_ring("Z(8)[x]/(1 + x + x^3){C3}")
        assert dense.element_text(dense.zero) == "0*e + 0*g + 0*g^2"
        assert dense.element_text(dense.from_int(3)) == "(3)*e + 0*g + 0*g^2"


ORDER_KEY_RINGS = ["Z(%d)", "Z(%d)[x]/(1 + x + x^3)", "Z(%d)[i]{C3}", "Z(%d){C3xC3}"]


class TestOrderKey:
    """``order_key`` is an int that orders packed values as their coefficient
    tuples do and that ``add`` sums as it sums the values.  The last two
    rings leave gaps between their slots."""

    @pytest.mark.parametrize("text, m", zip(ORDER_KEY_RINGS, [7, 3, 3, 2]))
    def test_every_element_in_ascending_order(self, text, m):
        # elements() runs in the lexicographic coefficient order, so the keys
        # must rise strictly: order-preserving, and equal only for equal values
        ring = build_ring(text % m)
        keys = [ring.order_key(x.value) for x in ring.elements()]
        assert len(keys) == ring.cardinality
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert all(isinstance(k, int) for k in keys)

    @pytest.mark.parametrize("text", ORDER_KEY_RINGS)
    def test_sort_sum_and_equality(self, text):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @hypothesis.given(st.data())
        def check(data):
            m = data.draw(st.sampled_from([2, 3, 10, 2**61 - 1, 2**63 - 25]))
            ring = build_ring(text % m)
            coeff = st.integers(min_value=0, max_value=m - 1)
            # few distinct coefficients, so equal vectors do occur
            vec = st.lists(st.sampled_from([0, 1, m - 1]) | coeff,
                           min_size=ring.dimension, max_size=ring.dimension)
            xs = [ring.from_coeffs(v) for v in data.draw(st.lists(vec, min_size=2, max_size=8))]
            key = ring.order_key
            by_key = sorted(xs, key=lambda x: key(x.value))
            assert [x.coeff_vector() for x in by_key] == sorted(x.coeff_vector() for x in xs)
            for a in xs:
                for b in xs:
                    assert key(ring.add(a.value, b.value)) == ring.add(key(a.value), key(b.value))
                    assert (key(a.value) == key(b.value)) == (a == b)

        check()

    @pytest.mark.parametrize("text, m", zip(ORDER_KEY_RINGS, [7, 3, 3, 2]))
    def test_key_holds_the_value_below_the_reversed_slots(self, text, m):
        # a key is the value's slots reversed, above the value itself in
        # the layout's low ``bits``
        ring = build_ring(text % m)
        for x in ring.elements():
            key = ring.order_key(x.value)
            assert ring.key_values([key]) == [x.value]
            lay = ring._layout
            slots = _split(x.value, lay.count, lay.slot)[::-1]
            assert key >> lay.bits == sum(c << i * lay.slot for i, c in enumerate(slots))
            assert key & ((1 << lay.bits) - 1) == x.value


class TestUnpackMany:
    """``unpack_many`` reads a listing one slot column at a time, 1,024
    values at a time, and falls back to ``unpack`` above 32 slots; either
    way it must give what ``unpack`` gives, member for member."""

    @pytest.mark.parametrize(
        "text, slots, contiguous",
        [("Z(7){C2xC3xC5}", 68, False), ("Z(60){C3xC3}", 13, False),
         ("Z(4095){C4}", 4, True), ("Z(30030)", None, True)],
    )
    def test_listing_equals_unpack(self, text, slots, contiguous):
        from idemlift.catalog import enumerate_idempotents

        ring = build_ring(text)
        if slots is not None:  # a packed layout: its size and shape as named
            lay = ring._layout
            assert (lay.count, lay.positions[-1] + 1 == len(lay.positions)) == (slots, contiguous)
        values = [x.value for x in enumerate_idempotents(ring).members]
        assert len(values) in (2**6, 2**11, 2**12, 2**14)
        assert list(ring.unpack_many(values)) == [ring.unpack(v) for v in values]

    @pytest.mark.parametrize("text", ["Z(221)[i]{C3}", "Z(9)[i]{C2xC2}", "Z(2**61 - 1){C2xC3}"])
    def test_random_values_across_a_block_boundary(self, text):
        # non-contiguous positions: a quotient base, and rank 2 over Z_m;
        # 1,500 values take one full block of 1,024 and a short one
        ring = build_ring(text.replace("2**61 - 1", str(2**61 - 1)))
        rng = random.Random(text)
        m = ring.coefficient_modulus
        values = [ring.from_coeffs([rng.randrange(m) for _ in range(ring.dimension)]).value
                  for _ in range(1500)]
        values[1023:1025] = [0, ring.one.value]
        assert list(ring.unpack_many(values)) == [ring.unpack(v) for v in values]
        assert list(ring.unpack_many([])) == []
