"""The record contract: the nine result records are read-only named tuples.

Each one is built positionally or by keyword, fills its defaults, refuses
field assignment, prints as ``Name(field=value, ...)`` and compares by its
fields.  ``CncChain`` checks its steps however it is built.
"""

import pytest

from idemlift import (
    CncChain,
    FamilyCheck,
    IdempotentFamily,
    LiftReport,
    PolyFactorization,
    PrimePowerFactorization,
    RingExpression,
    Subgroup,
)
from idemlift.groups import AbelianGroup
from idemlift.quotients import ResidueRing
from idemlift.rings import PrimePower

RING = ResidueRing(25)
GROUP = AbelianGroup((2, 3))

# (record class, its field names in order, one set of positional values)
RECORDS = [
    (PrimePower, ("prime", "exponent"), (5, 2)),
    (PrimePowerFactorization, ("modulus", "factors", "cofactors", "inverses"),
     (12, (PrimePower(2, 2), PrimePower(3, 1)), (3, 4), (3, 1))),
    (PolyFactorization, ("unit", "factors", "cofactors", "inverses"),
     (2, (((1, 1), 1), ((2, 1), 1)), ((2, 1), (1, 1)), ((1,), (2,)))),
    (Subgroup, ("group", "generators", "members"), (GROUP, (3,), (0, 3))),
    (RingExpression, ("modulus", "poly_coeffs", "group_factors"), (25, (1, 0, 1), (2, 3))),
    (CncChain, ("ring", "ss", "ts", "base_ring"), (RING, (5,), (2,), ResidueRing(5))),
    (LiftReport,
     ("input", "lifted", "tower", "verified_idempotent", "verified_congruent", "multiplications"),
     (RING.from_int(6), RING.from_int(1), (5, 1), True, None, 5)),
    (FamilyCheck,
     ("idempotent", "all_nonzero", "orthogonal", "sums_to_one", "expected_components"),
     ((True, True), True, True, True, 2)),
    (IdempotentFamily, ("ring", "primitive", "provenance"),
     (RING, (RING.from_int(1),), "hat")),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, values):
    assert cls._fields == fields
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert by_position == by_keyword and hash(by_position) == hash(by_keyword)
    assert all(getattr(by_keyword, f) is v for f, v in zip(fields, values))
    # a named tuple: iterated and indexed in field order
    assert tuple(by_keyword) == values and by_keyword[-1] is values[-1]


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=IDS)
def test_fields_are_read_only(cls, fields, values):
    record = cls(*values)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert tuple(record) == values


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=IDS)
def test_repr_names_the_class_and_its_fields(cls, fields, values):
    text = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(cls(*values)) == f"{cls.__name__}({text})"


def test_defaults():
    chain = CncChain(RING, (5,), (2,))
    assert chain.base_ring is None and chain == CncChain(RING, (5,), (2,), None)
    check = FamilyCheck((True,), True, True, True)
    assert check.expected_components is None
    assert FamilyCheck._field_defaults == {"expected_components": None}
    assert CncChain._field_defaults == {"base_ring": None}


@pytest.mark.parametrize(
    "ss, ts, message",
    [
        ((2, 2), (2,), "equal length"),
        ((2,), (1,), "t must be >= 2"),
        ((0,), (2,), "s must be >= 1"),
        ((2,), (3,), "prime factor 2 of s = 2 is below t = 3"),
    ],
    ids=["lengths", "t", "s", "prime"],
)
def test_chain_checks_its_steps(ss, ts, message):
    ring = ResidueRing(8)
    with pytest.raises(ValueError, match=message):
        CncChain(ring, ss, ts)
    with pytest.raises(ValueError, match=message):
        CncChain(ring=ring, ss=ss, ts=ts)
    with pytest.raises(ValueError, match=message):
        CncChain(ring, (3,), (3,))._replace(ss=ss, ts=ts)
