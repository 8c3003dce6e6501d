"""Acceptance gate: the eight binding criteria for this package.

Each criterion is one test that prints exactly one line

    CRITERION k: PASS - <detail>   or   CRITERION k: FAIL - <detail>

and then asserts it.  The project pytest config includes ``-rA`` so the
lines of passing criteria show up in the report as well.

Criterion 3 builds the 7 + 7 + 7 = 21 elements 585*f^4, 208*g^3 and
144*h, with f, g, h ranging over the three 7-member primitive hat
families of Z_936(C5 x C5) for p = 2, 3, 13.  The weights are CRT
weights (585, 208, 144 = (1,0,0), (0,1,0), (0,0,1) mod (8, 9, 13)), so
these 21 are the complete orthogonal family the paper's route yields:
the test certifies them with verify_family and holds them equal to the
pipeline's primitive family.  The 343 sums a + b + c taking one member
from each scaled family are idempotent, but two sums that share a member
multiply to the members they share, and all 343 sum to 49*1; the test
asserts both facts so the discrepancy stays visible.  |E| = 2^21.
"""

import itertools
import json
import random
import time
from pathlib import Path

import pytest

from idemlift.catalog import (
    crt_combine,
    crt_combine_powerform,
    cyclic_base_idempotents,
    enumerate_idempotents,
    hat_family,
)
from idemlift.errors import UnsupportedError, VerificationError
from idemlift.group_rings import GroupRing
from idemlift.groups import AbelianGroup, frobenius_orbit_count
from idemlift.lifting import (
    binomial_lift,
    chain_lift,
    nilpotency_index,
    standard_chain,
    verify_family,
    verify_idempotent,
)
from idemlift.oracle import brute_force_scan
from idemlift.parsing import build_ring
from idemlift.quotients import ResidueRing, gaussian_ring
from idemlift.rings import factorize

GOLDEN_PATH = Path(__file__).parent / "golden" / "z200c3.json"


def _report(k: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {k}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _vectors(elems):
    return {x.coeff_vector() for x in elems}


def test_criterion_1_sixteen_idempotents_of_z200c3():
    ring = build_ring("Z(200){C3}")
    t0 = time.perf_counter()
    scanned = _vectors(brute_force_scan(ring, cap=2**23))
    t_oracle = time.perf_counter() - t0
    t0 = time.perf_counter()
    fam = enumerate_idempotents(ring)
    t_pipe = time.perf_counter() - t0
    got = _vectors(fam.members)
    golden = {tuple(v) for v in json.loads(GOLDEN_PATH.read_text())["members"]}
    # the corrected table row: attaching its 150 term to g instead of e
    # yields 150g + 125g + 125g^2 = (0, 75, 125), which is not idempotent
    corrected_ok = verify_idempotent(ring.from_coeffs((150, 125, 125)))
    misread_fails = not verify_idempotent(ring.from_coeffs((0, 75, 125)))
    ok = (
        len(got) == 16
        and got == golden
        and got == scanned
        and corrected_ok
        and misread_fails
        and t_oracle < 30.0
        and t_pipe < 0.1
    )
    _report(
        1,
        ok,
        f"pipeline == 16-row golden table == oracle over 8e6 elements; "
        f"corrected row (150,125,125) idempotent, misread (0,75,125) is not; "
        f"oracle {t_oracle:.2f}s < 30s, pipeline {t_pipe * 1000:.1f}ms < 100ms",
    )


def test_criterion_2_lift_base_family_into_z125c7():
    t0 = time.perf_counter()
    base = cyclic_base_idempotents(7, 5)
    ring = build_ring("Z(125){C7}")
    chain = standard_chain(ring)
    lifted = {
        chain_lift(ring.from_coeffs(f.coeff_vector()), chain).lifted.coeff_vector()
        for f in base.members
    }
    elapsed = time.perf_counter() - t0
    expected = {
        (0,) * 7,
        (1,) + (0,) * 6,
        (18,) * 7,
        (108,) + (107,) * 6,
    }
    ok = (
        len(base.members) == 4
        and chain.exponent_tower() == (5, 2)
        and lifted == expected
        and elapsed < 0.1
    )
    _report(
        2,
        ok,
        f"four base idempotents of Z(5){{C7}} lifted with tower 5^2 give exactly "
        f"{{0, 1, 18*sum, 108e+107(g+...+g^6)}}; {elapsed * 1000:.1f}ms < 100ms",
    )


@pytest.fixture(scope="module")
def scaled_hat_families_936():
    """The three scaled hat families {585*f^4}, {208*g^3}, {144*h} of Z_936(C5 x C5)."""
    ring = build_ring("Z(936){C5xC5}")
    group = AbelianGroup((5, 5))
    plan = [(2, 585, 4), (3, 208, 3), (13, 144, 1)]
    scaled = []
    for p, weight, alpha in plan:
        fam = hat_family(group, p)
        assert len(fam.primitive) == 7
        w = ring.from_int(weight)
        scaled.append(
            [w * (ring.from_coeffs(f.coeff_vector()) ** alpha) for f in fam.primitive]
        )
    return ring, scaled


@pytest.fixture(scope="module")
def weighted_combinations_936(scaled_hat_families_936):
    """The 343 elements w1*f^4 + w2*g^3 + w3*h of Z_936(C5 x C5)."""
    ring, scaled = scaled_hat_families_936
    members = [a + b + c for a, b, c in itertools.product(*scaled)]
    return ring, members


def test_criterion_3_z936_claimed_orthogonal_family(
    scaled_hat_families_936, weighted_combinations_936
):
    ring, scaled = scaled_hat_families_936
    _, members = weighted_combinations_936
    t0 = time.perf_counter()
    family = [x for part in scaled for x in part]
    family_check = verify_family(family, ring, expected_components=21)
    pipeline = enumerate_idempotents(ring).primitive
    same_as_pipeline = _vectors(family) == _vectors(pipeline) and len(pipeline) == 21
    combo_check = verify_family(members, ring)
    total = ring.zero
    for x in members:
        total = total + x
    sums_to_49 = total == ring.from_int(49)
    # x_{0,0,0} * x_{0,0,1} keeps the members the two sums share
    shared = members[0] * members[1] == scaled[0][0] + scaled[1][0]
    elapsed = time.perf_counter() - t0
    ok = (
        family_check.primitive_certified
        and same_as_pipeline
        and len(members) == 343
        and combo_check.all_idempotent
        and not combo_check.orthogonal
        and shared
        and sums_to_49
        and elapsed < 5.0
    )
    _report(
        3,
        ok,
        f"21 scaled hat members 585*f^4, 208*g^3, 144*h certified orthogonal, "
        f"summing to 1, 21 components: {family_check.primitive_certified}; "
        f"equal to the pipeline's primitive family: {same_as_pipeline}; "
        f"343 sums a+b+c: all idempotent: {combo_check.all_idempotent}, pairwise "
        f"orthogonal: {combo_check.orthogonal}, sum = 49*1: {sums_to_49}; "
        f"{elapsed:.2f}s < 5s",
    )


def test_criterion_3_companion_all_343_idempotent_and_distinct(
    weighted_combinations_936,
):
    ring, members = weighted_combinations_936
    assert len(members) == 343
    assert all(verify_idempotent(x) for x in members)
    assert len(_vectors(members)) == 343


def test_criterion_3_companion_true_primitive_family_has_21_members():
    ring = build_ring("Z(936){C5xC5}")
    fam = enumerate_idempotents(ring)
    assert fam.count == 2**21
    assert len(fam.primitive) == 21
    check = verify_family(fam.primitive, ring, expected_components=21)
    assert check.primitive_certified


def test_criterion_4_gaussian_towers():
    t0 = time.perf_counter()
    base_vecs = sorted(_vectors(brute_force_scan(gaussian_ring(5))))
    base_ok = base_vecs == [(0, 0), (1, 0), (3, 1), (3, 4)]
    results = {}
    for k in (2, 3):
        ring = gaussian_ring(5**k)
        chain = standard_chain(ring)
        lifted = {
            chain_lift(ring.from_coeffs(v), chain).lifted.coeff_vector()
            for v in base_vecs
        }
        enumerated = _vectors(enumerate_idempotents(ring).members)
        results[k] = (
            chain.exponent_tower() == (5, k - 1)
            and len(lifted) == 4
            and lifted == enumerated
        )
        if k == 2:
            brute_ok = lifted == _vectors(brute_force_scan(ring))
    elapsed = time.perf_counter() - t0
    ok = base_ok and results[2] and results[3] and brute_ok and elapsed < 1.0
    _report(
        4,
        ok,
        f"E(Z(5)[i]) = {{0, 1, 3+i, 3+4i}} by scan; towers 5^(k-1) reproduce "
        f"E(Z(5^k)[i]) for k = 2, 3 (k = 2 cross-checked against the 625-element "
        f"scan); {elapsed * 1000:.0f}ms < 1s",
    )


def test_criterion_5_counting_identities():
    pairs = [
        ("Z(8){C3}", "Z(2){C3}", 4),
        ("Z(25)[i]", "Z(5)[i]", 4),
        ("Z(27)", "Z(3)", 2),
    ]
    pair_ok = True
    for big, small, expect in pairs:
        nb = len(brute_force_scan(build_ring(big)))
        ns = len(brute_force_scan(build_ring(small)))
        pair_ok = pair_ok and nb == ns == expect
    c8 = len(brute_force_scan(build_ring("Z(8){C3}")))
    c25 = len(brute_force_scan(build_ring("Z(25){C3}")))
    c200 = enumerate_idempotents(build_ring("Z(200){C3}")).count
    mult_ok = c8 == 4 and c25 == 4 and c200 == 16 and c200 == c8 * c25
    ok = pair_ok and mult_ok
    _report(
        5,
        ok,
        "|E(R)| = |E(R/N)| on Z(8){C3}/Z(2){C3}, Z(25)[i]/Z(5)[i], Z(27)/Z(3); "
        f"multiplicative law 16 = {c8} * {c25} on Z(200){{C3}}",
    )


def test_criterion_6_sum_and_power_routes_agree():
    group = AbelianGroup((3,))
    summed = crt_combine(200, group)
    powered = crt_combine_powerform(200, group)
    a = _vectors(summed.members)
    b = _vectors(powered.members)
    golden = {tuple(v) for v in json.loads(GOLDEN_PATH.read_text())["members"]}
    ok = a == b == golden and len(a) == 16
    _report(
        6,
        ok,
        "weighted CRT sum and single-power pipelines produce the same 16-member "
        "E(Z(200){C3}), equal to the golden table",
    )


def _uniqueness_pool():
    pool = []
    for expr in (
        "Z(8)",
        "Z(27)",
        "Z(12)",
        "Z(200)",
        "Z(25)[i]",
        "Z(8){C3}",
        "Z(4){C2}",
        "Z(9){C2}",
    ):
        ring = build_ring(expr)
        members = enumerate_idempotents(ring).members
        rad = factorize(ring.coefficient_modulus).radical
        pool.append((ring, members, ring.from_int(rad)))
    return pool


def _orthogonality_pool():
    pool = []
    for expr, base_mod in (
        ("Z(8){C3}", 2),
        ("Z(25)[i]", 5),
        ("Z(27)", 3),
        ("Z(125){C7}", 5),
        ("Z(49){C3}", 7),
    ):
        ring = build_ring(expr)
        chain = standard_chain(ring)
        base = ring.reduce_to(base_mod)
        base_members = brute_force_scan(base)
        pool.append((ring, chain, base_members))
    return pool


def _membership_pool():
    pool = []
    for expr in (
        "Z(8)",
        "Z(16)",
        "Z(27)",
        "Z(625)",
        "Z(4){C2}",
        "Z(8){C3}",
        "Z(9){C3}",
        "Z(2){C2xC2}",
    ):
        ring = build_ring(expr)
        assert ring.cardinality <= 1024
        elements = list(ring.elements())
        idems = [x for x in elements if verify_idempotent(x)]
        nilps = [x for x in elements if nilpotency_index(x) is not None]
        pool.append((ring, idems, nilps, elements))
    return pool


def test_criterion_7_property_suite():
    rng = random.Random(193707)
    t0 = time.perf_counter()
    failures = []

    # 400 cases: the lift of an idempotent plus a nil perturbation is unique
    pool = _uniqueness_pool()
    for case in range(400):
        ring, members, rad = pool[case % len(pool)]
        e0 = members[rng.randrange(len(members))]
        noise = ring.from_coeffs(
            tuple(rng.randrange(ring.coefficient_modulus) for _ in range(ring.dimension))
        )
        f = e0 + rad * noise
        try:
            if binomial_lift(f) != e0:
                failures.append(f"uniqueness(binomial): {ring.expression()} #{case}")
        except VerificationError as exc:
            failures.append(f"uniqueness(binomial): {ring.expression()} #{case}: {exc}")
        if case % 4 == 0:
            try:
                if chain_lift(f, standard_chain(ring)).lifted != e0:
                    failures.append(f"uniqueness(chain): {ring.expression()} #{case}")
            except VerificationError as exc:
                failures.append(f"uniqueness(chain): {ring.expression()} #{case}: {exc}")

    # 300 cases: lifting preserves orthogonality of base pairs
    pool = _orthogonality_pool()
    for case in range(300):
        ring, chain, base_members = pool[case % len(pool)]
        while True:
            f1 = base_members[rng.randrange(len(base_members))]
            f2 = base_members[rng.randrange(len(base_members))]
            if (f1 * f2).is_zero():
                break
        e1 = chain_lift(ring.from_coeffs(f1.coeff_vector()), chain).lifted
        e2 = chain_lift(ring.from_coeffs(f2.coeff_vector()), chain).lifted
        if not (e1 * e2).is_zero():
            failures.append(f"orthogonality: {ring.expression()} #{case}")

    # 200 cases: |E| of a random enumerable carrier is a power of 2
    group_choices = [(), (2,), (3,), (4,), (5,), (6,), (7,), (2, 2), (3, 3)]
    done = 0
    while done < 200:
        m = rng.randrange(2, 4000)
        kind = rng.randrange(3)
        if kind == 0:
            ring = ResidueRing(m)
        elif kind == 1:
            factors = group_choices[rng.randrange(1, len(group_choices))]
            ring = GroupRing(ResidueRing(m), AbelianGroup(factors))
        else:
            ring = gaussian_ring(m)
        try:
            count = enumerate_idempotents(ring).count
        except UnsupportedError:
            if ring.cardinality <= 2**16:
                count = len(brute_force_scan(ring))
            else:
                continue
        if count < 1 or count & (count - 1):
            failures.append(f"non-power-of-2: {ring.expression()} -> {count}")
        done += 1

    # 100 cases: (e+n)^p - e lies in the ideal generated by p*n
    pool = _membership_pool()
    for case in range(100):
        ring, idems, nilps, elements = pool[case % len(pool)]
        e = idems[rng.randrange(len(idems))]
        n = nilps[rng.randrange(len(nilps))]
        t = nilpotency_index(n)
        eligible = [q for q in (2, 3, 5, 7, 11, 13) if q >= t]
        p = eligible[rng.randrange(len(eligible))]
        target = (e + n) ** p - e
        pn = ring.from_int(p) * n
        if not any(r * pn == target for r in elements):
            failures.append(
                f"membership: {ring.expression()} e={e.coeff_vector()} "
                f"n={n.coeff_vector()} p={p}"
            )

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    head = "; ".join(failures[:3])
    _report(
        7,
        ok,
        f"1000 seeded cases (400 lift-uniqueness, 300 orthogonality preservation, "
        f"200 power-of-2 counts, 100 nil-perturbation membership scans): "
        f"{len(failures)} failures{'; ' + head if head else ''}; "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_8_component_count_matrix():
    cases = [
        ((3,), 2),
        ((3,), 5),
        ((7,), 5),
        ((2,), 3),
        ((4,), 3),
        ((2, 2), 3),
    ]
    hits = 0
    rows = []
    for factors, p in cases:
        group = AbelianGroup(factors)
        predicted = 2 ** frobenius_orbit_count(group, p)
        actual = len(brute_force_scan(GroupRing(ResidueRing(p), group)))
        rows.append(f"{group.expression()}/F{p}: 2^orbits = {predicted}, |E| = {actual}")
        hits += predicted == actual
    ok = hits == len(cases)
    _report(8, ok, f"{hits}/{len(cases)} matrix cases match ({'; '.join(rows)})")
