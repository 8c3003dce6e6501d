"""Complete and primitive idempotent families for the supported carriers.

Enumeration follows one shape everywhere: find the idempotents of the
residue ring mod each prime p dividing the coefficient modulus (over a
field there are certified providers), raise each to p^{r-1} to lift it to
the prime-power part, and glue the prime parts with the CRT weights
s_i * m_i.  Completeness is multiplicative across primes; primitivity is
additive (one embedded primitive per prime component).

Everything returned is re-verified: members are squared, primitive
families are checked for orthogonality, their sum, and their size against
an independently computed component count.  A family that cannot be
certified is an error, never a silent downgrade.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

from .errors import SizeLimitError, UnsupportedError, VerificationError
from .group_rings import GroupRing
from .groups import (
    AbelianGroup,
    TRIVIAL_GROUP,
    frobenius_orbit_count,
    minimal_nontrivial_subgroups,
    subgroup_generated,
)
from .lifting import verify_family, verify_idempotent
from .oracle import DEFAULT_BRUTE_CAP, brute_force_scan
from .polynomials import Polynomial, berlekamp_factor
from .quotients import QuotientRing
from .rings import ResidueRing, Ring, factorize, is_prime

DEFAULT_LIST_CAP = 2**16
_ATOM_DERIVATION_CAP = 4096


@dataclass(frozen=True)
class IdempotentFamily:
    """A verified batch of idempotents of one carrier.

    ``members`` is the full E(ring) when ``complete`` (canonically sorted
    by coefficient vector), and empty when E was counted but not
    materialized.  ``primitive`` is the certified orthogonal primitive
    decomposition of 1 when one is known.  ``count`` is |E(ring)| in
    either case.
    """

    ring: Ring
    members: tuple
    primitive: tuple
    count: int
    complete: bool
    orthogonal_primitive: bool
    provenance: str

    def to_json_dict(self) -> dict:
        out = {
            "ring": self.ring.expression(),
            "count": self.count,
            "primitive": [list(x.coeff_vector()) for x in self.primitive],
            "complete": self.complete,
            "provenance": self.provenance,
        }
        if self.complete:
            out["members"] = [list(x.coeff_vector()) for x in self.members]
        return out


def _canonical(elems) -> tuple:
    return tuple(sorted(elems, key=lambda x: x.coeff_vector()))


def _build_family(
    ring: Ring,
    *,
    members=(),
    primitive=(),
    count: int,
    complete: bool,
    provenance: str,
    expected_components: int | None = None,
) -> IdempotentFamily:
    """Re-verify and canonically order a family before handing it out."""
    members = _canonical(members)
    primitive = _canonical(primitive)
    for x in members:
        if not verify_idempotent(x):
            raise VerificationError(
                f"claimed member {ring.element_text(x)} is not idempotent"
            )
    if complete:
        if len(members) != count:
            raise VerificationError(
                f"complete family size {len(members)} does not match count {count}"
            )
        if len(set(m.coeff_vector() for m in members)) != count:
            raise VerificationError("complete family contains duplicates")
        if count & (count - 1) != 0:
            raise VerificationError(
                f"|E| = {count} is not a power of 2; enumeration is broken"
            )
    orthogonal_primitive = False
    if primitive or expected_components is not None:
        check = verify_family(primitive, ring, expected_components)
        if not check.primitive_certified:
            raise VerificationError(
                "primitive family failed certification: "
                f"idempotent={check.all_idempotent}, nonzero={check.all_nonzero}, "
                f"orthogonal={check.orthogonal}, sum_to_one={check.sums_to_one}, "
                f"size={check.size}, expected={check.expected_components}"
            )
        orthogonal_primitive = True
    return IdempotentFamily(
        ring=ring,
        members=members,
        primitive=primitive,
        count=count,
        complete=complete,
        orthogonal_primitive=orthogonal_primitive,
        provenance=provenance,
    )


def _atoms_of(members, ring: Ring) -> tuple:
    """Minimal nonzero idempotents of a complete E (its primitive elements)."""
    if len(members) > _ATOM_DERIVATION_CAP:
        return ()
    nonzero = [e for e in members if not e.is_zero()]
    atoms = []
    for e in nonzero:
        minimal = True
        for f in nonzero:
            if f != e and f * e == f:
                minimal = False
                break
        if minimal:
            atoms.append(e)
    return tuple(atoms)


def _subset_sums(primitive, ring: Ring) -> list:
    out = [ring.zero]
    for e in primitive:
        out.extend([x + e for x in out])
    return out


def brute_force_idempotents(ring: Ring, cap: int = DEFAULT_BRUTE_CAP) -> IdempotentFamily:
    """Exhaustive scan; the oracle side of every dual-route check."""
    members = brute_force_scan(ring, cap)
    count = len(members)
    primitive = _atoms_of(members, ring)
    expected = len(primitive) if primitive else None
    if ring.cardinality == 1:
        primitive, expected = (), 0
    return _build_family(
        ring,
        members=members,
        primitive=primitive,
        count=count,
        complete=True,
        provenance="brute-force",
        expected_components=expected,
    )


def cyclic_base_idempotents(n: int, p: int, list_cap: int = DEFAULT_LIST_CAP) -> IdempotentFamily:
    """E(F_p C_n) through the factorization of x^n - 1.

    Each irreducible factor q_i contributes the primitive idempotent
    s_i(x) * m_i(x) mod (x^n - 1), with m_i the cofactor and s_i its
    Bezout inverse; the complete set is all subset sums.
    """
    if n < 1:
        raise ValueError(f"cycle length must be >= 1, got {n}")
    if not is_prime(p):
        raise ValueError(f"cyclic_base_idempotents requires a prime, got {p}")
    group = AbelianGroup((n,)) if n > 1 else TRIVIAL_GROUP
    ring = GroupRing(ResidueRing(p), group)
    if gcd(n, p) != 1:
        raise UnsupportedError(
            f"F_{p}C_{n} is not semisimple: {p} divides {n}"
        )
    if n == 1:
        return _trivial_pair_family(ring, "factorization")
    xn1 = Polynomial((p - 1,) + (0,) * (n - 1) + (1,), p)
    fact = berlekamp_factor(xn1)
    if any(f.multiplicity != 1 for f in fact.factors):
        raise ArithmeticError("x^n - 1 must be squarefree when gcd(n, p) = 1")
    primitive = []
    for fac, cof, inv in zip(fact.factors, fact.cofactors, fact.inverses):
        e_poly = (inv * cof) % xn1
        coeffs = e_poly.coeffs + (0,) * (n - len(e_poly.coeffs))
        primitive.append(ring.from_coeffs(coeffs))
    components = len(fact.factors)
    if components != frobenius_orbit_count(group, p):
        raise ArithmeticError(
            "factor count disagrees with the Frobenius orbit count"
        )
    count = 2**components
    if count <= list_cap:
        members = _subset_sums(primitive, ring)
        return _build_family(
            ring,
            members=members,
            primitive=primitive,
            count=count,
            complete=True,
            provenance="factorization",
            expected_components=components,
        )
    return _build_family(
        ring,
        primitive=primitive,
        count=count,
        complete=False,
        provenance="factorization",
        expected_components=components,
    )


def hat_family(group: AbelianGroup, p: int, list_cap: int = DEFAULT_LIST_CAP) -> IdempotentFamily:
    """Subgroup-average idempotents of F_p G for elementary abelian G of rank <= 2.

    Rank 1 uses {G-hat, 1 - G-hat}; rank 2 uses G-hat plus H-hat - G-hat
    over the minimal nontrivial subgroups H.  The family is certified
    against the Frobenius orbit count or rejected outright.
    """
    if not is_prime(p):
        raise ValueError(f"hat_family requires a prime modulus, got {p}")
    if not group.is_elementary_abelian() or group.rank > 2:
        raise UnsupportedError(
            "hat family needs an elementary abelian group of rank <= 2, "
            f"got {group.expression()}"
        )
    if gcd(group.order, p) != 1:
        raise UnsupportedError(
            f"F_{p}G is not semisimple: p = {p} divides |G| = {group.order}"
        )
    ring = GroupRing(ResidueRing(p), group)
    whole = subgroup_generated(group, range(group.order))
    g_hat = ring.hat(whole)
    if group.rank == 1:
        candidate = [g_hat, ring.one - g_hat]
    else:
        candidate = [g_hat]
        for sub in minimal_nontrivial_subgroups(group):
            candidate.append(ring.hat(sub) - g_hat)
    expected = frobenius_orbit_count(group, p)
    check = verify_family(candidate, ring, expected)
    if not check.primitive_certified:
        raise UnsupportedError(
            "hat family certification failed for "
            f"{ring.expression()}: size {check.size} vs {expected} components, "
            f"orthogonal={check.orthogonal}, sum_to_one={check.sums_to_one}"
        )
    count = 2**expected
    if count <= list_cap:
        return _build_family(
            ring,
            members=_subset_sums(candidate, ring),
            primitive=candidate,
            count=count,
            complete=True,
            provenance="hat-family",
            expected_components=expected,
        )
    return _build_family(
        ring,
        primitive=candidate,
        count=count,
        complete=False,
        provenance="hat-family",
        expected_components=expected,
    )


def _trivial_pair_family(ring: Ring, provenance: str) -> IdempotentFamily:
    return _build_family(
        ring,
        members=[ring.zero, ring.one],
        primitive=[ring.one],
        count=2,
        complete=True,
        provenance=provenance,
        expected_components=1,
    )


def base_field_idempotents(
    ring: Ring,
    list_cap: int = DEFAULT_LIST_CAP,
    brute_cap: int = DEFAULT_BRUTE_CAP,
) -> IdempotentFamily:
    """E(ring) for a carrier whose coefficient modulus is prime.

    Dispatch: hat family, then cyclic factorization, then brute force;
    the first provider that certifies wins.
    """
    p = ring.coefficient_modulus
    if not is_prime(p):
        raise ValueError(f"base enumeration needs a prime modulus, got {p}")
    if isinstance(ring, ResidueRing):
        return _trivial_pair_family(ring, "factorization")
    if isinstance(ring, QuotientRing):
        return poly_crt_combine(p, ring.q, TRIVIAL_GROUP, list_cap=list_cap)
    if isinstance(ring, GroupRing):
        group = ring.group
        if group.is_trivial:
            return _trivial_pair_family(ring, "factorization")
        if isinstance(ring.base, QuotientRing):
            return poly_crt_combine(p, ring.base.q, group, list_cap=list_cap)
        if isinstance(ring.base, ResidueRing):
            try:
                return hat_family(group, p, list_cap)
            except UnsupportedError:
                pass
            if group.rank == 1 and gcd(group.order, p) == 1:
                return cyclic_base_idempotents(group.factors[0], p, list_cap)
            if ring.cardinality <= brute_cap:
                return brute_force_idempotents(ring, brute_cap)
            raise UnsupportedError(
                f"no certified provider for {ring.expression()} and the ring is "
                f"too large to scan ({ring.cardinality} elements)"
            )
    raise UnsupportedError(f"unsupported carrier {ring!r}")


def poly_crt_combine(
    p: int,
    mpoly: Polynomial,
    group: AbelianGroup = TRIVIAL_GROUP,
    base_families: list[IdempotentFamily] | None = None,
    list_cap: int = DEFAULT_LIST_CAP,
) -> IdempotentFamily:
    """E((F_p[x]/(m(x))) G) from the factorization m(x) = prod q_i^{r_i}.

    The combination rule is e = sum_i s_i(x) m_i(x) f_i^{p^{r_i - 1}} over
    choices of f_i from E((F_p[x]/(q_i)) G).  Factors of degree > 1 are
    supported only for the trivial group (their base rings are fields, so
    E = {0, 1}); extension-field coefficients under a nontrivial group are
    out of scope and rejected.
    """
    if not is_prime(p):
        raise ValueError(f"poly_crt_combine requires a prime modulus, got {p}")
    mpoly = Polynomial(mpoly.coeffs, p)
    quotient = QuotientRing(p, mpoly)
    carrier: Ring = quotient if group.is_trivial else GroupRing(quotient, group)
    fact = berlekamp_factor(mpoly)
    if base_families is not None and len(base_families) != len(fact.factors):
        raise ValueError("one base family per irreducible factor is required")
    weights = []
    alphas = []
    families = []
    for idx, (fac, cof, inv) in enumerate(
        zip(fact.factors, fact.cofactors, fact.inverses)
    ):
        # the weight s_i(x) m_i(x) sits at the group identity, block 0
        w = quotient.from_polynomial((inv * cof) % mpoly).coeffs
        weights.append(carrier.from_coeffs(w + (0,) * (carrier.dimension - len(w))))
        alphas.append(p ** (fac.multiplicity - 1))
        if base_families is not None:
            families.append(base_families[idx])
            continue
        factor_ring = QuotientRing(p, fac.poly)
        if group.is_trivial:
            families.append(_trivial_pair_family(factor_ring, "factorization"))
        elif fac.poly.degree == 1:
            # F_p[x]/(x - a) is F_p, so E(F_p G) is the factor's family
            families.append(
                base_field_idempotents(GroupRing(ResidueRing(p), group), list_cap)
            )
        else:
            raise UnsupportedError(
                f"factor {fac.poly.to_text()} has degree {fac.poly.degree} > 1: "
                "extension-field coefficients with a nontrivial group are unsupported"
            )

    if len(fact.factors) > 1:
        provenance = "crt-combined"
    elif alphas[0] > 1:
        provenance = "lifted"
    else:
        provenance = "factorization"
    return _combine(
        carrier,
        weights=weights,
        alphas=alphas,
        families=families,
        provenance=provenance,
        list_cap=list_cap,
    )


def _embed(x, carrier: Ring):
    """Read x into a carrier over the same group whose coefficient blocks
    are at least as long, padding each block with zeros (a residue or a
    factor-quotient coefficient read into the full quotient)."""
    order = carrier.group.order if isinstance(carrier, GroupRing) else 1
    src = len(x.coeffs) // order
    pad = (0,) * (carrier.dimension // order - src)
    return carrier.from_coeffs(
        tuple(c for g in range(order) for c in x.coeffs[g * src : (g + 1) * src] + pad)
    )


def _combine(
    carrier: Ring,
    *,
    weights,
    alphas,
    families,
    provenance: str,
    list_cap: int,
) -> IdempotentFamily:
    """Glue per-component families: e = sum_i w_i * embed(f_i)^{alpha_i}.

    The weights w_i are carrier elements.
    """
    count = prod(f.count for f in families)
    lifted_members = []
    lifted_primitives = []
    for w, alpha, fam in zip(weights, alphas, families):
        lifted_members.append([w * _embed(f, carrier) ** alpha for f in fam.members])
        lifted_primitives.append(
            [w * _embed(f, carrier) ** alpha for f in fam.primitive]
        )
    primitive = []
    expected = None
    if all(f.orthogonal_primitive for f in families):
        expected = sum(len(f.primitive) for f in families)
        for batch in lifted_primitives:
            primitive.extend(batch)
    if count <= list_cap and all(f.complete for f in families):
        members = [carrier.zero]
        for batch in lifted_members:
            members = [x + y for x in members for y in batch]
        if len(set(m.coeff_vector() for m in members)) != count:
            raise VerificationError(
                "combined members collide; the per-prime counts do not multiply"
            )
        return _build_family(
            carrier,
            members=members,
            primitive=primitive,
            count=count,
            complete=True,
            provenance=provenance,
            expected_components=expected,
        )
    return _build_family(
        carrier,
        primitive=primitive,
        count=count,
        complete=False,
        provenance=provenance,
        expected_components=expected,
    )


def crt_combine(
    m: int,
    group: AbelianGroup,
    base_families: list[IdempotentFamily] | None = None,
    list_cap: int = DEFAULT_LIST_CAP,
    brute_cap: int = DEFAULT_BRUTE_CAP,
) -> IdempotentFamily:
    """E(Z_m G) as e = sum_i s_i m_i f_i^{p_i^{r_i - 1}} over base choices.

    ``base_families`` may supply E(Z_{p_i} G) in factor order; otherwise
    they are computed.  Completeness multiplies; the embedded per-prime
    primitives form the (additive) primitive family.
    """
    ring = GroupRing(ResidueRing(m), group)
    return _crt_enumerate(ring, base_families, list_cap, brute_cap)


def _crt_enumerate(
    ring: Ring,
    base_families,
    list_cap: int,
    brute_cap: int,
) -> IdempotentFamily:
    m = ring.coefficient_modulus
    if m == 1:
        return _build_family(
            ring,
            members=[ring.zero],
            primitive=(),
            count=1,
            complete=True,
            provenance="brute-force",
            expected_components=0,
        )
    fact = factorize(m)
    if base_families is not None and len(base_families) != len(fact.factors):
        raise ValueError("one base family per prime factor is required")
    families = []
    for idx, pp in enumerate(fact.factors):
        if base_families is not None:
            fam = base_families[idx]
            if fam.ring.coefficient_modulus != pp.prime:
                raise ValueError(
                    f"base family {idx} is over modulus "
                    f"{fam.ring.coefficient_modulus}, expected {pp.prime}"
                )
        else:
            fam = base_field_idempotents(
                ring.reduce_to(pp.prime), list_cap, brute_cap
            )
        families.append(fam)
    weights = [ring.from_int(w) for w in fact.crt_weights]
    alphas = [pp.prime ** (pp.exponent - 1) for pp in fact.factors]
    single = len(fact.factors) == 1
    return _combine(
        ring,
        weights=weights,
        alphas=alphas,
        families=families,
        provenance="lifted" if single else "crt-combined",
        list_cap=list_cap,
    )


def enumerate_idempotents(
    ring: Ring,
    list_cap: int = DEFAULT_LIST_CAP,
    brute_cap: int = DEFAULT_BRUTE_CAP,
) -> IdempotentFamily:
    """E(ring) for any supported carrier, by base providers + lifting + CRT.

    |E(ring)| always equals the product of the base-field counts (the
    lift along each prime-power chain is a bijection on idempotents), and
    the construction verifies that with exact arithmetic.
    """
    if is_prime(ring.coefficient_modulus):
        return base_field_idempotents(ring, list_cap, brute_cap)
    return _crt_enumerate(ring, None, list_cap, brute_cap)


def crt_combine_powerform(
    m: int,
    group: AbelianGroup,
    base_families: list[IdempotentFamily] | None = None,
    list_cap: int = DEFAULT_LIST_CAP,
    brute_cap: int = DEFAULT_BRUTE_CAP,
) -> IdempotentFamily:
    """E(Z_m G) in single-power form: e = (sum_i t_i c_i f_i)^{rad(m)^{k-1}}.

    c_i = rad(m)/p_i, t_i c_i == 1 (mod p_i), k = max r_i.  Must agree with
    crt_combine element-for-element; the tests hold the two routes equal.
    """
    from .group_rings import pow_tower
    from .rings import modular_inverse

    ring = GroupRing(ResidueRing(m), group)
    if m == 1:
        return _crt_enumerate(ring, None, list_cap, brute_cap)
    fact = factorize(m)
    if base_families is None:
        base_families = [
            base_field_idempotents(ring.reduce_to(pp.prime), list_cap, brute_cap)
            for pp in fact.factors
        ]
    radical = fact.radical
    k = fact.max_exponent
    coeffs = []
    for pp in fact.factors:
        c_i = radical // pp.prime
        t_i = modular_inverse(c_i, pp.prime)
        coeffs.append(t_i * c_i)
    count = prod(f.count for f in base_families)
    if count > list_cap:
        raise SizeLimitError(
            f"power-form enumeration materializes all {count} members; "
            f"that exceeds the cap {list_cap}"
        )
    if not all(f.complete for f in base_families):
        raise UnsupportedError("power-form combination needs complete base families")
    choices = [ring.zero]
    for coeff, fam in zip(coeffs, base_families):
        embedded = [coeff * ring.from_coeffs(f.coeff_vector()) for f in fam.members]
        choices = [x + y for x in choices for y in embedded]
    members = [pow_tower(u, radical, k - 1) for u in choices]
    if len(set(x.coeff_vector() for x in members)) != count:
        raise VerificationError("power-form members collide")
    primitive = ()
    expected = None
    if all(f.orthogonal_primitive for f in base_families):
        expected = sum(len(f.primitive) for f in base_families)
        primitive = []
        for idx, fam in enumerate(base_families):
            for f in fam.primitive:
                u = coeffs[idx] * ring.from_coeffs(f.coeff_vector())
                primitive.append(pow_tower(u, radical, k - 1))
    return _build_family(
        ring,
        members=members,
        primitive=primitive,
        count=count,
        complete=True,
        provenance="crt-combined",
        expected_components=expected,
    )
