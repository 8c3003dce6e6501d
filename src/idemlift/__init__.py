"""Exact idempotent computation in finite commutative rings.

Carriers: residue rings Z(m), polynomial quotients Z(m)[x]/(q) including
Gaussian-integer rings Z(m)[i] and Galois rings, and group rings of
finite abelian groups over either.  The library enumerates E(R), lifts
idempotents along chains of nilpotent ideals, certifies orthogonal
primitive families, and cross-checks everything against a brute-force
oracle.
"""

from .catalog import (
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
from .errors import (
    IdemliftError,
    ParseError,
    SizeLimitError,
    UnsupportedError,
    VerificationError,
)
from .group_rings import GroupRing, GroupRingElement, pow_tower
from .groups import (
    AbelianGroup,
    Subgroup,
    all_subgroups,
    frobenius_orbit_count,
    group_from_factors,
    minimal_nontrivial_subgroups,
    subgroup_generated,
)
from .lifting import (
    CncChain,
    FamilyCheck,
    LiftReport,
    binomial_lift,
    chain_for_group_ring,
    chain_for_nilpotent_ideal,
    chain_lift,
    nilpotency_index,
    power_lift,
    standard_chain,
    trusted_chain,
    verify_family,
    verify_idempotent,
    verify_orthogonal,
)
from .oracle import brute_force_scan
from .parsing import RingExpression, build_ring, parse_element, parse_ring
from .polynomials import (
    Polynomial,
    PolyFactorization,
    berlekamp_factor,
    poly_ext_gcd,
    poly_gcd,
)
from .quotients import QuotientRing, gaussian_idempotents, gaussian_ring
from .rings import (
    PrimePowerFactorization,
    ResidueRing,
    Ring,
    factorize,
    is_prime,
    modular_inverse,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "CncChain",
    "FamilyCheck",
    "GroupRing",
    "GroupRingElement",
    "IdemliftError",
    "IdempotentFamily",
    "LiftReport",
    "ParseError",
    "PolyFactorization",
    "Polynomial",
    "PrimePowerFactorization",
    "QuotientRing",
    "ResidueRing",
    "Ring",
    "RingExpression",
    "SizeLimitError",
    "Subgroup",
    "UnsupportedError",
    "VerificationError",
    "all_subgroups",
    "base_field_idempotents",
    "berlekamp_factor",
    "binomial_lift",
    "brute_force_idempotents",
    "brute_force_scan",
    "build_ring",
    "chain_for_group_ring",
    "chain_for_nilpotent_ideal",
    "chain_lift",
    "crt_combine",
    "crt_combine_powerform",
    "cyclic_base_idempotents",
    "enumerate_idempotents",
    "factorize",
    "frobenius_orbit_count",
    "gaussian_idempotents",
    "gaussian_ring",
    "group_from_factors",
    "hat_family",
    "is_prime",
    "minimal_nontrivial_subgroups",
    "modular_inverse",
    "nilpotency_index",
    "parse_element",
    "parse_ring",
    "poly_crt_combine",
    "poly_ext_gcd",
    "poly_gcd",
    "pow_tower",
    "power_lift",
    "standard_chain",
    "subgroup_generated",
    "trusted_chain",
    "verify_family",
    "verify_idempotent",
    "verify_orthogonal",
]
