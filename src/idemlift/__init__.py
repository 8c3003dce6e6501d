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
    brute_force_idempotents,
    crt_combine,
    crt_combine_powerform,
    cyclic_base_idempotents,
    enumerate_idempotents,
    frobenius_idempotents,
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
from .group_rings import GroupRing, GroupRingElement, Ring
from .groups import (
    AbelianGroup,
    Subgroup,
    all_subgroups,
    frobenius_orbit_count,
    group_from_factors,
    subgroup_generated,
)
from .lifting import (
    CncChain,
    FamilyCheck,
    LiftReport,
    binomial_lift,
    chain_for_nilpotent_ideal,
    chain_lift,
    nilpotency_index,
    power_lift,
    standard_chain,
    verify_family,
    verify_idempotent,
    verify_orthogonal,
)
from .oracle import brute_force_scan
from .parsing import RingExpression, build_ring, parse_element, parse_ring
from .polynomials import (
    PolyFactorization,
    berlekamp_factor,
    poly_gcd,
)
from .quotients import QuotientRing, ResidueRing, gaussian_ring
from .rings import (
    PrimePowerFactorization,
    factorize,
    is_prime,
    modular_inverse,
)

__version__ = "0.1.0"

# every class and function imported above; no submodule has a __module__
__all__ = sorted(n for n, v in globals().items() if not n.startswith("_") and hasattr(v, "__module__"))
