"""Lifting idempotents along chains of nilpotent ideals.

The engine works over any of the package's carriers.  A chain descriptor
records, for each step N_i > N_{i+1}, the nilpotency exponent t_i with
N_i^{t_i} contained in N_{i+1} and the additive annihilator s_i with
s_i N_i contained in N_{i+1}; validity demands every prime factor of s_i
be >= t_i.  When t_i = 2 (the principal chains N > N^2 > ... built here)
any s_i >= 2 qualifies, and the lift of a residue idempotent f is simply
f raised to s_1 * s_2 * ... applied as a tower of successive powers.

Two independent lifting routes are kept side by side: the binomial-sum
construction, which needs only nilpotency of f^2 - f, and the power
construction along a chain.  They must agree wherever both apply, and the
tests hold them to that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, gcd
from typing import Callable, Sequence

from .errors import UnsupportedError, VerificationError
from .rings import Ring, factorize, pow_mults

NILPOTENCY_CAP = 64


def verify_idempotent(x) -> bool:
    return x * x == x


def verify_orthogonal(x, y) -> bool:
    return (x * y).is_zero()


def nilpotency_index(x, cap: int = NILPOTENCY_CAP) -> int | None:
    """Smallest k <= cap with x**k == 0, or None when no such k exists.

    None is a signal, not an error: callers decide whether non-nilpotency
    is acceptable.
    """
    power = x
    for k in range(1, cap + 1):
        if power.is_zero():
            return k
        power = power * x
    return None


@dataclass(frozen=True)
class CncChain:
    """Descriptor for a chain of nilpotent ideals R > N_1 > ... > N_k = 0.

    ``ss[i]``/``ts[i]`` describe step i.  When the chain is principal and
    scalar-generated, ``base_ring`` is R/N_1 and ``reduce``/``include``
    move elements across; otherwise both are None and congruence checks
    are skipped.  ``provenance`` records how the data was justified:
    prime-power and principal-nilpotent chains were validated against a
    concrete generator, validated-numerically means arbitrary data that
    passed the numeric checks, trusted means caller-supplied.
    """

    ring: Ring
    ss: tuple[int, ...]
    ts: tuple[int, ...]
    provenance: str
    base_ring: Ring | None = None
    reduce_map: Callable | None = field(default=None, compare=False)
    include_map: Callable | None = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.ss) != len(self.ts):
            raise ValueError("step lists must have equal length")
        if self.provenance not in (
            "prime-power",
            "principal-nilpotent",
            "validated-numerically",
            "trusted",
        ):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        for s, t in zip(self.ss, self.ts):
            if t < 2:
                raise ValueError(f"nilpotency exponent t must be >= 2, got {t}")
            if s < 1:
                raise ValueError(f"annihilator s must be >= 1, got {s}")
            if s > 1:
                for pp in factorize(s).factors:
                    if pp.prime < t:
                        raise ValueError(
                            f"prime factor {pp.prime} of s = {s} is below t = {t}"
                        )

    @property
    def length(self) -> int:
        """Number of ideals in the chain (steps + 1)."""
        return len(self.ss) + 1

    def exponent_tower(self) -> tuple[int, int] | tuple[int, ...]:
        """(s, count) when the s_i coincide, else the explicit step list."""
        if not self.ss:
            return (1, 0)
        if all(s == self.ss[0] for s in self.ss):
            return (self.ss[0], len(self.ss))
        return tuple(self.ss)

    def reduce(self, x):
        if self.reduce_map is None:
            raise UnsupportedError("this chain carries no reduction map")
        return self.reduce_map(x)

    def include(self, y):
        if self.include_map is None:
            raise UnsupportedError("this chain carries no inclusion map")
        return self.include_map(y)


@dataclass
class LiftReport:
    """Outcome of a chain lift, with its verification bits and work counter."""

    input: object
    lifted: object
    tower: tuple
    verified_idempotent: bool
    verified_congruent: bool | None
    multiplications: int

    @property
    def verified(self) -> bool:
        return self.verified_idempotent and self.verified_congruent in (True, None)

    def to_json_dict(self, ring: Ring) -> dict:
        return {
            "ring": ring.expression(),
            "input": list(self.input.coeff_vector()),
            "lifted": list(self.lifted.coeff_vector()),
            "tower": list(self.tower),
            "verified": self.verified,
            "mults": self.multiplications,
        }


def binomial_lift(f, n: int | None = None, cap: int = NILPOTENCY_CAP):
    """Lift f to the idempotent congruent to it modulo the nil ideal.

    Requires (f^2 - f)**n == 0; n is computed exactly when omitted and
    verified when supplied.  The lift is
    sum_{i=n}^{2n-1} C(2n-1, i) * f^i * (1-f)^{2n-1-i},
    the unique idempotent congruent to f modulo the ideal generated by
    f^2 - f.
    """
    ring = f.ring
    w = f * f - f
    if n is None:
        n = nilpotency_index(w, cap)
        if n is None:
            raise VerificationError(
                f"f^2 - f is not nilpotent within exponent cap {cap}"
            )
    else:
        if n < 1:
            raise ValueError(f"nilpotency exponent must be >= 1, got {n}")
        if not (w**n).is_zero():
            raise VerificationError(f"(f^2 - f)^{n} != 0; binomial lift preconditions fail")
    if n == 1:
        return f
    g = ring.one - f
    f_pows = [ring.one]
    for _ in range(2 * n - 1):
        f_pows.append(f_pows[-1] * f)
    g_pows = [ring.one]
    for _ in range(n - 1):
        g_pows.append(g_pows[-1] * g)
    e = ring.zero
    for i in range(n, 2 * n):
        term = comb(2 * n - 1, i) * (f_pows[i] * g_pows[2 * n - 1 - i])
        e = e + term
    if not verify_idempotent(e):
        raise VerificationError("binomial lift produced a non-idempotent (internal)")
    return e


def power_lift(f, s: int, checked: bool = True):
    """f**s, the chain-step lift; in checked mode the result must be idempotent."""
    if s < 1:
        raise ValueError(f"power lift exponent must be >= 1, got {s}")
    e = f**s
    if checked and not verify_idempotent(e):
        raise VerificationError(
            f"power lift by s = {s} failed: the result is not idempotent"
        )
    return e


def chain_lift(f, chain: CncChain, checked: bool = True) -> LiftReport:
    """Lift f along the whole chain and report what was verified.

    In checked mode a failed verification raises; unchecked callers get
    the report with the failure bits set.
    """
    if f * f == f:
        # already idempotent: the tower would be a no-op
        return LiftReport(
            input=f,
            lifted=f,
            tower=chain.exponent_tower(),
            verified_idempotent=True,
            verified_congruent=True,
            multiplications=1,
        )
    e = f
    for s in chain.ss:
        e = e**s
    ok_idem = e * e == e
    # the two idempotency checks and the products of each step's power
    mults = 2 + sum(pow_mults(s) for s in chain.ss)
    ok_congruent: bool | None = None
    if chain.reduce_map is not None:
        ok_congruent = chain.reduce(e) == chain.reduce(f)
    report = LiftReport(
        input=f,
        lifted=e,
        tower=chain.exponent_tower(),
        verified_idempotent=ok_idem,
        verified_congruent=ok_congruent,
        multiplications=mults,
    )
    if checked and not report.verified:
        raise VerificationError(
            "chain lift failed verification: "
            f"idempotent={ok_idem}, congruent={ok_congruent}"
        )
    return report


def _scalar_of(ring: Ring, x) -> int | None:
    """c when x == c*1 for some integer c, else None."""
    vec = x.coeff_vector()
    unit = ring.one.coeff_vector()
    c = None
    for xv, uv in zip(vec, unit):
        if uv == 0:
            if xv != 0:
                return None
        else:
            # unit vectors here always carry 1 in the scalar slot
            if uv != 1:
                return None
            if c is None:
                c = xv
            elif c != xv:
                return None
    return c


def chain_for_nilpotent_ideal(
    ring: Ring,
    a,
    index: int | None = None,
    char: int | None = None,
    cap: int = NILPOTENCY_CAP,
) -> CncChain:
    """Chain N > N^2 > ... > N^k = 0 for the principal ideal N = (a).

    The generator's nilpotency index k is computed (or checked, when
    supplied), and every step gets t_i = 2 and s_i = char, the
    characteristic of R/N.  For a scalar generator a = c*1 the quotient
    ring and the reduction/inclusion maps are constructed; otherwise char
    must be supplied and the chain carries no maps.
    """
    k = nilpotency_index(a, cap)
    if k is None:
        raise VerificationError(f"chain generator is not nilpotent within cap {cap}")
    if index is not None and index != k:
        raise VerificationError(
            f"claimed nilpotency index {index} but the exact index is {k}"
        )
    scalar = _scalar_of(ring, a)
    if scalar is not None:
        d = gcd(scalar, ring.coefficient_modulus)
        quotient = ring.reduce_to(d)
        if char is not None and char != d:
            raise VerificationError(
                f"claimed quotient characteristic {char}, but R/(a) has characteristic {d}"
            )
        char = d
        reduce_map = lambda x: ring.reduce(x, quotient)
        include_map = ring.include
        provenance = "prime-power" if len(factorize(char).factors) == 1 else "principal-nilpotent"
        if k == 1:
            return CncChain(ring, (), (), provenance, quotient, reduce_map, include_map)
        return CncChain(
            ring,
            (char,) * (k - 1),
            (2,) * (k - 1),
            provenance,
            quotient,
            reduce_map,
            include_map,
        )
    if char is None:
        raise ValueError("non-scalar chain generators need an explicit characteristic")
    if k == 1:
        return CncChain(ring, (), (), "validated-numerically")
    return CncChain(ring, (char,) * (k - 1), (2,) * (k - 1), "validated-numerically")


def trusted_chain(ring: Ring, ss: Sequence[int], ts: Sequence[int]) -> CncChain:
    """Caller-supplied chain data, accepted after the arithmetic invariant check."""
    return CncChain(ring, tuple(ss), tuple(ts), "trusted")


def chain_for_group_ring(chain: CncChain, group_ring) -> CncChain:
    """Transport a coefficient-ring chain to the group ring, coefficient-wise.

    The ideals N_i G inherit both exponents: (N_i G)^{t_i} lies in
    N_i^{t_i} G and s_i N_i G lies in N_{i+1} G.
    """
    if group_ring.base != chain.ring:
        raise ValueError("chain was built for a different coefficient ring")
    base_q = chain.base_ring
    if base_q is None:
        return CncChain(group_ring, chain.ss, chain.ts, chain.provenance)
    from .group_rings import GroupRing

    quotient = GroupRing(base_q, group_ring.group)
    reduce_map = lambda x: group_ring.reduce(x, quotient)
    include_map = group_ring.include
    return CncChain(
        group_ring,
        chain.ss,
        chain.ts,
        chain.provenance,
        quotient,
        reduce_map,
        include_map,
    )


def standard_chain(ring: Ring) -> CncChain:
    """The default chain for a carrier over Z_m: generator rad(m), index max r_i.

    For m = p^k this is the (p)-adic chain with tower (p, k-1); for prime
    or unit m the chain is trivial and lifting is the identity.
    """
    m = ring.coefficient_modulus
    if m == 1:
        return CncChain(ring, (), (), "prime-power", ring, lambda x: x, lambda x: x)
    fact = factorize(m)
    a = ring.from_int(fact.radical)
    return chain_for_nilpotent_ideal(ring, a)


@dataclass
class FamilyCheck:
    """Joint verification flags for a would-be orthogonal decomposition of 1."""

    size: int
    all_idempotent: bool
    all_nonzero: bool
    orthogonal: bool
    sums_to_one: bool
    expected_components: int | None = None

    @property
    def complete_orthogonal(self) -> bool:
        return self.all_idempotent and self.orthogonal and self.sums_to_one

    @property
    def primitive_certified(self) -> bool:
        """True when the family provably is the primitive decomposition.

        A pairwise-orthogonal family of nonzero idempotents summing to 1
        whose size equals the ring's component count cannot be refined,
        so each member is primitive.
        """
        return (
            self.complete_orthogonal
            and self.all_nonzero
            and self.expected_components is not None
            and self.size == self.expected_components
        )


def verify_family(members: Sequence, ring: Ring, expected_components: int | None = None) -> FamilyCheck:
    """Check idempotency, orthogonality and the sum of a candidate family."""
    members = list(members)
    all_idem = all(verify_idempotent(x) for x in members)
    all_nonzero = all(not x.is_zero() for x in members)
    orthogonal = True
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if not verify_orthogonal(members[i], members[j]):
                orthogonal = False
                break
        if not orthogonal:
            break
    total = ring.zero
    for x in members:
        total = total + x
    sums_to_one = total == ring.one
    return FamilyCheck(
        size=len(members),
        all_idempotent=all_idem,
        all_nonzero=all_nonzero,
        orthogonal=orthogonal,
        sums_to_one=sums_to_one,
        expected_components=expected_components,
    )
