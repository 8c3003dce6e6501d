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

from collections import namedtuple
from collections.abc import Sequence
from itertools import combinations, groupby
from math import comb, gcd

from .errors import VerificationError
from .group_rings import Ring
from .rings import factorize, pow_mults

NILPOTENCY_CAP = 64
PAIR_CAP = 64


def verify_idempotent(x) -> bool:
    return x.ring.mul(x.value, x.value) == x.value  # builds no element


def verify_orthogonal(x, y) -> bool:
    return (x * y).is_zero()


def nilpotency_index(x) -> int | None:
    """Smallest k <= NILPOTENCY_CAP with x**k == 0, or None when no such k exists.

    None is a signal, not an error: callers decide whether non-nilpotency
    is acceptable.
    """
    power = x
    for k in range(1, NILPOTENCY_CAP + 1):
        if power.is_zero():
            return k
        power = power * x
    return None


class CncChain(namedtuple("CncChain", "ring ss ts base_ring", defaults=(None,))):
    """Descriptor for a chain of nilpotent ideals R > N_1 > ... > N_k = 0.

    ``ss[i]``/``ts[i]`` describe step i.  When the chain is principal and
    scalar-generated, ``base_ring`` is R/N_1 (R with a smaller coefficient
    modulus), which ``embed`` maps R onto; otherwise it is None and
    congruence checks are skipped.
    """

    __slots__ = ()

    def __new__(cls, ring: Ring, ss: tuple[int, ...], ts: tuple[int, ...], base_ring: Ring | None = None):
        if len(ss) != len(ts):
            raise ValueError("step lists must have equal length")
        for s, t in dict.fromkeys(zip(ss, ts)):
            if t < 2:
                raise ValueError(f"nilpotency exponent t must be >= 2, got {t}")
            if s < 1:
                raise ValueError(f"annihilator s must be >= 1, got {s}")
            # every prime is >= 2, so only t > 2 can fail the prime test
            if t > 2 and s > 1:
                for pp in factorize(s).factors:
                    if pp.prime < t:
                        raise ValueError(
                            f"prime factor {pp.prime} of s = {s} is below t = {t}"
                        )
        return super().__new__(cls, ring, ss, ts, base_ring)

    # ``_replace`` builds through ``_make``: send it through the checks too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def exponent_tower(self) -> tuple[int, int] | tuple[tuple[int, int], ...]:
        """(s, count) when the s_i coincide, else the (s, count) runs of equal
        steps in order: steps 2, 3 give ((2, 1), (3, 1)), not 2^3's (2, 3)."""
        runs = tuple((s, len(list(g))) for s, g in groupby(self.ss)) or ((1, 0),)
        return runs[0] if len(runs) == 1 else runs


class LiftReport(
    namedtuple("LiftReport", "input lifted tower verified_idempotent verified_congruent multiplications")
):
    """Outcome of a chain lift, with its verification bits and work counter."""

    __slots__ = ()

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


def binomial_lift(f):
    """Lift f to the idempotent congruent to it modulo the nil ideal.

    Requires (f^2 - f)**n == 0, and computes the least such n.  The lift is
    sum_{i=n}^{2n-1} C(2n-1, i) * f^i * (1-f)^{2n-1-i},
    the unique idempotent congruent to f modulo the ideal generated by
    f^2 - f.
    """
    ring = f.ring
    n = nilpotency_index(f * f - f)
    if n is None:
        raise VerificationError(
            f"f^2 - f is not nilpotent within exponent cap {NILPOTENCY_CAP}"
        )
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


def power_lift(f, s: int):
    """f**s, the chain-step lift; the result must be idempotent."""
    if s < 1:
        raise ValueError(f"power lift exponent must be >= 1, got {s}")
    e = f**s
    if not verify_idempotent(e):
        raise VerificationError(f"power lift by s = {s} failed: the result is not idempotent")
    return e


def chain_lift(f, chain: CncChain) -> LiftReport:
    """Lift f along the whole chain and report what was verified; a failed
    verification raises."""
    if f * f == f:  # already idempotent: the tower would be a no-op
        e, ok_idem, ok_congruent, mults = f, True, True, 1
    else:
        e = f
        for s in chain.ss:
            e = e**s
        ok_idem = e * e == e
        # the two idempotency checks and the products of each step's power
        mults = 2 + sum(pow_mults(s) for s in chain.ss)
        ok_congruent: bool | None = None
        if (base := chain.base_ring) is not None:
            ok_congruent = base.embed(e) == base.embed(f)
    report = LiftReport(
        input=f,
        lifted=e,
        tower=chain.exponent_tower(),
        verified_idempotent=ok_idem,
        verified_congruent=ok_congruent,
        multiplications=mults,
    )
    if not report.verified:
        raise VerificationError(
            "chain lift failed verification: "
            f"idempotent={ok_idem}, congruent={ok_congruent}"
        )
    return report


def _scalar_nilpotency_index(c: int, m: int) -> int | None:
    """``nilpotency_index(c*1)`` without ring products.

    (c*1)^k = c^k * 1, and 1 carries coefficient 1, so the power vanishes
    exactly when c^k = 0 mod m.
    """
    return next((k for k in range(1, NILPOTENCY_CAP + 1) if pow(c, k, m) == 0), None)


def chain_for_nilpotent_ideal(ring: Ring, a, char: int | None = None) -> CncChain:
    """Chain N > N^2 > ... > N^k = 0 for the principal ideal N = (a).

    The generator's nilpotency index k is computed, and every step gets
    t_i = 2 and s_i = char, the characteristic of R/N.  For a scalar
    generator a = c*1 the quotient ring R/N is constructed; otherwise char
    must be supplied and the chain carries no quotient.
    """
    scalar = ring.scalar_of(a)
    if scalar is not None:
        k = _scalar_nilpotency_index(scalar, ring.coefficient_modulus)
    else:
        k = nilpotency_index(a)
    if k is None:
        raise VerificationError(f"chain generator is not nilpotent within cap {NILPOTENCY_CAP}")
    if scalar is not None:
        d = gcd(scalar, ring.coefficient_modulus)
        quotient = ring.reduce_to(d)
        if char is not None and char != d:
            raise VerificationError(
                f"claimed quotient characteristic {char}, but R/(a) has characteristic {d}"
            )
        return CncChain(ring, (d,) * (k - 1), (2,) * (k - 1), quotient)
    if char is None:
        raise ValueError("non-scalar chain generators need an explicit characteristic")
    return CncChain(ring, (char,) * (k - 1), (2,) * (k - 1))


def standard_chain(ring: Ring) -> CncChain:
    """The default chain for a carrier over Z_m: generator rad(m), index max r_i.

    For m = p^k this is the (p)-adic chain with tower (p, k-1); for prime
    or unit m the chain is trivial and lifting is the identity.
    """
    m = ring.coefficient_modulus
    if m == 1:
        return CncChain(ring, (), (), ring)
    fact = factorize(m)
    a = ring.from_int(fact.radical)
    return chain_for_nilpotent_ideal(ring, a)


class FamilyCheck(
    namedtuple(
        "FamilyCheck",
        "idempotent all_nonzero orthogonal sums_to_one expected_components",
        defaults=(None,),
    )
):
    """Joint verification flags for a would-be orthogonal decomposition of 1:
    one idempotency flag per member, and ``orthogonal`` None when unchecked."""

    __slots__ = ()

    @property
    def all_idempotent(self) -> bool:
        return all(self.idempotent)

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
            and len(self.idempotent) == self.expected_components
        )


def verify_family(members: Sequence, ring: Ring, expected_components: int | None = None) -> FamilyCheck:
    """Check idempotency, orthogonality and the sum of a candidate family.

    For idempotents e_1, ..., e_k the family is pairwise orthogonal exactly
    when e_i * (e_1 + ... + e_{i-1}) = 0 for every i, so a family of
    idempotents costs k squarings and k - 1 products against the running
    sum, which is also the total compared with 1.  When some member is not
    idempotent the lemma does not apply and every pair is multiplied, for
    at most ``PAIR_CAP`` members; above that orthogonality is left None.
    """
    members = list(members)
    idempotent = tuple(verify_idempotent(x) for x in members)
    all_idem = all(idempotent)
    orthogonal = True
    total = ring.zero
    for i, x in enumerate(members):
        if all_idem and orthogonal and i:
            orthogonal = verify_orthogonal(x, total)
        total = total + x
    if not all_idem:
        orthogonal = None if len(members) > PAIR_CAP else all(
            verify_orthogonal(x, y) for x, y in combinations(members, 2)
        )
    return FamilyCheck(
        idempotent=idempotent,
        all_nonzero=all(not x.is_zero() for x in members),
        orthogonal=orthogonal,
        sums_to_one=total == ring.one,
        expected_components=expected_components,
    )
