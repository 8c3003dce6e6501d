"""Complete and primitive idempotent families for the supported carriers.

Enumeration follows one shape everywhere: find the idempotents of the
residue ring mod each prime p dividing the coefficient modulus, raise each
to p^{r-1} to lift it to the prime-power part, and glue the prime parts
with the CRT weights s_i * m_i.  Over a prime there is one route per
carrier kind: {0, 1} for Z_p, the factorization of the quotient
polynomial for a quotient base, and for F_p G the paper's hat family
where it certifies, else the Frobenius splitter, which also serves F_q G,
q = p^d: the character idempotents where exp(G) divides q - 1, else
idempotents of the Frobenius-fixed subalgebra B from ring products alone.
The brute-force scan is the independent check, never a provider.

The idempotents form a Boolean algebra whose atoms are the primitives, and
the glue is additive, so each internal route (``_base_route``, the routes
it dispatches to, and the glue of ``_poly_route`` and ``_crt_route``) takes
the carrier it answers for and hands on uncertified candidate primitives,
one lift each, with a component count computed without looking at them: 1
per field factor, a group ring's ``_components`` (the Frobenius orbit
count of Perlis & Walker 1950, in closed form, once per ring), and for the
glue the sum of its parts' counts.  Only the public function the caller
invoked checks that its modulus is prime and certifies, once
(``_build_family``): idempotency, orthogonality, the sum, and the number
against that count.  A family that cannot be certified is an error, never
a silent downgrade.  A family is its certified primitives and nothing
more: ``values`` lists E(ring) from them on first read, and the oracle's
scan and the power form, which build members of their own, must each
equal that listing.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import cached_property
from math import gcd, lcm

from .errors import SizeLimitError, UnsupportedError, VerificationError
from .group_rings import GroupRing, Ring
from .groups import AbelianGroup, Subgroup, TRIVIAL_GROUP, order_q_subgroups
from .lifting import verify_family, verify_idempotent
from .oracle import DEFAULT_BRUTE_CAP, brute_force_scan
from .polynomials import _product, _require_prime, berlekamp_factor, frobenius_fixed_basis
from .quotients import QuotientRing, ResidueRing
from .rings import factorize, is_prime, modular_inverse

DEFAULT_LIST_CAP = 2**16
FROBENIUS_DIMENSION_CAP = 64


class IdempotentFamily(namedtuple("IdempotentFamily", "ring primitive provenance")):
    """E(ring), given by its certified primitive idempotents.

    ``primitive`` is the orthogonal primitive decomposition of 1 (empty
    only for the zero ring), certified once against a count that does not
    look at it.  E is the Boolean algebra it generates, so ``count`` is
    |E(ring)| = 2^len(primitive).  ``values`` lists E on first read, as
    packed ints: the subset sums of ``primitive``, canonically sorted by
    coefficient vector, each squared once more (a block at a time, by
    ``ring.square_mismatch``) and none listed twice; ``members`` wraps them.
    No ``__slots__``: the two listings are cached in the instance ``__dict__``.
    """

    @property
    def count(self) -> int:
        return 1 << len(self.primitive)

    @cached_property
    def values(self) -> tuple:
        ring = self.ring
        keys = [ring.order_key(x.value) for x in self.primitive]
        # sorted() of a temporary: the unsorted sums are freed as it returns
        values = ring.key_values(sorted(_subset_sums(keys, ring)))
        start = ring.square_mismatch(values)
        if start is not None:  # square them one by one from that block on, to name the member
            for x in (ring.element(ring, v) for v in values[start:]):
                if not verify_idempotent(x):
                    raise VerificationError(f"claimed member {x} is not idempotent")
        # a key holds its value, so a duplicate sorts next to its twin
        for a, b in zip(values, values[1:]):
            if a == b:
                x = ring.element(ring, a)
                raise VerificationError(f"complete family contains duplicates of {x}")
        return tuple(values)

    @cached_property
    def members(self) -> tuple:
        return tuple(self.ring.element(self.ring, v) for v in self.values)

    def to_json_dict(self) -> dict:
        return {
            "ring": self.ring.expression(),
            "count": self.count,
            "primitive": [list(x.coeff_vector()) for x in self.primitive],
            "provenance": self.provenance,
        }


def _build_family(ring: Ring, primitive, components: int, provenance: str) -> IdempotentFamily:
    """Certify the candidate primitives against ``components``, a count
    computed without looking at them.  Each route returns these arguments
    uncertified; each public function passes its answer here, once."""
    primitive = tuple(sorted(primitive, key=lambda x: ring.order_key(x.value)))
    check = verify_family(primitive, ring, components)
    if not check.primitive_certified:
        raise VerificationError(
            "primitive family failed certification: "
            f"idempotent={check.all_idempotent}, nonzero={check.all_nonzero}, "
            f"orthogonal={check.orthogonal}, sum_to_one={check.sums_to_one}, "
            f"size={len(primitive)}, expected={check.expected_components}"
        )
    return IdempotentFamily(ring=ring, primitive=primitive, provenance=provenance)


def _refine(ring: Ring, families, k: int) -> list:
    """Split 1 into k pieces: each piece e becomes the nonzero e*f over the
    members f of the next family of orthogonal idempotents summing to 1,
    and a piece with e*f = e is kept whole at once."""
    primitive = [ring.one] if k else []  # k = 0 only in the zero ring, where 1 = 0
    while len(primitive) < k:
        family = next(families, None)
        if family is None:
            raise VerificationError(f"the families split 1 into {len(primitive)}, not {k}, pieces")
        pieces = []
        for e in primitive:
            for f in family:
                if not (x := e * f).is_zero():
                    pieces.append(x)
                    if x == e:  # e lies under f, so e * f' = 0 for every other f'
                        break
        primitive = pieces
    return primitive


def _subset_sums(values, ring: Ring) -> list[int]:
    # All 2^k subset sums of k order keys or packed ints, doubling one list
    # in place: each step adds one of them to every sum so far at once.
    out = [0]
    for e in values:
        out += ring.add_to_each(out, e)
    return out


def brute_force_idempotents(ring: Ring, cap: int = DEFAULT_BRUTE_CAP) -> IdempotentFamily:
    """Exhaustive scan; the oracle side of every dual-route check.

    A Boolean algebra of 2^k members has k atoms, and the pairs {f, 1 - f}
    over the scanned f refine 1 into them.  The scan must then be exactly
    the listing of the certified atoms, in the same ascending order.
    """
    members = brute_force_scan(ring, cap)
    k = len(members).bit_length() - 1
    if not members or len(members) != 1 << k:
        raise VerificationError(f"|E| = {len(members)} is not a power of 2; enumeration is broken")
    families = ([f, ring.one - f] for f in members if not f.is_zero() and f != ring.one)
    fam = _build_family(ring, _refine(ring, families, k), k, "brute-force")
    if fam.values != tuple(x.value for x in members):
        raise VerificationError("the scan is not the Boolean algebra of its atoms")
    return fam


def cyclic_base_idempotents(n: int, p: int) -> IdempotentFamily:
    """E(F_p C_n), p dividing n or not, by the Frobenius splitter."""
    group = AbelianGroup((n,))  # n = 1 is refused here, before any ring is built
    _require_prime(p, "cyclic_base_idempotents")
    return _build_family(*_frobenius_route(GroupRing(ResidueRing(p), group)))


def _splitting_families(ring: GroupRing, hs, p: int):
    """Orthogonal idempotents of B that sum to 1, at least two nonzero, one
    family per h in hs and, over odd p, per shift a.  B is F_p^k as an
    algebra: over F_2 each h is idempotent and gives {h, 1 - h}; over odd
    p, w = (h + a)^((p - 1)/2) is 0 or +-1 on each component, so u = w^2
    and s = (u + w)/2 give {s, u - s, 1 - u}, the components where h + a is
    a nonzero square, a non-square, and zero (Cantor & Zassenhaus 1981).
    The shifts a = 0 .. p - 1 separate every two components where h differs.
    """
    one = ring.one
    for a in range(p if p > 2 else 1):  # over F_2 a shift swaps h and 1 - h
        for h in hs:
            if p == 2:
                family = [h, one - h]
            else:
                w = (h + ring.from_int(a)) ** ((p - 1) // 2)
                u = w * w
                s = (u + w) * ((p + 1) // 2)
                family = [s, u - s, one - u]
            family = [f for f in family if not f.is_zero()]
            if len(family) > 1:
                yield family


def frobenius_idempotents(ring: GroupRing) -> IdempotentFamily:
    """E(KG) for K = F_q, q = p^d, as F_p or F_p[x]/(f), f irreducible, any G
    and any p.  Where exp(G) divides q - 1, KG is K^|G|, split by its
    characters (``_characters``).  Otherwise the fixed space B of a -> a^p on
    A = KG is the F_p-span of A's primitives (Friedl & Ronyai 1985): over F_p
    the orbit sums of g -> g^p on the p'-elements (``_orbit_sums``; E(F_p G)
    = E(F_p G_p'), Passman 1977), else the null space of Frob - I, split by
    the basis less the scalars (``_splitting_families``, ``_refine``)."""
    _require_prime(p := ring.coefficient_modulus, "frobenius_idempotents")
    if (f := getattr(ring.base, "q", None)) and berlekamp_factor(f, p).factors != ((f, 1),):
        raise ValueError(f"frobenius_idempotents requires a field, got {ring.base.expression()}")
    return _build_family(*_frobenius_route(ring))


def _frobenius_route(ring: GroupRing):
    if (n := ring.dimension) > (cap := FROBENIUS_DIMENSION_CAP):
        raise SizeLimitError(f"Frobenius splitting capped at dimension {cap}, got {n}")
    p, group = ring.coefficient_modulus, ring.group
    if (primitive := _characters(ring)) is None:
        if ring.base.dimension == 1:
            basis = _orbit_sums(ring, p)
        else:
            images = [group.power(g, p) for g in range(group.order)]
            basis = [ring.from_coeffs(v) for v in frobenius_fixed_basis(ring._shape[1], p, images)]
        # a scalar is constant on every component
        hs = [h for h in basis if ring.scalar_of(h) is None]
        primitive = _refine(ring, _splitting_families(ring, hs, p), len(basis))
    return ring, primitive, ring._components, "factorization"


def _characters(ring: GroupRing) -> list | None:
    """F_q G's primitives where exp(G) = e divides q - 1, else None: for each
    a in G, |G|^-1 sum_b zeta^(-sum_i a_i b_i e / n_i) g_b (Perlis & Walker
    1950), by an outer product over the cyclic factors, packed once.  zeta is
    the first y^((q - 1)/e) of order e, y read from the base-p digits of c =
    1, 2, ..., or of c = p, p + 1, ... (past F_p) when d > 1."""
    base, p, factors = ring.base, ring.coefficient_modulus, ring.group.factors
    d, q, e = base.dimension, p**base.dimension, lcm(*factors)
    if (q - 1) % e:
        return None
    for c in itertools.count(1 if d == 1 else p):
        y = base.pack([c // p**i % p for i in range(d)])  # c itself when d = 1
        z = pow(y, (q - 1) // e, p) if d == 1 else (base.element(base, y) ** ((q - 1) // e)).value
        powers = [modular_inverse(ring.group.order, p)]  # |G|^-1 z^t, t < e
        while len(powers) < e:
            powers.append(powers[-1] * z % p if d == 1 else base.mul(powers[-1], z))
        if powers[0] not in powers[1:]:  # z has order e
            break
    blocks, rows = [base.unpack(v) for v in powers], [[0]]
    for n in factors:  # rows[a][b] = -sum_i a_i b_i e / n_i, a and b in index order
        rows = [[t - a * b * (e // n) for t in row for b in range(n)]
                for row in rows for a in range(n)]
    return [ring.element(ring, ring.pack([c for t in row for c in blocks[t % e]])) for row in rows]


def _orbit_sums(ring: GroupRing, p: int) -> list:
    """B's basis over F_p: the orbit sums of g -> g^p on the p'-elements, by
    largest element, as in Frob - I, walked digit by digit on the cyclic factors."""
    image, orbits = [(0, 0)], []  # (g, g^p) by index
    for n in ring.group.factors:
        step = gcd(n, p ** n.bit_length())  # a p'-element's digit is a multiple of n's p-part
        image = [(g * n + b, h * n + b * p % n) for g, h in image for b in range(0, n, step)]
    for g in list(image := dict(image)):
        if g in image:
            orbits.append(orbit := [])
            while g in image:
                orbit.append(g)
                g = image.pop(g)
    lay = ring._layout
    return [ring.element(ring, sum(1 << lay.positions[g] * lay.slot for g in orbit))
            for orbit in sorted(orbits, key=max)]


def hat_family(group: AbelianGroup, p: int) -> IdempotentFamily:
    """Subgroup-average idempotents of F_p G for elementary abelian G of rank
    <= 2: {G-hat, 1 - G-hat} at rank 1, and G-hat plus H-hat - G-hat over the
    q + 1 subgroups H of order q of C_q x C_q at rank 2, certified against
    the Frobenius orbit count or rejected outright."""
    _require_prime(p, "hat_family")
    return _build_family(*_hat_route(GroupRing(ResidueRing(p), group)))


def _hat_route(ring: GroupRing):
    group, p = ring.group, ring.coefficient_modulus
    if not group.is_elementary_abelian() or group.rank > 2:
        raise UnsupportedError(
            "hat family needs an elementary abelian group of rank <= 2, "
            f"got {group.expression()}"
        )
    size = 2 if group.rank == 1 else group.factors[0] + 2  # q + 1 subgroups of C_q^2
    # For p != q the candidates are an orthogonal decomposition of 1, primitive
    # exactly when their number is the orbit count (1 for p = q, the trivial
    # p'-part's).  It is compared before any subgroup or candidate is built.
    if size != ring._components:
        raise UnsupportedError(
            "hat family certification failed for "
            f"{ring.expression()}: size {size} vs {ring._components} components"
        )
    g_hat = ring.hat(Subgroup(group, tuple(range(1, group.order)), tuple(range(group.order))))
    parts = [ring.one] if group.rank == 1 else [ring.hat(sub) for sub in order_q_subgroups(group)]
    return ring, [g_hat] + [x - g_hat for x in parts], size, "hat-family"


def _base_route(ring: Ring):
    base = getattr(ring, "base", ring)
    if isinstance(ring, ResidueRing):
        return ring, (ring.one,), 1, "factorization"
    if isinstance(base, QuotientRing):
        return _poly_route(ring)
    if isinstance(ring, GroupRing) and isinstance(base, ResidueRing):
        try:  # a refused hat route leaves the count it computed to the splitter
            return _hat_route(ring)
        except UnsupportedError:
            return _frobenius_route(ring)
    raise UnsupportedError(f"unsupported carrier {ring!r}")


def poly_crt_combine(p: int, mpoly, group: AbelianGroup = TRIVIAL_GROUP) -> IdempotentFamily:
    """E((F_p[x]/(m(x))) G) from the factorization m(x) = prod q_i^{r_i},
    m(x) a coefficient sequence, lowest degree first.

    The combination rule is e = sum_i s_i(x) m_i(x) f_i^{p^{r_i - 1}} over
    choices of f_i from E((F_p[x]/(q_i)) G).  Without a group each factor
    ring is a field, whose one primitive is 1; with one, every linear factor
    gives F_p G, whose family is found once, and a factor of degree > 1
    gives F_{p^d} G, split by ``frobenius_idempotents``.
    """
    _require_prime(p, "poly_crt_combine")
    quotient = QuotientRing(p, mpoly)
    return _build_family(*_poly_route(quotient if group.is_trivial else GroupRing(quotient, group)))


def _poly_route(ring: Ring):
    p, quotient = ring.coefficient_modulus, getattr(ring, "base", ring)
    group = getattr(ring, "group", TRIVIAL_GROUP)
    fact = berlekamp_factor(quotient.q, p)
    weights, alphas, parts = [], [], []
    linear = ()  # E(F_p G)'s primitives and count, shared by every linear factor
    for (q, e), cof, inv in zip(fact.factors, fact.cofactors, fact.inverses):
        weights.append(ring.embed(quotient.from_polynomial(_product(inv, cof))))
        alphas.append(p ** (e - 1))
        if group.is_trivial:
            parts.append(((ring.one,), 1))
        elif len(q) == 2:
            # F_p[x]/(x - a) is F_p
            linear = linear or _base_route(GroupRing(ResidueRing(p), group))[1:3]
            parts.append(linear)
        else:
            parts.append(_frobenius_route(GroupRing(QuotientRing(p, q), group))[1:3])
    return _combine(ring, weights=weights, alphas=alphas, parts=parts)


def _combine(carrier: Ring, *, weights, alphas, parts):
    """Glue per-component primitives: e = sum_i w_i * embed(f_i)^{alpha_i}.

    The weights w_i are carrier elements; each part is a component's
    uncertified primitives and its independent count.  The glue is
    additive, so the lifts, one each, are the carrier's candidates, and its
    count is the sum of the parts' counts, never of their lengths.
    Provenance: "crt-combined" for more than one component, "lifted" for
    one raised to a power, "factorization" for one as it is.
    """
    primitive = [
        w if f.ring.scalar_of(f) == 1 else w * carrier.embed(f) ** alpha  # 1 lifts to 1
        for w, alpha, (fam, _) in zip(weights, alphas, parts)
        for f in fam
    ]
    if len(parts) > 1:
        provenance = "crt-combined"
    else:
        provenance = "lifted" if alphas[0] > 1 else "factorization"
    return carrier, primitive, sum(k for _, k in parts), provenance


def crt_combine(m: int, group: AbelianGroup) -> IdempotentFamily:
    """E(Z_m G) as e = sum_i s_i m_i f_i^{p_i^{r_i - 1}} over base choices.

    Completeness multiplies; the embedded per-prime primitives form the
    (additive) primitive family.
    """
    return _build_family(*_crt_route(GroupRing(ResidueRing(m), group)))


def _crt_route(ring: Ring):
    m = ring.coefficient_modulus
    if m == 1:
        return ring, (), 0, "brute-force"
    fact = factorize(m)
    return _combine(
        ring,
        weights=[ring.from_int(w) for w in fact.crt_weights],
        alphas=[pp.prime ** (pp.exponent - 1) for pp in fact.factors],
        parts=[_base_route(ring.reduce_to(pp.prime))[1:3] for pp in fact.factors],
    )


def enumerate_idempotents(ring: Ring) -> IdempotentFamily:
    """E(ring) for any supported carrier, by base providers + lifting + CRT.

    |E(ring)| always equals the product of the base-field counts (the
    lift along each prime-power chain is a bijection on idempotents), and
    the construction verifies that with exact arithmetic.
    """
    route = _base_route if is_prime(ring.coefficient_modulus) else _crt_route
    return _build_family(*route(ring))


def crt_combine_powerform(m: int, group: AbelianGroup) -> IdempotentFamily:
    """E(Z_m G) in single-power form: e = (sum_i t_i c_i f_i)^{rad(m)^{k-1}}.

    c_i = rad(m)/p_i, t_i c_i == 1 (mod p_i), k = max r_i.  Must agree with
    crt_combine element-for-element; the tests hold the two routes equal.
    Its members are built here, one power form per choice of base members,
    never as subset sums of its primitives, and must be the listing of the
    certified family of its power-form primitives.  More than
    ``DEFAULT_LIST_CAP`` of them are refused before any is built.
    """
    ring = GroupRing(ResidueRing(m), group)
    if m == 1:
        return _build_family(*_crt_route(ring))
    fact = factorize(m)
    bases = [_base_route(ring.reduce_to(pp.prime)) for pp in fact.factors]
    components = sum(k for _, _, k, _ in bases)
    if (count := 1 << components) > DEFAULT_LIST_CAP:
        raise SizeLimitError(
            f"power-form enumeration materializes all {count} members; "
            f"that exceeds the cap {DEFAULT_LIST_CAP}"
        )
    radical, k = fact.radical, fact.max_exponent
    # t_i c_i for c_i = rad(m)/p_i and t_i its inverse mod p_i
    coeffs = [modular_inverse(radical // pp.prime, pp.prime) * (radical // pp.prime)
              for pp in fact.factors]
    choices = [ring.zero]
    for c, (base, candidates, _, _) in zip(coeffs, bases):
        sums = _subset_sums([e.value for e in candidates], base)
        embedded = [c * ring.embed(base.element(base, v)) for v in sums]
        choices = [x + y for x in choices for y in embedded]
    members = [u ** radical ** (k - 1) for u in choices]
    primitive = [
        (coeff * ring.embed(f)) ** radical ** (k - 1)
        for coeff, (_, candidates, _, _) in zip(coeffs, bases)
        for f in candidates
    ]
    fam = _build_family(ring, primitive, components, "crt-combined")
    if sorted(x.value for x in members) != sorted(fam.values):
        raise VerificationError("the power-form members are not the listing of its primitives")
    return fam
