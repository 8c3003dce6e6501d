"""Dense univariate polynomials over Z_m and factorization over prime fields.

A polynomial is a sequence of coefficients, lowest degree first; the
functions below take lists or tuples, and the zero polynomial is empty.
What leaves the module (gcds, factors, cofactors, inverses) is reduced
mod m with trailing zeros trimmed.  Products in Z_m[x]/(u) go through
``poly_mulmod`` (schoolbook product, reduced by the monic u, then mod m);
ring elements, of ``QuotientRing`` and ``ResidueRing`` alike, multiply in
the packed kernel of ``group_rings`` instead.  Gcds and Berlekamp
factorization require a prime modulus and say so.

The factorizer is Berlekamp's method: squarefree reduction through gcd
with the derivative (p-th powers handled by coefficient-wise p-th roots,
which are trivial over F_p), null space of Q - I by Gaussian elimination,
and splitting by the quadratic character of each basis element b(x):
gcd(u, (b(x) + a)^((p-1)/2) - 1 mod u) over the shifts a = 0, 1, 2, ...
(Berlekamp 1970; Cantor & Zassenhaus 1981), or gcd(u, b(x) mod u) over
F_2.  Each split costs O(log p) products, not the O(p) gcds of trying
every constant; the shifts are fixed, so identical input gives identical
output.  Q - I is the trivial-group case of ``frobenius_fixed_basis``,
Frob - I on (F_p[x]/(u)) G, read by ``catalog`` for F_{p^d} G, d > 1, where
exp(G) does not divide p^d - 1; a factor re-checks as irreducible by nullity 1.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import zip_longest

from .errors import SizeLimitError
from .rings import is_prime, modular_inverse

BERLEKAMP_DEGREE_CAP = 64


def poly_text(coeffs, var: str) -> str:
    """Canonical text ``c0 + c1*x + c2*x^2`` of reduced coefficients, lowest
    first, zero terms dropped; "0" if all are 0."""
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append(f"{c}*{var}" if c != 1 else var)
        else:
            terms.append(f"{c}*{var}^{i}" if c != 1 else f"{var}^{i}")
    return " + ".join(terms) or "0"


# The list kernel.  A coefficient list is lowest degree first; a monic
# modulus u = x^n + tail(x) is passed as its n low coefficients ``tail``.
def _product(a, b) -> list[int]:
    """The raw product of two coefficient sequences, nothing reduced."""
    acc = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                acc[i + j] += x * y
    return acc


def reduce_mod(acc: list[int], tail, m: int) -> list[int]:
    """acc (overwritten) reduced by the monic x^n + tail, n = len(tail), and
    mod m: min(len(acc), n) coefficients, not trimmed."""
    n = len(tail)
    for top in range(len(acc) - 1, n - 1, -1):
        c = acc[top] % m
        if c:
            for k, t in enumerate(tail):
                acc[top - n + k] -= c * t
    return [c % m for c in acc[:n]]


def poly_mulmod(a, b, tail, m: int) -> list[int]:
    """The product a * b in Z_m[x]/(x^n + tail), the factorizer's kernel."""
    return reduce_mod(_product(a, b), tail, m)


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _divmod(a, b, m: int) -> tuple[list[int], list[int]]:
    """Quotient and untrimmed remainder of a by b, b's leading coefficient a
    unit; ``reduce_mod`` leaves the quotient by b / lead in acc[n:]."""
    inv = modular_inverse(b[-1], m)
    acc = list(a)
    rem = reduce_mod(acc, [c * inv for c in b[:-1]], m)
    return [c * inv % m for c in acc[len(b) - 1 :]], rem


def _require_prime(m: int, what: str):
    if not is_prime(m):
        raise ValueError(f"{what} requires a prime modulus, got {m}")


def poly_gcd(f, g, p: int) -> tuple[int, ...]:
    """Monic gcd of two coefficient sequences over a prime field."""
    _require_prime(p, "poly_gcd")
    f, g = (_trim([c % p for c in h]) for h in (f, g))
    if not f and not g:
        raise ValueError("gcd(0, 0) is undefined")
    return tuple(_gcd(f, g, p))


# The Euclid loops take trimmed lists and skip those checks: their callers
# know the modulus is prime and pass no (0, 0).
def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _trim(_divmod(a, b, p)[1])
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _ext_gcd(f, g, p: int) -> tuple[list[int], list[int]]:
    """(d, u): d the monic gcd, u * f == d (mod g) with deg u minimal."""
    old_r, r = f, g
    old_u, u = [1], []
    while r:
        q, rem = _divmod(old_r, r, p)
        diff = zip_longest(old_u, _product(q, u), fillvalue=0)
        old_r, r, old_u, u = r, _trim(rem), u, _trim([(a - b) % p for a, b in diff])
    inv = pow(old_r[-1], -1, p)
    return [c * inv % p for c in old_r], [c * inv % p for c in old_u]


def berlekamp_massey(seq, p: int) -> int:
    """The linear complexity of seq over F_p, p prime: the least L with some
    recurrence s_n + c_1 s_{n-1} + ... + c_L s_{n-L} = 0 (mod p) for every
    L <= n < len(seq), by Berlekamp-Massey (Massey 1969)."""
    c, b, length, shift, last = [1], [1], 0, 1, 1
    for n in range(len(seq)):
        d = sum(ci * seq[n - i] for i, ci in enumerate(c)) % p  # c[i] = 0 where n < i
        if d:
            t, coef = c, d * pow(last, -1, p) % p
            c = c + [0] * (len(b) + shift - len(c))
            for i, bi in enumerate(b):
                c[i + shift] = (c[i + shift] - coef * bi) % p
            if 2 * length <= n:
                length, b, last, shift = n + 1 - length, t, d, 0
        shift += 1
    return length


def _powmod(base: list[int], e: int, tail, m: int) -> list[int]:
    """base**e in Z_m[x]/(x^n + tail), left to right over the bits of e."""
    base = reduce_mod(base, tail, m)
    result = reduce_mod([1], tail, m)
    for bit in bin(e)[2:]:
        result = poly_mulmod(result, result, tail, m)
        if bit == "1":
            result = poly_mulmod(result, base, tail, m)
    return result


def frobenius_fixed_basis(tail, p: int, images) -> list[list[int]]:
    """Basis of the null space of Frob - I on K G, K = F_p[x]/(x^d + tail) with
    d = len(tail) and images[g] the index of g^p, coordinate g*d + k holding
    x^k g.  Frob sends x^k g to (x^p)^k g^p, so column (g, k) holds (x^p)^k in
    block g^p, all from one x^p; images = (0,) is Berlekamp's."""
    d = len(tail)
    n = d * len(images)
    xp = _powmod([0, 1], p, tail, p)
    powers = [[1]]
    while len(powers) < d:
        powers.append(poly_mulmod(powers[-1], xp, tail, p))
    m = [[-int(r == c) % p for c in range(n)] for r in range(n)]
    for g, gp in enumerate(images):
        for k, xk in enumerate(powers):
            for j, v in enumerate(xk):
                m[gp * d + j][g * d + k] += v
    # Gauss-Jordan elimination; each free column gives one null vector
    pivots: list[int] = []
    for col in range(n):
        rank = len(pivots)
        pivot = next((r for r in range(rank, n) if m[r][col] % p), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = modular_inverse(m[rank][col], p)
        m[rank] = [v * inv % p for v in m[rank]]
        for r in range(n):
            if r != rank and (c := m[r][col] % p):
                m[r] = [(a - c * b) % p for a, b in zip(m[r], m[rank])]
        pivots.append(col)
    basis = []
    for free in sorted(set(range(n)).difference(pivots)):
        vec = [0] * n
        vec[free] = 1
        for row, col in enumerate(pivots):
            vec[col] = -m[row][free] % p
        basis.append(vec)
    return basis


def _split_by(u: list[int], h: list[int], p: int) -> list[list[int]]:
    """Split a monic squarefree u into pieces modulo which h is constant.

    h is constant modulo each irreducible factor of u (h is in the
    Berlekamp basis).  Over odd p, the shift a sends a factor with value c
    to the gcd exactly when c + a is a nonzero square; two factors with
    distinct values differ in that for at least (p - 1)/2 of the p
    shifts, so trying a = 0 .. p-1 in order always separates them.
    """
    done = []
    todo = [u]
    for a in range(p):
        pending = []
        for w in todo:
            tail = w[:-1]
            r = _trim(reduce_mod(h[:], tail, p))
            if len(r) < 2:
                done.append(w)
                continue
            if p == 2:
                g = _gcd(w, r, p)
            else:
                r[0] = (r[0] + a) % p
                s = _powmod(r, (p - 1) // 2, tail, p) or [0]
                s[0] = (s[0] - 1) % p
                g = _gcd(w, _trim(s), p)
            if 1 < len(g) < len(w):
                pending += [g, _divmod(w, g, p)[0]]
            else:
                pending.append(w)
        todo = pending
        if not todo:
            return done
    raise ArithmeticError(f"no shift below {p} splits {u} by {h}")


def _split_squarefree(f: list[int], p: int) -> list[list[int]]:
    """All monic irreducible factors of a monic squarefree f over F_p."""
    if len(f) <= 2:
        return [f] if len(f) == 2 else []
    basis = [_trim(h) for h in frobenius_fixed_basis(f[:-1], p, (0,))]
    want = len(basis)
    factors = [f]
    for h in basis:
        if len(factors) == want:
            break
        if len(h) < 2:
            continue
        factors = [piece for u in factors for piece in _split_by(u, h, p)]
    if len(factors) != want:
        raise ArithmeticError(
            f"Berlekamp basis of size {want} split {f} into {len(factors)} factors"
        )
    return factors


def _distinct_irreducible_factors(f: list[int], p: int) -> list[tuple[int, ...]]:
    """The monic irreducible factors of a monic f, sorted by (degree, coeffs)."""
    result = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if len(g) < 2:
            continue
        gp = _trim([i * c % p for i, c in enumerate(g)][1:])
        if not gp:
            # a p-th power: its p-th root takes every p-th coefficient
            stack.append(g[::p])
            continue
        d = _gcd(g, gp, p)
        for q in _split_squarefree(_divmod(g, d, p)[0], p):
            result.add(tuple(q))
        if len(d) > 1:
            stack.append(d)
    return sorted(result, key=lambda q: (len(q), q))


class PolyFactorization(namedtuple("PolyFactorization", "unit factors cofactors inverses")):
    """f = unit * prod q_i^{e_i} over F_p, with Bezout data per factor.

    factors[i] is (q_i, e_i) with q_i monic irreducible; cofactors[i] is
    the monic part divided by q_i^{e_i}; inverses[i] is s_i(x) with
    s_i * cofactor_i == 1 (mod q_i^{e_i}).  Every polynomial is a trimmed
    coefficient tuple, lowest degree first.
    """

    __slots__ = ()


def berlekamp_factor(coeffs, p: int) -> PolyFactorization:
    """Deterministic full factorization over F_p of the coefficient
    sequence ``coeffs``, lowest degree first.

    Verifies its own output: the factors multiply back to the input, each
    passes an irreducibility re-check, and each divides it at least once
    with a cofactor invertible modulo its power, which makes them pairwise
    coprime (the cofactor of q_i is the product of the other q_j^{e_j}).
    """
    _require_prime(p, "berlekamp_factor")
    f = _trim([c % p for c in coeffs])
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    if len(f) - 1 > BERLEKAMP_DEGREE_CAP:
        raise SizeLimitError(f"degree {len(f) - 1} exceeds cap {BERLEKAMP_DEGREE_CAP}")
    unit = f[-1]
    inv = pow(unit, -1, p)
    monic = [c * inv % p for c in f]
    distinct = _distinct_irreducible_factors(monic, p)
    factors = []
    powers = []
    rest = monic
    for q in distinct:
        e, qe = 0, [1]
        while True:
            quo, rem = _divmod(rest, q, p)
            if _trim(rem):
                break
            rest, e, qe = quo, e + 1, [c % p for c in _product(qe, q)]
        if not e:  # q listed twice: its cofactor check below would pass vacuously
            raise ArithmeticError(f"factor {q} does not divide what is left of the input")
        factors.append((q, e))
        powers.append(qe)
    if rest != [1]:
        raise ArithmeticError("factorization did not exhaust the input")
    check = [unit]
    for q, qe in zip(distinct, powers):
        check = [c % p for c in _product(check, qe)]
        if len(q) > 2 and len(frobenius_fixed_basis(q[:-1], p, (0,))) != 1:
            raise ArithmeticError(f"factor {q} failed irreducibility re-check")
    if check != f:
        raise ArithmeticError("factor product does not reproduce the input")
    cofactors = []
    inverses = []
    for qe in powers:
        cof = _divmod(monic, qe, p)[0]
        d, u = _ext_gcd(cof, qe, p)
        if len(d) != 1:
            raise ArithmeticError("cofactor is not invertible modulo its factor")
        cofactors.append(tuple(cof))
        inverses.append(tuple(_trim(reduce_mod(u, qe[:-1], p))))
    return PolyFactorization(unit, tuple(factors), tuple(cofactors), tuple(inverses))
