"""Dense univariate polynomials over Z_m and factorization over prime fields.

Coefficients are stored lowest degree first with trailing zeros trimmed, so
the zero polynomial is the empty tuple and ``degree`` is -1 for it.  Ring
operations work over any modulus; gcd, extended gcd and Berlekamp
factorization require a prime modulus and say so.

The factorizer is Berlekamp's method: squarefree reduction through gcd
with the derivative (p-th powers handled by coefficient-wise p-th roots,
which are trivial over F_p), null space of the Frobenius matrix by
Gaussian elimination, and splitting by the quadratic character of each
basis element b(x): gcd(u, (b(x) + a)^((p-1)/2) - 1 mod u) over the
shifts a = 0, 1, 2, ... (Berlekamp 1970; Cantor & Zassenhaus 1981), or
gcd(u, b(x) mod u) over F_2.  Each split costs O(log p) products, not the
O(p) gcds of trying every constant.  The shifts are fixed, not random:
identical input gives identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SizeLimitError, UnsupportedError
from .rings import is_prime, modular_inverse

BERLEKAMP_DEGREE_CAP = 64


@dataclass(frozen=True)
class Polynomial:
    coeffs: tuple[int, ...]
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        cs = [c % self.modulus for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @staticmethod
    def constant(c: int, modulus: int) -> "Polynomial":
        return Polynomial((c,), modulus)

    @staticmethod
    def x(modulus: int) -> "Polynomial":
        return Polynomial((0, 1), modulus)

    @property
    def degree(self) -> int:
        """Degree, with -1 standing in for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if self.is_zero():
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return not self.is_zero() and self.leading == 1

    def _match(self, other: "Polynomial"):
        if self.modulus != other.modulus:
            raise ValueError(
                f"mismatched moduli: {self.modulus} vs {other.modulus}"
            )

    def __add__(self, other):
        self._match(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return Polynomial(tuple(x + y for x, y in zip(a, b)), self.modulus)

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs), self.modulus)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial(tuple(c * other for c in self.coeffs), self.modulus)
        self._match(other)
        if self.is_zero() or other.is_zero():
            return Polynomial((), self.modulus)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(tuple(out), self.modulus)

    def __rmul__(self, scalar: int):
        return self * scalar

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.modulus
        return acc

    def divmod_by(self, divisor: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Quotient and remainder; the divisor's leading coefficient must be a unit."""
        self._match(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lead = divisor.leading
        inv_lead = 1 if lead == 1 else modular_inverse(lead, self.modulus)
        rem = list(self.coeffs)
        dn = divisor.degree
        q = [0] * max(len(rem) - dn, 0)
        for k in range(len(rem) - dn - 1, -1, -1):
            c = (rem[k + dn] * inv_lead) % self.modulus
            if c == 0:
                continue
            q[k] = c
            for i, d in enumerate(divisor.coeffs):
                rem[k + i] = (rem[k + i] - c * d) % self.modulus
        return Polynomial(tuple(q), self.modulus), Polynomial(tuple(rem), self.modulus)

    def __floordiv__(self, other):
        return self.divmod_by(other)[0]

    def __mod__(self, other):
        return self.divmod_by(other)[1]

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative exponents are not defined here")
        result = Polynomial.constant(1, self.modulus)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def derivative(self) -> "Polynomial":
        return Polynomial(
            tuple(i * c for i, c in enumerate(self.coeffs))[1:], self.modulus
        )

    def monic(self) -> "Polynomial":
        if self.is_zero() or self.leading == 1:
            return self
        return self * modular_inverse(self.leading, self.modulus)

    def to_text(self, var: str = "x") -> str:
        """Canonical text form ``c0 + c1*x + c2*x^2`` (zero terms dropped)."""
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*{var}" if c != 1 else var)
            else:
                terms.append(f"{c}*{var}^{i}" if c != 1 else f"{var}^{i}")
        return " + ".join(terms)

    def __str__(self):
        return self.to_text()


def _require_prime(m: int, what: str):
    if not is_prime(m):
        raise ValueError(f"{what} requires a prime modulus, got {m}")


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd over a prime field."""
    f._match(g)
    _require_prime(f.modulus, "poly_gcd")
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    return _gcd(f, g)


def poly_ext_gcd(f: Polynomial, g: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """(d, u, v) with u*f + v*g == d, d the monic gcd, over a prime field."""
    f._match(g)
    _require_prime(f.modulus, "poly_ext_gcd")
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    return _ext_gcd(f, g)


# The two Euclid loops skip those checks: their callers know the modulus is
# prime and pass no (0, 0).
def _gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def _ext_gcd(f: Polynomial, g: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    m = f.modulus
    old_r, r = f, g
    old_u, u = Polynomial.constant(1, m), Polynomial((), m)
    old_v, v = Polynomial((), m), Polynomial.constant(1, m)
    while not r.is_zero():
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    inv = modular_inverse(old_r.leading, m)
    return old_r * inv, old_u * inv, old_v * inv


def poly_powmod(f: Polynomial, e: int, mod: Polynomial) -> Polynomial:
    """f**e modulo ``mod`` by binary exponentiation."""
    if e < 0:
        raise ValueError("negative exponents are not defined here")
    result = Polynomial.constant(1, f.modulus)
    base = f % mod
    while e:
        if e & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        e >>= 1
    return result


def _null_space(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Basis of the null space of a square matrix over F_p (row vectors),
    and the free columns: each basis vector is 1 at its own free column and
    0 at the others, so a null vector's coordinates are its free entries."""
    n = len(rows)
    m = [row[:] for row in rows]
    pivot_col_of_row: list[int] = []
    rank = 0
    for col in range(n):
        pivot = None
        for r in range(rank, n):
            if m[r][col] % p != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = modular_inverse(m[rank][col], p)
        m[rank] = [(v * inv) % p for v in m[rank]]
        for r in range(n):
            if r != rank and m[r][col] % p != 0:
                factor = m[r][col]
                m[r] = [(a - factor * b) % p for a, b in zip(m[r], m[rank])]
        pivot_col_of_row.append(col)
        rank += 1
    pivots = set(pivot_col_of_row)
    frees = [col for col in range(n) if col not in pivots]
    basis = []
    for free in frees:
        vec = [0] * n
        vec[free] = 1
        for row_idx, col in enumerate(pivot_col_of_row):
            vec[col] = (-m[row_idx][free]) % p
        basis.append(vec)
    return basis, frees


def _frobenius_nullity_basis(f: Polynomial) -> list[Polynomial]:
    """Basis of {h : h^p == h mod f} as polynomials, f monic squarefree."""
    p = f.modulus
    n = f.degree
    xp = poly_powmod(Polynomial.x(p), p, f)
    # Q[i] = coefficient vector of x^{i*p} mod f
    q_rows = []
    current = Polynomial.constant(1, p)
    for i in range(n):
        row = list(current.coeffs) + [0] * (n - len(current.coeffs))
        q_rows.append(row)
        current = (current * xp) % f
    # h = sum a_i x^i is fixed by Frobenius iff a * (Q - I) == 0
    mt = [[(q_rows[i][j] - (1 if i == j else 0)) % p for i in range(n)] for j in range(n)]
    basis, _ = _null_space(mt, p)
    return [Polynomial(tuple(vec), p) for vec in basis]


def _split_by(u: Polynomial, h: Polynomial) -> list[Polynomial]:
    """Split a monic squarefree u into pieces modulo which h is constant.

    h is constant modulo each irreducible factor of u (h is in the
    Berlekamp basis).  Over odd p, the shift a sends a factor with value c
    to the gcd exactly when c + a is a nonzero square; two factors with
    distinct values differ in that for at least (p - 1)/2 of the p
    shifts, so trying a = 0 .. p-1 in order always separates them.
    """
    p = u.modulus
    one = Polynomial.constant(1, p)
    done = []
    todo = [u]
    for a in range(p):
        pending = []
        for w in todo:
            r = h % w
            if r.degree < 1:
                done.append(w)
                continue
            if p == 2:
                g = _gcd(w, r)
            else:
                shifted = r + Polynomial.constant(a, p)
                g = _gcd(w, poly_powmod(shifted, (p - 1) // 2, w) - one)
            if 0 < g.degree < w.degree:
                pending += [g, w // g]
            else:
                pending.append(w)
        todo = pending
        if not todo:
            return done
    raise ArithmeticError(f"no shift below {p} splits {u} by {h}")


def _split_squarefree(f: Polynomial) -> list[Polynomial]:
    """All monic irreducible factors of a monic squarefree f over F_p."""
    if f.degree <= 1:
        return [f] if f.degree == 1 else []
    basis = _frobenius_nullity_basis(f)
    want = len(basis)
    factors = [f]
    for h in basis:
        if len(factors) == want:
            break
        if h.degree < 1:
            continue
        factors = [piece for u in factors for piece in _split_by(u, h)]
    if len(factors) != want:
        raise ArithmeticError(
            f"Berlekamp basis of size {want} split {f} into {len(factors)} factors"
        )
    return factors


def _pth_root(f: Polynomial) -> Polynomial:
    """Inverse of h -> h^p for f with zero derivative over F_p."""
    p = f.modulus
    return Polynomial(tuple(f.coeffs[::p]), p)


def _distinct_irreducible_factors(f: Polynomial) -> list[Polynomial]:
    result: dict[tuple[int, ...], Polynomial] = {}
    stack = [f.monic()]
    while stack:
        g = stack.pop()
        if g.degree < 1:
            continue
        gp = g.derivative()
        if gp.is_zero():
            stack.append(_pth_root(g))
            continue
        d = _gcd(g, gp)
        w = g // d
        for q in _split_squarefree(w.monic()):
            result[q.coeffs] = q
        if d.degree > 0:
            stack.append(d)
    return sorted(result.values(), key=lambda q: (q.degree, q.coeffs))


@dataclass(frozen=True)
class PolyFactor:
    poly: Polynomial
    multiplicity: int


@dataclass(frozen=True)
class PolyFactorization:
    """f = unit * prod q_i^{e_i} over F_p, with Bezout data per factor.

    cofactors[i] is the monic part divided by q_i^{e_i}; inverses[i] is
    s_i(x) with s_i * cofactor_i == 1 (mod q_i^{e_i}).
    """

    input: Polynomial
    unit: int
    factors: tuple[PolyFactor, ...]
    cofactors: tuple[Polynomial, ...]
    inverses: tuple[Polynomial, ...]


def berlekamp_factor(f: Polynomial, degree_cap: int = BERLEKAMP_DEGREE_CAP) -> PolyFactorization:
    """Deterministic full factorization of f over F_p.

    Verifies its own output: the factors multiply back to the input, are
    pairwise coprime, and each passes an irreducibility re-check.
    """
    _require_prime(f.modulus, "berlekamp_factor")
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if f.degree > degree_cap:
        raise SizeLimitError(f"degree {f.degree} exceeds cap {degree_cap}")
    p = f.modulus
    unit = f.leading
    monic = f.monic()
    distinct = _distinct_irreducible_factors(monic)
    factors = []
    rest = monic
    for q in distinct:
        e = 0
        while True:
            quo, rem = rest.divmod_by(q)
            if not rem.is_zero():
                break
            rest = quo
            e += 1
        factors.append(PolyFactor(q, e))
    if rest.degree != 0:
        raise ArithmeticError("factorization did not exhaust the input")
    check = Polynomial.constant(unit, p)
    for fac in factors:
        check = check * fac.poly**fac.multiplicity
        if fac.poly.degree > 1 and len(_split_squarefree(fac.poly)) != 1:
            raise ArithmeticError(f"factor {fac.poly} failed irreducibility re-check")
    if check != f:
        raise ArithmeticError("factor product does not reproduce the input")
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if _gcd(factors[i].poly, factors[j].poly).degree != 0:
                raise ArithmeticError("factors are not pairwise coprime")
    cofactors = []
    inverses = []
    for fac in factors:
        qe = fac.poly**fac.multiplicity
        cof = monic // qe
        cofactors.append(cof)
        if cof.degree == 0 and cof.coeffs == (1,):
            inverses.append(Polynomial.constant(1, p))
            continue
        d, u, _ = _ext_gcd(cof, qe)
        if d.degree != 0:
            raise ArithmeticError("cofactor is not invertible modulo its factor")
        inv_const = modular_inverse(d.coeffs[0], p)
        inverses.append((u * inv_const) % qe)
    return PolyFactorization(
        f, unit, tuple(factors), tuple(cofactors), tuple(inverses)
    )
