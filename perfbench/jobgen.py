"""Seeded job lists for the four workloads.

A workload is a fixed pool of slots.  A slot names a subcommand, a few
interchangeable rings of similar cost, the output modes and how often it
repeats in a round; every round holds every slot, so run length barely
depends on the seed.  The seed, with the round number, draws where each
slot starts in its rings and modes, the element inputs of ``lift`` jobs and
the job order.  Pools hold only inputs this code answers within its caps;
rings rejected with exit 4 and the known hangs are left out.

Why each workload exists:

* ``count_primitive`` -- ``count`` and ``primitive`` on mid-size cyclic and
  rank-2 group rings: group-ring multiplication (lifting primitives,
  orthogonality checks) dominates, and ``primitive`` carries the member
  lifting that is thrown away when the listing is not built.
* ``list_render`` -- ``list`` in text and JSON with 16 to 16384 members:
  the CRT combine plus materializing, squaring, sorting and rendering every
  member, so skipping materialization must not cost anything here.
* ``lift_tower`` -- ``lift`` of ``e + p*r`` along standard chains of depth
  8 to 40: the power tower over the multiply kernels and long literals
  through the parser; factorization is trivial (``m = p^k``).
* ``factor_prime`` -- ``count`` on rings whose moduli have prime factors of
  about 10^3 to 10^6: Berlekamp and trial-division factorization dominate,
  group-ring multiplication is a few percent.
"""

from __future__ import annotations

import random

from naive import RingSpec
from outcheck import poly_text, ring_text

GOLDEN = "tests/golden/z200c3.json"

_T, _J, _TJ = ("text",), ("json",), ("text", "json")


def _rings(group: str, moduli) -> tuple[str, ...]:
    return tuple(f"Z({m}){{{group}}}" for m in moduli)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def _primes(lo: int, count: int, step: int = 1) -> list[int]:
    """The first ``count`` primes >= lo that are 1 mod ``step``."""
    out, n = [], lo
    while len(out) < count:
        if n % step == 1 % step and _is_prime(n):
            out.append(n)
        n += 1
    return out


def _split_quotients(n: int, primes) -> tuple[str, ...]:
    """Z(p)[x]/(x^n - 1) written canonically, split into n linear factors."""
    return tuple(f"Z({p})[x]/({p - 1} + x^{n})" for p in primes)


# Slots: (command, ring variants, output modes, repeats per round).
POOLS: dict[str, list[tuple]] = {
    # |G| <= 32 coprime to m; rank 2 only where every p | m is a primitive
    # root mod q, so the hat family certifies.  m has 2-3 prime-power parts.
    # About a tenth of the jobs take 0.1 s or more; the twelve Z(99){C16}
    # jobs sit just below them, so the 90th percentile falls on one job kind.
    "count_primitive": [
        ("count", _rings("C3", (242, 1000, 500, 28, 20, 175, 200, 1225)), _TJ, 40),
        ("count", _rings("C4", (45, 175, 99, 1225, 2025, 63)), _TJ, 6),
        ("count", _rings("C5", (28, 63, 1372, 392, 936, 242, 12, 99)), _TJ, 8),
        ("count", _rings("C7", (45, 2025, 1000, 500, 99, 242, 360, 20)), _TJ, 8),
        ("count", _rings("C9", (242, 1000, 500, 28, 20, 175)), _TJ, 6),
        ("count", _rings("C11", (28, 392, 1372, 63, 1000, 12, 45)), _TJ, 7),
        ("count", _rings("C8", (99, 175, 45, 63)), _TJ, 4),
        ("count", _rings("C13", (1372, 99, 63, 175, 392, 1000, 12)), _TJ, 7),
        ("count", _rings("C15", (392,)), _TJ, 1),
        ("count", _rings("C16", (99,)), _TJ, 12),
        ("count", _rings("C21", (500, 200)), _TJ, 2),
        ("count", _rings("C31", (63,)), _TJ, 1),
        ("primitive", _rings("C3", (20, 50, 200, 500, 1000, 242)), _TJ, 12),
        ("primitive", _rings("C5", (12, 18, 63, 28, 392)), _TJ, 10),
        ("primitive", _rings("C7", (45, 75, 2025, 405)), _TJ, 4),
        ("primitive", _rings("C11", (28, 392, 1372)), _TJ, 3),
        ("primitive", _rings("C9", (1000, 500, 200, 20)), _TJ, 4),
        ("count", _rings("C3xC3", (20, 50, 110, 220, 968, 10, 40)), _TJ, 14),
        ("primitive", _rings("C3xC3", (10, 20, 50)), _TJ, 3),
        ("count", _rings("C5xC5", (63, 117)), _TJ, 2),
        ("primitive", _rings("C5xC5", (78,)), _TJ, 1),
    ],
    # 16 to 16384 members; cyclic and rank-2 group rings, Z(m)[i],
    # Z(m)[x]/(q), Z(m)[i]{Cn}, brute-force carriers and the golden table.
    # Seven jobs take 0.1 s or more and the sixteen Z(10)[i]{C3} jobs come
    # next, so the 90th percentile falls on one job kind.
    "list_render": [
        ("list", ("Z(4095){C4}",), _T, 1),
        ("list", ("Z(2520){C11}",), _TJ, 2),
        ("list", ("Z(60){C3xC3}",), _J, 1),
        ("list", ("Z(221)[i]{C3}",), _T, 1),
        ("list", ("Z(85)[i]{C3}",), _TJ, 2),
        ("list", ("Z(30){C7}", "Z(210){C5}", "Z(10)[i]{C3}"), _TJ, 6),
        ("list", ("Z(105)[x]/(6 + 11*x + 6*x^2 + x^3)", "Z(2310)[x]/(1 + x^4)"), _TJ, 4),
        ("list", ("Z(12){C2xC3}", "Z(36){C2xC3}"), _TJ, 6),
        ("list", ("Z(20){C2xC3}",), _TJ, 3),
        ("list", ("Z(12){C2xC2}", "Z(18){C2xC2}"), _TJ, 6),
        ("list", ("Z(10)[i]{C3}",), _TJ, 16),
        ("list", ("Z(65)[i]", "Z(1105)[i]", "Z(5525)[i]", "Z(32045)[i]"), _TJ, 40),
        ("list", ("Z(30)[x]/(1 + x + x^2 + x^3)", "Z(1001)[x]/(1 + x + x^2)"), _TJ, 12),
        ("list", _rings("C3", (200, 20, 50, 500, 1000, 242)), _TJ, 12),
        ("list", _rings("C5", (28, 63, 392)), _TJ, 9),
        ("list", _rings("C7", (45, 75, 405)), _TJ, 9),
        ("list", ("Z(200){C3}",), ("golden",), 3),
    ],
    # Prime factors of about 10^3 to 10^6: Berlekamp over F_p splitting
    # x^n - 1 (cost grows with p), and trial-division primality and
    # factorization of residue moduli up to about 10^12.  The thirty
    # Z(p)[x]/(x^7 - 1) jobs with p near 1000 sit in the middle of the cost
    # order, so the median falls on one job kind.
    "factor_prime": [
        ("count", _split_quotients(7, _primes(1000, 6, 7)), _TJ, 30),
        ("count", _rings("C7", _primes(1000, 6, 7)), _TJ, 6),
        ("count", _rings("C5", _primes(1000, 6, 5)), _TJ, 6),
        ("count", _rings("C8", _primes(1000, 4, 8)), _TJ, 4),
        ("count", _rings("C11", _primes(1000, 4, 11)), _TJ, 4),
        ("count", _rings("C3", _primes(1500, 6, 3)), _TJ, 6),
        ("count", _rings("C4", _primes(1500, 6, 4)), _TJ, 6),
        ("count", _split_quotients(4, _primes(1000, 4, 4)), _TJ, 4),
        ("count", _split_quotients(6, _primes(1000, 4, 6)), _TJ, 4),
        ("count", ("Z(1009)[x]/(3 + 2*x + x^5 + x^8)", "Z(2003)[x]/(1 + x^4)"), _TJ, 2),
        ("count", tuple(f"Z({p})" for p in _primes(10**12, 4)), _TJ, 4),
        ("count", tuple(f"Z({p * q})" for p, q in zip(_primes(10**5, 4), _primes(10**6, 4))), _TJ, 4),
        ("count", tuple(f"Z({p * q})" for p, q in zip(_primes(3 * 10**4, 6), _primes(3 * 10**6, 6))), _TJ, 30),
        ("count", tuple(f"Z({p * q}){{C7}}" for p, q in zip(_primes(500, 3, 7), _primes(700, 3, 7))), _TJ, 3),
    ],
}


def _lift_rings(p: int, ks, q=None, group=()) -> tuple:
    """(p, k, q mod p^k, group) for each exponent k; q is given low degree first."""
    return tuple((p, k, None if q is None else tuple(c % p**k for c in q), group) for k in ks)


# lift_tower slots: (ring variants (p, k, q or None, group), repeats per round).
# Chains have depth k - 1 between 8 and 40, and p^k < 2^63 (the factorization
# bound).  The 24 lifts in Z(5^16){C6} sit in the middle of the cost order,
# so the median falls on one ring.
LIFT_POOL: list[tuple] = [
    (_lift_rings(5, (20, 27), (1, 0, 1)) + _lift_rings(13, (15, 17), (1, 0, 1))
     + _lift_rings(3, (20, 39), (1, 0, 1)), 12),
    (_lift_rings(7, (12, 22), (1, 1, 1)) + _lift_rings(11, (14, 18), (-3, 0, 1))
     + _lift_rings(2, (24, 41), (1, 1, 1)) + _lift_rings(2, (30, 41), (1, 1, 0, 1))
     + _lift_rings(7, (12, 20), (5, 0, 0, 1)), 20),
    (_lift_rings(5, (12, 16), None, (3,)) + _lift_rings(7, (10, 14), None, (4,)), 16),
    (_lift_rings(5, (16,), None, (6,)), 24),
    (_lift_rings(3, (20, 24), None, (8,)), 8),
    (_lift_rings(3, (20, 24), None, (16,)) + _lift_rings(7, (12, 16), None, (16,))
     + _lift_rings(2, (30, 40), None, (15,)) + _lift_rings(2, (24, 32), None, (21,)), 24),
    (_lift_rings(2, (33, 41), None, (31,)) + _lift_rings(5, (15, 20), None, (31,))
     + _lift_rings(3, (20, 25), None, (32,)) + _lift_rings(7, (12, 16), None, (32,)), 24),
]

WORKLOADS = ("count_primitive", "list_render", "lift_tower", "factor_prime")


def _hat(order: int, sub: int, p: int) -> list[int]:
    """|H|^-1 * sum of the subgroup of order ``sub`` in C_order, mod p."""
    inv = pow(sub, -1, p)
    step = order // sub
    return [inv if k % step == 0 else 0 for k in range(order)]


def base_idempotents(spec: RingSpec, p: int) -> list[list[int]]:
    """Nontrivial idempotents mod p of the carrier, from closed formulas.

    Group rings: subgroup averages H-hat and 1 - H-hat (|H| is a unit mod
    p).  Quotients Z[x]/(q) with q = (x - a)(x - b) mod p: (x - b)/(a - b)
    and its complement.  Quotients irreducible mod p (Galois rings) have
    only 0 and 1.
    """
    if spec.group:
        (n,) = spec.group
        out = []
        for sub in range(2, n + 1):
            if n % sub == 0 and sub % p != 0:
                e = _hat(n, sub, p)
                out.append(e)
                out.append([(int(k == 0) - c) % p for k, c in enumerate(e)])
        return out
    q = spec.q
    roots = [a for a in range(p) if (q[0] + q[1] * a + a * a) % p == 0] if len(q) == 3 else []
    if len(roots) == 2 and roots[0] != roots[1]:
        a, b = roots
        inv = pow(a - b, -1, p)
        e = [(-b * inv) % p, inv % p]
        return [e, [(1 - e[0]) % p, (-e[1]) % p]]
    return [[1] + [0] * (len(q) - 2), [0] * (len(q) - 1)]


def element_text(spec: RingSpec, vec) -> str:
    """Element literal in the CLI's canonical text."""
    if not spec.group:
        return poly_text(vec, spec.var) if spec.q else str(vec[0])
    names = ["e"] + ["g" if k == 1 else f"g^{k}" for k in range(1, spec.order)]
    return " + ".join(f"{c}*{name}" for c, name in zip(vec, names))


def _pairs(rng: random.Random, items, modes, count: int) -> list[tuple]:
    """``count`` (item, mode) picks walking through ``items`` from a seeded start.

    The mode, also from a seeded start, moves on once per pass over the
    items.  A slot whose repeats are a multiple of its variants times its
    modes therefore holds every (variant, mode) pair equally often in every
    round, whatever the seed.
    """
    start, first = rng.randrange(len(items)), rng.randrange(len(modes))
    return [
        (items[(start + i) % len(items)], modes[(first + i // len(items)) % len(modes)])
        for i in range(count)
    ]


def _lift_job(rng: random.Random, entry, mode: str) -> dict:
    p, k, q, group = entry
    m = p**k
    spec = RingSpec(m, q, group)
    e = rng.choice(base_idempotents(spec, p))
    vec = [(c + p * rng.randrange(m // p)) % m for c in e]
    ring = ring_text(spec)
    argv = ["lift", ring, element_text(spec, vec)]
    if mode == "json":
        argv.append("--json")
    return {
        "kind": "lift", "ring": ring, "argv": argv, "json": mode == "json",
        "prime": p, "exponent": k, "input": vec,
    }


def _pool_job(command: str, ring: str, mode: str) -> dict:
    argv = [command, ring]
    job = {"kind": command, "ring": ring, "json": mode == "json"}
    if mode == "golden":
        argv += ["--golden", GOLDEN]
        job["golden"] = GOLDEN
    if mode == "json":
        argv.append("--json")
    job["argv"] = argv
    return job


def round_jobs(workload: str, seed: int, round_no: int) -> list[dict]:
    """The jobs of one round, in run order; a pure function of its arguments."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}:{round_no}")
    jobs = []
    if workload == "lift_tower":
        for variants, reps in LIFT_POOL:
            for entry, mode in _pairs(rng, variants, _TJ, reps):
                jobs.append(_lift_job(rng, entry, mode))
    else:
        for command, rings, modes, reps in POOLS[workload]:
            for ring, mode in _pairs(rng, rings, modes, reps):
                jobs.append(_pool_job(command, ring, mode))
    rng.shuffle(jobs)
    return jobs
