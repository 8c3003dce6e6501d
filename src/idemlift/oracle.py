"""Exhaustive idempotent search, independent of the lifting pipeline.

The scan enumerates all m**n coefficient vectors of a carrier and keeps
those with e*e == e.  Its multiplication table is built here, exactly, from
the carrier's shape (group factors, base tail, m), so the only code it
shares with the lifting route is that shape and ``AbelianGroup.mul``.  The
arithmetic runs on int64 numpy blocks: a scan whose element count does not
fit int64 is refused, and results are exact because every intermediate
stays below 2**63 (guarded below, with a per-term reduction fallback for
large moduli).  numpy is imported here only, on the first scan, so
nothing else in the package loads it.

``brute_force_scan_slow`` is a plain element loop through the ring's own
product.  Only the tests call it, to check the scan against it.
"""

from __future__ import annotations

import itertools

from .errors import SizeLimitError
from .group_rings import Ring
from .groups import AbelianGroup

DEFAULT_BRUTE_CAP = 2**20
_CHUNK = 1 << 20


def _structure_tensor(ring: Ring):
    """T[i, j] = e_i * e_j, exact ints, from the carrier's ``_shape`` alone:
    e_i is g^(i // d) x^(i % d), so e_i * e_j is the group's product times
    x^(a + b), and x^k mod x^d + tail is found by shift and subtract."""
    import numpy as np

    factors, tail, m = ring._shape
    group, d = AbelianGroup(factors), len(tail)
    xs = [[int(i == k) % m for i in range(d)] for k in range(d)]
    for _ in range(d - 1):
        top, low = xs[-1][-1], [0] + xs[-1][:-1]
        xs.append([(a - top * t) % m for a, t in zip(low, tail)])
    tensor = np.zeros((ring.dimension,) * 3, dtype=object)
    for g, h in itertools.product(range(group.order), repeat=2):
        k = group.mul(g, h) * d
        for a, b in itertools.product(range(d), repeat=2):
            tensor[g * d + a, h * d + b, k : k + d] = xs[a + b]
    return tensor


def brute_force_scan(ring: Ring, cap: int = DEFAULT_BRUTE_CAP) -> list:
    """All idempotents of the ring, ascending in coefficient order.

    Raises SizeLimitError when the ring has more than ``cap`` elements.
    """
    m = ring.coefficient_modulus
    n = ring.dimension
    total = ring.cardinality
    cap = min(cap, 2**63 - 1)  # indices and coefficients are int64
    if total > cap:
        # m^n, not its value: that can have too many digits to print
        raise SizeLimitError(f"ring has {m}^{n} elements, above the scan cap {cap}")
    if m == 1:
        return [ring.zero]
    import numpy as np

    tensor = _structure_tensor(ring).astype(np.int64)  # every entry is below m
    # guard exact int64 accumulation: n*n terms of size (m-1)^2 * (m-1)
    free_accumulate = n * n * (m - 1) * (m - 1) * (m - 1) < 2**62
    powers = np.array([m ** (n - 1 - k) for k in range(n)], dtype=np.int64)
    hits: list[int] = []
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        idx = np.arange(start, stop, dtype=np.int64)
        coeffs = (idx[:, None] // powers[None, :]) % m
        good = np.ones(stop - start, dtype=bool)
        for k in range(n):
            acc = np.zeros(stop - start, dtype=np.int64)
            for i in range(n):
                ci = coeffs[:, i]
                for j in range(n):
                    s = int(tensor[i, j, k])
                    if s == 0:
                        continue
                    term = ci * coeffs[:, j] * s
                    if free_accumulate:
                        acc += term
                    else:
                        acc = (acc + term % m) % m
            good &= (acc % m) == coeffs[:, k]
            if not good.any():
                break
        hits.extend(int(v) for v in idx[good])
    return [ring.from_coeffs([(h // int(pw)) % m for pw in powers]) for h in hits]


def brute_force_scan_slow(ring: Ring, cap: int = DEFAULT_BRUTE_CAP) -> list:
    """Reference element-by-element scan (kept as the oracle's own check)."""
    if ring.cardinality > cap:
        raise SizeLimitError(
            f"ring has {ring.coefficient_modulus}^{ring.dimension} elements, "
            f"above the scan cap {cap}"
        )
    return [x for x in ring.elements() if x * x == x]
