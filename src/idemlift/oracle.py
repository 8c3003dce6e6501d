"""Exhaustive idempotent search, independent of the lifting pipeline.

The scan enumerates all m**n coefficient vectors of a carrier and keeps
those with e*e == e.  Arithmetic runs through the ring's structure
constants on int64 numpy blocks, so the only shared code with the lifting
route is the ring's basis-product table; results are exact because every
intermediate stays far below 2**63 (guarded below, with a per-term
reduction fallback for large moduli).  numpy is imported here only, on
the first scan, so nothing else in the package loads it.

``brute_force_scan_slow`` is a plain element loop through the ring's own
product.  Only the tests call it, to check the scan against it.
"""

from __future__ import annotations

from .errors import SizeLimitError
from .rings import Ring

DEFAULT_BRUTE_CAP = 2**20
_CHUNK = 1 << 20


def _structure_tensor(ring: Ring):
    import numpy as np

    n = ring.dimension
    table = ring.structure_constants()
    tensor = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            tensor[i, j, :] = table[i][j]
    return tensor


def brute_force_scan(ring: Ring, cap: int = DEFAULT_BRUTE_CAP) -> list:
    """All idempotents of the ring, ascending in coefficient order.

    Raises SizeLimitError when the ring has more than ``cap`` elements.
    """
    m = ring.coefficient_modulus
    n = ring.dimension
    total = ring.cardinality
    if total > cap:
        # m^n, not its value: that can have too many digits to print
        raise SizeLimitError(f"ring has {m}^{n} elements, above the scan cap {cap}")
    if m == 1:
        return [ring.zero]
    import numpy as np

    tensor = _structure_tensor(ring)
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
