"""The benchmark's own ring arithmetic, and the reference speed probe.

``mul`` is a naive product of flat coefficient vectors (group index major,
base coefficients minor): group convolution over a mixed-radix index,
polynomial product reduced by the monic modulus, then mod m.  It shares no
code with idemlift, so the output checks can use it, and it exercises the
same kind of interpreter work as idemlift's multiply kernels, so the worker
times it as a probe of the machine's current speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from time import perf_counter

# Probe duration that defines "reference speed": a time measured while the
# probe took t is reported as time * REFERENCE_PROBE_S / t.
REFERENCE_PROBE_S = 0.0015
_PROBE_BATCHES = 5
_PROBE_PRODUCTS = 8


@dataclass(frozen=True)
class RingSpec:
    """Z(m), optionally [x]/(q) with q monic (low degree first), optionally {G}."""

    m: int
    q: tuple[int, ...] | None
    group: tuple[int, ...]

    @property
    def var(self) -> str:
        return "i" if self.q == (1, 0, 1) else "x"

    @property
    def d(self) -> int:
        return len(self.q) - 1 if self.q else 1

    @property
    def order(self) -> int:
        n = 1
        for f in self.group:
            n *= f
        return n

    @property
    def size(self) -> int:
        return self.order * self.d

    def one(self) -> tuple[int, ...]:
        return (1 % self.m,) + (0,) * (self.size - 1)


def strides(group) -> list[int]:
    """Row-major mixed-radix strides: index = sum(exponent_i * stride_i)."""
    out, acc = [], 1
    for n in reversed(group):
        out.append(acc)
        acc *= n
    return out[::-1]


@lru_cache(maxsize=None)
def _index_table(group: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    elems = list(product(*(range(n) for n in group)))
    steps = strides(group)

    def index(exps):
        return sum((a % n) * s for a, n, s in zip(exps, group, steps))

    return tuple(
        tuple(index([a + b for a, b in zip(x, y)]) for y in elems) for x in elems
    )


def _poly_mul_mod(a, b, q, m):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    if q is not None:
        d = len(q) - 1
        for k in range(len(out) - 1, d - 1, -1):
            c = out[k] % m
            if c:
                for t in range(d + 1):
                    out[k - d + t] -= c * q[t]
        out = out[:d]
    return out


def mul(spec: RingSpec, x, y) -> tuple[int, ...]:
    """Naive product of two flat coefficient vectors."""
    d, m = spec.d, spec.m
    table = _index_table(spec.group)
    out = [0] * spec.size
    for gi in range(spec.order):
        xi = x[gi * d:(gi + 1) * d]
        if not any(xi):
            continue
        row = table[gi]
        for gj in range(spec.order):
            yj = y[gj * d:(gj + 1) * d]
            if not any(yj):
                continue
            base = row[gj] * d
            for k, c in enumerate(_poly_mul_mod(xi, yj, spec.q, m)):
                out[base + k] += c
    return tuple(c % m for c in out)


_PROBE_SPEC = RingSpec(1000003, None, (6,))
_PROBE_X = tuple((7919 * k + 13) % 1000003 for k in range(6))


def reference_probe() -> float:
    """Seconds for 40 naive products, from the fastest of 5 batches of 8.

    The fastest batch ignores a collection or a cold cache left by the job
    before; what remains tracks how fast the core runs Python right now.
    """
    best = float("inf")
    for _ in range(_PROBE_BATCHES):
        t0 = perf_counter()
        for _ in range(_PROBE_PRODUCTS):
            mul(_PROBE_SPEC, _PROBE_X, _PROBE_X)
        best = min(best, perf_counter() - t0)
    return best * _PROBE_BATCHES
