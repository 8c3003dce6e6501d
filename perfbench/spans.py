"""Outside-in span tracing of idemlift's layers, and the analysis of the spans.

The worker installs wrappers around each layer's public callables, binding
the wrapper wherever the original object is bound (``catalog`` and ``cli``
import several callables by name).  Each call records a span: name, start,
end, parent span and job id, plus whether the call returned normally.
Spans stay in memory in flat arrays and are written to one ``.npz`` file
when the traced round ends; ``analyze`` turns that file into per-layer
counts, self times and coverage.  Nothing under ``src/`` is touched: the
wrappers are installed at run time and every patched name is restored.

Per-coefficient ``ResidueElement`` and ``Polynomial`` operators are not
wrapped; their cost lands in the self time of the enclosing span.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# (span name, module, attribute or "Class.method")
TARGETS = (
    ("cli.main", "idemlift.cli", "main"),
    ("parsing.build_ring", "idemlift.parsing", "build_ring"),
    ("parsing.parse_element", "idemlift.parsing", "parse_element"),
    ("catalog.enumerate", "idemlift.catalog", "enumerate_idempotents"),
    ("catalog.provider.hat", "idemlift.catalog", "hat_family"),
    ("catalog.provider.cyclic", "idemlift.catalog", "cyclic_base_idempotents"),
    ("catalog.provider.poly", "idemlift.catalog", "poly_crt_combine"),
    ("catalog.provider.brute", "idemlift.catalog", "brute_force_idempotents"),
    ("lifting.chain_lift", "idemlift.lifting", "chain_lift"),
    ("lifting.verify_idempotent", "idemlift.lifting", "verify_idempotent"),
    ("lifting.verify_family", "idemlift.lifting", "verify_family"),
    ("group_rings.mul", "idemlift.group_rings", "GroupRingElement.__mul__"),
    ("group_rings.pow", "idemlift.group_rings", "GroupRingElement.__pow__"),
    ("quotients.mul", "idemlift.quotients", "PolyQuotientElement.__mul__"),
    ("polynomials.berlekamp_factor", "idemlift.polynomials", "berlekamp_factor"),
    ("polynomials.poly_gcd", "idemlift.polynomials", "poly_gcd"),
    ("groups.all_subgroups", "idemlift.groups", "all_subgroups"),
    ("groups.frobenius_orbit_count", "idemlift.groups", "frobenius_orbit_count"),
    ("rings.factorize", "idemlift.rings", "factorize"),
    ("rings.is_prime", "idemlift.rings", "is_prime"),
    ("oracle.brute_force_scan", "idemlift.oracle", "brute_force_scan"),
)

PROVIDERS = ("hat", "cyclic", "poly", "brute")


class SpanRecorder:
    """In-memory span log for one traced round in one process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.ok = array("b")
        self.start = array("d")
        self.end = array("d")
        self.job_id = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        rec = self

        def traced(*args, **kwargs):
            idx = len(rec.start)
            rec.name_id.append(nid)
            rec.parent.append(rec._stack[-1])
            rec.job.append(rec.job_id)
            rec.ok.append(0)
            rec.end.append(0.0)
            rec._stack.append(idx)
            rec.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[idx] = perf_counter()
                rec._stack.pop()
            rec.ok[idx] = 1
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Wrap every target wherever it is bound in a loaded idemlift module."""
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "idemlift" or key.startswith("idemlift."))
        ]
        for name, module_name, attr in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def restore(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
            ok=np.frombuffer(self.ok, dtype=np.int8),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def analyze(path: str, traced_wall_s: float) -> dict:
    """Per-span-name calls, self time and provider outcomes, plus coverage.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly (one thread), so children never overlap.
    Coverage is the summed duration of top-level spans over the traced wall
    time of the round.
    """
    import numpy as np

    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        name_id = data["name_id"]
        parent = data["parent"]
        ok = data["ok"]
        dur = data["end"] - data["start"]
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_s = dur - child
    calls = np.bincount(name_id, minlength=len(names))
    self_by_name = np.bincount(name_id, weights=self_s, minlength=len(names))
    ok_by_name = np.bincount(name_id, weights=ok, minlength=len(names))
    per_name = {
        n: {"calls": int(calls[k]), "self_s": float(self_by_name[k]), "ok": int(ok_by_name[k])}
        for k, n in enumerate(names)
    }
    top = float(dur[~nested].sum())
    return {
        "spans": per_name,
        "span_count": int(len(dur)),
        "top_level_s": top,
        "total_self_s": float(self_s.sum()),
        "coverage": top / traced_wall_s if traced_wall_s > 0 else 0.0,
    }
