"""Output checks that share no code with idemlift.

Everything here is the benchmark's own: a parser for the ring grammar and
the CLI's element text, the naive product of ``naive.py``, and closed-form component counts from sympy's ``factorint`` and mod-p
factor lists plus orbit counts of ``g -> g^(p^d)`` on the group's
p'-part.  A job passes only when its exit code, echoed inputs and every
printed number agree with these.  Nothing here imports idemlift.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from itertools import product

from naive import RingSpec, strides, mul

try:
    import sympy
except ImportError:  # reported by run.py before any run starts
    sympy = None

_RING_RE = re.compile(r"^Z\((\d+)\)(\[i\]|\[x\]/\(([^()]*)\))?(\{([^{}]*)\})?$")


def poly_text(coeffs, var: str = "x") -> str:
    """Canonical polynomial text, lowest degree first, zero terms dropped."""
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            base = var if k == 1 else f"{var}^{k}"
            terms.append(base if c == 1 else f"{c}*{base}")
    return " + ".join(terms) if terms else "0"


def ring_text(spec: RingSpec) -> str:
    out = f"Z({spec.m})"
    if spec.q == (1, 0, 1):
        out += "[i]"
    elif spec.q is not None:
        out += f"[x]/({poly_text(spec.q)})"
    if spec.group:
        out += "{" + "x".join(f"C{n}" for n in spec.group) + "}"
    return out


def parse_poly(text: str, var: str, m: int) -> list[int]:
    coeffs: dict[int, int] = {}
    for term in text.split("+"):
        term = term.strip()
        if not term:
            raise ValueError(f"empty term in {text!r}")
        c, k = 1, 0
        if var in term:
            head, _, tail = term.partition(var)
            head = head.strip().rstrip("*").strip()
            c = int(head) if head else 1
            tail = tail.strip()
            k = int(tail[1:]) if tail.startswith("^") else 1
            if tail and not tail.startswith("^"):
                raise ValueError(f"bad monomial {term!r}")
        else:
            c = int(term)
        coeffs[k] = (coeffs.get(k, 0) + c) % m
    return [coeffs.get(k, 0) for k in range(max(coeffs) + 1)]


def parse_ring(text: str) -> RingSpec:
    match = _RING_RE.match(text)
    if not match:
        raise ValueError(f"not a ring expression: {text!r}")
    m = int(match.group(1))
    q = None
    if match.group(2) == "[i]":
        q = (1, 0, 1)
    elif match.group(2):
        q = tuple(parse_poly(match.group(3), "x", m))
    group = ()
    if match.group(4):
        group = tuple(int(f.strip()[1:]) for f in match.group(5).split("x"))
    return RingSpec(m, q, group)


def _split_top(text: str, sep: str) -> list[str]:
    """Split at ``sep`` outside parentheses."""
    parts, depth, start, k = [], 0, 0, 0
    while k < len(text):
        ch = text[k]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith(sep, k):
            parts.append(text[start:k])
            start = k + len(sep)
            k = start
            continue
        k += 1
    parts.append(text[start:])
    return parts


def _basis_index(spec: RingSpec, text: str) -> int:
    if text == "e":
        return 0
    names = ("g",) if len(spec.group) == 1 else ("a", "b")
    exps = [0] * len(spec.group)
    for token in text.strip("()").split():
        name, _, power = token.partition("^")
        exps[names.index(name)] += int(power) if power else 1
    return sum((a % n) * s for a, n, s in zip(exps, spec.group, strides(spec.group)))


def _coeff_vector(spec: RingSpec, text: str) -> list[int]:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    if spec.q is None:
        return [int(text) % spec.m]
    vec = parse_poly(text, spec.var, spec.m)
    if len(vec) > spec.d:
        raise ValueError(f"coefficient {text!r} is not reduced")
    return vec + [0] * (spec.d - len(vec))


def parse_element(spec: RingSpec, text: str) -> tuple[int, ...]:
    """Flat coefficient vector (group index major) of a printed element."""
    text = text.strip()
    if not spec.group:
        return tuple(_coeff_vector(spec, text))
    out = [0] * spec.size
    if text == "0":
        return tuple(out)
    for term in _split_top(text, " + "):
        pieces = _split_top(term, "*")
        coeff, basis = "*".join(pieces[:-1]), pieces[-1]
        idx = _basis_index(spec, basis.strip())
        for k, c in enumerate(_coeff_vector(spec, coeff)):
            out[idx * spec.d + k] = (out[idx * spec.d + k] + c) % spec.m
    return tuple(out)


def _pprime_part(n: int, p: int) -> int:
    while n % p == 0:
        n //= p
    return n


def frobenius_orbits(group: tuple[int, ...], power: int) -> int:
    """Orbits of g -> g^power on the abelian group C_{n_1} x ... x C_{n_r}."""
    seen = set()
    orbits = 0
    for start in product(*(range(n) for n in group)):
        if start in seen:
            continue
        orbits += 1
        g = start
        while g not in seen:
            seen.add(g)
            g = tuple(a * power % n for a, n in zip(g, group))
    return orbits


@lru_cache(maxsize=None)
def component_count(spec: RingSpec) -> int:
    """Number of primitive idempotents, so |E| = 2**component_count.

    Per prime p | m: the base splits mod p into fields F_{p^d} (one per
    distinct irreducible factor of q), F_{p^d}[P x G'] has as many
    components as F_{p^d} G', and that is the number of orbits of
    g -> g^(p^d) on G', the p'-part of G.
    """
    total = 0
    x = sympy.symbols("x")
    for p in sympy.factorint(spec.m):
        if spec.q is None:
            degrees = [1]
        else:
            poly = sympy.Poly(list(reversed(spec.q)), x, modulus=p)
            degrees = [f.degree() for f, _ in poly.factor_list()[1]]
        pgroup = tuple(_pprime_part(n, p) for n in spec.group)
        total += sum(frobenius_orbits(pgroup, p**d) for d in degrees)
    return total


def _check_count(job, spec, out, facts) -> str | None:
    k = component_count(spec)
    want_ring = job["ring"]
    if job.get("json"):
        doc = json.loads(out)
        got = (doc["ring"], doc["count"], doc["log2"], doc["primitive_count"])
        if got != (want_ring, 2**k, k, k):
            return f"count document {got} != {(want_ring, 2**k, k, k)}"
        return None
    lines = out.splitlines()
    want = [f"|E({want_ring})| = {2**k} = 2^{k}", f"primitive count: {k}"]
    if lines != want:
        return f"count text {lines!r} != {want!r}"
    return None


def _certify_primitive(spec, members, k) -> str | None:
    if len(members) != k:
        return f"{len(members)} primitive idempotents, closed form says {k}"
    total = [0] * spec.size
    for i, e in enumerate(members):
        if not any(e):
            return "zero member in the primitive family"
        if mul(spec, e, e) != e:
            return f"primitive member {i} is not idempotent"
        for f in members[i + 1:]:
            if any(mul(spec, e, f)):
                return "primitive members are not orthogonal"
        total = [a + b for a, b in zip(total, e)]
    if tuple(c % spec.m for c in total) != spec.one():
        return "primitive members do not sum to 1"
    return None


def _check_primitive(job, spec, out, facts) -> str | None:
    k = component_count(spec)
    if job.get("json"):
        doc = json.loads(out)
        if (doc["ring"], doc["count"]) != (job["ring"], 2**k):
            return f"primitive document ring/count {(doc['ring'], doc['count'])}"
        members = [tuple(v) for v in doc["primitive"]]
    else:
        lines = out.splitlines()
        head = re.match(r"^primitive idempotents of (.*): (\d+) elements \[[a-z-]+\]$", lines[0])
        if not head or head.group(1) != job["ring"] or int(head.group(2)) != len(lines) - 1:
            return f"primitive header {lines[0]!r}"
        members = [parse_element(spec, line) for line in lines[1:]]
    return _certify_primitive(spec, members, k)


def _check_list(job, spec, out, facts) -> str | None:
    k = component_count(spec)
    n = 2**k
    if job.get("json"):
        doc = json.loads(out)
        if (doc["ring"], doc["count"], doc["complete"]) != (job["ring"], n, True):
            return f"list document header {(doc['ring'], doc['count'], doc['complete'])}"
        if len(doc["primitive"]) != k:
            return f"{len(doc['primitive'])} primitive idempotents, closed form says {k}"
        members = [tuple(v) for v in doc["members"]]
    else:
        lines = out.splitlines()
        if job.get("golden"):
            if lines[-1:] != [f"golden: match ({n} members)"]:
                return f"golden line {lines[-1:]!r}"
            lines = lines[:-1]
        head = re.match(r"^E\((.*)\): (\d+) elements \[[a-z-]+\]$", lines[0])
        if not head or head.group(1) != job["ring"] or int(head.group(2)) != n:
            return f"list header {lines[0]!r}, closed form says {n} elements"
        members = [parse_element(spec, line) for line in lines[1:]]
    if len(members) != n:
        return f"{len(members)} members listed, closed form says {n}"
    if len(set(members)) != n:
        return "listed members are not distinct"
    for e in members:
        if mul(spec, e, e) != e:
            return f"listed member {e} is not idempotent"
    if job.get("golden"):
        with open(job["golden"], encoding="utf-8") as fh:
            stored = {tuple(v) for v in json.load(fh)["members"]}
        if stored != set(members):
            return "listing differs from the golden table"
    return None


def _check_lift(job, spec, out, facts) -> str | None:
    p, k = job["prime"], job["exponent"]
    want_input = tuple(job["input"])
    if job.get("json"):
        doc = json.loads(out)
        ring, tower, verified = doc["ring"], doc["tower"], doc["verified"]
        got_input, lifted, mults = tuple(doc["input"]), tuple(doc["lifted"]), doc["mults"]
        want_tower = [p, k - 1]
    else:
        fields = {}
        for line in out.splitlines():
            key, _, value = line.partition(":")
            fields[key] = value.strip()
        ring, tower = fields.get("ring"), fields.get("tower")
        verified = fields.get("verified") == "true"
        got_input = parse_element(spec, fields["input"])
        lifted = parse_element(spec, fields["lifted"])
        mults = int(fields["mults"])
        want_tower = f"{p}^{k - 1}"
    if ring != job["ring"] or tower != want_tower or not verified:
        return f"lift report ring={ring!r} tower={tower!r} verified={verified!r}"
    if got_input != want_input:
        return "echoed input differs from the job's input"
    if mul(spec, lifted, lifted) != lifted:
        return "lifted element is not idempotent"
    if any((a - b) % p for a, b in zip(lifted, want_input)):
        return "lifted element is not congruent to the input mod p"
    if not isinstance(mults, int) or mults < 1:
        return f"bad multiplication count {mults!r}"
    facts["mults"] = mults
    return None


_CHECKS = {
    "count": _check_count,
    "primitive": _check_primitive,
    "list": _check_list,
    "lift": _check_lift,
}


def check_job(job: dict, code, out: str, facts: dict | None = None) -> str | None:
    """None when the output is right, else the reason it is wrong.

    Numbers the runner reports from a passing output (a lift's ``mults``)
    are stored in ``facts`` when it is given.
    """
    if code != 0:
        return f"exit code {code}"
    spec = parse_ring(job["ring"])
    try:
        return _CHECKS[job["kind"]](job, spec, out, {} if facts is None else facts)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
