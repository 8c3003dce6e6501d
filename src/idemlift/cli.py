"""Command-line front end.

Subcommands::

    list RING         materialize E(RING) completely
    count RING        |E(RING)| and the primitive count, without materializing
    primitive RING    the certified orthogonal primitive family
    lift RING ELEM    lift an element along the standard chain (or --tower)
    verify RING ELEM [ELEM ...]   idempotency / orthogonality / sum-to-one
    oracle RING       brute-force scan, bypassing every certified provider

Exit codes: 0 success, 1 golden-table mismatch, 2 parse error, 3 size cap,
4 unsupported ring, 5 verification failure, 141 (128 + SIGPIPE) when the
reader of stdout went away, as in ``idemlift list RING | head -1``; the
rest of the output is then discarded without a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache, lru_cache

from .catalog import (
    DEFAULT_LIST_CAP,
    IdempotentFamily,
    brute_force_idempotents,
    enumerate_idempotents,
)
from .errors import (
    IdemliftError,
    ParseError,
    SizeLimitError,
    UnsupportedError,
    VerificationError,
)
from .group_rings import Ring
from .lifting import NILPOTENCY_CAP, PAIR_CAP, CncChain, chain_lift, standard_chain, verify_family
from .oracle import DEFAULT_BRUTE_CAP
from .parsing import build_ring, parse_element
from .rings import FACTORIZATION_BOUND

_EXIT_CODES = {
    ParseError: 2,
    SizeLimitError: 3,
    UnsupportedError: 4,
    VerificationError: 5,
}


@lru_cache(maxsize=64)
def _int_row(length: int, indent: str) -> str:
    return "[" + ",".join([f"\n{indent}  {{}}"] * length) + f"\n{indent}]"


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for str-keyed documents,
    which the standard library encodes in pure Python, item by item: here a
    list of plain ints (``type(v) is int``, so True stays ``true``) fills
    one cached row template per (length, indent)."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = (f"\n{inner}{json.dumps(k)}: {_json_text(v, inner)}" for k, v in sorted(value.items()))
        return "{" + ",".join(items) + f"\n{indent}}}"
    if isinstance(value, (list, tuple)) and value:
        if all(type(v) is int for v in value):
            return _int_row(len(value), indent).format(*value)
        return "[" + ",".join(f"\n{inner}{_json_text(v, inner)}" for v in value) + f"\n{indent}]"
    return json.dumps(value)


def _emit_error(exc: IdemliftError, json_mode: bool) -> int:
    code = _EXIT_CODES.get(type(exc), 1)
    if json_mode:
        print(_json_text({"error": {"code": code, "type": type(exc).__name__, "message": str(exc)}}))
    else:
        print(f"error: {exc}", file=sys.stderr)
    return code


def _cap(args, default: int) -> int:
    if args.cap is not None:
        if args.cap < 1:
            raise ParseError(f"--cap must be >= 1, got {args.cap}")
        return args.cap
    return default


def _read_golden(path: str | None) -> set | None:
    """The vectors of a stored table ``{"members": [[c, ...], ...]}``."""
    if path is None:
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, or not JSON
        raise ParseError(f"cannot read golden table {path}: {exc}")
    members = stored.get("members") if isinstance(stored, dict) else None
    if not isinstance(members, list) or not all(
        isinstance(v, list) and all(type(c) is int for c in v) for v in members
    ):
        raise ParseError(f'golden table {path} needs "members": a list of integer lists')
    return {tuple(v) for v in members}


def _print_golden(diff: dict, size: int) -> None:
    if diff["match"]:
        print(f"golden: match ({size} members)")
        return
    missing, extra = diff["missing"], diff["unexpected"]
    print(f"golden: MISMATCH ({len(missing)} missing, {len(extra)} unexpected)", file=sys.stderr)
    for key in ("missing", "unexpected"):
        for vec in diff[key]:
            print(f"  {key:9} {list(vec)}", file=sys.stderr)


def _emit_family(fam: IdempotentFamily, ring: Ring, args, golden: set | None) -> int:
    values = fam.values  # listed, and checked, before anything is printed
    diff = None
    if golden is not None:  # under --json the comparison is part of the one document
        got = set(ring.unpack_many(values))
        diff = {"match": got == golden, "missing": sorted(golden - got),
                "unexpected": sorted(got - golden)}
    if args.json:
        listing = {"complete": True, "members": list(ring.unpack_many(values))}
        print(_json_text(fam.to_json_dict() | listing | ({} if diff is None else {"golden": diff})))
    else:
        print(f"E({ring.expression()}): {fam.count} elements [{fam.provenance}]")
        sys.stdout.writelines(ring.row_text(c) + "\n" for c in ring.unpack_many(values))
        if diff is not None:
            _print_golden(diff, len(golden))
    return 0 if diff is None or diff["match"] else 1


def _cmd_list(args) -> int:
    ring = build_ring(args.ring)
    cap = _cap(args, DEFAULT_LIST_CAP)
    golden = _read_golden(args.golden)
    fam = enumerate_idempotents(ring)
    if fam.count > cap:
        raise SizeLimitError(
            f"|E| = {fam.count} exceeds the listing cap {cap}; "
            "use 'count' or raise --cap"
        )
    return _emit_family(fam, ring, args, golden)


def _cmd_count(args) -> int:
    ring = build_ring(args.ring)
    _cap(args, DEFAULT_LIST_CAP)  # validated like every --cap; count lists nothing
    fam = enumerate_idempotents(ring)
    log2 = len(fam.primitive)
    if args.json:
        print(_json_text({"ring": ring.expression(), "count": fam.count, "log2": log2,
                          "primitive_count": log2, "provenance": fam.provenance}))
    else:
        print(f"|E({ring.expression()})| = {fam.count} = 2^{log2}")
        print(f"primitive count: {log2}")
    return 0


def _cmd_primitive(args) -> int:
    ring = build_ring(args.ring)
    cap = _cap(args, DEFAULT_LIST_CAP)
    fam = enumerate_idempotents(ring)  # members are never read: no listing
    if args.json:
        payload = fam.to_json_dict()
        payload["complete"] = fam.count <= cap  # whether `list --cap` would list E
        print(_json_text(payload))
    else:
        print(
            f"primitive idempotents of {ring.expression()}: "
            f"{len(fam.primitive)} elements [{fam.provenance}]"
        )
        sys.stdout.writelines(ring.element_text(x) + "\n" for x in fam.primitive)
    return 0


def _render_tower(tower: tuple) -> str:
    if isinstance(tower[0], int):  # one run of equal steps
        return "{}^{}".format(*tower)
    return " * ".join(f"{s}^{count}" if count > 1 else str(s) for s, count in tower)


def _cmd_lift(args) -> int:
    ring = build_ring(args.ring)
    f = parse_element(args.element, ring)
    if args.tower is not None:
        s, count = args.tower
        if s < 1 or count < 0:
            raise ParseError(f"--tower needs S >= 1 and K >= 0, got {s} {count}")
        if s >= FACTORIZATION_BOUND or count > NILPOTENCY_CAP:
            # no standard chain for m < 2^63 is deeper than 61 steps
            raise SizeLimitError(
                f"--tower supports S < 2^63 and K <= {NILPOTENCY_CAP}, got {s} {count}"
            )
        chain = CncChain(ring, (s,) * count, (2,) * count)
    else:
        chain = standard_chain(ring)
    report = chain_lift(f, chain)
    if args.json:
        print(_json_text(report.to_json_dict(ring)))
    else:
        print(f"ring:     {ring.expression()}")
        print(f"input:    {ring.element_text(report.input)}")
        print(f"tower:    {_render_tower(report.tower)}")
        print(f"lifted:   {ring.element_text(report.lifted)}")
        print(f"verified: {'true' if report.verified else 'false'}")
        print(f"mults:    {report.multiplications}")
    return 0


def _cmd_verify(args) -> int:
    ring = build_ring(args.ring)
    elems = [parse_element(text, ring) for text in args.elements]
    check = verify_family(elems, ring)
    if check.orthogonal is None:  # too many pairs: none was multiplied
        raise SizeLimitError(f"verify checks every pair of a family with a non-idempotent "
                             f"element, at most {PAIR_CAP} elements; got {len(elems)}")
    results: dict = {
        "ring": ring.expression(),
        "elements": [list(x.coeff_vector()) for x in elems],
        "idempotent": check.idempotent,
    }
    failures = [f"not idempotent: {ring.element_text(x)}"
                for x, ok in zip(elems, check.idempotent) if not ok]
    if len(elems) > 1:
        results["orthogonal"] = check.orthogonal
        results["sums_to_one"] = check.sums_to_one
        if not check.orthogonal:
            failures.append("pairwise orthogonality")
        if not check.sums_to_one:
            failures.append("sum equal to 1")
    if args.json:
        # a single JSON document; the verified flag carries the outcome
        results["verified"] = not failures
        print(_json_text(results))
        return _EXIT_CODES[VerificationError] if failures else 0
    print(f"ring: {ring.expression()}")
    for x, ok in zip(elems, check.idempotent):
        print(f"idempotent: {'yes' if ok else 'NO'}  {ring.element_text(x)}")
    if len(elems) > 1:
        print(f"orthogonal: {'yes' if results['orthogonal'] else 'NO'}")
        print(f"sums to one: {'yes' if results['sums_to_one'] else 'NO'}")
    if failures:
        raise VerificationError("failed checks: " + ", ".join(failures))
    return 0


def _cmd_oracle(args) -> int:
    ring = build_ring(args.ring)
    cap = _cap(args, DEFAULT_BRUTE_CAP)
    golden = _read_golden(args.golden)
    return _emit_family(brute_force_idempotents(ring, cap), ring, args, golden)


@cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged and
    # returns a fresh Namespace, and the _cmd_* functions read their module
    # globals when they run.  Each subcommand takes only the flags it reads.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--cap", type=int, default=None, metavar="N",
                        help="override the listing and scan caps")
    golden = argparse.ArgumentParser(add_help=False)
    golden.add_argument("--golden", default=None, metavar="PATH",
                        help="compare the output against a stored table; exit 1 on mismatch")
    parser = argparse.ArgumentParser(
        prog="idemlift",
        description="Exact enumeration, lifting, and verification of ring idempotents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("list", parents=[common, capped, golden], help="materialize E(RING)")
    p.add_argument("ring")
    p.set_defaults(run=_cmd_list)
    p = sub.add_parser("count", parents=[common, capped],
                       help="|E(RING)| and primitive count without materializing")
    p.add_argument("ring")
    p.set_defaults(run=_cmd_count)
    p = sub.add_parser("primitive", parents=[common, capped],
                       help="certified orthogonal primitive family")
    p.add_argument("ring")
    p.set_defaults(run=_cmd_primitive)
    p = sub.add_parser("lift", parents=[common],
                       help="lift an element along the standard chain")
    p.add_argument("ring")
    p.add_argument("element")
    p.add_argument("--tower", type=int, nargs=2, metavar=("S", "K"),
                   help="override the chain: raise to the s-th power k times")
    p.set_defaults(run=_cmd_lift)
    p = sub.add_parser("verify", parents=[common],
                       help="verify idempotency (and family facts for several elements)")
    p.add_argument("ring")
    p.add_argument("elements", nargs="+")
    p.set_defaults(run=_cmd_verify)
    p = sub.add_parser("oracle", parents=[common, capped, golden], help="brute-force scan")
    p.add_argument("ring")
    p.set_defaults(run=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            return args.run(args)
        except IdemliftError as exc:
            return _emit_error(exc, args.json)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader is gone: send the rest, and the flush at
        # interpreter exit, to devnull (the recipe in the signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
