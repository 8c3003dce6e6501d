"""Command-line front end.

Subcommands::

    list RING         materialize E(RING) completely
    count RING        |E(RING)| and the primitive count, without materializing
    primitive RING    the certified orthogonal primitive family
    lift RING ELEM    lift an element along the standard chain (or --tower)
    verify RING ELEM [ELEM ...]   idempotency / orthogonality / sum-to-one
    oracle RING       brute-force scan, bypassing every certified provider

Exit codes: 0 success, 1 golden-table mismatch, 2 parse error, 3 size cap,
4 unsupported ring, 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

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
from .lifting import (
    chain_lift,
    standard_chain,
    trusted_chain,
    verify_family,
    verify_idempotent,
)
from .oracle import DEFAULT_BRUTE_CAP
from .parsing import build_ring, parse_element
from .rings import Ring

_EXIT_CODES = {
    ParseError: 2,
    SizeLimitError: 3,
    UnsupportedError: 4,
    VerificationError: 5,
}


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _emit_error(exc: IdemliftError, json_mode: bool) -> int:
    code = _EXIT_CODES.get(type(exc), 1)
    if json_mode:
        _print_json({"error": {"code": code, "type": type(exc).__name__, "message": str(exc)}})
    else:
        print(f"error: {exc}", file=sys.stderr)
    return code


def _caps(args) -> tuple[int, int]:
    if args.cap is not None:
        if args.cap < 1:
            raise ParseError(f"--cap must be >= 1, got {args.cap}")
        return args.cap, args.cap
    return DEFAULT_LIST_CAP, DEFAULT_BRUTE_CAP


def _check_golden(fam: IdempotentFamily, path: str) -> int:
    """Compare the family against a stored table; 0 on match, 1 on mismatch."""
    with open(path, encoding="utf-8") as fh:
        stored = json.load(fh)
    want = {tuple(v) for v in stored["members"]}
    got = {x.coeff_vector() for x in fam.members}
    if want == got:
        print(f"golden: match ({len(got)} members)")
        return 0
    missing = want - got
    extra = got - want
    print(
        f"golden: MISMATCH ({len(missing)} missing, {len(extra)} unexpected)",
        file=sys.stderr,
    )
    for vec in sorted(missing):
        print(f"  missing   {list(vec)}", file=sys.stderr)
    for vec in sorted(extra):
        print(f"  unexpected {list(vec)}", file=sys.stderr)
    return 1


def _emit_family(fam: IdempotentFamily, ring: Ring, args, label: str) -> int:
    if args.json:
        _print_json(fam.to_json_dict())
    else:
        print(f"{label}({ring.expression()}): {fam.count} elements [{fam.provenance}]")
        for x in fam.members:
            print(ring.element_text(x))
    if args.golden:
        return _check_golden(fam, args.golden)
    return 0


def _cmd_list(args) -> int:
    ring = build_ring(args.ring)
    list_cap, brute_cap = _caps(args)
    fam = enumerate_idempotents(ring, list_cap, brute_cap)
    if not fam.complete:
        raise SizeLimitError(
            f"|E| = {fam.count} exceeds the listing cap {list_cap}; "
            "use 'count' or raise --cap"
        )
    return _emit_family(fam, ring, args, "E")


def _cmd_count(args) -> int:
    ring = build_ring(args.ring)
    _, brute_cap = _caps(args)
    fam = enumerate_idempotents(ring, list_cap=0, brute_cap=brute_cap)
    log2 = fam.count.bit_length() - 1
    primitive_count = log2 if fam.count == 1 << log2 else None
    if args.json:
        _print_json(
            {
                "ring": ring.expression(),
                "count": fam.count,
                "log2": log2,
                "primitive_count": primitive_count,
                "provenance": fam.provenance,
            }
        )
    else:
        power = f" = 2^{log2}" if fam.count == 1 << log2 else ""
        print(f"|E({ring.expression()})| = {fam.count}{power}")
        print(f"primitive count: {primitive_count}")
    return 0


def _cmd_primitive(args) -> int:
    ring = build_ring(args.ring)
    list_cap, brute_cap = _caps(args)
    fam = enumerate_idempotents(ring, list_cap, brute_cap)
    if not fam.orthogonal_primitive:
        raise UnsupportedError(
            f"no certified primitive family available for {ring.expression()}"
        )
    if args.json:
        payload = fam.to_json_dict()
        payload.pop("members", None)
        _print_json(payload)
    else:
        print(
            f"primitive idempotents of {ring.expression()}: "
            f"{len(fam.primitive)} elements [{fam.provenance}]"
        )
        for x in fam.primitive:
            print(ring.element_text(x))
    return 0


def _render_tower(tower: tuple) -> str:
    if len(tower) == 2:
        s, count = tower
        return f"{s}^{count}"
    return " * ".join(str(s) for s in tower)


def _cmd_lift(args) -> int:
    ring = build_ring(args.ring)
    f = parse_element(args.element, ring)
    if args.tower is not None:
        s, count = args.tower
        if s < 1 or count < 0:
            raise ParseError(f"--tower needs S >= 1 and K >= 0, got {s} {count}")
        chain = trusted_chain(ring, [s] * count, [2] * count)
    else:
        chain = standard_chain(ring)
    report = chain_lift(f, chain, checked=True)
    if args.json:
        _print_json(report.to_json_dict(ring))
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
    idem = [verify_idempotent(x) for x in elems]
    results: dict = {
        "ring": ring.expression(),
        "elements": [list(x.coeff_vector()) for x in elems],
        "idempotent": idem,
    }
    failures = [
        f"not idempotent: {ring.element_text(x)}"
        for x, ok in zip(elems, idem)
        if not ok
    ]
    if len(elems) > 1:
        check = verify_family(elems, ring)
        results["orthogonal"] = check.orthogonal
        results["sums_to_one"] = check.sums_to_one
        if not check.orthogonal:
            failures.append("pairwise orthogonality")
        if not check.sums_to_one:
            failures.append("sum equal to 1")
    if args.json:
        # a single JSON document; the verified flag carries the outcome
        results["verified"] = not failures
        _print_json(results)
        return _EXIT_CODES[VerificationError] if failures else 0
    print(f"ring: {ring.expression()}")
    for x, ok in zip(elems, idem):
        print(f"idempotent: {'yes' if ok else 'NO'}  {ring.element_text(x)}")
    if len(elems) > 1:
        print(f"orthogonal: {'yes' if results['orthogonal'] else 'NO'}")
        print(f"sums to one: {'yes' if results['sums_to_one'] else 'NO'}")
    if failures:
        raise VerificationError("failed checks: " + ", ".join(failures))
    return 0


def _cmd_oracle(args) -> int:
    ring = build_ring(args.ring)
    _, brute_cap = _caps(args)
    fam = brute_force_idempotents(ring, brute_cap)
    return _emit_family(fam, ring, args, "E")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    common.add_argument("--cap", type=int, default=None, metavar="N",
                        help="override the enumeration and scan caps")
    common.add_argument("--seed", type=int, default=None, metavar="N",
                        help="seed for randomized property checks (reserved)")
    common.add_argument("--golden", default=None, metavar="PATH",
                        help="compare the output against a stored table; exit 1 on mismatch")
    parser = argparse.ArgumentParser(
        prog="idemlift",
        description="Exact enumeration, lifting, and verification of ring idempotents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("list", parents=[common], help="materialize E(RING)")
    p.add_argument("ring")
    p.set_defaults(run=_cmd_list)
    p = sub.add_parser("count", parents=[common],
                       help="|E(RING)| and primitive count without materializing")
    p.add_argument("ring")
    p.set_defaults(run=_cmd_count)
    p = sub.add_parser("primitive", parents=[common],
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
    p = sub.add_parser("oracle", parents=[common], help="brute-force scan")
    p.add_argument("ring")
    p.set_defaults(run=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except IdemliftError as exc:
        return _emit_error(exc, args.json)


if __name__ == "__main__":
    sys.exit(main())
