"""Byte snapshot of the ``lift`` and ``verify`` subcommands.

``golden/lift_verify_bytes.json`` holds the sha256 of the exit code,
stdout and stderr of one in-process run for each argv, in text and
``--json`` form.  The rings are the group rings of the benchmark's
``lift_tower`` pool (cyclic groups of order 3 to 32 over Z(p^k) up to
2^41) and rank-2 and rank-3 group rings over residue and quotient bases.
Each ring lifts one element of the form e + p*r and verifies the lifted
element and the unlifted input; the rank-2 and rank-3 rings also lift
along a short ``--tower`` that leaves the input unverified and verify
their primitive family, a repeated member and a family missing one
member.  Any change to what these commands print, or to how they fail,
shows here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from idemlift.cli import main

GOLDEN = Path(__file__).parent / "golden" / "lift_verify_bytes.json"
CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))


def digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(json.dumps([code, out, err]).encode("utf-8")).hexdigest()


def test_snapshot_covers_both_commands_and_modes():
    argvs = [case["argv"] for case in CASES]
    assert {argv[0] for argv in argvs} == {"lift", "verify"}
    assert sum("--json" in argv for argv in argvs) * 2 == len(argvs)
    groups = {argv[1][argv[1].index("{"):] for argv in argvs}
    assert {"{C32}", "{C31}", "{C2xC2}", "{C2xC2xC2}"} <= groups


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"][:2]) + f" #{i}" for i, c in enumerate(CASES)])
def test_lift_verify_bytes_unchanged(case, capsys):
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert digest(code, captured.out, captured.err) == case["sha256"]
