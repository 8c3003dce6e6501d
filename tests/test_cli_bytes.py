"""Byte snapshot of the enumeration subcommands.

``golden/cli_bytes.json`` holds, for ``list``, ``count``, ``primitive`` and
``oracle`` in text and ``--json`` form, at the default cap and at
``--cap 16``, the sha256 of the exit code, stdout and stderr of one
in-process run.  The
rings cover every carrier kind: residue rings (including the zero ring),
Gaussian and Galois quotients, split polynomial quotients, rank-1 and
rank-2 group rings, non-semisimple F_2 C_n and extension-field group rings.
Five rings list at the benchmark's sizes: ``Z(4095){C4}`` (16,384
members), ``Z(60){C3xC3}``, ``Z(2520){C11}``, ``Z(221)[i]{C3}`` (rank 1
over a quotient base) and ``Z(32045)[i]``.  The oracle pins its exit-3
bytes on rings above its scan cap; ``Z(30){C2xC2}`` (512 members) and
``Z(5){C4xC2}`` (256) are scanned in full.
Any change to what these commands print, or to how they fail, shows here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from idemlift.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_bytes.json"
CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))


def digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(json.dumps([code, out, err]).encode("utf-8")).hexdigest()


def test_snapshot_covers_every_command_and_flag():
    argvs = [case["argv"] for case in CASES]
    rings = {argv[1] for argv in argvs}
    assert len(rings) >= 38
    assert len(argvs) == len(rings) * 4 * 2 * 2


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_bytes_unchanged(case, capsys):
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert digest(code, captured.out, captured.err) == case["sha256"]


@pytest.mark.parametrize("command", ["primitive", "count"])
def test_primitive_and_count_list_nothing(command, capsys, monkeypatch):
    # 2^16 members fit under the default cap; neither command may build them
    import idemlift.catalog as catalog

    def forbidden(*args, **kwargs):
        raise AssertionError("the listing was built")

    monkeypatch.setattr(catalog, "_subset_sums", forbidden)
    argv = [command, "Z(2028)[i]{C6}"]
    (case,) = [c for c in CASES if c["argv"] == argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert digest(code, captured.out, captured.err) == case["sha256"]
