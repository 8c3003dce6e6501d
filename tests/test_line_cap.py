"""The package's line cap: ``wc -l src/idemlift/*.py`` stays at most 2,955.

2,955 lines is the size of the package once every carrier has one
crossing and one identity: ``PackedRing.embed`` reads an element into
another carrier for the congruence check, the CRT glue, the weights and
the power form, and ``PackedRing`` alone defines carrier equality by the
canonical expression; code that grows it past the cap pays for the lines
by deleting others.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "idemlift"
LINE_CAP = 2955


def test_package_within_line_cap():
    # wc -l counts newline characters
    counts = {p.name: p.read_bytes().count(b"\n") for p in sorted(SRC.glob("*.py"))}
    assert len(counts) >= 12
    total = sum(counts.values())
    assert total <= LINE_CAP, f"src/idemlift/*.py has {total} lines, above the cap {LINE_CAP}"
