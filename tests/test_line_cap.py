"""The package's line cap: ``wc -l src/idemlift/*.py`` stays at most 2,930.

2,930 lines is the size of the package once each fact about a carrier has
one home: a group ring's component count is its cached ``_components``,
every route takes the carrier it answers for, primality is checked at the
public providers, and the oracle builds its own table of basis products
from the carrier's shape; code that grows it past the cap pays for the
lines by deleting others.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "idemlift"
LINE_CAP = 2930


def test_package_within_line_cap():
    # wc -l counts newline characters
    counts = {p.name: p.read_bytes().count(b"\n") for p in sorted(SRC.glob("*.py"))}
    assert len(counts) >= 12
    total = sum(counts.values())
    assert total <= LINE_CAP, f"src/idemlift/*.py has {total} lines, above the cap {LINE_CAP}"
