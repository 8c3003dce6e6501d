"""The package's line cap: ``wc -l src/idemlift/*.py`` stays at most 2,820.

2,820 lines is the size of the package once its carriers are one class,
``group_rings.Ring``, each built from its shape, its component count is a
closed form, a split F_q G is split by its characters, every other group
ring over a field by its Frobenius-fixed subalgebra, and the factorizer
splits each squarefree part once; code that grows it past the cap pays for
the lines by deleting others.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "idemlift"
LINE_CAP = 2820


def test_package_within_line_cap():
    # wc -l counts newline characters
    counts = {p.name: p.read_bytes().count(b"\n") for p in sorted(SRC.glob("*.py"))}
    assert len(counts) >= 12
    total = sum(counts.values())
    assert total <= LINE_CAP, f"src/idemlift/*.py has {total} lines, above the cap {LINE_CAP}"
