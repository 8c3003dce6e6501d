"""CLI contract fuzz: every input the grammar can express ends in an exit code.

hypothesis draws small ring expressions (modulus <= 5000, an optional
``[i]`` or monic ``[x]/(q)`` layer of degree <= 3, up to three cyclic
factors of order <= 12) and element literals over a small alphabet, and
runs them through every subcommand with and without ``--json``.  Each run
must return an exit code in 0-5 without an exception escaping ``main``,
and with ``--json`` print exactly one JSON document and nothing on stderr.
The draws are derandomized, so every run of the suite sees the same inputs.
"""

import contextlib
import io
import json
import time

import pytest

from idemlift.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)


@st.composite
def ring_texts(draw):
    m = draw(st.integers(min_value=1, max_value=5000))
    text = f"Z({m})"
    layer = draw(st.sampled_from(["", "[i]", "[x]"]))
    if layer == "[i]":
        text += "[i]"
    elif layer == "[x]":
        degree = draw(st.integers(min_value=1, max_value=3))
        low = draw(st.lists(st.integers(0, m), min_size=degree, max_size=degree))
        terms = [f"{c}*x^{k}" if k else str(c) for k, c in enumerate(low)]
        text += "[x]/(" + " + ".join(terms + [f"x^{degree}"]) + ")"
    factors = draw(st.lists(st.integers(min_value=2, max_value=12), max_size=3))
    if factors:
        text += "{" + "x".join(f"C{n}" for n in factors) + "}"
    return text


element_texts = st.text(alphabet="0123456789 +*^()egabix", max_size=16)


def _check(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 10.0, argv
    assert code in range(6), (argv, code)
    if "--json" in argv:
        json.loads(out.getvalue())
        assert err.getvalue() == "", argv
    else:
        assert "Traceback" not in err.getvalue()


@SETTINGS
@hypothesis.given(
    command=st.sampled_from(["count", "list", "primitive", "oracle"]),
    ring=ring_texts(),
    as_json=st.booleans(),
)
def test_ring_commands(command, ring, as_json):
    _check([command, ring] + (["--json"] if as_json else []))


@SETTINGS
@hypothesis.given(
    ring=ring_texts(),
    elements=st.lists(element_texts, min_size=1, max_size=3),
    as_json=st.booleans(),
)
def test_element_commands(ring, elements, as_json):
    flag = ["--json"] if as_json else []
    _check(["lift", ring, elements[0]] + flag)
    _check(["verify", ring] + elements + flag)
