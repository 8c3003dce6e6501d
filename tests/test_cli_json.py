"""The CLI's JSON writer against the standard library's indented encoder.

``cli._json_text`` must return exactly ``json.dumps(v, indent=2,
sort_keys=True)`` for every str-keyed JSON value, so that every document
the CLI prints keeps its bytes.  hypothesis draws recursive values with
bools inside int lists, None, empty and nested empty containers, tuples,
negative and very large ints, and strings with quotes, backslashes,
control characters and non-ASCII text, as keys and as values.
"""

import json

import pytest

from idemlift.cli import _json_text, main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TEXT = st.text(
    alphabet=st.sampled_from('a"\\/\n\t\r\b\f\x00\x1f\x7f é€中😀') | st.characters(),
    max_size=6,
)
INTS = st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-(2**64))
SCALARS = st.none() | st.booleans() | INTS | TEXT | st.floats()
INT_LISTS = st.lists(INTS | st.booleans(), max_size=6)
VALUES = st.recursive(
    SCALARS | INT_LISTS | INT_LISTS.map(tuple),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(TEXT, inner, max_size=4)
    ),
    max_leaves=24,
)


def expected(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value",
    [
        [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, ((),), [[], [[]], {}],
        [True, 1], [1, True], [False], [0, -1, 2**64 + 1, -(2**100)],
        None, {"k": None}, [None, 1], {"\"\\\n\x01é": "\"\\\n\x01é😀"},
        {"members": [[0, 1], [2, 3]], "complete": True, "count": 4},
    ],
    ids=repr,
)
def test_edge_values(value):
    assert _json_text(value) == expected(value)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(VALUES)
def test_matches_the_standard_encoder(value):
    assert _json_text(value) == expected(value)


def test_error_document_pinned(capsys):
    assert main(["count", "Z(", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        "{\n"
        '  "error": {\n'
        '    "code": 2,\n'
        '    "message": "expected an integer at position 2 in \'Z(\'",\n'
        '    "type": "ParseError"\n'
        "  }\n"
        "}\n"
    )
