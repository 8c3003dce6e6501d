"""Names that code outside ``src/`` resolves at run time must stay bound.

The benchmark's span tracer (``perfbench/spans.py``) wraps each entry of
its ``TARGETS`` list by name, reading ``Class.method`` entries from the
class's own ``__dict__``; the package root re-exports ``__all__``.  A
deleted or renamed target fails here instead of in a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import idemlift

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize(
    "name, module_name, attr", [pytest.param(*t, id=t[0]) for t in _targets()]
)
def test_tracer_target_resolves(name, module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(getattr(module, cls_name).__dict__[meth]), name
    else:
        assert callable(getattr(module, attr)), name


@pytest.mark.parametrize("name", idemlift.__all__)
def test_public_name_resolves(name):
    assert getattr(idemlift, name) is not None
