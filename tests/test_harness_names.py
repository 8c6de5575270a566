"""The benchmark harness wraps slchyp functions by name; every name it lists
must resolve, or `Tracer.install` raises and every traced run fails.

The harness module is compiled from its source, so nothing is written next
to it."""

import importlib
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_namespace():
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace


TRACER_NS = _tracer_namespace()
NAMES = [(module, attr) for module, attr, _span in TRACER_NS["SPANS"]] + TRACER_NS["COUNTERS"]


@pytest.mark.parametrize("module,attr", NAMES)
def test_every_traced_name_resolves(module, attr):
    importlib.import_module(module)
    owner, name, original = TRACER_NS["_resolve"](module, attr)
    assert callable(original)
    assert name == attr.rsplit(".", 1)[-1]
