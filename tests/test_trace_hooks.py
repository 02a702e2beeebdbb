"""The benchmark's tracer patches beamlab functions by name: a hooked name
that no longer resolves breaks `perfbench/run.py --trace 1` with an
AttributeError at install time. This reads the hook tables only; nothing
is installed."""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hooked_names():
    tracing = _tracing()
    module, cls, method = tracing.SCORER
    return [(m, attr) for m, attr, _ in tracing.HOOKS] + \
        [(module, cls + "." + method)]


@pytest.mark.parametrize("module, name", _hooked_names())
def test_every_traced_name_resolves(module, name):
    owner = importlib.import_module("beamlab." + module)
    for part in name.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
