"""The traced benchmark run (`bench/trace_layers.py`, used by
`bench/run.py --trace 1`) times each layer by replacing module attributes
that the callers look their functions up through.  Every attribute it
patches must still exist, and must be the same function in each module it
is replaced in, or the traced run times nothing or fails."""

import importlib.util
from pathlib import Path

import pytest

_SOURCE = Path(__file__).resolve().parents[1] / "bench" / "trace_layers.py"


def _load_trace_layers():
    spec = importlib.util.spec_from_file_location("trace_layers", _SOURCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_PATCHES = _load_trace_layers()._PATCHES


@pytest.mark.parametrize(
    "owner,attr,targets", [p[1:] for p in _PATCHES],
    ids=[f"{p[1].__name__}.{p[2]}" for p in _PATCHES])
def test_traced_attribute_is_reachable(owner, attr, targets):
    fn = getattr(owner, attr, None)
    assert callable(fn), f"{owner.__name__} has no {attr}"
    for module in targets:
        assert getattr(module, attr, None) is fn, (
            f"{module.__name__}.{attr} is not {owner.__name__}.{attr}")
