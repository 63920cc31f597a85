"""The functions perfbench's per-layer metrics name must exist.

``perfbench/tracer.py`` names a span ``<layer>.<function>`` from the
wrapped function's ``__module__`` and ``__name__``, and wraps
``core.OperatorMatrix.apply`` as the one method; a pinned name that no
longer resolves would drop its metric from every traced run.
"""

import importlib
import inspect
import json
import pathlib

import pytest

BENCHMARK = pathlib.Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def pinned_functions():
    """(layer, dotted name) of each ``<layer>.<name>.calls`` or
    ``.self_s`` metric; layer totals, sweeps and the tracer's own
    overhead name no function."""
    names = set()
    for metric in json.loads(BENCHMARK.read_text())["per_layer"]:
        path, _, kind = metric["name"].rpartition(".")
        layer, _, name = path.partition(".")
        if kind in ("calls", "self_s") and name \
                and layer not in ("sweep", "trace"):
            names.add((layer, name))
    return sorted(names)


@pytest.mark.parametrize("layer, name", pinned_functions(),
                         ids=lambda x: x)
def test_benchmark_pin_resolves(layer, name):
    obj = importlib.import_module(f"sympairs.{layer}")
    for part in name.split("."):
        assert not part.startswith("_")
        obj = getattr(obj, part)
    assert inspect.isfunction(obj)
    # a method is pinned only as defined on its class, not inherited
    assert (obj.__module__, obj.__qualname__) == (f"sympairs.{layer}", name)
