"""Every name the benchmark's tracer wraps still exists with the kind it wraps.

``perfbench/spans.py`` wraps fockpr functions and methods by name from
outside the package; a rename under ``src/`` would otherwise only show
when the benchmark's own tests run.  The module is loaded by file path,
so nothing under ``perfbench/`` needs to be importable as a package.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Class.method targets that ``spans.install`` rewraps as classmethods;
# every other method target is a plain function in the class __dict__
CLASSMETHODS = {"IndexedPointSet.from_json"}


def load_layers():
    name = "_perfbench_spans_under_test"
    spec = importlib.util.spec_from_file_location(name, SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module.LAYERS


def resolves(layer) -> bool:
    home = importlib.import_module(layer.module)
    if "." not in layer.attr:
        return callable(getattr(home, layer.attr, None))
    cls_name, meth = layer.attr.split(".")
    raw = getattr(getattr(home, cls_name, None), "__dict__", {}).get(meth)
    if layer.attr in CLASSMETHODS:
        return isinstance(raw, classmethod) and inspect.isfunction(raw.__func__)
    return inspect.isfunction(raw)


def test_every_wrapped_layer_resolves():
    layers = load_layers()
    assert len(layers) > 30
    assert [f"{x.module}:{x.attr}" for x in layers if not resolves(x)] == []
