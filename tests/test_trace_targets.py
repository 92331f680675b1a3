"""The benchmark tracer's entry points exist and are what the package calls.

``perfbench/run.py --trace 1`` wraps every name listed in
``perfbench/spans.py`` with a hard lookup, so a rename or a removed call
in ``src/uqkit`` would break the traced benchmark or silently drop a
layer from its timings.
"""

import ast
import importlib
import inspect
import sys
import types
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    # executed from source, so no bytecode cache lands next to the benchmark
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS_PATH)
    sys.modules[module.__name__] = module  # dataclasses look up their module
    exec(compile(SPANS_PATH.read_text(), str(SPANS_PATH), "exec"), module.__dict__)
    return module


SPANS = load_spans()


def called_names(module) -> set[str]:
    """Bare names that the module's own code calls."""
    tree = ast.parse(inspect.getsource(module))
    return {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


@pytest.mark.parametrize(
    "module_name, attr", [(mod, attr) for mod, attr, _name, _counter in SPANS.FUNCTIONS]
)
def test_traced_function_resolves_and_is_called(module_name, attr):
    module = importlib.import_module(f"uqkit.{module_name}")
    assert callable(getattr(module, attr))
    assert attr in called_names(module), f"uqkit.{module_name} no longer calls {attr}"


@pytest.mark.parametrize(
    "module_name, cls_name, attr", [(mod, cls, attr) for mod, cls, attr, _name in SPANS.METHODS]
)
def test_traced_method_resolves(module_name, cls_name, attr):
    cls = getattr(importlib.import_module(f"uqkit.{module_name}"), cls_name)
    assert attr in cls.__dict__
