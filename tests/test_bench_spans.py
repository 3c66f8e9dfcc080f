"""The benchmark's per-layer metrics name functions that exist.

``perfbench/layers.py`` sums the spans of named ``gramsem`` functions into
per-layer metrics, and ``perfbench/tracing.py`` records a span only for a
public function defined in its layer's module.  A name whose function was
deleted or renamed would read 0 from then on instead of failing, so every
name summed in ``DURATIONS``, ``CALLS`` and ``FOLDS`` must be such a
function.  ``evaluation.<model>_s`` is summed per name in ``MODELS``, so
those must be the program's models.  ``layers.py`` is parsed, not imported.
"""

import ast
import importlib
import inspect
import os

import pytest

from gramsem.evaluation import MODELS

LAYERS_PY = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "layers.py"
)
TABLES = ("CALLS", "DURATIONS", "FOLDS", "MODELS")


def layer_tables() -> dict:
    with open(LAYERS_PY, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in TABLES
    }
    assert sorted(tables) == list(TABLES)
    return tables


def summed_span_names() -> list[str]:
    tables = layer_tables()
    names = set(tables["FOLDS"]) | set(tables["CALLS"].values())
    for spans in tables["DURATIONS"].values():
        names.update(spans)
    return sorted(names)


@pytest.mark.parametrize("name", summed_span_names())
def test_summed_span_is_a_public_layer_function(name):
    layer, function = name.split(".")
    module = importlib.import_module(f"gramsem.{layer}")
    value = getattr(module, function, None)
    assert not function.startswith("_")
    assert inspect.isfunction(value) and value.__module__ == module.__name__


def test_bench_models_are_the_program_models():
    assert layer_tables()["MODELS"] == MODELS
