"""The benchmark's tracer binds package functions by name; a deleted or
renamed function would break a traced run with an AttributeError."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, name) for module, names in tracer.TRACED.items()
            for name in names]


@pytest.mark.parametrize("module, name", traced_names())
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"hpdstensor.{module}"),
                            name, None))
