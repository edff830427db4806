"""The benchmark binds package functions by name: the tracer through its
``TRACED`` table, the workloads through ``import hpdstensor.x as y`` aliases
read as ``y.attr``.  A deleted or renamed name would break a benchmark run
with an AttributeError."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, name) for module, names in tracer.TRACED.items()
            for name in names]


def workload_names():
    """(module, attr) for every ``alias.attr`` the workloads read from an
    ``import hpdstensor.module as alias`` line."""
    tree = ast.parse(WORKLOADS.read_text())
    aliases = {alias.asname: alias.name.split(".", 1)[1]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names
               if alias.name.startswith("hpdstensor.") and alias.asname}
    return sorted({(aliases[node.value.id], node.attr)
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name)
                   and node.value.id in aliases})


def test_workloads_read_package_aliases():
    modules = {module for module, _ in workload_names()}
    assert {"tensor_train", "sysid", "hier_tucker", "benchmarks"} <= modules


@pytest.mark.parametrize("module, name", traced_names())
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"hpdstensor.{module}"),
                            name, None))


@pytest.mark.parametrize("module, name", workload_names())
def test_workload_name_exists(module, name):
    assert hasattr(importlib.import_module(f"hpdstensor.{module}"), name)
