"""Every exported name resolves: each module's ``__all__`` and the import
block README's ``## Library`` section shows, so a deleted function cannot
linger in either."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import hpdstensor

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(info.name for info in pkgutil.iter_modules(hpdstensor.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"hpdstensor.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing


def test_readme_library_imports_run():
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(block, {})
