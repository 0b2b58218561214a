"""Guards on the public surface: every export resolves, every demo import exists.

The demos are parsed, not run, so a deleted or renamed name that a demo
still imports fails here in milliseconds.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import divsamp

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
MODULES = ["divsamp"] + [
    f"divsamp.{info.name}"
    for info in pkgutil.iter_modules(divsamp.__path__)
    if info.name != "__main__"
]


def demo_imports(path):
    """``(module, name)`` for every ``from divsamp... import name`` in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "divsamp"
        for alias in node.names
    ]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(demo):
    imports = demo_imports(demo)
    assert imports, f"{demo.name} imports nothing from divsamp"
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
