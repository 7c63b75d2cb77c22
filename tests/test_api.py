"""The public import surface: ``lossdiag.__all__`` and what the demos import.

The demos are parsed, not run (several take seconds and one trains
students), so a deleted or renamed export fails here rather than only when
someone next runs the demo.
"""

import ast
import importlib
from pathlib import Path

import lossdiag

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _resolves(module, name):
    """Whether ``from module import name`` succeeds: an attribute, or else
    a submodule of that name."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def _demo_imports():
    """(demo file, module, name) for each ``from lossdiag... import name``."""
    for path in sorted(DEMOS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ImportFrom)
                and node.level == 0
                and node.module.split(".")[0] == "lossdiag"
            ):
                for alias in node.names:
                    if alias.name != "*":
                        yield path.name, node.module, alias.name


def test_every_exported_name_resolves():
    assert [n for n in lossdiag.__all__ if not hasattr(lossdiag, n)] == []


def test_every_demo_import_resolves():
    imports = list(_demo_imports())
    assert {demo for demo, _, _ in imports} == {p.name for p in DEMOS.glob("*.py")}
    assert [i for i in imports if not _resolves(i[1], i[2])] == []
