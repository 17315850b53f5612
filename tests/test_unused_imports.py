"""No ``src/qglab`` module imports a name it neither uses nor exports.

Each module is parsed with ``ast``: every name an import statement binds must
be read somewhere in the module, as a bare name or as the base of an
attribute, or be listed in the module's ``__all__``.  A name left behind by a
removed code path fails here.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qglab"
MODULES = sorted(p.name for p in SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by imports in ``source`` that are neither read nor
    listed in ``__all__``, in order of first import."""
    tree = ast.parse(source)
    imported = []
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in dict.fromkeys(imported) if name not in read | exported]


def test_every_module_found():
    assert "qgcore.py" in MODULES and len(MODULES) >= 10


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_unused_import_found():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\nimport os.path\n"
        "from .a import used, spare, exported as alias\n"
        "__all__ = ['alias']\n"
        "x = used(np.eye(2))\n"
    )
    assert unused_imports(source) == ["os", "spare"]
