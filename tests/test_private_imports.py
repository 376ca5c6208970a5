"""No module of arxmatch imports another module's private name, or a
name it does not use.

A private name is free to change with its module; a module that needs
another's rule calls its public function instead. A name imported and
never used is surface no one needs. The checks parse each module, so they
see every name of a parenthesized import, also one on a continuation line,
and imports inside functions.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "arxmatch"


def private_imports(path: Path) -> list[str]:
    """``file:line: from .module import _name`` per private name that
    ``path`` imports from a sibling module; ``from . import _kernels``
    imports a module, not a name of one, and is allowed."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [f"{path.name}:{node.lineno}: from {'.' * node.level}{node.module} "
            f"import {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level and node.module
            for alias in node.names if alias.name.startswith("_")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_private_name(path):
    assert private_imports(path) == []


def test_every_imported_name_is_seen(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from . import _kernels\n"
                    "from ._kernels import BACKEND\n"
                    "from .forest import (\n"
                    "    ForestModel,\n"
                    "    _build_table,\n"
                    ")\n"
                    "def f():\n"
                    "    from ..corpus import _put_once as put\n")
    assert private_imports(path) == [
        "mod.py:3: from .forest import _build_table",
        "mod.py:8: from ..corpus import _put_once",
    ]


def unused_imports(path: Path) -> list[str]:
    """``file:line: name`` per name ``path`` imports and never reads. A
    string in ``__all__`` is not a read; an import on a line marked
    ``# noqa: F401`` is exempt."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text, str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{alias.lineno}: {name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
            for name in [alias.asname or alias.name.split(".")[0]]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_does_not_use(path):
    assert unused_imports(path) == []


def test_unused_names_are_found(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from __future__ import annotations\n"
                    "import os.path\n"
                    "import json as js\n"
                    "from .a import (\n"
                    "    used,\n"
                    "    unused,\n"
                    ")\n"
                    "from .b import kept  # noqa: F401\n"
                    "__all__ = ['unused', 'js']\n"
                    "def f() -> used:\n"
                    "    from .c import inner\n"
                    "    return os.path.sep\n")
    assert unused_imports(path) == [
        "mod.py:3: js",
        "mod.py:6: unused",
        "mod.py:11: inner",
    ]
