"""Source hygiene: every name a module imports is used in it.

A deletion leaves imports behind that nothing reads; this finds them.
``from __future__`` imports are not names, and a package ``__init__``
uses the names it lists in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "edgelab").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """Each name the module reads, and each name in its ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_the_check_sees_an_unused_import_and_its_uses():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nimport json as j\nfrom typing import Any, List\nfrom x import Listed\n"
        "__all__ = ['Listed']\n"
        "def f() -> Any:\n    return os.getcwd()\n"
    )
    assert sorted(set(_imported(tree)) - _used(tree)) == ["List", "j"]
