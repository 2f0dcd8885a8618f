"""Every name a module imports is used by that module.

Each source file is parsed with ast; a name bound by an import (other
than a __future__ import) must occur as a name in the module, or be
listed in its __all__ for re-export.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "modalguard"
MODULES = sorted(SRC.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of the import that binds it."""
    out: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)
            }
    return used


def test_every_module_is_scanned():
    assert len(MODULES) >= 16
    assert SRC / "prover.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in imported_names(tree).items()
        if name not in used
    )
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("from os import path, sep\nimport json\nprint(sep)\n")
    assert set(imported_names(tree)) - used_names(tree) == {"path", "json"}
