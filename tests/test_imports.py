"""No cmslab module imports a name it never uses (no linter is required)."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cmslab"


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


def _used(tree: ast.Module) -> set[str]:
    """Every name the module reads, names inside string annotations included."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
    strings = [ast.parse(n.value, mode="eval")
               for ann in annotations if ann is not None for n in ast.walk(ann)
               if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    return {n.id for t in (tree, *strings) for n in ast.walk(t)
            if isinstance(n, ast.Name)}


# the package __init__ imports only to re-export
@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse((SRC / path).read_text())
    assert sorted(_imported(tree) - _used(tree)) == []
