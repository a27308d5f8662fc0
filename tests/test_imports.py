"""No cmslab module imports a name it never uses, no module defines a
private name that no module reads, and no function calls itself by name
(no linter is required)."""

from __future__ import annotations

import ast
import functools
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
    """Every name the module reads, names inside string annotations included;
    a name only assigned to is not read."""
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
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _private(tree: ast.Module) -> set[str]:
    """The module-level names starting with an underscore (dunders aside)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


@functools.cache
def _read_in_package() -> frozenset[str]:
    """Every name any cmslab module reads, as a name or as an attribute."""
    read = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        read |= _used(tree) | {n.attr for n in ast.walk(tree)
                               if isinstance(n, ast.Attribute)}
    return frozenset(read)


# the package __init__ imports only to re-export
@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse((SRC / path).read_text())
    assert sorted(_imported(tree) - _used(tree)) == []


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_every_private_name_is_read(path):
    tree = ast.parse((SRC / path).read_text())
    assert sorted(_private(tree) - _read_in_package()) == []


def _calls_itself(function: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Whether the function's body, nested functions included, calls it by
    its name, plainly or as an attribute of self or cls."""
    for node in ast.walk(function):
        if isinstance(node, ast.Call):
            called = node.func
            if isinstance(called, ast.Name) and called.id == function.name:
                return True
            if (isinstance(called, ast.Attribute)
                    and called.attr == function.name
                    and isinstance(called.value, ast.Name)
                    and called.value.id in ("self", "cls")):
                return True
    return False


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_no_function_recurses(path):
    """A recursion as deep as its input, such as a search that descends
    one call per chosen piece, ends in RecursionError past about 1,000
    levels; walks and searches keep an explicit stack instead."""
    tree = ast.parse((SRC / path).read_text())
    assert sorted(node.name for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and _calls_itself(node)) == []


def _file_reads(tree: ast.Module) -> list[str]:
    """The function around each call of json.load, json.loads, read_text or
    read_bytes, or "<module>" at module level."""
    found, todo = [], [(tree, "<module>")]
    while todo:
        node, owner = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        called = node.func if isinstance(node, ast.Call) else None
        if isinstance(called, ast.Attribute) and (
                called.attr in ("read_text", "read_bytes")
                or called.attr in ("load", "loads")
                and isinstance(called.value, ast.Name)
                and called.value.id == "json"):
            found.append(owner)
        todo += [(child, owner) for child in ast.iter_child_nodes(node)]
    return found


def test_only_the_reader_reads_a_file():
    """Every file from outside is read by cli._read_json, so each one that
    cannot be read or decoded ends in its one error: ConfigError (exit 2)
    or CertificateInvalid (exit 1), never a traceback."""
    reads = {(path.name, owner) for path in sorted(SRC.glob("*.py"))
             for owner in _file_reads(ast.parse(path.read_text()))}
    assert reads == {("cli.py", "_read_json")}
