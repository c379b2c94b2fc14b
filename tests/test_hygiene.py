"""Dead-code guards over the package source, using the standard library's ast
only: every import is used, and every module-level _private function, class
or constant is referenced somewhere in the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mwetag"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}


def _used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, including inside quoted
    annotations, and attribute names (module._name)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return used


def _private_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _referenced(name: str, tree: ast.Module) -> bool:
    """Read somewhere other than its own definition, or imported by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == name:
            if isinstance(node.ctx, ast.Load):
                return True
        elif isinstance(node, ast.Attribute) and node.attr == name:
            return True
        elif isinstance(node, ast.ImportFrom):
            if any(alias.name == name for alias in node.names):
                return True
    return False


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_import_is_used(module):
    tree = MODULES[module]
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = _used_names(tree)
    assert [name for name in imported if name not in used] == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_private_module_name_is_referenced(module):
    unreferenced = [
        name for name in _private_definitions(MODULES[module])
        if not any(_referenced(name, tree) for tree in MODULES.values())
    ]
    assert unreferenced == []
