"""Dead-code guards over the package source, using the standard library's ast
only: every import is used (in the tests and the scripts too), every
module-level _private function, class or constant is referenced somewhere in
the package (a test's or script's somewhere in the package, the tests or the
scripts), no package module imports another's _private name, and every
public function, class or method is referenced from the package, the
scripts or the benchmark, and every local a function assigns is read (in the
tests and the scripts too)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mwetag"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}
# the code that may use the package's public names: the benchmark's own
# self-tests do not count as a use
CALLERS = [*MODULES.values()] + [
    ast.parse(path.read_text(encoding="utf-8"))
    for folder in ("scripts", "perfbench")
    for path in sorted((ROOT / folder).glob("*.py"))
    if path.name != "test_perfbench.py"
]
# the other files whose imports must all be used, keyed by their path
IMPORTERS = {
    f"{folder}/{path.name}": ast.parse(path.read_text(encoding="utf-8"))
    for folder in ("tests", "scripts")
    for path in sorted((ROOT / folder).glob("*.py"))
}
# kept without a caller: the enumeration reference the CRF tests compare
# against
UNCALLED_PUBLIC = {"chaincrf.brute_force"}


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


@pytest.mark.parametrize("module", sorted(MODULES) + sorted(IMPORTERS))
def test_every_import_is_used(module):
    tree = {**MODULES, **IMPORTERS}[module]
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = _used_names(tree)
    assert [name for name in imported if name not in used] == []


@pytest.mark.parametrize("module", sorted(MODULES) + sorted(IMPORTERS))
def test_every_private_module_name_is_referenced(module):
    # the package's own names must be used by the package itself
    scope = MODULES if module in MODULES else {**MODULES, **IMPORTERS}
    unreferenced = [
        name for name in _private_definitions(scope[module])
        if not any(_referenced(name, tree) for tree in scope.values())
    ]
    assert unreferenced == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_module_imports_another_modules_private_name(module):
    imported = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(MODULES[module]) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name.startswith("_")
    ]
    assert imported == []


def _public_definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, name) of each public module-level function or class
    and each public method."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            found += [
                (f"{node.name}.{item.name}", item.name) for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
    return [(qualified, name) for qualified, name in found if not name.startswith("_")]


def _references(tree: ast.Module) -> set[str]:
    """Names read, attribute names, imported names and string constants (the
    benchmark names the functions it wraps as strings)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


REFERENCES = set().union(*map(_references, CALLERS))


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_public_name_has_a_caller(module):
    unreferenced = [
        qualified for qualified, name in _public_definitions(MODULES[module])
        if name not in REFERENCES and f"{module}.{qualified}" not in UNCALLED_PUBLIC
    ]
    assert unreferenced == []


def _own_nodes(function):
    """The nodes of a function's body, outside the functions, lambdas and
    classes nested in it."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                 ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _unread_locals(tree: ast.Module) -> list[str]:
    """function.name of each name not starting with _ that a function
    assigns but that neither it nor a function nested in it reads. An
    augmented assignment and a nonlocal or global declaration count as
    reads."""
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        assigned = {node.id for node in _own_nodes(function)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        read = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)
            elif isinstance(node, (ast.Nonlocal, ast.Global)):
                read.update(node.names)
        found += [f"{function.name}.{name}" for name in sorted(assigned - read)
                  if not name.startswith("_")]
    return found


@pytest.mark.parametrize("module", sorted(MODULES) + sorted(IMPORTERS))
def test_every_local_is_read(module):
    assert _unread_locals({**MODULES, **IMPORTERS}[module]) == []
