"""Static checks that no module of the package, of its tests or of its tools
imports a name it never uses, and that every definition of the package is
referenced somewhere."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "ndppmap"
TOOLS = TESTS.parent / "tools"
PERFBENCH = TESTS.parent / "perfbench"
MODULES = (
    sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    + sorted(TESTS.glob("*.py"))
    + sorted(TOOLS.glob("*.py"))
)


def unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def definitions(tree):
    """(name, node) of every module-level function, class and constant and of
    every method, dunder names aside: those are reached by the language."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            found += [(f.name, f) for f in node.body if isinstance(f, ast.FunctionDef)]
    return [(name, node) for name, node in found if not name.startswith("__")]


def references(tree):
    """(name, node) of every use of a name: a variable, an attribute, or a
    string that is exactly an identifier, as where a tool binds a name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node


def unreferenced_definitions():
    """`file:line name` of each package definition never used outside its
    own lines, searching src/, tests/, tools/ and perfbench/."""
    trees = {path: ast.parse(path.read_text()) for path in MODULES + sorted(PERFBENCH.glob("*.py"))}
    uses = {}
    for path, tree in trees.items():
        for name, node in references(tree):
            uses.setdefault(name, []).append((path, node.lineno))
    dead = []
    for path in (p for p in MODULES if p.parent == SRC):
        for name, node in definitions(trees[path]):
            own = {(path, line) for line in range(node.lineno, node.end_lineno + 1)}
            if set(uses.get(name, ())) <= own:
                dead.append(f"{path.name}:{node.lineno} {name}")
    return dead


def test_every_definition_is_referenced():
    assert unreferenced_definitions() == []
