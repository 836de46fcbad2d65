"""Every module of the package and of the test suite uses each name it
imports, every module-level private function or constant of the package is
used somewhere in the package or the tests, every name the package exports
is used by the README, the CLI, the benchmark or the tests, and every public
function, method and property of the package is read outside the tests.

A stdlib ``ast`` scan, so the check runs wherever the tests run. Package
``__init__.py`` files are skipped by the import check (their imports are
re-exports), and so is ``from __future__``.
"""

import ast
import re
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

import retrainer

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    p
    for p in [*(ROOT / "src" / "retrainer").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def imported_names(tree):
    """(bound name, line) for every import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"line {line}: {name}" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def module_privates(tree):
    """(name, line) of each module-level ``_name`` function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def referenced_names(tree):
    """Names read, attributes accessed and names imported anywhere in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


PACKAGE = sorted((ROOT / "src" / "retrainer").glob("*.py"))


@cache
def names_used_anywhere() -> frozenset:
    used = set()
    for path in [*PACKAGE, *(ROOT / "tests").glob("*.py")]:
        used.update(referenced_names(ast.parse(path.read_text(), filename=str(path))))
    return frozenset(used)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unreferenced_private_helpers(path):
    used = names_used_anywhere()
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = [f"line {line}: {name}" for name, line in module_privates(tree) if name not in used]
    assert not unused, f"{path.name} defines private names nothing references: {', '.join(unused)}"


# The readers of the public API; the CLI is the only package module among them,
# since the rest of the package imports from its sibling modules.
API_READERS = [
    ROOT / "README.md",
    ROOT / "src" / "retrainer" / "cli.py",
    *(ROOT / "perfbench").glob("*.py"),
    *(ROOT / "tests").glob("*.py"),
]


@pytest.mark.parametrize("name", retrainer.__all__)
def test_exported_name_has_a_reader(name):
    pattern = re.compile(rf"\b{re.escape(name)}\b")
    assert any(pattern.search(path.read_text()) for path in API_READERS), (
        f"retrainer.__all__ exports {name!r}, but no README example, CLI, benchmark or test names it"
    )


# decorators that leave a function to be called by name; any other decorator
# (a click command, say) registers the function, which counts as its reader
PLAIN_DECORATORS = {"classmethod", "staticmethod", "property"}


def public_definitions(tree):
    """Each module-level public function and each public method or property
    of a module-level class, unless a registering decorator reads it."""
    for node in tree.body:
        defs = [node] if isinstance(node, ast.FunctionDef) else []
        if isinstance(node, ast.ClassDef):
            defs = [d for d in node.body if isinstance(d, ast.FunctionDef)]
        for d in defs:
            plain = all(isinstance(dec, ast.Name) and dec.id in PLAIN_DECORATORS for dec in d.decorator_list)
            if plain and not d.name.startswith("_"):
                yield d


def test_public_definitions_have_a_reader_outside_the_tests():
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in [*PACKAGE, *(ROOT / "perfbench").glob("*.py")]}
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
    trees.update({f"README.md block {i}": ast.parse(b) for i, b in enumerate(blocks)})
    references = Counter(name for tree in trees.values() for name in referenced_names(tree))
    unread = []
    for path in PACKAGE:
        for d in public_definitions(trees[path]):
            own = sum(name == d.name for name in referenced_names(d))  # a recursive call is no reader
            if references[d.name] <= own:
                unread.append(f"{path.name} line {d.lineno}: {d.name}")
    assert not unread, f"public definitions that only the tests read: {', '.join(unread)}"
