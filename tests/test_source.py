"""Source hygiene: everything ``src/seqtag`` defines is used by ``src/seqtag``.

A top-level function or class, or a method that is not a dunder, that no
other line of the package names is code only the tests reach.
"""

import ast
from collections import Counter
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "seqtag"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree: ast.Module):
    """(qualified name, bare name) of each top-level definition and each method."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFINITIONS) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name


def _references(tree: ast.Module):
    """Every name the module reads or imports, and every attribute it reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_definition_is_referenced_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCE.glob("*.py")}
    referenced = Counter(name for tree in trees.values() for name in _references(tree))
    unused = [
        f"{module}:{qualified}"
        for module, tree in sorted(trees.items())
        for qualified, name in _definitions(tree)
        if not referenced[name]
    ]
    assert unused == []
