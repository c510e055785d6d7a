"""Source hygiene: everything ``src/seqtag`` defines is used by ``src/seqtag``.

A top-level function or class, a method that is not a dunder, or a
module-level name assigned outside the dunders, that no other line of the
package names or reads is code only the tests reach.
"""

import ast
from collections import Counter
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "seqtag"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree: ast.Module):
    """(qualified name, bare name) of each top-level definition, each
    method and each name a module-level assignment binds."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            yield node.name, node.name
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                if not name.startswith("__"):
                    yield name, name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFINITIONS) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name


def _references(tree: ast.Module):
    """Every name the module reads or imports, and every attribute it reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
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


def test_cli_main_lets_only_toolkit_and_os_errors_pick_the_exit_code():
    """A handler of ``ValueError``, ``Exception`` or everything would turn a
    program fault into an exit code instead of a traceback."""
    tree = ast.parse((SOURCE / "cli.py").read_text(encoding="utf-8"))
    (main,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "main"]
    caught = []
    for handler in ast.walk(main):
        if isinstance(handler, ast.ExceptHandler):
            types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            caught += [ast.unparse(t) if t is not None else "<bare>" for t in types]
    assert caught, "cli.main handles no exception"
    assert not set(caught) & {"ValueError", "Exception", "BaseException", "<bare>"}
