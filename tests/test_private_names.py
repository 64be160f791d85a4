"""Every private module-level name in the package is used in its own module.

A private helper that nothing in its module reads any more is dead code
left behind by a refactor; this test names it.
"""

import ast
from pathlib import Path

import ncchecker

PACKAGE = Path(ncchecker.__file__).parent


def _bound_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    targets = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    return [
        name.id
        for target in targets
        for name in ast.walk(target)
        if isinstance(name, ast.Name)
    ]


def _unread_private_names(tree: ast.Module) -> list[str]:
    private = {
        name
        for node in tree.body
        for name in _bound_names(node)
        if name.startswith("_") and not name.startswith("__")
    }
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(private - read)


def test_every_private_module_level_name_is_read_in_its_module():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    unread = [
        f"{path.name}: {name}"
        for path in modules
        for name in _unread_private_names(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert unread == []


def test_an_unread_private_helper_is_named():
    tree = ast.parse("_KEPT = 1\n_LEFT = 2\n\ndef _helper():\n    return _KEPT\n")
    assert _unread_private_names(tree) == ["_LEFT", "_helper"]
