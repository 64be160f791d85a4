"""The runtime is pure standard library: the package imports nothing else."""

import ast
import sys
from pathlib import Path

import ncchecker

PACKAGE = Path(ncchecker.__file__).parent


def _absolute_imports(tree: ast.AST) -> list[str]:
    """Top-level package of every absolute import, at any depth in the module."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.split(".")[0] for name in names]


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    allowed = sys.stdlib_module_names | {"ncchecker"}
    outside = [
        f"{path.name}: {name}"
        for path in modules
        for name in _absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name not in allowed
    ]
    assert outside == []
