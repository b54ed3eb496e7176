"""The library imports nothing outside the standard library, numpy and
click: every absolute import in src/zdcubes/*.py names one of them or the
package itself."""

import ast
import pathlib
import sys

ALLOWED = {"numpy", "click", "zdcubes"}
SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "zdcubes"


def _imported(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module


def test_library_imports_only_stdlib_numpy_and_click():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = [f"{path.name}:{line}: {name}"
               for path in files
               for line, name in _imported(ast.parse(path.read_text()))
               if name.split(".")[0] not in ALLOWED
               and name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
