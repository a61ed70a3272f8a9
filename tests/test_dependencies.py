"""The library has zero runtime dependencies: it imports only the standard
library and itself."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "kmfan"


def absolute_imports(path: pathlib.Path):
    """The top-level package of every absolute import in a module."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_library_imports_only_the_standard_library():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 10
    foreign = {
        (path.name, name)
        for path in modules
        for name in absolute_imports(path)
        if name != "kmfan" and name not in sys.stdlib_module_names
    }
    assert foreign == set()


def test_the_check_sees_a_foreign_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nfrom numpy import array\nfrom . import cones\n")
    assert list(absolute_imports(module)) == ["os", "numpy"]
