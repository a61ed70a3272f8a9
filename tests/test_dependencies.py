"""The library has zero runtime dependencies: it imports only the standard
library and itself.  Inside it, the integer core's heavier tools stay
behind a few module boundaries."""

import ast
import pathlib
import sys

from kmfan import monoids
from kmfan.cones import Cone
from kmfan.monoids import AffineMonoid, dual_monoid, face_of_monoid

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


def test_library_imports_no_fractions():
    """The library computes in integers only: no module imports fractions,
    the drawing code included (its former Fraction body is the reference in
    tests/drawing_oracle.py)."""
    importers = {path.name for path in SRC.rglob("*.py") if "fractions" in absolute_imports(path)}
    assert importers == set()


def test_values_write_their_slots_through_bound_setters():
    """No module writes a slot through the generic object.__setattr__: each
    immutable value class writes through its slot descriptors, bound once
    at import (tests/test_values.py checks that writes from outside are
    refused)."""
    writers = {path.name for path in SRC.rglob("*.py") if "object.__setattr__" in path.read_text()}
    assert writers == set()


def attribute_writers(path: pathlib.Path):
    """The classes of a module that define __setattr__ or __delattr__, by a
    def or an assignment in the class body."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ClassDef):
            names = set()
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names.add(item.name)
                elif isinstance(item, ast.Assign):
                    names.update(t.id for t in item.targets if isinstance(t, ast.Name))
            if names & {"__setattr__", "__delattr__"}:
                yield node.name


def test_one_class_refuses_writes():
    """Every immutable value inherits the one pair of intlinalg._Value
    (tests/test_values.py checks that the value classes do)."""
    assert {(path.name, name) for path in SRC.rglob("*.py") for name in attribute_writers(path)} == {
        ("intlinalg.py", "_Value")}


def test_the_check_sees_a_writer(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("class A:\n    def __setattr__(self, *a):\n        pass\n\n"
                      "class B:\n    __delattr__ = object.__delattr__\n\nclass C:\n    x = 1\n")
    assert list(attribute_writers(module)) == ["A", "B"]


def test_no_module_takes_a_lock():
    """Every cache is an idempotent write of a function of its value: no
    module imports threading."""
    importers = {path.name for path in SRC.rglob("*.py") if "threading" in absolute_imports(path)}
    assert importers == set()


def unused_imports(path: pathlib.Path):
    """The names a module imports (__future__ aside) that it never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_imported_name_is_used():
    """Each library module but the package's __init__, which re-exports,
    uses every name it imports."""
    unused = {(path.name, name) for path in SRC.rglob("*.py") if path.name != "__init__.py"
              for name in unused_imports(path)}
    assert unused == set()


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\nimport os, re as regex\nfrom . import cones, fans\n"
                      "x: os.PathLike = cones\n")
    assert unused_imports(module) == {"regex", "fans"}


def test_the_check_sees_a_foreign_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nfrom numpy import array\nfrom . import cones\n")
    assert list(absolute_imports(module)) == ["os", "numpy"]


def named_modules(name):
    """The library modules whose source names the given identifier."""
    return {
        path.stem
        for path in SRC.rglob("*.py")
        if any(isinstance(node, ast.Name) and node.id == name or isinstance(node, ast.alias) and node.name == name
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path))))
    }


class TestModuleBoundaries:
    def test_only_the_integer_core_and_groups_name_smith(self):
        assert named_modules("smith_decomposition") == {"intlinalg", "abelian"}

    def test_monoids_solve_and_saturate_nothing(self):
        assert "monoids" not in named_modules("saturate") | named_modules("LinearSystem")
        assert not hasattr(monoids, "saturate") and not hasattr(monoids, "LinearSystem")

    def test_monoid_faces_run_no_double_description(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a face ran a double description")

        sigma = Cone.from_generators([(1, 0, 0), (0, 1, 0), (1, 1, 2), (0, 0, 1), (0, 0, -1)], 3)
        assert not sigma.is_sharp()
        monoid = dual_monoid(sigma, 3)
        monkeypatch.setattr(Cone, "intersect", refuse)
        monkeypatch.setattr(Cone, "from_halfspaces", staticmethod(refuse))
        faces = {tau: face_of_monoid(monoid, tau) for tau in sigma.faces()}
        monkeypatch.undo()
        for tau, face in faces.items():
            ortho = Cone.from_halfspaces([], tau.generators(), 3)
            assert face == AffineMonoid(monoid.cone.intersect(ortho))

    def test_hilbert_bases_build_no_dual_cone(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a Hilbert basis built a dual cone")

        monkeypatch.setattr(Cone, "dual", refuse)
        square = Cone.from_generators([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], 3)
        assert sorted(monoids._sharp_hilbert_basis(square)) == [(-1, 0, 1), (0, -1, 1), (0, 0, 1), (0, 1, 1), (1, 0, 1)]
        assert len(AffineMonoid(Cone.from_generators([(1, 3), (1, 0), (0, -1), (0, 1)], 2)).hilbert_basis()) == 3
