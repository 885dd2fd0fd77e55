"""Every name that ``adictower.fpmod`` and ``adictower.exactalg`` re-export
is used by the program itself, not only by the tests.

A name counts as used when some module under ``src/adictower`` reads it
outside its own definition and outside the package's ``__init__.py``; an
import alone is not a use.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "adictower"
PACKAGES = ("fpmod", "exactalg")


def reexports(package):
    tree = ast.parse((SRC / package / "__init__.py").read_text())
    return [
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


class References(ast.NodeVisitor):
    """Names and attributes read in a module, except the name of each
    enclosing function or class inside its own body."""

    def __init__(self):
        self.names = set()
        self.enclosing = []

    def visit_definition(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = visit_definition

    def note(self, name):
        if name not in self.enclosing:
            self.names.add(name)

    def visit_Name(self, node):
        self.note(node.id)

    def visit_Attribute(self, node):
        self.note(node.attr)
        self.generic_visit(node)


def program_references():
    references = References()
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py" and path.parent.name in PACKAGES:
            continue
        references.visit(ast.parse(path.read_text()))
    return references.names


@pytest.mark.parametrize("package", PACKAGES)
def test_every_reexport_is_used_by_the_program(package):
    used = program_references()
    names = reexports(package)
    assert names
    assert [name for name in names if name not in used] == []
