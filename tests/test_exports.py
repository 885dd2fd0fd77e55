"""Every name that ``adictower``, ``adictower.fpmod``,
``adictower.exactalg`` and ``adictower.verify`` re-export is used by the
program itself, not only by the tests.

A name counts as used when some module under ``src/adictower`` reads it
outside its own definition and outside the re-exporting ``__init__.py``
files; an import or an assignment alone is not a use.

The benchmark's tracer (``bench/tracer.py``) wraps program functions and
methods by name, so every name it wraps must still exist: installing it
in a fresh interpreter must succeed.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "adictower"
PACKAGES = {
    "adictower": SRC / "__init__.py",
    "fpmod": SRC / "fpmod" / "__init__.py",
    "exactalg": SRC / "exactalg" / "__init__.py",
    "verify": SRC / "verify" / "__init__.py",
}


def reexports(package):
    tree = ast.parse(PACKAGES[package].read_text())
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
        if isinstance(node.ctx, ast.Load):
            self.note(node.id)

    def visit_Attribute(self, node):
        self.note(node.attr)
        self.generic_visit(node)


def program_references():
    references = References()
    for path in sorted(SRC.rglob("*.py")):
        if path in PACKAGES.values():
            continue
        references.visit(ast.parse(path.read_text()))
    return references.names


@pytest.mark.parametrize("package", PACKAGES)
def test_every_reexport_is_used_by_the_program(package):
    used = program_references()
    names = reexports(package)
    assert names
    assert [name for name in names if name not in used] == []


def test_the_benchmark_tracer_finds_every_name_it_wraps():
    path = os.pathsep.join([str(SRC.parent), str(ROOT / "bench")])
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-c", "from tracer import Tracer; Tracer().install()"],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert run.returncode == 0, run.stderr
