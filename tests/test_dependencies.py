"""The dependency rule: pdflow runs on the standard library and numpy alone.

Every module under src/ imports only the standard library, numpy and pdflow
itself, and no file under src/, tests/ or bench/ imports scipy (it may be
installed, but it is not a dependency). The files are parsed, not imported.
"""

import ast
import sys

import pytest

from conftest import REPO_ROOT

RUNTIME_ALLOWED = {"numpy", "pdflow"}


def _imports(source, filename="<source>"):
    """Top-level package names of the absolute imports in a source, with their lines."""
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Import):
            yield from ((a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0], node.lineno


def _sources(*dirs):
    return sorted(p for d in dirs for p in (REPO_ROOT / d).rglob("*.py"))


def test_runtime_imports_are_the_standard_library_numpy_and_pdflow():
    files = _sources("src")
    assert files
    bad = [f"{p.relative_to(REPO_ROOT)}:{line}: {name}" for p in files
           for name, line in _imports(p.read_text(), str(p))
           if name not in sys.stdlib_module_names and name not in RUNTIME_ALLOWED]
    assert not bad, bad


@pytest.mark.parametrize("top", ["src", "tests", "bench"])
def test_nothing_imports_scipy(top):
    files = _sources(top)
    assert files
    bad = [f"{p.relative_to(REPO_ROOT)}:{line}" for p in files
           for name, line in _imports(p.read_text(), str(p)) if name == "scipy"]
    assert not bad, bad


def test_the_import_reader_sees_every_form():
    # plain, dotted, aliased, nested and from-imports are caught; relative
    # imports are pdflow's own
    src = ("import scipy\nimport os, scipy.linalg as sl\nfrom scipy import optimize\n"
           "from . import problem\ndef f():\n    from scipy.sparse import csr_matrix\n")
    assert sorted(_imports(src)) == [("os", 2), ("scipy", 1), ("scipy", 2), ("scipy", 3),
                                     ("scipy", 6)]
