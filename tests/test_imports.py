"""Every name a library module imports is used in that module."""

import ast
import glob
import os

import twinwidth

PACKAGE = os.path.dirname(os.path.abspath(twinwidth.__file__))
MODULES = sorted(p for p in glob.glob(os.path.join(PACKAGE, "*.py"))
                 if os.path.basename(p) != "__init__.py")


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_unused_names():
    source = "import itertools\nfrom typing import List, Optional\nx: List[int] = []\n"
    assert _unused_imports(source) == [(1, "itertools"), (2, "Optional")]


def test_library_has_no_unused_imports():
    assert len(MODULES) > 5
    found = []
    for path in MODULES:
        with open(path, encoding="utf-8") as fh:
            for line, name in _unused_imports(fh.read()):
                found.append("%s:%d %s" % (os.path.basename(path), line, name))
    assert found == []
