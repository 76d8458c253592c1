import ast
import collections
import sys
from pathlib import Path

import injhom


def test_all_names_resolve():
    for name in injhom.__all__:
        assert hasattr(injhom, name), name


def test_all_names_listed_once():
    twice = [name for name, k in collections.Counter(injhom.__all__).items() if k > 1]
    assert twice == []


def test_star_import():
    namespace = {}
    exec("from injhom import *", namespace)
    assert set(injhom.__all__) <= set(namespace)


def _foreign_imports(source: str) -> list:
    """(line, module) of each absolute import whose top-level name is
    neither injhom nor a standard-library module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.partition(".")[0]
            if top != "injhom" and top not in sys.stdlib_module_names:
                found.append((node.lineno, name))
    return found


def test_standard_library_only():
    # injhom is a standard-library-only package
    assert _foreign_imports("import numpy\nfrom networkx.algorithms import x\nfrom . import y\n"
                            "import os.path\nfrom injhom.graphs import Mode\n") == [
        (1, "numpy"), (2, "networkx.algorithms")]
    paths = sorted(Path(injhom.__file__).parent.rglob("*.py"))
    assert len(paths) >= 10
    foreign = {path.name: _foreign_imports(path.read_text(encoding="utf-8")) for path in paths}
    assert {name: found for name, found in foreign.items() if found} == {}
