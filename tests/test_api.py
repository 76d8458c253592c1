import ast
import collections
import sys
from pathlib import Path

import pytest

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


def test_names_the_benchmark_tracer_wraps_exist():
    # perfbench/spans.py wraps each of these, reading it with getattr before
    # any traced operation runs
    from injhom import chromatic, cli, solver, verify

    wrapped = {
        cli: ["main", "parse_edge_list", "parse_undirected_edge_list", "format_edge_list",
              "decide_poly", "solve", "enumerate_homs", "chi", "run_suite",
              "reduce_3col_to_ios_c3r", "reduce_3col_to_iot_c3r", "reduce_3edge_to_t3r",
              "reduce_3edge_to_um", "reduce_ios_c3r_to_umr", "reduce_iot_c3r_to_umr"],
        verify: ["decide_poly", "solve", "enumerate_homs"],
        chromatic: ["solve", "enumerate_tournaments", "TOURNAMENT_CAP"],
        solver: ["check_hom", "enumerate_homs"],
    }
    missing = [(module.__name__, name) for module, names in wrapped.items()
               for name in names if not hasattr(module, name)]
    assert missing == []



def _defined_names(tree) -> list:
    """The module-level functions, classes and constants of a module, and
    the methods of its classes."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body if isinstance(item, ast.FunctionDef)]
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def _dead_private_names(sources: dict) -> list:
    """(module, name) of each private name that _defined_names finds in
    the modules of sources (module name -> source text) and that nothing
    in them reads: no name, attribute or import of the same spelling."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return sorted((module, name) for module, tree in trees.items() for name in _defined_names(tree)
                  if name.startswith("_") and not name.endswith("__") and name not in read)


def test_no_dead_private_names():
    # a private name that only its own definition mentions is a dead entry
    # point; public names are the API and may go unused inside the package
    sample = {
        "a": "_USED = 1\n_DEAD = 2\ndef _dead(): pass\nclass _Dead:\n"
             "    def _gone(self): pass\n    def __len__(self): return _USED\n",
        "b": "from a import _kept\ndef _kept(): pass\nclass K:\n    def _m(self): return self._m\n",
    }
    assert _dead_private_names(sample) == [("a", "_DEAD"), ("a", "_Dead"), ("a", "_dead"), ("a", "_gone")]
    paths = sorted(Path(injhom.__file__).parent.rglob("*.py"))
    sources = {path.stem: path.read_text(encoding="utf-8") for path in paths}
    assert _dead_private_names(sources) == []


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10; syntax newer than
    # that, such as except*, fails to parse at 3.10
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    root = Path(__file__).resolve().parent.parent
    paths = sorted(Path(injhom.__file__).parent.rglob("*.py")) + sorted((root / "demos").glob("*.py"))
    assert len(paths) >= 16
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
