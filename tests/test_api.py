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
