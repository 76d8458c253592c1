import collections

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
