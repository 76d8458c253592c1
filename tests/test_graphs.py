import random

import pytest

from injhom.graphs import (
    Mode,
    OrientedGraph,
    all_oriented_graphs,
    converse,
    directed_cycle,
    directed_path,
    disjoint_union,
    edgeless,
    hat,
    is_tournament,
    max_degrees,
    random_oriented_graph,
    transitive_tournament,
)
from injhom.solver import _neighbourhoods


def test_arc_validation():
    with pytest.raises(ValueError):
        OrientedGraph(2, [(0, 0)])
    with pytest.raises(ValueError):
        OrientedGraph(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        OrientedGraph(2, [(0, 2)])
    with pytest.raises(ValueError):
        OrientedGraph(2, [(-1, 0)])
    with pytest.raises(ValueError, match="nonnegative"):
        OrientedGraph(-1)
    with pytest.raises(ValueError, match="must be ints"):
        OrientedGraph(2, [(0, 1.0)])
    for n in (2.5, "3", None):
        with pytest.raises(ValueError, match="nonnegative int"):
            OrientedGraph(n)


def test_duplicate_arcs_collapse():
    g = OrientedGraph(2, [(0, 1), (0, 1)])
    assert g.num_arcs == 1


def test_neighbourhoods_and_degrees():
    g = OrientedGraph(4, [(0, 1), (0, 2), (3, 0)])
    assert g.out_nbrs[0] == (1, 2)
    assert g.in_nbrs[0] == (3,)
    assert g.in_degree(1) == 1 and g.out_degree(1) == 0
    assert max_degrees(g) == (1, 2)
    assert max_degrees(OrientedGraph(0)) == (0, 0)
    assert g.underlying_nbrs[0] == (1, 2, 3)


def test_directed_neighbours_from_one_sort():
    # both lists come from one build, sorted and equal to the lists read
    # arc by arc
    rng = random.Random(12)
    for _ in range(40):
        g = random_oriented_graph(rng.randint(0, 9), rng, 0.4)
        assert g.out_nbrs is g._directed_nbrs[0] and g.in_nbrs is g._directed_nbrs[1]
        for v in range(g.n):
            assert g.out_nbrs[v] == tuple(sorted(w for u, w in g.arcs if u == v))
            assert g.in_nbrs[v] == tuple(sorted(u for u, w in g.arcs if w == v))


def test_mode_parse():
    assert Mode.parse("ios") is Mode.IOS
    assert Mode.parse("IOT") is Mode.IOT
    assert Mode.parse(Mode.PLAIN) is Mode.PLAIN
    with pytest.raises(ValueError):
        Mode.parse("both")


def test_converse_involution():
    g = OrientedGraph(3, [(0, 1), (1, 2)])
    assert converse(converse(g)) == g
    assert converse(g).has_arc(1, 0)


def test_converse_keeps_reflexive_flag():
    g = OrientedGraph(2, [(0, 1)], reflexive=True)
    assert converse(g).reflexive


def test_disjoint_union():
    g = disjoint_union(directed_path(2), directed_cycle(3))
    assert g.n == 5
    assert g.has_arc(0, 1) and g.has_arc(2, 3) and g.has_arc(4, 2)
    with pytest.raises(ValueError):
        disjoint_union(directed_path(2), OrientedGraph(1, (), reflexive=True))


def test_hat_shape():
    h = hat()
    assert h.n == 3 and h.has_arc(0, 1) and h.has_arc(2, 1)
    assert [h.in_degree(v) for v in range(3)] == [0, 2, 0]
    assert [h.out_degree(v) for v in range(3)] == [1, 0, 1]


def test_find_hats():
    # the ios-protected neighbourhoods of an irreflexive graph are its hats
    assert list(_neighbourhoods(hat(), Mode.IOS)) == [(0, 2)]
    t3 = transitive_tournament(3)
    # t3: both 0,1 point at 2 (in-pair) and 0 points at 1,2 (out-pair)
    assert (0, 1) in _neighbourhoods(t3, Mode.IOS)


def test_find_hats_includes_out_pairs():
    g = OrientedGraph(3, [(1, 0), (1, 2)])
    assert list(_neighbourhoods(g, Mode.IOS)) == [(0, 2)]


def test_constructors():
    assert edgeless(3).num_arcs == 0
    assert directed_path(1).n == 1
    assert directed_cycle(3).num_arcs == 3
    with pytest.raises(ValueError):
        directed_cycle(2)
    t = transitive_tournament(4)
    assert t.num_arcs == 6 and t.has_arc(0, 3)


def test_is_tournament():
    assert is_tournament(transitive_tournament(5))
    assert is_tournament(directed_cycle(3))
    assert not is_tournament(directed_cycle(4))
    assert not is_tournament(edgeless(2))


def test_all_oriented_graphs_counts():
    assert len(list(all_oriented_graphs(0))) == 1
    assert len(list(all_oriented_graphs(2))) == 3
    assert len(list(all_oriented_graphs(3))) == 27


def test_random_oriented_graph_valid():
    import random

    rng = random.Random(5)
    for _ in range(20):
        g = random_oriented_graph(6, rng)
        assert g.n == 6
        seen = set()
        for u, v in g.arcs:
            assert u != v
            assert (v, u) not in g.arcs
            seen.add((u, v))


def test_repr_round_readable():
    g = OrientedGraph(2, [(0, 1)])
    assert "2" in repr(g)
