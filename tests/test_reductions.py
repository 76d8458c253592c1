import random

import pytest

from injhom.graphs import (
    Mode,
    OrientedGraph,
    all_oriented_graphs,
    directed_cycle,
    random_oriented_graph,
    transitive_tournament,
)
from injhom.reductions import (
    SimpleGraph,
    bridged_cubic_graph,
    canonical_flavour,
    colouring_instance,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    find_3edge_colouring,
    lift_u4_instance,
    oracle_3col,
    oracle_3edge,
    oracle_k_colouring,
    path_graph,
    prism_graph,
    reduce_3col_to_ios_c3r,
    reduce_3col_to_iot_c3r,
    reduce_3edge_to_t3r,
    reduce_3edge_to_u4,
    reduce_3edge_to_um,
    reduce_ios_c3r_to_umr,
    reduce_iot_c3r_to_umr,
    with_random_edge_order,
)
from injhom.solver import solve
from injhom.targets import U_MAX, build_named


def answer(inst):
    return solve(inst.graph, build_named(inst.target), inst.mode).satisfiable


def check_provenance_partitions(inst):
    seen = []
    for key, table in inst.provenance.items():
        assert key[0] in ("vertex", "edge")
        seen.extend(table.values())
    assert sorted(seen) == list(range(inst.graph.n))


# --- SimpleGraph ---


def test_simple_graph_normalizes_and_validates():
    g = SimpleGraph(3, [(2, 0), (0, 2), (1, 2)])
    assert g.edges == frozenset({(0, 2), (1, 2)})
    with pytest.raises(ValueError):
        SimpleGraph(3, [(1, 1)])
    with pytest.raises(ValueError):
        SimpleGraph(3, [(0, 3)])


def test_simple_graph_queries():
    g = prism_graph()
    assert g.is_cubic() and g.is_connected()
    assert g.degree(0) == 3 and g.min_degree() == 3
    assert g.neighbours(0) == [1, 2, 3]
    p = path_graph(4)
    assert not p.is_cubic() and p.min_degree() == 1
    two_parts = SimpleGraph(4, [(0, 1), (2, 3)])
    assert not two_parts.is_connected()


def test_incident_order_and_edge_index():
    g = complete_graph(4)
    assert g.incident(0) == ((0, 1), (0, 2), (0, 3))
    assert g.edge_index(0, (0, 2)) == 2
    assert g.edge_index(2, (0, 2)) == 1
    assert g.edge_index(2, (2, 0)) == 1  # orientation of the query pair is free
    # the per-vertex index against the edge scans it replaced, on seeded
    # graphs in the default order and in a shuffled one
    rng = random.Random(14)
    for trial in range(40):
        n = rng.randrange(1, 30)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        plain = SimpleGraph(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs])
        for h in (plain, with_random_edge_order(plain, rng)):
            for v in range(n):
                scan = [e for e in h.edges if v in e]
                if h.edge_order is None:
                    old = tuple(sorted(scan, key=lambda e: e[0] + e[1] - v))
                else:
                    old = h.edge_order[v]
                    assert sorted(old) == sorted(scan)
                assert h.incident(v) == old
                for e in scan:
                    assert h.edge_index(v, e[::-1]) == old.index(e) + 1
                assert h.neighbours(v) == sorted(a + b - v for a, b in h.edges if v in (a, b)), trial
                assert h.degree(v) == sum(1 for e in h.edges if v in e)


def test_edge_order_validation():
    edges = [(0, 1), (0, 2), (1, 2)]
    custom = [[(0, 2), (0, 1)], [(1, 2), (0, 1)], [(0, 2), (1, 2)]]
    g = SimpleGraph(3, edges, edge_order=custom)
    assert g.edge_index(0, (0, 2)) == 1
    with pytest.raises(ValueError):
        SimpleGraph(3, edges, edge_order=custom[:2])
    with pytest.raises(ValueError):
        SimpleGraph(3, edges, edge_order=[[(0, 1), (0, 1)], custom[1], custom[2]])


def test_constructors():
    assert len(complete_graph(4).edges) == 6
    assert len(complete_bipartite(3, 3).edges) == 9
    assert len(cycle_graph(5).edges) == 5
    with pytest.raises(ValueError):
        cycle_graph(2)
    b = bridged_cubic_graph()
    assert b.is_cubic() and b.is_connected() and b.n == 10


# --- vertex colouring to ios against the reflexive triangle ---


def test_3col_ios_c3r_sizes_and_answers():
    inst_no = reduce_3col_to_ios_c3r(complete_graph(4))
    assert inst_no.graph.n == 138
    assert not answer(inst_no)
    check_provenance_partitions(inst_no)

    inst_yes = reduce_3col_to_ios_c3r(complete_bipartite(3, 3))
    assert inst_yes.graph.n == 207
    assert answer(inst_yes)
    assert inst_yes.target == "C3r" and inst_yes.mode is Mode.IOS


def test_3col_ios_c3r_requires_min_degree_3():
    with pytest.raises(ValueError):
        reduce_3col_to_ios_c3r(cycle_graph(5))


def test_3col_ios_c3r_prism():
    inst = reduce_3col_to_ios_c3r(prism_graph())
    assert answer(inst) == oracle_3col(prism_graph())


def test_3col_ios_c3r_edge_order_invariance():
    rng = random.Random(5)
    for g, want in ((complete_graph(4), False), (complete_bipartite(3, 3), True)):
        shuffled = with_random_edge_order(g, rng)
        assert answer(reduce_3col_to_ios_c3r(shuffled)) == want


# --- edge colouring to the reflexive transitive triangle ---


def test_3edge_t3r_sizes_and_answers():
    k4 = complete_graph(4)
    for mode in (Mode.IOS, Mode.IOT):
        inst = reduce_3edge_to_t3r(k4, mode)
        assert inst.graph.n == 244
        assert inst.target == "T3r" and inst.mode is mode
        check_provenance_partitions(inst)
        assert answer(inst)
    assert oracle_3edge(k4)


def test_3edge_t3r_prism_and_bridged():
    assert answer(reduce_3edge_to_t3r(prism_graph()))
    # the bridge blocks any proper 3-edge-colouring, and the reduction agrees
    assert not oracle_3edge(bridged_cubic_graph())
    assert not answer(reduce_3edge_to_t3r(bridged_cubic_graph()))


def test_3edge_t3r_validation():
    with pytest.raises(ValueError):
        reduce_3edge_to_t3r(path_graph(4))
    with pytest.raises(ValueError):
        reduce_3edge_to_t3r(complete_graph(4), Mode.PLAIN)


# --- vertex colouring to iot against the reflexive triangle ---


def test_3col_iot_c3r_sizes_and_answers():
    inst = reduce_3col_to_iot_c3r(complete_graph(3))
    assert inst.graph.n == 45
    assert inst.mode is Mode.IOT
    check_provenance_partitions(inst)
    assert answer(inst)
    assert not answer(reduce_3col_to_iot_c3r(complete_graph(4)))


def test_3col_iot_c3r_odd_cycle():
    assert answer(reduce_3col_to_iot_c3r(cycle_graph(5)))


def test_3col_iot_c3r_validation():
    with pytest.raises(ValueError):
        reduce_3col_to_iot_c3r(SimpleGraph(4, [(0, 1), (2, 3)]))  # disconnected
    with pytest.raises(ValueError):
        reduce_3col_to_iot_c3r(SimpleGraph(1, []))  # degree 0


# --- edge colouring to the U family ---


def test_3edge_u4_and_lift():
    k4 = complete_graph(4)
    inst = reduce_3edge_to_u4(k4)
    assert inst.graph.n == 28
    assert inst.target == "U4" and inst.mode is Mode.IOS
    check_provenance_partitions(inst)
    assert answer(inst)

    lifted = lift_u4_instance(inst, 5)
    assert lifted.graph.n == 32
    assert lifted.target == "U5"
    check_provenance_partitions(lifted)
    assert answer(lifted)

    assert reduce_3edge_to_um(k4, 5).graph.n == 32


def test_lift_builds_the_validated_graph_and_validates_once(monkeypatch):
    # the U4 instance is checked when it is built; the lift adds only
    # pendant arcs from fresh vertices and builds without a second check
    for g in (complete_graph(4), complete_bipartite(3, 3), prism_graph()):
        inst = reduce_3edge_to_u4(g)
        for m in range(4, 9):
            lifted = lift_u4_instance(inst, m).graph
            assert lifted == OrientedGraph(lifted.n, list(lifted.arcs)), (g, m)
            assert lifted.arcs >= inst.graph.arcs
            assert all(u >= inst.graph.n > v for u, v in lifted.arcs - inst.graph.arcs)
    calls = []
    validate = OrientedGraph._validate
    monkeypatch.setattr(OrientedGraph, "_validate", lambda self: calls.append(self) or validate(self))
    lifted = reduce_3edge_to_um(complete_graph(4), 7)
    assert len(calls) == 1 and calls[0].n < lifted.graph.n


def test_3edge_u4_no_instance():
    inst = reduce_3edge_to_u4(bridged_cubic_graph())
    assert not answer(inst)


def test_u4_lift_validation():
    inst = reduce_3edge_to_u4(complete_graph(4))
    with pytest.raises(ValueError):
        lift_u4_instance(inst, 3)
    with pytest.raises(ValueError, match=f"m <= {U_MAX}"):
        lift_u4_instance(inst, U_MAX + 1)
    lifted = lift_u4_instance(inst, 5)
    with pytest.raises(ValueError):
        lift_u4_instance(lifted, 6)


def test_u4_lift_pendant_count():
    inst = reduce_3edge_to_um(complete_graph(4), 6)
    # originals have in-degree 0 in the U4 instance, so each gains m-4 = 2
    for v in range(4):
        roles = inst.vertex_roles(v)
        assert {"x", "pend1", "pend2"} <= set(roles)


# --- transfers from the reflexive triangle to reflexive U_m ---


def test_umr_transfer_matches_source_exhaustive():
    C3r = build_named("C3r")
    for g in all_oriented_graphs(3):
        for m in (4, 5):
            want = solve(g, C3r, Mode.IOS).satisfiable
            assert answer(reduce_ios_c3r_to_umr(g, m)) == want
            want = solve(g, C3r, Mode.IOT).satisfiable
            assert answer(reduce_iot_c3r_to_umr(g, m)) == want


def test_umr_transfer_matches_source_random():
    C3r = build_named("C3r")
    rng = random.Random(11)
    done = 0
    while done < 12:
        g = random_oriented_graph(6, rng)
        degs_ok = all(g.in_degree(v) <= 2 and g.out_degree(v) <= 2 for v in range(g.n))
        want_ios = solve(g, C3r, Mode.IOS).satisfiable
        want_iot = solve(g, C3r, Mode.IOT).satisfiable
        if degs_ok:
            assert answer(reduce_ios_c3r_to_umr(g, 4)) == want_ios
        assert answer(reduce_iot_c3r_to_umr(g, 4)) == want_iot
        done += 1


def test_umr_transfer_validation():
    high = OrientedGraph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(ValueError):
        reduce_ios_c3r_to_umr(high, 4)
    refl = OrientedGraph(2, [(0, 1)], reflexive=True)
    with pytest.raises(ValueError):
        reduce_ios_c3r_to_umr(refl, 4)
    with pytest.raises(ValueError):
        reduce_iot_c3r_to_umr(refl, 4)
    with pytest.raises(ValueError):
        reduce_iot_c3r_to_umr(directed_cycle(3), 3)
    for reduce in (reduce_ios_c3r_to_umr, reduce_iot_c3r_to_umr):
        with pytest.raises(ValueError, match=f"m <= {U_MAX}"):
            reduce(directed_cycle(3), U_MAX + 1)


# --- colouring wrappers ---


def test_canonical_flavour_spellings():
    assert canonical_flavour("Proper-IOS") == "proper-ios"
    assert canonical_flavour("ios-proper") == "proper-ios"
    assert canonical_flavour("iot-improper") == "improper-iot"
    with pytest.raises(ValueError):
        canonical_flavour("rainbow")


def test_colouring_instance_recipes():
    g = directed_cycle(3)
    wrapped, target, mode = colouring_instance(g, 4, "proper-ios")
    assert target == "U4" and mode is Mode.IOS
    assert wrapped.n == g.n + 4

    wrapped, target, mode = colouring_instance(g, 3, "improper-iot")
    assert target == "C3r" and mode is Mode.IOT

    wrapped, target, mode = colouring_instance(g, 5, "improper-ios")
    assert target == "U5r" and mode is Mode.IOS


def test_colouring_instance_matches_direct_question():
    # answering the wrapped instance is the same as asking whether the
    # original graph maps to the canonical target
    g = transitive_tournament(4)
    wrapped, target, mode = colouring_instance(g, 4, "proper-ios")
    got = solve(wrapped, build_named(target), mode).satisfiable
    direct = solve(g, build_named("U4"), Mode.IOS).satisfiable
    assert got == direct
    assert not got  # the transitive tournament does not embed in U4 this way


def test_colouring_instance_validation():
    g = directed_cycle(3)
    with pytest.raises(ValueError):
        colouring_instance(g, 3, "proper-ios")
    with pytest.raises(ValueError):
        colouring_instance(g, 2, "improper-ios")
    refl = OrientedGraph(2, [(0, 1)], reflexive=True)
    with pytest.raises(ValueError):
        colouring_instance(refl, 4, "proper-ios")


# --- oracles ---


def test_oracle_3col_known_answers():
    assert oracle_3col(complete_graph(3))
    assert not oracle_3col(complete_graph(4))
    assert oracle_3col(cycle_graph(5))
    assert oracle_3col(complete_bipartite(3, 3))
    cols = oracle_k_colouring(prism_graph(), 3)
    assert cols is not None
    for u, v in prism_graph().edges:
        assert cols[u] != cols[v]


def test_oracle_3edge_known_answers():
    assert oracle_3edge(complete_graph(4))
    assert oracle_3edge(prism_graph())
    assert not oracle_3edge(bridged_cubic_graph())
    colouring = find_3edge_colouring(prism_graph())
    g = prism_graph()
    for v in range(g.n):
        incident = [colouring[e] for e in g.edges if v in e]
        assert len(set(incident)) == len(incident)


def test_oracle_size_cap():
    big = path_graph(21)
    with pytest.raises(ValueError):
        oracle_k_colouring(big, 3)
    with pytest.raises(ValueError):
        find_3edge_colouring(big)
