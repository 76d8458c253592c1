import hashlib
import itertools
import random

import pytest

from injhom.chromatic import FLAVOURS, canonical_flavour, flavour_settings
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
    empty = SimpleGraph(0, [])
    assert empty.is_connected() and not empty.is_cubic()


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


def test_simple_graph_rejects_non_int_endpoints():
    # each used to fail with a TypeError: a float in the incidence rows,
    # a string in the range test
    for edges in ([(0.0, 1), (1, 2)], [(0.5, 1)], [("a", 1)], [(1, None)]):
        with pytest.raises(ValueError, match="edge endpoints must be ints"):
            SimpleGraph(3, edges)


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


def test_3edge_t3r_reads_its_mode_through_mode_parse():
    # a string mode used to be refused as neither ios nor iot
    for text, mode in (("ios", Mode.IOS), ("IOT", Mode.IOT)):
        inst = reduce_3edge_to_t3r(complete_graph(4), text)
        assert inst.mode is mode and inst == reduce_3edge_to_t3r(complete_graph(4), mode)
    with pytest.raises(ValueError, match="mode must be ios or iot"):
        reduce_3edge_to_t3r(complete_graph(4), "plain")
    with pytest.raises(ValueError, match="unknown mode"):
        reduce_3edge_to_t3r(complete_graph(4), "bogus")


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
    # each edge xy, x < y, is the path x -> v1 -> v2 -> v3 -> v4 <- y, found
    # from either end
    for x, y in k4.edges:
        roles = inst.edge_roles(y, x)
        assert roles == inst.edge_roles(x, y) and set(roles) == {"v1", "v2", "v3", "v4"}
        assert (x, roles["v1"]) in inst.graph.arcs and (y, roles["v4"]) in inst.graph.arcs

    lifted = lift_u4_instance(inst, 5)
    assert lifted.graph.n == 32
    assert lifted.target == "U5"
    check_provenance_partitions(lifted)
    assert answer(lifted)

    assert reduce_3edge_to_um(k4, 5).graph.n == 32


def _every_reduction():
    """An instance of every reduction kind over this file's sources."""
    rng = random.Random(5)
    for g in (complete_graph(4), complete_bipartite(3, 3), prism_graph()):
        yield reduce_3col_to_ios_c3r(g)
        yield reduce_3col_to_ios_c3r(with_random_edge_order(g, rng))
    for g in (complete_graph(4), complete_bipartite(3, 3), prism_graph(), bridged_cubic_graph()):
        for mode in (Mode.IOS, Mode.IOT):
            yield reduce_3edge_to_t3r(g, mode)
        for m in range(4, 9):
            yield reduce_3edge_to_um(g, m)
    for g in (complete_graph(3), complete_graph(4), cycle_graph(5)):
        yield reduce_3col_to_iot_c3r(g)
    for g in all_oriented_graphs(3):
        for m in (4, 5, 7):
            yield reduce_ios_c3r_to_umr(g, m)
            yield reduce_iot_c3r_to_umr(g, m)


def test_reductions_build_the_validated_graph_without_validating(monkeypatch):
    # every instance is built from gadgets that are valid graphs and equals
    # the graph that the checking constructor builds from its arcs
    kinds = set()
    for inst in _every_reduction():
        graph = inst.graph
        assert type(graph.arcs) is frozenset
        assert graph == OrientedGraph(graph.n, list(graph.arcs)), (inst.source_kind, inst.target)
        kinds.add((inst.source_kind, inst.target[0], inst.mode))
    assert len(kinds) == 7
    # a lift adds only pendant arcs from fresh vertices to old ones
    for g in (complete_graph(4), complete_bipartite(3, 3), prism_graph()):
        inst = reduce_3edge_to_u4(g)
        for m in range(4, 9):
            lifted = lift_u4_instance(inst, m).graph
            assert lifted.arcs >= inst.graph.arcs
            assert all(u >= inst.graph.n > v for u, v in lifted.arcs - inst.graph.arcs)
    # so no reduction checks an instance's arcs again; only the gadgets it
    # builds on the way, each a graph smaller than the instance, are checked
    k4, c3 = complete_graph(4), directed_cycle(3)
    calls = []
    validate = OrientedGraph._validate
    monkeypatch.setattr(OrientedGraph, "_validate", lambda self: calls.append(self.n) or validate(self))
    for build in (lambda: reduce_3col_to_ios_c3r(k4), lambda: reduce_3col_to_iot_c3r(k4),
                  lambda: reduce_3edge_to_t3r(k4), lambda: reduce_3edge_to_um(k4, 7),
                  lambda: reduce_ios_c3r_to_umr(c3, 5), lambda: reduce_iot_c3r_to_umr(c3, 5)):
        calls.clear()
        n = build().graph.n
        assert all(size < n for size in calls), (n, calls)


def test_3edge_u4_no_instance():
    inst = reduce_3edge_to_u4(bridged_cubic_graph())
    assert not answer(inst)


def test_3edge_u4_needs_a_cubic_graph():
    for g in (path_graph(4), complete_graph(5), SimpleGraph(0, [])):
        with pytest.raises(ValueError, match="cubic"):
            reduce_3edge_to_u4(g)


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
    # every case, with the two words in either order, names the flavour
    # and wraps a graph as its canonical name does
    g = directed_cycle(3)

    def recipes(flavour):
        out = []
        for k in range(1, 8):
            try:
                out.append(colouring_instance(g, k, flavour))
            except ValueError as err:
                out.append(str(err))
        return out

    assert set(FLAVOURS) == {"proper-ios", "improper-ios", "improper-iot"}
    for name in FLAVOURS:
        first, second = name.split("-")
        for text in (name, f"{second}-{first}"):
            for spelling in (text, text.upper(), text.title(), text.title().swapcase()):
                assert canonical_flavour(spelling) == name, spelling
                assert flavour_settings(spelling) == flavour_settings(name), spelling
                assert recipes(spelling) == recipes(name), spelling
    for text in ("proper-iot", "iot-proper", "rainbow"):
        with pytest.raises(ValueError, match="unknown flavour"):
            canonical_flavour(text)


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


def _product_first_colouring(n, clash, k):
    """The first proper k-colouring of 0..n-1 in itertools.product order
    (clash(i, j) for i < j says i and j must differ), or None: the
    product walked in that order, jumping over each block of tuples that
    share a prefix ending in a clash."""
    colours = [0] * n
    if n and not k:
        return None
    while True:
        bad = next((j for j in range(n) if any(colours[i] == colours[j] and clash(i, j) for i in range(j))), None)
        if bad is None:
            return colours
        while bad >= 0 and colours[bad] == k - 1:
            bad -= 1
        if bad < 0:
            return None
        colours[bad] += 1
        colours[bad + 1:] = [0] * (n - bad - 1)


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return SimpleGraph(10, outer + spokes + inner)


def test_oracles_find_the_first_colouring_in_product_order():
    # both oracles answer with the lexicographically first colouring, the
    # edge oracle's over the sorted edges, on seeded graphs and the five
    # paper graphs
    rng = random.Random(28)
    graphs = [complete_graph(4), complete_bipartite(3, 3), prism_graph(), bridged_cubic_graph(), petersen_graph()]
    for n in range(9):
        for _ in range(15):
            p = rng.random()
            graphs.append(SimpleGraph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]))
    found = 0
    for g in graphs:
        for k in range(5):
            want = _product_first_colouring(g.n, lambda i, j: (i, j) in g.edges, k)
            assert oracle_k_colouring(g, k) == want, (g, k)
        edges = sorted(g.edges)
        want = _product_first_colouring(len(edges), lambda i, j: not set(edges[i]).isdisjoint(edges[j]), 3)
        assert find_3edge_colouring(g) == (None if want is None else dict(zip(edges, want))), g
        found += want is not None
    assert 0 < found < len(graphs)
    assert oracle_3edge(petersen_graph()) is False


def test_simple_graph_checks_its_vertex_count():
    # a negative count used to build, and is_connected then indexed past
    # the end; a float failed later with a TypeError
    for n in (-1, 2.5, "3"):
        with pytest.raises(ValueError, match="nonnegative int"):
            SimpleGraph(n, [])
    assert SimpleGraph(0, []).is_connected()


def test_oracle_rejects_a_negative_colour_count():
    with pytest.raises(ValueError, match="nonnegative"):
        oracle_k_colouring(path_graph(2), -1)
    assert oracle_k_colouring(SimpleGraph(0, []), 0) == []


def random_connected_cubic(n, rng):
    """A connected cubic graph from the configuration model: 3n stubs
    shuffled and paired in order, redrawn on a loop, a repeated edge or a
    disconnected graph."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {(min(u, v), max(u, v)) for u, v in zip(stubs[::2], stubs[1::2]) if u != v}
        if len(edges) == 3 * n // 2:
            g = SimpleGraph(n, edges)
            if g.is_connected():
                return g


# sha256 of every instance each builder makes on the corpus below; any
# change to vertex numbering, arcs, provenance, target or mode moves them
VERTEX_AND_EDGE_DIGESTS = {
    "ios-C3r": "4ec892eea771e449cbe6291033dbea1ac36b0f67c1cbc70e0712890e46c75008",
    "iot-C3r": "22058bafa4c0bd9658e7ff3009c7a488cb78b5eff5ec170397aa93314475c63c",
    "T3r-ios": "a97e1901565d713192c4c23224cd00db4a52d07f149fae56ac828b788c7187e4",
    "T3r-iot": "ba5d64cd935f7232f54f9808cb418a039182744e8e59ed1fb1e4f4c82f011592",
    "U4": "221ef6f323a768e235ed28b207657e1d9cacf741ce69969c161a2405ee243889",
    "U6": "67b23973c713d8e53420967b949eaeaa48d6efa1dd4fe9092415e78cd51fcf86",
}


def test_vertex_and_edge_reductions_build_the_pinned_instances():
    # vertex numbering, arcs, provenance, target and mode of each
    # instance, on the paper graphs, seeded random cubic graphs and a
    # random incident order of each, which moves every port
    rng = random.Random(29)
    sources = [complete_graph(4), complete_bipartite(3, 3), prism_graph(), bridged_cubic_graph(), petersen_graph()]
    sources += [random_connected_cubic(n, rng) for n in range(8, 22, 2) for _ in range(2)]
    sources += [with_random_edge_order(g, rng) for g in sources]
    builders = {
        "ios-C3r": reduce_3col_to_ios_c3r,
        "iot-C3r": reduce_3col_to_iot_c3r,
        "T3r-ios": lambda g: reduce_3edge_to_t3r(g, Mode.IOS),
        "T3r-iot": lambda g: reduce_3edge_to_t3r(g, Mode.IOT),
        "U4": reduce_3edge_to_u4,
        "U6": lambda g: reduce_3edge_to_um(g, 6),
    }
    for name, build in builders.items():
        digest = hashlib.sha256()
        for g in sources:
            inst = build(g)
            check_provenance_partitions(inst)
            prov = sorted((key, sorted(table.items())) for key, table in inst.provenance.items())
            fields = (inst.graph.n, sorted(inst.graph.arcs), prov, inst.source_kind, inst.target, inst.mode.value)
            digest.update(repr(fields).encode())
        assert digest.hexdigest() == VERTEX_AND_EDGE_DIGESTS[name], name
