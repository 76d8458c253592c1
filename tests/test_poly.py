import itertools
import random

from injhom.graphs import (
    Mode,
    OrientedGraph,
    all_oriented_graphs,
    directed_cycle,
    directed_path,
    edgeless,
    hat,
    random_oriented_graph,
    transitive_tournament,
)
from injhom.cli import main
from injhom.fileformat import format_edge_list
from injhom import poly
from injhom.poly import decide_poly
from injhom.solver import check_hom, solve
from injhom.targets import TargetSpec, build_named


def brute(g, target_name, mode):
    h = build_named(target_name)
    for f in itertools.product(range(h.n), repeat=g.n):
        if check_hom(g, h, f, mode):
            return True
    return False


DECIDERS = [
    ("T1", Mode.IOS),
    ("T2", Mode.IOS),
    ("C3", Mode.IOS),
    ("T3", Mode.IOS),
    ("T1r", Mode.IOS),
    ("T1r", Mode.IOT),
    ("T2r", Mode.IOS),
    ("T2r", Mode.IOT),
]


def test_deciders_match_brute_force_exhaustive():
    for g in all_oriented_graphs(3):
        for name, mode in DECIDERS:
            got = decide_poly(g, name, mode)
            assert got.satisfiable == brute(g, name, mode), (name, mode, g)
            if got.satisfiable:
                assert check_hom(g, build_named(name), got.witness.map, mode)


def test_deciders_match_brute_force_random():
    rng = random.Random(77)
    for _ in range(80):
        g = random_oriented_graph(5, rng)
        for name, mode in DECIDERS:
            got = decide_poly(g, name, mode)
            assert got.satisfiable == brute(g, name, mode), (name, mode)
            if got.satisfiable:
                assert check_hom(g, build_named(name), got.witness.map, mode)


def test_c3_cycles_mod3():
    for n in range(3, 13):
        got = decide_poly(directed_cycle(n), "C3", Mode.IOS)
        assert got.satisfiable == (n % 3 == 0), n


def test_c3_paths_always_yes():
    for n in range(1, 9):
        got = decide_poly(directed_path(n), "C3", Mode.IOS)
        assert got.satisfiable
        assert check_hom(directed_path(n), build_named("C3"), got.witness.map, Mode.IOS)


def test_c3_rejects_branching():
    assert not decide_poly(hat(), "C3", Mode.IOS).satisfiable


def test_t1_edgeless_only():
    assert decide_poly(edgeless(4), "T1", Mode.IOS).satisfiable
    assert not decide_poly(directed_path(2), "T1", Mode.IOS).satisfiable


def test_t2_tiny_components_only():
    g = OrientedGraph(5, [(0, 1), (3, 4)])
    got = decide_poly(g, "T2", Mode.IOS)
    assert got.satisfiable
    assert got.witness.map[0] == 0 and got.witness.map[1] == 1
    assert not decide_poly(directed_path(3), "T2", Mode.IOS).satisfiable


def test_t1r_modes_differ():
    # single arc: fine for ios (degree 1), fine for iot; directed path of 3
    # has a middle vertex with two underlying neighbours, killing iot but
    # not ios on the looped point
    p3 = directed_path(3)
    assert decide_poly(p3, "T1r", Mode.IOS).satisfiable
    assert not decide_poly(p3, "T1r", Mode.IOT).satisfiable


def test_t2r_degree_cap_is_a_genuine_no():
    # out-degree 3 vertex: three out-neighbours cannot take distinct images
    # in a two-vertex target
    g = OrientedGraph(4, [(0, 1), (0, 2), (0, 3)])
    got = decide_poly(g, "T2r", Mode.IOS)
    assert got.algorithm == "two-sat"
    assert not got.satisfiable
    assert not brute(g, "T2r", Mode.IOS)


def test_t3_degree_cap():
    # underlying degree 3 is an immediate no against the transitive triangle
    g = OrientedGraph(4, [(0, 1), (0, 2), (3, 0)])
    assert not decide_poly(g, "T3", Mode.IOS).satisfiable
    assert not brute(g, "T3", Mode.IOS)


def test_t3_tournament_itself():
    t3 = transitive_tournament(3)
    got = decide_poly(t3, "T3", Mode.IOS)
    assert got.satisfiable
    assert sorted(got.witness.map) == [0, 1, 2]


def test_degree2_dp_generic_target():
    got = decide_poly(directed_cycle(6), "C3", Mode.IOS)
    assert got.satisfiable and got.algorithm == "path-cycle-mod3"
    assert check_hom(directed_cycle(6), build_named("C3"), got.witness.map, Mode.IOS)
    # a branching input is a no by the degree rule, not a DP input
    got = decide_poly(OrientedGraph(4, [(0, 1), (0, 2), (0, 3)]), "C3", Mode.IOS)
    assert not got.satisfiable and got.algorithm == "path-cycle-mod3"


def test_degree2_dp_matches_solver_random():
    rng = random.Random(78)
    targets = ("C3r", "T3r", "U4")
    trials = 0
    while trials < 50:
        g = random_oriented_graph(6, rng)
        if any(len(g.underlying_nbrs[v]) > 2 for v in range(g.n)):
            continue
        trials += 1
        name = targets[trials % 3]
        for mode in (Mode.PLAIN, Mode.IOS, Mode.IOT):
            got = decide_poly(g, name, mode)
            assert got.algorithm == "degree2-dp"
            want = solve(g, build_named(name), mode).satisfiable
            assert got.satisfiable == want
            if got.satisfiable:
                assert check_hom(g, build_named(name), got.witness.map, mode)


def test_decide_poly_dispatch():
    g = directed_cycle(6)
    assert decide_poly(g, "C3", Mode.IOS).algorithm == "path-cycle-mod3"
    assert decide_poly(g, "T2r", Mode.IOS).algorithm == "two-sat"
    assert decide_poly(g, "T2r", Mode.IOT).algorithm == "degree2-dp"
    # paths and cycles go to the DP against every target
    untabled = [("C3r", Mode.IOS), ("T3r", Mode.IOT), ("U4", Mode.IOS),
                ("C3", Mode.PLAIN), (transitive_tournament(3), Mode.IOS)]
    for target, mode in untabled:
        h = build_named(target) if isinstance(target, str) else target
        got = decide_poly(g, target, mode)
        assert got.algorithm == "degree2-dp", (target, mode)
        assert got.satisfiable == solve(g, h, mode).satisfiable, (target, mode)
        if got.satisfiable:
            assert check_hom(g, h, got.witness.map, mode)
    # a vertex of underlying degree 3 leaves the hard side to the search
    star = OrientedGraph(4, [(0, 1), (0, 2), (3, 0)])
    for target, mode in untabled:
        assert decide_poly(star, target, mode) is None, (target, mode)
    # T2r under ios is decided on branching inputs too
    got = decide_poly(star, "T2r", Mode.IOS)
    assert got.algorithm == "two-sat"
    assert got.satisfiable
    assert check_hom(star, build_named("T2r"), got.witness.map, Mode.IOS)


def test_reflexive_inputs_rejected(tmp_path, capsys):
    # reflexive inputs are left to the search, which answers them
    g = OrientedGraph(2, [(0, 1)], reflexive=True)
    for name, mode in DECIDERS:
        assert decide_poly(g, name, mode) is None, (name, mode)
    path = tmp_path / "loops.txt"
    path.write_text(format_edge_list(g))
    for name, mode in [("T2r", "ios"), ("C3", "ios"), ("T3r", "iot")]:
        code = main(["decide", str(path), name, mode])
        out = capsys.readouterr().out
        assert code in (0, 1), (name, mode)
        assert "algorithm: backtracking" in out
        assert out.startswith("YES" if code == 0 else "NO")


def _paths_and_cycles(rng, max_n, max_size=12, kinds=("random",)):
    """A seeded disjoint union of oriented paths and cycles (and isolated
    vertices) on at most max_n vertices, relabelled at random.  Each
    component is directed, antidirected or randomly oriented, as drawn
    from kinds."""
    arcs, n = [], 0
    while True:
        size = rng.randint(1, max_size)
        if n + size > max_n:
            break
        cycle = size >= 3 and rng.random() < 0.5
        kind = rng.choice(kinds) if len(kinds) > 1 else kinds[0]
        for i in range(size if cycle else size - 1):
            u, v = n + i, n + (i + 1) % size
            forward = {"directed": True, "anti": i % 2 == 0, "random": rng.random() < 0.5}[kind]
            arcs.append((u, v) if forward else (v, u))
        n += size
    perm = list(range(n))
    rng.shuffle(perm)
    return OrientedGraph(n, [(perm[u], perm[v]) for u, v in arcs])


def test_degree2_dp_matches_solver_on_paths_and_cycles():
    # U9 has 81 states, more than fit in one 64-bit word
    rng = random.Random(2024)
    custom = transitive_tournament(4)
    custom = OrientedGraph(4, [(v, u) if u == 0 and v == 3 else (u, v) for u, v in custom.arcs])
    targets = ["U6", "U9", "U5r", TargetSpec.from_graph(custom)]
    for trial in range(36):
        # the first 24 inputs are randomly oriented; the rest directed or antidirected
        g = _paths_and_cycles(rng, 30, kinds=("random",) if trial < 24 else ("directed", "anti"))
        for target in targets:
            h = target.build() if isinstance(target, TargetSpec) else build_named(target)
            for mode in (Mode.PLAIN, Mode.IOS, Mode.IOT):
                got = decide_poly(g, target, mode)
                assert got.algorithm == "degree2-dp"
                assert got.satisfiable == solve(g, h, mode).satisfiable, (trial, target, mode)
                if got.satisfiable:
                    assert check_hom(g, h, got.witness.map, mode)


def test_dp_route_builds_no_directed_adjacency():
    g = directed_cycle(1000)
    got = decide_poly(g, "U4", Mode.IOS)
    assert got.algorithm == "degree2-dp" and not got.satisfiable
    assert not {"in_nbrs", "out_nbrs", "_directed_nbrs", "underlying_nbrs"} & g.__dict__.keys()


def test_dp_tables_built_once_per_target():
    # step and back tables are shared by calls against equal targets; the
    # mask memos are not, so each call starts from empty ones
    poly._tables.cache_clear()
    for n in (5, 7, 9):
        for target in ("U4", "T3r"):
            assert decide_poly(directed_cycle(n), target, Mode.IOT) is not None
    info = poly._tables.cache_info()
    assert info.misses == 2 and info.hits == 4
    first = poly._tables(build_named("U4"))
    assert poly._tables(build_named("U4")) is first
    assert all(type(pair) is tuple for pair in first[1].values())


# --- the walk over unsorted flat neighbour lists against the sorted walk ---


def _ref_component_orders(g):
    """The walk over sorted underlying_nbrs, as decide_poly walked before
    its neighbour lists were left unsorted."""
    nbrs = g.underlying_nbrs
    seen = [False] * g.n
    for v in range(g.n):
        if seen[v] or not nbrs[v]:
            continue
        ahead = _ref_walk_away(nbrs, v, nbrs[v][0])
        is_cycle = len(nbrs[ahead[-1]]) == 2
        if is_cycle:
            order = [v] + ahead
        else:
            behind = _ref_walk_away(nbrs, v, nbrs[v][1]) if len(nbrs[v]) == 2 else []
            order = behind[::-1] + [v] + ahead
            if order[-1] < order[0]:
                order.reverse()
        for w in order:
            seen[w] = True
        yield is_cycle, order


def _ref_walk_away(nbrs, start, cur):
    walk = []
    prev = start
    while cur != start:
        walk.append(cur)
        ends = nbrs[cur]
        if len(ends) == 1:
            break
        prev, cur = cur, ends[1] if ends[0] == prev else ends[0]
    return walk


def test_unsorted_walk_matches_sorted_reference(monkeypatch):
    rng = random.Random(1010)
    walk_orders = poly._component_orders
    targets = ("T3", "C3", "T2r", "U4", "C3r")
    for trial in range(60):
        g = _paths_and_cycles(rng, rng.choice((12, 60, 200)), 40, ("directed", "anti", "random"))
        nbrs = poly._walk_nbrs(g)
        first, second = nbrs
        pairs = [sorted(w for w in ends if w >= 0) for ends in zip(first, second)]
        assert pairs == list(map(list, g.underlying_nbrs))
        want = list(_ref_component_orders(g))
        assert list(walk_orders(nbrs)) == want, trial
        for target in targets:
            for mode in (Mode.PLAIN, Mode.IOS, Mode.IOT):
                got = decide_poly(g, target, mode)
                monkeypatch.setattr(poly, "_component_orders", lambda _: iter(want))
                ref = decide_poly(g, target, mode)
                monkeypatch.setattr(poly, "_component_orders", walk_orders)
                assert got == ref, (trial, target, mode)

