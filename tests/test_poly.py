import collections
import itertools
import random

import pytest

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
from injhom.targets import U_MAX, TargetSpec, build_named


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


def test_decide_poly_reads_its_mode_through_mode_parse():
    # a string mode used to be read as plain: "iot" answered YES with
    # (0, 0, 0), a map iot refuses
    g = directed_path(3)
    for text, mode in (("iot", Mode.IOT), ("Plain", Mode.PLAIN), ("IOS", Mode.IOS)):
        res = decide_poly(g, "C3r", text)
        assert res == decide_poly(g, "C3r", mode)
        assert res.witness.mode is mode and check_hom(g, build_named("C3r"), res.witness.map, mode)
    with pytest.raises(ValueError, match="unknown mode"):
        decide_poly(g, "C3r", "bogus")


def test_decide_poly_refuses_a_custom_target_past_u_max(monkeypatch):
    # its state tables grow as the fourth power of the target's size: a
    # 400-vertex target would need gigabytes
    g = directed_path(3)
    monkeypatch.setattr(poly, "_walk_images", lambda *args: pytest.fail("built a DP table"))
    with pytest.raises(ValueError, match=f"at most {U_MAX} vertices"):
        decide_poly(g, transitive_tournament(U_MAX + 1), Mode.IOS)
    monkeypatch.undo()
    h = transitive_tournament(U_MAX)
    res = decide_poly(g, h, Mode.IOS)
    assert res.satisfiable and res.algorithm == "degree2-dp"
    assert check_hom(g, h, res.witness.map, Mode.IOS)


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
    # the search decides it, and its node count comes along
    assert got.nodes_explored == solve(g, build_named("T2r"), Mode.IOS).nodes_explored
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


def test_degree2_dp_against_an_empty_target():
    # no vertex has an image, so only the empty input maps
    empty = TargetSpec.from_graph(OrientedGraph(0))
    for mode in (Mode.PLAIN, Mode.IOS, Mode.IOT):
        for g in (directed_path(3), OrientedGraph(2)):
            got = decide_poly(g, empty, mode)
            assert not got.satisfiable and got.witness is None and got.algorithm == "degree2-dp"
        assert decide_poly(OrientedGraph(0), empty, mode).satisfiable


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
    # the DP does not search
    assert decide_poly(g, "T2r", Mode.IOT).nodes_explored == 0
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
    assert got.nodes_explored == solve(star, build_named("T2r"), Mode.IOS).nodes_explored > 0
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


def test_dp_tables_held_for_at_most_eight_targets():
    poly._tables.cache_clear()
    for m in range(4, 16):
        assert decide_poly(directed_path(5), f"U{m}", Mode.IOS).algorithm == "degree2-dp"
    info = poly._tables.cache_info()
    assert info.misses == 12 and info.currsize <= 8


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
    swapped = []
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
                monkeypatch.setattr(poly, "_component_orders", lambda _: swapped.append(1) or iter(want))
                ref = decide_poly(g, target, mode)
                monkeypatch.setattr(poly, "_component_orders", walk_orders)
                assert got == ref, (trial, target, mode)

    assert swapped, "the reference orders never reached decide_poly"


# --- the streamed DP against the whole-walk DP it replaced ---


def _ref_walk_images(g, h, mode, tries=None):
    """The DP as it was before its walks were streamed: every component's
    move list is built whole before a layer is stepped, a path is walked
    from all of its start states at once, and a cycle's start states are
    each walked alone, lowest first.  tries collects, per cycle, how many
    start states were walked."""
    n = h.n
    if g.n and n == 0:
        return None
    arcs, tables = poly._tables(h)
    table = {}
    for key, (step, back) in tables.items():
        table[key] = memo = poly._MaskTable(step)
        memo.back = back
    assignment = [0] * g.n
    for is_cycle, order in _ref_component_orders(g):
        ends = order[1:] + order[:1] if is_cycle else order[1:]
        forwards = [(u, v) in g.arcs for u, v in zip(order, ends)]
        if mode is Mode.IOT:
            differ = [True] * len(forwards)
        elif mode is Mode.IOS:
            differ = [a != b for a, b in zip(forwards[-1:] + forwards[:-1], forwards)]
        else:
            differ = [False] * len(forwards)
        moves = [table[key] for key in zip(forwards, differ)]
        walk = moves[1:] + moves[:1] if is_cycle else moves[1:]
        states = _ref_dp(arcs[forwards[0]], walk, is_cycle, tries)
        if states is None:
            return None
        assignment[order[0]] = states[0] // n
        for v, s in zip(order[1:], states):
            assignment[v] = s % n
    return assignment


def _ref_layers(mask, moves):
    if not mask:
        return None
    layers = [mask]
    for move in moves:
        mask = move[mask]
        if not mask:
            return None
        layers.append(mask)
    return layers


def _ref_trace_back(layers, moves, s):
    states = [s]
    for layer, move in zip(reversed(layers[:-1]), reversed(moves)):
        before = layer & move.back[s]
        s = (before & -before).bit_length() - 1
        states.append(s)
    states.reverse()
    return states


def _ref_dp(first, walk, closed, tries):
    if not closed:
        layers = _ref_layers(first, walk)
        if layers is None:
            return None
        last = layers[-1]
        return _ref_trace_back(layers, walk, (last & -last).bit_length() - 1)
    tried = 0
    states = None
    while first and states is None:
        start = first & -first
        first ^= start
        tried += 1
        layers = _ref_layers(start, walk)
        if layers is not None and layers[-1] & start:
            states = _ref_trace_back(layers, walk, start.bit_length() - 1)
    if tries is not None:
        tries.append((tried, states is not None))
    return states


NAMED = ("T1", "T2", "C3", "T3", "T1r", "T2r", "C3r", "T3r",
         "U4", "U5", "U6", "U4r", "U5r", "U6r")


def test_streamed_dp_matches_whole_walk_reference():
    rng = random.Random(2210)
    tries = []
    inner_starts = 0
    for trial in range(45):
        kinds = (("random",), ("directed",), ("anti",), ("directed", "anti", "random"))[trial % 4]
        g = _paths_and_cycles(rng, rng.choice((8, 24, 48)), 16, kinds)
        for is_cycle, order in _ref_component_orders(g):
            inner_starts += not is_cycle and min(order) not in (order[0], order[-1])
        for name in NAMED:
            h = build_named(name)
            for mode in (Mode.PLAIN, Mode.IOS, Mode.IOT):
                got = decide_poly(g, name, mode)
                want = _ref_walk_images(g, h, mode, tries)
                assert got.algorithm in ("degree2-dp", poly._LABELS.get((name, mode)))
                assert got.satisfiable == (want is not None), (trial, name, mode)
                if want is not None:
                    assert got.witness.map == tuple(want), (trial, name, mode)
    # the walk scan met paths whose lowest vertex lies inside them, cycles
    # that closed only from a later start state, and cycles whose every
    # start state was walked in vain
    assert inner_starts > 10
    assert sum(1 for tried, closed in tries if closed and tried > 1) > 10
    assert sum(1 for tried, closed in tries if not closed and tried > 1) > 10


def test_decide_matches_the_search_on_medium_random_graphs():
    # the decide route, decide_poly or else solve, answers every named
    # target family and a custom tournament as the search does, in every
    # mode, on 10 to 40 vertices: half paths and cycles, which the DP
    # takes, half sparse graphs that branch, a tenth of all reflexive
    rng = random.Random(2727)
    custom = TargetSpec.from_graph(OrientedGraph(5, [(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (2, 3),
                                                     (4, 0), (1, 4), (4, 2), (3, 4)]))
    specs = [TargetSpec.parse(name) for name in NAMED] + [custom]
    answers = collections.Counter()  # (routed by decide_poly, verdict)
    for trial in range(300):
        if trial % 2:
            g = _paths_and_cycles(rng, 40)
        else:
            n = rng.randint(10, 40)
            g = random_oriented_graph(n, rng, arc_chance=rng.uniform(1, 4) / n)
        if rng.random() < 0.1:
            g = OrientedGraph(g.n, g.arcs, reflexive=True)
        for spec in specs:
            h = spec.build()
            for mode in (Mode.PLAIN, Mode.IOS, Mode.IOT):
                want = solve(g, h, mode)
                got = decide_poly(g, spec, mode) or want
                answers[got is not want, want.satisfiable] += 1
                assert got.satisfiable == want.satisfiable, (trial, spec, mode)
                for res in (got, want):
                    if res.satisfiable:
                        assert check_hom(g, h, res.witness.map, mode), (trial, spec, mode, res.algorithm)
    # both routes met YES and NO instances in numbers
    assert len(answers) == 4 and min(answers.values()) > 250, answers


def _counting_walks(monkeypatch):
    """Count the moves the DP builds and the layer steps it takes through
    its mask tables."""
    built, steps = [], []
    walk_moves = poly._walk_moves

    def counted(*args):
        for moves in walk_moves(*args):
            built.extend(moves)
            yield moves

    class Counting(poly._MaskTable):
        def __getitem__(self, mask):
            steps.append(mask)
            return super().__getitem__(mask)

    monkeypatch.setattr(poly, "_walk_moves", counted)
    monkeypatch.setattr(poly, "_MaskTable", Counting)
    return built, steps


def test_early_no_builds_and_steps_a_bounded_prefix(monkeypatch):
    # a source with two out-neighbours cannot map ios-injectively into C3,
    # whose vertices have one out-neighbour each; a directed walk can
    n = 10**5
    built, steps = _counting_walks(monkeypatch)
    head = OrientedGraph(n, [(1, 0), (1, 2)] + [(i, i + 1) for i in range(2, n - 1)])
    loop = OrientedGraph(n, [(0, 1), (2, 1)] + [(i, (i + 1) % n) for i in range(2, n)])
    for g in (head, loop):
        built.clear()
        steps.clear()
        assert not decide_poly(g, "C3", Mode.IOS).satisfiable
        assert 0 < len(steps) <= len(built) <= 64  # of n - 2 or n moves
    # at the far end of the walk, the sink n-3 in front of the source
    # n-1 stops the walk only at its own move, the last but one
    tail = OrientedGraph(n, [(i, i + 1) for i in range(n - 3)] + [(n - 1, n - 2), (n - 1, n - 3)])
    built.clear()
    steps.clear()
    assert not decide_poly(tail, "C3", Mode.IOS).satisfiable
    assert (len(built), len(steps)) == (n - 2, n - 3)
