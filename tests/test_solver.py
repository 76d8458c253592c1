import collections
import itertools
import random

import pytest

from injhom import solver
from injhom.chromatic import enumerate_tournaments
from injhom.gadgets import apex_cycle, equalizer, in_star, selector_cycle
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
    random_oriented_graph,
    transitive_tournament,
)
from injhom.poly import decide_poly
from injhom.reductions import (
    SimpleGraph,
    bridged_cubic_graph,
    complete_bipartite,
    complete_graph,
    oracle_3col,
    oracle_3edge,
    prism_graph,
    reduce_3col_to_ios_c3r,
    reduce_3col_to_iot_c3r,
    reduce_3edge_to_t3r,
    reduce_3edge_to_u4,
    reduce_3edge_to_um,
    with_random_edge_order,
)
from injhom.solver import _Csp, _MaskTable, _neighbourhoods, _Target, check_hom, enumerate_homs, solve
from injhom.targets import TargetSpec, build_named, u_tournament

C3 = build_named("C3")
C3r = build_named("C3r")
T2r = build_named("T2r")
T3 = build_named("T3")
T3r = build_named("T3r")
U4 = build_named("U4")

MODES = (Mode.PLAIN, Mode.IOS, Mode.IOT)


def naive_homs(g, h, mode):
    out = []
    for f in itertools.product(range(h.n), repeat=g.n):
        if check_hom(g, h, f, mode):
            out.append(f)
    return out


def _ref_check_hom(g, h, f, mode):
    """check_hom as it was written with a set per vertex: the map's
    images on each protected neighbourhood, read from the neighbour lists."""
    f = tuple(f)
    if len(f) != g.n:
        raise ValueError(f"map covers {len(f)} vertices, graph has {g.n}")
    for a in f:
        if not (isinstance(a, int) and 0 <= a < h.n):
            raise ValueError(f"image {a!r} out of range for target on {h.n} vertices")
    if g.reflexive and not h.reflexive and g.n > 0:
        return False
    for u, v in g.arcs:
        a, b = f[u], f[v]
        if a == b:
            if not h.reflexive:
                return False
        elif (a, b) not in h.arcs:
            return False
    if mode is Mode.PLAIN:
        return True
    for x in range(g.n):
        ins = g.in_nbrs[x]
        outs = g.out_nbrs[x]
        if g.reflexive:
            ins = ins + (x,)
            outs = outs + (x,)
        if mode is Mode.IOS:
            if len({f[u] for u in ins}) != len(ins):
                return False
            if len({f[w] for w in outs}) != len(outs):
                return False
        else:
            nbhd = set(ins) | set(outs)
            if len({f[y] for y in nbhd}) != len(nbhd):
                return False
    return True


def _protected_pairs(g, mode):
    """The unordered vertex pairs inside one of the neighbourhoods the
    solver protects."""
    return sorted({(a, b) if a < b else (b, a)
                   for members in _neighbourhoods(g, mode)
                   for a, b in itertools.combinations(members, 2)})


def _ref_protected_pairs(g, mode):
    """The protected pairs from each vertex's neighbour lists, as they
    were derived before the solver kept each pair's common heads and
    tails."""
    pairs = set()
    if mode is Mode.PLAIN:
        return []
    for x in range(g.n):
        ins = list(g.in_nbrs[x])
        outs = list(g.out_nbrs[x])
        if g.reflexive:
            ins.append(x)
            outs.append(x)
        groups = (ins, outs) if mode is Mode.IOS else (sorted(set(ins) | set(outs)),)
        for group in groups:
            for a, b in itertools.combinations(group, 2):
                if a != b:
                    pairs.add((a, b) if a < b else (b, a))
    return sorted(pairs)


def _ref_graph_side(g, mode):
    """diff_adj and constraint_nbrs from the sorted pairs."""
    diff_adj = [[] for _ in range(g.n)]
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.arcs:
        nbrs[u].add(v)
        nbrs[v].add(u)
    for a, b in _ref_protected_pairs(g, mode):
        diff_adj[a].append(b)
        diff_adj[b].append(a)
        nbrs[a].add(b)
        nbrs[b].add(a)
    return diff_adj, [sorted(s) for s in nbrs]


def _ref_nbhds_at(g, mode):
    """At each vertex, the protected neighbourhoods of two or more
    vertices it lies in, as (centre, sorted members), in the order of
    their centres, in before out."""
    nbhds_at = [[] for _ in range(g.n)]
    if mode is Mode.PLAIN:
        return nbhds_at
    for x in range(g.n):
        ins = set(g.in_nbrs[x])
        outs = set(g.out_nbrs[x])
        if g.reflexive:
            ins.add(x)
            outs.add(x)
        for group in (ins, outs) if mode is Mode.IOS else (ins | outs,):
            if len(group) > 1:
                for w in group:
                    nbhds_at[w].append((x, tuple(sorted(group))))
    return nbhds_at


def _ref_others_at(g, mode):
    """_ref_nbhds_at with each neighbourhood stored without the vertex it
    is stored at: (centre, the other members, sorted)."""
    return [[(x, tuple(w for w in group if w != v)) for x, group in entries]
            for v, entries in enumerate(_ref_nbhds_at(g, mode))]


def _sorted_nbhds_at(csp):
    return [[tuple(sorted(others)) for others in entries] for entries in csp.nbhds_at]


def test_graph_side_matches_per_pair_derivation():
    rng = random.Random(1212)
    for trial in range(1000):
        g = random_oriented_graph(rng.randint(1, 12), rng, arc_chance=rng.random())
        if rng.random() < 0.3:
            g = OrientedGraph(g.n, g.arcs, reflexive=True)
        for mode in MODES:
            assert _protected_pairs(g, mode) == _ref_protected_pairs(g, mode), (trial, mode)
            csp = _Csp(g, C3r, mode)
            # the search asks of a constraint-neighbour list only which
            # vertices it holds
            assert list(map(set, csp.constraint_nbrs)) == list(map(set, _ref_graph_side(g, mode)[1])), (trial, mode)
            others_at = _ref_others_at(g, mode)
            # the naked-pair rule walks the neighbourhoods of three or more
            # members, the singleton rule the partners of all of them
            assert _sorted_nbhds_at(csp) == [[o for _, o in e if len(o) > 1] for e in others_at], (trial, mode)
            assert [sorted(p) for p in csp.partners] == [sorted(w for _, o in e for w in o) for e in others_at], (trial, mode)


def _shuffled_and_doubled(csp, rng):
    """csp with every list it reads, its graph's neighbour lists
    included, shuffled and holding each entry twice."""
    def mixed(items):
        items = [*items, *items]
        rng.shuffle(items)
        return items

    g = csp.g
    csp.g = OrientedGraph._checked(g.n, g.arcs, g.reflexive)
    csp.g.__dict__.update(out_nbrs=list(map(mixed, g.out_nbrs)), in_nbrs=list(map(mixed, g.in_nbrs)))
    csp.constraint_nbrs = list(map(mixed, csp.constraint_nbrs))
    csp.partners = list(map(mixed, csp.partners))
    csp.nbhds_at = [mixed(map(mixed, entries)) for entries in csp.nbhds_at]
    return csp


class _OutOfNodes(Exception):
    pass


def _first_maps(csp, limit=20, most_nodes=2_000):
    """The first limit maps csp enumerates, and the nodes taken.  An
    enumeration does not split, so it can take exponential time on an
    input without a solution; past most_nodes nodes it stops there."""
    propagate = csp._propagate

    def bounded(*args):
        if csp.nodes > most_nodes:
            raise _OutOfNodes
        return propagate(*args)

    csp._propagate = bounded
    maps = []
    try:
        for f in csp.solutions():
            maps.append(f)
            if len(maps) == limit:
                break
    except _OutOfNodes:
        pass
    return maps, csp.nodes


def test_answers_do_not_depend_on_the_order_or_repeats_of_the_lists():
    # propagation runs to a fixpoint and the frontier and the split read
    # their lists as sets of vertices, so no verdict, node count, witness
    # or enumerated map moves when every list is shuffled and doubled
    rng = random.Random(3232)
    targets = [build_named(name) for name in ("C3r", "T3r", "U4", "U5r", "U6")]
    verdicts = collections.Counter()
    for trial in range(150):
        n = rng.randint(8, 60)
        g = random_oriented_graph(n, rng, arc_chance=rng.uniform(0.5, 2) / n)
        if rng.random() < 0.1:
            g = OrientedGraph(g.n, g.arcs, reflexive=True)
        for h in targets:
            for mode in MODES:
                want = solve(g, h, mode)
                csp = _shuffled_and_doubled(_Csp(g, h, mode), rng)
                first = next(csp.solutions(first_only=True), None)
                case = (trial, g, h, mode)
                assert first == (want.witness.map if want.satisfiable else None), case
                assert csp.nodes == want.nodes_explored, case
                # enumerate_homs is _Csp(g, h, mode).solutions()
                got = _first_maps(_shuffled_and_doubled(_Csp(g, h, mode), rng))
                assert got == _first_maps(_Csp(g, h, mode)), case
                verdicts[mode, want.satisfiable, want.nodes_explored > 0] += 1
    # YES and NO each came after a search under ios and iot
    assert min(verdicts[mode, sat, True] for mode in MODES[1:] for sat in (True, False)) >= 5, verdicts


def _propagated(g, h, mode, dom, changed):
    """dom after propagation from the vertices changed, or None on a
    wipeout."""
    dom = list(dom)
    ok = _Csp(g, h, mode)._propagate(dom, list(changed), [])
    return dom if ok else None


def test_naked_pair_takes_both_values_from_the_third_member():
    # three tails into one head: with two tails on {0, 1}, the third tail
    # can only take 2, which the arc rules alone do not see
    g = in_star().graph
    start = [0b111, 0b011, 0b011, 0b111]
    dom = _propagated(g, T3r, Mode.IOS, start, [1, 2])
    assert dom is not None and dom[3] == 0b100
    assert _propagated(g, T3r, Mode.PLAIN, start, [1, 2])[3] == 0b111
    # the same two values on all three tails: no room for the third
    assert _propagated(g, T3r, Mode.IOS, [0b111, 0b011, 0b011, 0b011], [1, 2, 3]) is None
    # a two-valued domain alone, or two different ones, force no more
    # than the arc rules do
    for start in ([0b111, 0b011, 0b111, 0b111], [0b111, 0b011, 0b110, 0b111]):
        assert _propagated(g, T3r, Mode.IOS, start, [1, 2]) == _propagated(g, T3r, Mode.PLAIN, start, [1, 2])


def test_groups_are_the_protected_neighbourhoods():
    # 1 -> 0 -> 2, 0 -> 3: under iot 0's neighbourhood is {1, 2, 3};
    # under ios only its out-neighbourhood has two members
    g = OrientedGraph(4, [(1, 0), (0, 2), (0, 3)])
    # each member of a neighbourhood of three holds the other two
    csp = _Csp(g, T3r, Mode.IOT)
    assert _sorted_nbhds_at(csp) == [[], [(2, 3)], [(1, 3)], [(1, 2)]]
    assert csp.partners == [[], [2, 3], [1, 3], [1, 2]]
    # a neighbourhood of two reaches only the partners
    csp = _Csp(g, T3r, Mode.IOS)
    assert csp.nbhds_at == [[]] * 4
    assert csp.partners == [[], [], [3], [2]]
    # under loops a vertex is in its own neighbourhoods, and a partner that
    # shares two neighbourhoods with it appears twice
    g = OrientedGraph(3, [(1, 0), (2, 0)], reflexive=True)
    csp = _Csp(g, T3r, Mode.IOS)
    assert _sorted_nbhds_at(csp) == [[(1, 2)], [(0, 2)], [(0, 1)]]
    assert csp.partners == [[1, 2, 1, 2], [2, 0, 0], [1, 0, 0]]
    # plain mode protects nothing
    csp = _Csp(in_star().graph, T3r, Mode.PLAIN)
    assert csp.nbhds_at == csp.partners == [[]] * 4


def test_check_hom_constant_onto_reflexive():
    g = directed_cycle(3)
    assert check_hom(g, C3r, (0, 0, 0), Mode.IOS)


def test_check_hom_hat_collision():
    # both hat ends into one image: fails ios on the centre's in-pair
    assert not check_hom(hat(), T2r, (0, 1, 0), Mode.IOS)
    assert check_hom(hat(), T2r, (0, 1, 1), Mode.IOS)


def test_check_hom_arc_preservation():
    g = directed_path(2)
    assert not check_hom(g, T3, (2, 0), Mode.PLAIN)
    assert check_hom(g, T3, (0, 2), Mode.PLAIN)


def test_check_hom_rejects_bad_shape():
    with pytest.raises(ValueError):
        check_hom(directed_path(2), T3, (0,), Mode.PLAIN)
    with pytest.raises(ValueError):
        check_hom(directed_path(2), T3, (0, 9), Mode.PLAIN)


def test_check_hom_rejects_non_integer_images():
    T1r = build_named("T1r")
    with pytest.raises(ValueError):
        check_hom(edgeless(1), T3, (0.5,))
    with pytest.raises(ValueError):
        check_hom(directed_path(2), T1r, (0.5, 0.5), Mode.IOS)
    with pytest.raises(ValueError):
        check_hom(edgeless(1), T3, ("1",))


def test_check_hom_reflexive_input_needs_reflexive_target():
    g = OrientedGraph(2, [(0, 1)], reflexive=True)
    assert not check_hom(g, T3, (0, 1), Mode.PLAIN)
    assert check_hom(g, T3r, (0, 1), Mode.PLAIN)


def test_check_hom_reads_its_mode_through_mode_parse():
    # a string mode used to be read as iot, so "plain" refused a plain map
    g, h = directed_path(3), build_named("C3r")
    assert check_hom(g, h, (0, 0, 0), "plain") and check_hom(g, h, (0, 0, 0), "IOS")
    assert not check_hom(g, h, (0, 0, 0), "iot")
    with pytest.raises(ValueError, match="unknown mode"):
        check_hom(g, h, (0, 0, 0), "bogus")


def test_solve_reads_its_mode_through_mode_parse():
    # a string mode, "bogus" included, used to be read as ios: "iot"
    # found (0, 0, 0), a map iot refuses
    g, h = directed_path(3), build_named("C3r")
    for text, mode in (("iot", Mode.IOT), ("Plain", Mode.PLAIN), ("IOS", Mode.IOS)):
        assert solve(g, h, text) == solve(g, h, mode)
    res = solve(g, h, "iot")
    assert res.witness.mode is Mode.IOT and check_hom(g, h, res.witness.map, Mode.IOT)
    with pytest.raises(ValueError, match="unknown mode"):
        solve(g, h, "bogus")


def test_enumerate_homs_reads_its_mode_through_mode_parse():
    # a string mode, "bogus" included, used to be read as ios: "iot"
    # yielded 12 maps instead of 9
    g, h = directed_path(3), build_named("C3r")
    for text, mode in (("iot", Mode.IOT), ("Plain", Mode.PLAIN), ("IOS", Mode.IOS)):
        assert list(enumerate_homs(g, h, text)) == list(enumerate_homs(g, h, mode))
    assert len(list(enumerate_homs(g, h, "iot"))) == 9
    with pytest.raises(ValueError, match="unknown mode"):
        next(enumerate_homs(g, h, "bogus"))


def test_check_hom_matches_per_vertex_check():
    # the arc-pair test against the per-vertex sets; both verdicts occur
    # in every mode, on reflexive and irreflexive inputs
    rng = random.Random(1616)
    targets = [build_named(name + r) for name in ("T1", "T2", "T3", "C3", "U4", "U5") for r in ("", "r")]
    verdicts = set()
    for trial in range(2000):
        g = random_oriented_graph(rng.randint(0, 7), rng, arc_chance=rng.random())
        if rng.random() < 0.2:
            g = OrientedGraph(g.n, g.arcs, reflexive=True)
        h = targets[trial % len(targets)]
        f = [rng.randrange(h.n) for _ in range(g.n)]
        for mode in MODES:
            got = check_hom(g, h, f, mode)
            assert got == _ref_check_hom(g, h, f, mode), (trial, g, h, f, mode)
            verdicts.add((mode, g.reflexive, got))
        # a short map, and one with an image out of range
        for wrong in (f[:-1], f[:-1] + [h.n]) if g.n else ([0],):
            for check in (check_hom, _ref_check_hom):
                with pytest.raises(ValueError):
                    check(g, h, wrong, mode)
    assert len(verdicts) == 12, verdicts


def test_check_hom_builds_no_neighbour_lists():
    # the checker reads the arc set alone, so a witness is checked
    # independently of the neighbour lists the graph and the solver derive
    g = directed_cycle(9)
    assert check_hom(g, C3, [i % 3 for i in range(9)], Mode.IOT)
    assert "_directed_nbrs" not in g.__dict__
    assert "underlying_nbrs" not in g.__dict__


def test_protected_pairs_hat_iot():
    g = hat()
    assert (0, 2) in _protected_pairs(g, Mode.IOS)
    assert (0, 2) in _protected_pairs(g, Mode.IOT)
    assert _protected_pairs(g, Mode.PLAIN) == []


def test_protected_pairs_iot_unions():
    g = OrientedGraph(3, [(0, 1), (1, 2)])  # directed path through 1
    assert (0, 2) in _protected_pairs(g, Mode.IOT)
    assert (0, 2) not in _protected_pairs(g, Mode.IOS)


def test_solver_matches_naive_exhaustive_small():
    targets = (C3, C3r, T2r, T3, T3r)
    for g in all_oriented_graphs(3):
        for h in targets:
            for mode in MODES:
                want = sorted(naive_homs(g, h, mode))
                got = sorted(enumerate_homs(g, h, mode))
                assert got == want, (g, h, mode)


def test_solver_matches_naive_random_larger():
    rng = random.Random(42)
    targets = (C3r, T3r, U4)
    for _ in range(60):
        g = random_oriented_graph(5, rng)
        h = targets[rng.randrange(len(targets))]
        mode = MODES[rng.randrange(3)]
        want = sorted(naive_homs(g, h, mode))
        got = sorted(enumerate_homs(g, h, mode))
        assert got == want


def test_decision_matches_naive_exhaustive():
    # the decision route (solve) has its own search
    targets = (C3, C3r, T2r, T3, T3r)
    for n in range(5):
        for g in all_oriented_graphs(n):
            for h in targets:
                for mode in MODES:
                    res = solve(g, h, mode)
                    assert res.satisfiable == bool(naive_homs(g, h, mode)), (g, h, mode)
                    if res.satisfiable:
                        assert check_hom(g, h, res.witness.map, mode), (g, h, mode)
    # up to 3 vertices, more targets (a reflexive transitive triangle
    # labelled apart from T3r among them), reflexive inputs, and
    # decide_poly and enumerate_homs against the same naive maps
    specs = [TargetSpec.parse(name) for name in ("C3", "C3r", "T2r", "T3", "T3r", "T1", "T2", "T1r", "U4")]
    specs.append(TargetSpec.from_graph(OrientedGraph(3, [(1, 0), (1, 2), (0, 2)], reflexive=True)))
    graphs = [g for n in range(4) for g in all_oriented_graphs(n)]
    graphs += [OrientedGraph(g.n, g.arcs, reflexive=True) for g in graphs if g.n <= 2]
    for g in graphs:
        for spec in specs:
            h = spec.build()
            for mode in MODES:
                naive = naive_homs(g, h, mode)
                res = solve(g, h, mode)
                assert res.satisfiable == bool(naive), (g, spec, mode)
                if res.satisfiable:
                    assert res.witness.map in naive, (g, spec, mode)
                got = decide_poly(g, spec, mode)
                if got is not None:
                    assert got.satisfiable == bool(naive), (g, spec, mode)
                    if got.satisfiable:
                        assert got.witness.map in naive, (g, spec, mode)
                homs = list(enumerate_homs(g, h, mode))
                assert len(homs) == len(set(homs)) and set(homs) == set(naive), (g, spec, mode)


SMALL_TARGETS = tuple(build_named(name) for name in ("T1", "T2", "T3", "C3", "T1r", "T2r", "C3r", "T3r", "U4"))


def test_decision_and_enumeration_match_naive_on_four_to_six_vertices():
    # enumeration is checked exhaustively above up to three vertices only,
    # where no vertex has three neighbours; here the degree filter removes
    # values and the rules run from the filtered domains
    rng = random.Random(71)
    filtered = 0
    for _ in range(120):
        g = random_oriented_graph(rng.randint(4, 6), rng, arc_chance=rng.choice((0.4, 0.6, 0.8)))
        if rng.random() < 0.3:
            g = OrientedGraph(g.n, g.arcs, reflexive=True)
        for h in SMALL_TARGETS:
            plain = [f for f in itertools.product(range(h.n), repeat=g.n) if check_hom(g, h, f)]
            for mode in MODES:
                naive = {f for f in plain if check_hom(g, h, f, mode)}
                filtered += min(_Csp(g, h, mode).start) < (1 << h.n) - 1
                res = solve(g, h, mode)
                assert res.satisfiable == bool(naive), (g, h, mode)
                if res.satisfiable:
                    assert res.witness.map in naive, (g, h, mode)
                homs = list(enumerate_homs(g, h, mode))
                assert len(homs) == len(set(homs)) and set(homs) == naive, (g, h, mode)
    assert filtered > 0


def star(ins, outs, reflexive=False):
    """Vertex 0 with ins in-neighbours and outs out-neighbours."""
    arcs = [(x, 0) for x in range(1, ins + 1)] + [(0, x) for x in range(ins + 1, ins + outs + 1)]
    return OrientedGraph(1 + ins + outs, arcs, reflexive)


def test_room_table_is_exact_on_stars():
    # a star's leaves constrain nothing but the centre's neighbourhoods, so
    # its centre may take exactly the values with room for them
    degrees = [(i, o) for i in range(4) for o in range(4) if i + o <= 3] + [(2, 2)]
    for h in SMALL_TARGETS:
        for loops in (False, True) if h.reflexive else (False,):
            for mode in (Mode.IOS, Mode.IOT):
                room = _Target(h)
                for i, o in degrees:
                    g = star(i, o, loops)
                    want = 0
                    for f in itertools.product(range(h.n), repeat=g.n):
                        if check_hom(g, h, f, mode):
                            want |= 1 << f[0]
                    assert room[mode is Mode.IOT, int(loops), i, o] == want, (h, loops, mode, i, o)


def test_degree_filter_refutes_at_the_root():
    # three in-neighbours need three in-neighbours of the image, and each
    # value of C3r has two, its loop counted
    g = star(3, 0)
    assert solve(g, C3r, Mode.PLAIN).satisfiable
    for mode in (Mode.IOS, Mode.IOT):
        res = solve(g, C3r, mode)
        assert not res.satisfiable and res.nodes_explored == 0, mode
    # under iot the whole neighbourhood counts: two in- and two
    # out-neighbours need four values, and C3r's closed neighbourhoods
    # hold three
    g = star(2, 2)
    assert solve(g, C3r, Mode.IOS).satisfiable
    res = solve(g, C3r, Mode.IOT)
    assert not res.satisfiable and res.nodes_explored == 0


def test_k4_t3r_star_centres_start_on_one_value():
    # in T3r only value 2 has three in-neighbours and only value 0 three
    # out-neighbours, loops counted; root propagation alone leaves every
    # domain of this instance whole
    for mode in (Mode.IOS, Mode.IOT):
        g = reduce_3edge_to_t3r(complete_graph(4), mode).graph
        start = _Csp(g, T3r, mode).start
        into = [v for v in range(g.n) if len(g.in_nbrs[v]) == 3]
        out_of = [v for v in range(g.n) if len(g.out_nbrs[v]) == 3]
        assert into and out_of
        assert all(start[v] == 0b100 for v in into), mode
        assert all(start[v] == 0b001 for v in out_of), mode
    assert _Csp(g, T3r, Mode.PLAIN).start == [0b111] * g.n


def test_c3r_colouring_instances_start_on_the_whole_target():
    # each value of C3r has room for two in-, two out- and three neighbours
    # in all, loops counted, and no vertex of these instances needs more
    src = random_cubic(24, 3)
    for reduce, mode in ((reduce_3col_to_ios_c3r, Mode.IOS), (reduce_3col_to_iot_c3r, Mode.IOT)):
        g = reduce(src).graph
        assert _Csp(g, C3r, mode).start == [0b111] * g.n


def glued_at_cut_vertex(a, b):
    """a and b with b's vertex 0 identified with a's vertex a.n - 1."""
    shift = a.n - 1
    arcs = list(a.arcs) + [(u + shift, v + shift) for u, v in b.arcs]
    return OrientedGraph(a.n + b.n - 1, arcs)


class SplitCounter(_Csp):
    splits = 0

    def _split(self, dom, seeds):
        parts = super()._split(dom, seeds)
        SplitCounter.splits += bool(parts)
        return parts


def test_decision_on_split_inputs_matches_naive():
    # disjoint unions and two graphs glued at a cut vertex: inputs whose
    # undecided vertices fall apart into parts during the search
    check_split_inputs_against_naive()


def check_split_inputs_against_naive():
    rng = random.Random(51)
    SplitCounter.splits = 0
    for _ in range(40):
        h = (T3r, U4)[rng.randrange(2)]
        n = rng.randint(6, 9 if h is T3r else 7)
        k = rng.randint(3, n - 2)
        a = random_oriented_graph(k, rng, arc_chance=0.5)
        if rng.random() < 0.5:
            g = disjoint_union(a, random_oriented_graph(n - k, rng, arc_chance=0.5))
        else:
            g = glued_at_cut_vertex(a, random_oriented_graph(n - k + 1, rng, arc_chance=0.5))
        for mode in MODES:
            csp = SplitCounter(g, h, mode)
            first = next(csp.solutions(first_only=True), None)
            want = any(check_hom(g, h, f, mode) for f in itertools.product(range(h.n), repeat=g.n))
            assert (first is not None) == want, (g, h, mode)
            if first is not None:
                assert check_hom(g, h, first, mode), (g, h, mode)
    assert SplitCounter.splits > 0


def test_failed_part_fails_the_decision_that_split_it_off():
    # 0 -> 0 holds, and deciding 3 -> 0 then splits off the part {2, 5, 6}
    # from the rest {4}.  That part has no solution: it must fail back to
    # vertex 3's decision, not to the root, and 3 -> 1 answers YES
    g = OrientedGraph(7, [(0, 3), (2, 0), (2, 6), (4, 3), (5, 2), (5, 6)])
    h = build_named("U4r")
    SplitCounter.splits = 0
    first = next(SplitCounter(g, h, Mode.IOT).solutions(first_only=True), None)
    assert SplitCounter.splits > 0
    assert first is not None and first[0] == 0 and first[3] == 1
    assert check_hom(g, h, first, Mode.IOT)
    # vertex 2's three in-neighbours need distinct images, which only
    # 0 -> 2 allows: propagation wipes out 0 -> 0 and 0 -> 1 at once.  The
    # in-neighbours must differ pairwise, so the splits after 2 and 3 are
    # decided find them in one region and split off no part
    g = OrientedGraph(6, [(0, 1), (2, 0), (3, 2), (4, 2), (5, 2)])
    res = solve(g, T3r, Mode.IOS)
    assert res.satisfiable and res.witness.map[0] == 2
    assert check_hom(g, T3r, res.witness.map, Mode.IOS)


def test_the_rest_of_a_split_is_searched_and_fails_back():
    # YES instances on which a search that left the rest of a split off
    # the agenda answered NO.  On the first, deciding 1 splits off
    # {2, ..., 9, 11, 12}, which fails back past the solved rest {10}
    # several times, and a later decision splits off {9}, which holds the
    # branch vertex, from a rest that must still be searched.
    cases = [
        (13, [(0, 1), (0, 2), (0, 6), (1, 10), (3, 1), (3, 6), (3, 8), (3, 11), (3, 12), (4, 3),
              (5, 1), (7, 4), (7, 5), (9, 7), (11, 5)], "U5r"),
        (20, [(0, 1), (0, 3), (1, 5), (1, 6), (2, 0), (2, 13), (4, 3), (6, 14), (7, 6), (7, 9),
              (7, 17), (8, 3), (9, 12), (10, 5), (11, 10), (11, 12), (11, 18), (12, 1), (12, 10),
              (14, 15), (15, 6), (16, 7), (18, 14), (19, 5)], "U4r"),
    ]
    for n, arcs, name in cases:
        g = OrientedGraph(n, arcs)
        h = build_named(name)
        res = solve(g, h, Mode.IOS)
        assert res.satisfiable and check_hom(g, h, res.witness.map, Mode.IOS), name


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return SimpleGraph(10, outer + spokes + inner)


def test_t3r_hardness_instances_decided_by_parts():
    # the equalizers between vertex gadgets are independent once their
    # ports are decided; a NO search fails them alone instead of retrying
    # every combination of unrelated interiors, which takes a chronological
    # search over a minute on Petersen and 68,636 nodes on bridged ios
    for mode in (Mode.IOS, Mode.IOT):
        inst = reduce_3edge_to_t3r(petersen(), mode)
        res = solve(inst.graph, T3r, mode)
        assert not res.satisfiable and res.nodes_explored < 20_000, (mode, res.nodes_explored)
    res = solve(reduce_3edge_to_t3r(bridged_cubic_graph()).graph, T3r, Mode.IOS)
    assert not res.satisfiable and res.nodes_explored < 5_000, res.nodes_explored
    # inputs that never split keep the chronological search's counts
    assert solve(reduce_3edge_to_t3r(complete_graph(4)).graph, T3r, Mode.IOS).nodes_explored == 39
    assert solve(reduce_3edge_to_t3r(complete_bipartite(3, 3)).graph, T3r, Mode.IOS).nodes_explored == 58


# the nodes each paper graph's instances take today: ios C3r, iot C3r,
# ios T3r, iot T3r, U4 and U6
PAPER_GRAPH_NODES = {
    "K4": (33, 159, 39, 27, 2, 6),
    "K33": (18, 12, 58, 40, 3, 9),
    "prism": (28, 33, 57, 39, 2, 8),
    "bridged": (36, 26, 10, 10, 3, 4),
    "Petersen": (48, 68, 22, 22, 7, 8),
}


def test_paper_graph_instances_take_no_more_nodes():
    # a ratchet: a change to propagation or search may lower these counts,
    # never raise them, and every verdict is the source problem's
    graphs = {"K4": complete_graph(4), "K33": complete_bipartite(3, 3), "prism": prism_graph(),
              "bridged": bridged_cubic_graph(), "Petersen": petersen()}
    for name, src in graphs.items():
        colourable, edge_colourable = oracle_3col(src), oracle_3edge(src)
        cases = (
            (reduce_3col_to_ios_c3r(src), colourable),
            (reduce_3col_to_iot_c3r(src), colourable),
            (reduce_3edge_to_t3r(src, Mode.IOS), edge_colourable),
            (reduce_3edge_to_t3r(src, Mode.IOT), edge_colourable),
            (reduce_3edge_to_u4(src), edge_colourable),
            (reduce_3edge_to_um(src, 6), edge_colourable),
        )
        assert_no_more_nodes(cases, PAPER_GRAPH_NODES[name], name)


def assert_no_more_nodes(cases, counts, *tag):
    """Each (instance, verdict of its source) in cases gets that verdict,
    a witness that checks, and no more nodes than its count."""
    for (inst, want), most in zip(cases, counts):
        h = build_named(inst.target)
        res = solve(inst.graph, h, inst.mode)
        case = (*tag, inst.target, inst.mode, res.nodes_explored)
        assert res.satisfiable == want, case
        assert res.nodes_explored <= most, case
        if want:
            assert check_hom(inst.graph, h, res.witness.map, inst.mode), case


# the nodes of each paper graph's ios C3r, iot C3r, U4 and U6 instances
# under three seeded incident-edge orders, then three seeded vertex
# relabellings, as the benchmark draws its relabelled sources
RELABELLED_GRAPH_NODES = {
    "K4": ((33, 159, 2, 6),) * 6,
    "K33": ((18, 12, 3, 9),) * 6,
    "prism": ((28, 33, 2, 8),) * 3 + ((28, 30, 2, 8), (22, 18, 2, 8), (28, 30, 2, 8)),
    "bridged": ((36, 26, 3, 4),) * 3 + ((34, 26, 3, 4), (35, 29, 1, 2), (36, 26, 3, 4)),
}


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return SimpleGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def test_relabelled_paper_graph_instances_take_no_more_nodes():
    # the ratchet above on other labellings of the sources; no incident
    # order seen so far moves a count, a vertex relabelling moves several
    rng = random.Random(3201)
    graphs = {"K4": complete_graph(4), "K33": complete_bipartite(3, 3), "prism": prism_graph(),
              "bridged": bridged_cubic_graph()}
    for name, src in graphs.items():
        colourable, edge_colourable = oracle_3col(src), oracle_3edge(src)
        relabellings = [with_random_edge_order] * 3 + [_relabelled] * 3
        for order, (relabel, counts) in enumerate(zip(relabellings, RELABELLED_GRAPH_NODES[name])):
            g = relabel(src, rng)
            cases = (
                (reduce_3col_to_ios_c3r(g), colourable),
                (reduce_3col_to_iot_c3r(g), colourable),
                (reduce_3edge_to_u4(g), edge_colourable),
                (reduce_3edge_to_um(g, 6), edge_colourable),
            )
            assert_no_more_nodes(cases, counts, name, order)


def test_c3r_colouring_instance_decided_by_parts():
    # 230 nodes; a search that never splits takes 17,406 on this instance
    inst = reduce_3col_to_iot_c3r(random_cubic(24, 3))
    res = solve(inst.graph, C3r, Mode.IOT)
    assert res.satisfiable and res.nodes_explored < 1_000, res.nodes_explored
    assert check_hom(inst.graph, C3r, res.witness.map, Mode.IOT)


def random_cubic(n, seed):
    """A connected cubic graph on n vertices from the configuration model:
    3n stubs shuffled by one generator and paired in order, the whole draw
    repeated on a loop, a repeated edge or a disconnected graph."""
    rng = random.Random(seed)
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = set()
        for u, v in zip(stubs[::2], stubs[1::2]):
            edge = (min(u, v), max(u, v))
            if u == v or edge in edges:
                break
            edges.add(edge)
        else:
            g = SimpleGraph(n, edges)
            if g.is_connected():
                return g


def test_t3r_random_cubic_instances_stay_off_the_heavy_tail():
    # 2,440-vertex instances; without the naked-pair rule seed 6 ios took
    # 114,427 nodes and several iot runs over 10 s
    for seed in (5, 6):
        src = random_cubic(40, seed)
        for mode in (Mode.IOS, Mode.IOT):
            inst = reduce_3edge_to_t3r(src, mode)
            res = solve(inst.graph, T3r, mode)
            assert res.satisfiable and res.nodes_explored < 2_000, (seed, mode, res.nodes_explored)
            assert_decodes_to_edge_colouring(src, inst, res.witness.map, mode)


def test_t3r_random_cubic_instances_at_a_hundred_source_vertices():
    # 6,100-vertex instances; without the degree filter seeds 3 and 4 took
    # 20,660 and 22,183 ios nodes
    for seed in (3, 4):
        src = random_cubic(100, seed)
        for mode in (Mode.IOS, Mode.IOT):
            inst = reduce_3edge_to_t3r(src, mode)
            res = solve(inst.graph, T3r, mode)
            assert res.satisfiable and res.nodes_explored < 3_000, (seed, mode, res.nodes_explored)
            assert_decodes_to_edge_colouring(src, inst, res.witness.map, mode)


def assert_decodes_to_edge_colouring(src, inst, f, mode):
    """f is a witness on the T3r instance of src, and its leaves give a
    proper 3-edge-colouring of src."""
    assert check_hom(inst.graph, T3r, f, mode)
    # each leaf's image is the colour of its edge; both ends agree
    colour = {}
    for x, y in src.edges:
        ends = {f[inst.vertex_roles(v)[f"leaf{src.edge_index(v, (x, y))}"]] for v in (x, y)}
        assert len(ends) == 1, (mode, (x, y))
        colour[(x, y)] = ends.pop()
    for v in range(src.n):
        assert len({c for e, c in colour.items() if v in e}) == 3, (mode, v)


def test_two_vertex_targets_take_at_most_two_nodes_per_vertex():
    # against a target of at most two vertices a part without a solution
    # means the input has none, so no decision that propagated cleanly is
    # retried: the search decides 2-SAT in at most two nodes per vertex
    rng = random.Random(53)
    targets = (build_named("T2"), T2r, build_named("T1r"))
    for _ in range(400):
        n = rng.randint(1, 12)
        g = random_oriented_graph(n, rng, arc_chance=rng.choice((0.15, 0.25, 0.4)))
        if rng.random() < 0.15:
            g = OrientedGraph(g.n, g.arcs, reflexive=True)
        h = targets[rng.randrange(len(targets))]
        pins = {rng.randrange(n): rng.randrange(h.n)} if rng.random() < 0.25 else None
        for mode in MODES:
            want = next(_Csp(g, h, mode, pins).solutions(), None) is not None
            res = solve(g, h, mode, pins=pins)
            assert res.satisfiable == want, (g, h, mode, pins)
            assert res.nodes_explored <= 2 * g.n, (g, h, mode, pins, res.nodes_explored)
            if res.satisfiable:
                assert check_hom(g, h, res.witness.map, mode), (g, h, mode, pins)
                assert all(res.witness.map[v] == a for v, a in (pins or {}).items())


def test_witnesses_always_check():
    rng = random.Random(43)
    for _ in range(40):
        g = random_oriented_graph(5, rng)
        res = solve(g, C3r, Mode.IOS)
        if res.satisfiable:
            assert check_hom(g, C3r, res.witness.map, Mode.IOS)


def test_mode_monotonicity():
    # iot-injective implies ios-injective implies plain
    rng = random.Random(44)
    for _ in range(60):
        g = random_oriented_graph(5, rng)
        plain = solve(g, C3r, Mode.PLAIN).satisfiable
        ios = solve(g, C3r, Mode.IOS).satisfiable
        iot = solve(g, C3r, Mode.IOT).satisfiable
        assert (not iot or ios) and (not ios or plain)


def test_ios_equals_iot_on_irreflexive_targets():
    rng = random.Random(45)
    for _ in range(40):
        g = random_oriented_graph(4, rng)
        for h in (C3, T3, U4):
            a = sorted(enumerate_homs(g, h, Mode.IOS))
            b = sorted(enumerate_homs(g, h, Mode.IOT))
            assert a == b


def test_converse_symmetry():
    rng = random.Random(46)
    for _ in range(40):
        g = random_oriented_graph(5, rng)
        for h in (C3r, T3r):
            for mode in (Mode.IOS, Mode.IOT):
                a = solve(g, h, mode).satisfiable
                b = solve(converse(g), converse(h), mode).satisfiable
                assert a == b


def test_composition_closure_through_reflexive_mid():
    # g -> mid and mid -> h (mid reflexive, treated as an input with closed
    # neighbourhoods) compose to g -> h
    rng = random.Random(47)
    mid = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)], reflexive=True)
    h = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)], reflexive=True)
    for _ in range(30):
        g = random_oriented_graph(4, rng)
        for mode in (Mode.IOS, Mode.IOT):
            f1 = solve(g, mid, mode)
            f2 = solve(mid, h, mode)
            if f1.satisfiable and f2.satisfiable:
                composed = tuple(f2.witness.map[x] for x in f1.witness.map)
                assert check_hom(g, h, composed, mode)


def test_pins_respected():
    g = directed_cycle(3)
    for pin in range(3):
        res = solve(g, C3r, Mode.IOS, pins={0: pin})
        assert res.satisfiable and res.witness.map[0] == pin


def test_pin_validation():
    g = directed_cycle(3)
    with pytest.raises(ValueError):
        solve(g, C3r, Mode.IOS, pins={9: 0})
    with pytest.raises(ValueError):
        solve(g, C3r, Mode.IOS, pins={0: 7})


def test_enumerate_limit_and_count():
    g = edgeless(2)
    full = list(enumerate_homs(g, T3, Mode.PLAIN))
    assert len(full) == 9
    assert len(list(enumerate_homs(g, T3, Mode.PLAIN, limit=4))) == 4


def test_enumeration_deterministic():
    rng = random.Random(48)
    g = random_oriented_graph(5, rng)
    a = list(enumerate_homs(g, C3r, Mode.IOS))
    b = list(enumerate_homs(g, C3r, Mode.IOS))
    assert a == b


def test_empty_graph_and_target():
    assert solve(edgeless(0), T3, Mode.IOS).satisfiable
    assert not solve(directed_path(2), OrientedGraph(0, ()), Mode.IOS).satisfiable


def test_reflexive_input_infeasible_on_irreflexive_target():
    g = OrientedGraph(2, [(0, 1)], reflexive=True)
    assert not solve(g, T3, Mode.IOS).satisfiable
    assert solve(g, T3r, Mode.IOS).satisfiable


def test_reflexive_input_uses_closed_neighbourhoods():
    # path on 3 reflexive vertices: centre's closed in-set {0,1} and closed
    # out-set {1,2} each need two distinct images in ios mode
    g = OrientedGraph(3, [(0, 1), (1, 2)], reflexive=True)
    t1r = build_named("T1r")
    assert not solve(g, t1r, Mode.IOS).satisfiable
    assert solve(g, T3r, Mode.IOS).satisfiable


# --- symmetric values skipped where a failure ends the search ---


def random_tournament(k, rng, reflexive=False):
    arcs = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in itertools.combinations(range(k), 2)]
    return OrientedGraph(k, arcs, reflexive)


def _solve_without_orbits(monkeypatch, g, h, mode, pins=None):
    # every value its own orbit; a property overrides the cached reps
    with monkeypatch.context() as m:
        m.setattr(_Target, "reps", property(lambda target: target.full))
        return solve(g, h, mode, pins=pins)


def symmetry_corpus():
    """Seeded decisions against targets with symmetric values: the named
    targets, random tournaments on three to six vertices, reflexive or
    not, reflexive inputs, every mode and some pins; then the colouring
    and edge-colouring instances of K4 and the prism."""
    rng = random.Random(61)
    named = [build_named(name) for name in ("C3", "C3r", "T3", "T3r", "U4", "U5r", "U6")]
    for _ in range(500):
        if rng.random() < 0.4:
            h = named[rng.randrange(len(named))]
        else:
            h = random_tournament(rng.randint(3, 6), rng, reflexive=rng.random() < 0.5)
        n = rng.randint(1, 8)
        g = random_oriented_graph(n, rng, arc_chance=rng.choice((0.2, 0.35, 0.5)))
        if rng.random() < 0.15:
            g = OrientedGraph(g.n, g.arcs, reflexive=True)
        pins = {rng.randrange(n): rng.randrange(h.n)} if rng.random() < 0.2 else None
        yield g, h, MODES[rng.randrange(3)], pins
    for src in (complete_graph(4), prism_graph()):
        yield reduce_3col_to_ios_c3r(src).graph, C3r, Mode.IOS, None
        yield reduce_3col_to_iot_c3r(src).graph, C3r, Mode.IOT, None
        for m in (4, 6):
            yield reduce_3edge_to_um(src, m).graph, build_named(f"U{m}"), Mode.IOS, None


def test_skipping_symmetric_values_keeps_every_answer(monkeypatch):
    # the same verdict and witness as the search that tries every value,
    # in no more nodes
    saved = 0
    for g, h, mode, pins in symmetry_corpus():
        want = _solve_without_orbits(monkeypatch, g, h, mode, pins)
        res = solve(g, h, mode, pins=pins)
        assert (res.satisfiable, res.witness) == (want.satisfiable, want.witness), (g, h, mode, pins)
        assert res.nodes_explored <= want.nodes_explored, (g, h, mode, pins)
        saved += want.nodes_explored - res.nodes_explored
        if res.satisfiable:
            assert check_hom(g, h, res.witness.map, mode), (g, h, mode, pins)
    assert saved > 0


def _orbit_reps_by_brute_force(h):
    """The mask of the lowest value of each orbit of h's automorphisms."""
    auts = [
        p for p in itertools.permutations(range(h.n)) if all((p[a], p[b]) in h.arcs for a, b in h.arcs)
    ]
    return sum({1 << min(p[a] for p in auts) for a in range(h.n)})


def test_value_orbits_match_every_permutation():
    targets = [t for k in range(6) for t in enumerate_tournaments(k)]
    targets += [OrientedGraph(t.n, t.arcs, reflexive=True) for t in targets]
    targets += [u_tournament(m, reflexive) for m in range(4, 9) for reflexive in (False, True)]
    # not tournaments: two directed triangles, which the group also swaps
    targets += [disjoint_union(C3, C3), directed_cycle(4), directed_path(4), edgeless(5)]
    for h in targets:
        assert _Target(h).reps == _orbit_reps_by_brute_force(h), h
    assert _Target(C3r).reps == 0b001
    assert _Target(edgeless(5)).reps == 0b00001
    assert _Target(edgeless(8)).reps == 0xFF  # 8! permutations: past the cap


def test_k4_colouring_refutations_try_one_value_of_each_orbit():
    # C3r's automorphisms rotate its triangle, so where a failure ends the
    # search one value stands for all three: 99 and 477 nodes without
    for reduce, mode, nodes in ((reduce_3col_to_ios_c3r, Mode.IOS, 33), (reduce_3col_to_iot_c3r, Mode.IOT, 159)):
        res = solve(reduce(complete_graph(4)).graph, C3r, mode)
        assert not res.satisfiable and res.nodes_explored == nodes, (mode, res.nodes_explored)


def test_no_values_skipped_under_pins(monkeypatch):
    # a pin breaks the symmetry of the root domains, so every value is
    # tried; a pin on a value that is not the lowest of its orbit would
    # otherwise leave its vertex nothing to try
    for src, sat in ((complete_graph(4), False), (prism_graph(), True)):
        g = reduce_3col_to_iot_c3r(src).graph
        for v in (0, 1, g.n - 1):
            for a in (1, 2):
                want = _solve_without_orbits(monkeypatch, g, C3r, Mode.IOT, {v: a})
                res = solve(g, C3r, Mode.IOT, pins={v: a})
                assert res == want and res.satisfiable == sat, (src, v, a)
                if sat:
                    assert res.witness.map[v] == a


def test_no_values_skipped_against_two_vertex_targets(monkeypatch):
    # against two vertices every frame fails back to the root, not only
    # the root-level ones, so the rule stays off there
    rng = random.Random(62)
    for h in (OrientedGraph(2, ()), OrientedGraph(2, (), reflexive=True)):
        assert _Target(h).reps == 0b01
        for _ in range(150):
            g = random_oriented_graph(rng.randint(2, 9), rng, arc_chance=rng.choice((0.1, 0.25)))
            if rng.random() < 0.5:
                g = OrientedGraph(g.n, g.arcs, reflexive=True)
            for mode in MODES:
                assert solve(g, h, mode) == _solve_without_orbits(monkeypatch, g, h, mode), (g, h, mode)


def test_root_refutations_answer_no_with_no_nodes():
    # a loop maps only onto a loop, nothing maps into the empty target,
    # and three in-neighbours need a value with three, which C3r lacks:
    # each is a start domain left empty, a NO before any node, with or
    # without a pin; a bad pin is refused before any search
    empty = OrientedGraph(0, ())
    cases = [
        (OrientedGraph(2, [(0, 1)], reflexive=True), T3, MODES),
        (OrientedGraph(1, reflexive=True), T3, MODES),
        (directed_path(2), empty, MODES),
        (star(3, 0), C3r, (Mode.IOS, Mode.IOT)),
    ]
    for g, h, modes in cases:
        for mode in modes:
            assert naive_homs(g, h, mode) == [], (g, h, mode)
            for pins in (None, {0: h.n - 1}) if h.n else (None,):
                assert 0 in _Csp(g, h, mode, pins).start, (g, h, mode, pins)
                res = solve(g, h, mode, pins=pins)
                assert (res.satisfiable, res.witness, res.nodes_explored) == (False, None, 0), (g, h, mode, pins)
                assert list(enumerate_homs(g, h, mode, pins=pins)) == [], (g, h, mode, pins)
            for bad in ({g.n: 0}, {0: h.n}):
                with pytest.raises(ValueError, match="pin"):
                    solve(g, h, mode, pins=bad)
                with pytest.raises(ValueError, match="pin"):
                    next(enumerate_homs(g, h, mode, pins=bad))


# --- reference: the recursive search that the iterative one replaced ---


def _bit_indices(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class RecursiveSearch:
    """The search as one recursion per level, copying every domain at every
    node and scanning every vertex for the branch choice.  The solver's
    explicit-stack search must yield the same solutions in the same order
    after the same number of nodes.  It keeps the rules as two structures
    derived here from the graph (must-differ partners and neighbourhoods
    of three or more), not the solver's lists; the value masks are rebuilt
    from the target.  Only the start domains come from _Csp."""

    def __init__(self, g, h, mode, pins=None):
        self.csp = _Csp(g, h, mode, pins)
        self.g = g
        self.h = h
        self.nodes = 0
        self.diff_adj, self.constraint_nbrs = _ref_graph_side(g, mode)
        self.groups_at = [[m for _, m in entries if len(m) > 2] for entries in _ref_nbhds_at(g, mode)]
        self.out_mask = [0] * h.n
        self.in_mask = [0] * h.n
        for a, b in h.arcs:
            self.out_mask[a] |= 1 << b
            self.in_mask[b] |= 1 << a
        if h.reflexive:
            for a in range(h.n):
                self.out_mask[a] |= 1 << a
                self.in_mask[a] |= 1 << a

    def _propagate(self, dom, stack) -> bool:
        out_mask = self.out_mask
        in_mask = self.in_mask
        out_nbrs = self.g.out_nbrs
        in_nbrs = self.g.in_nbrs
        while stack:
            v = stack.pop()
            dv = dom[v]
            if out_nbrs[v]:
                support = 0
                for a in _bit_indices(dv):
                    support |= out_mask[a]
                for w in out_nbrs[v]:
                    nd = dom[w] & support
                    if nd != dom[w]:
                        if not nd:
                            return False
                        dom[w] = nd
                        stack.append(w)
            if in_nbrs[v]:
                support = 0
                for a in _bit_indices(dv):
                    support |= in_mask[a]
                for u in in_nbrs[v]:
                    nd = dom[u] & support
                    if nd != dom[u]:
                        if not nd:
                            return False
                        dom[u] = nd
                        stack.append(u)
            if dv & (dv - 1) == 0:
                for w in self.diff_adj[v]:
                    nd = dom[w] & ~dv
                    if nd != dom[w]:
                        if not nd:
                            return False
                        dom[w] = nd
                        stack.append(w)
            # two members of a group on the same two values use them up
            for group in self.groups_at[v]:
                for a, b in itertools.combinations(group, 2):
                    pair = dom[a]
                    if pair.bit_count() != 2 or dom[b] != pair:
                        continue
                    for w in group:
                        nd = dom[w] & ~pair
                        if w not in (a, b) and nd != dom[w]:
                            if not nd:
                                return False
                            dom[w] = nd
                            stack.append(w)
        return True

    def solutions(self):
        dom = list(self.csp.start)
        if any(d == 0 for d in dom):
            return
        if not self._propagate(dom, list(range(self.g.n))):
            return
        yield from self._search(dom)

    def _search(self, dom):
        best = -1
        best_size = 1 << 30
        fallback = -1
        for v in range(self.g.n):
            d = dom[v]
            if d & (d - 1) == 0:
                continue
            if fallback < 0:
                fallback = v
            on_frontier = False
            for w in self.constraint_nbrs[v]:
                dw = dom[w]
                if dw & (dw - 1) == 0:
                    on_frontier = True
                    break
            if on_frontier:
                size = d.bit_count()
                if size < best_size:
                    best = v
                    best_size = size
                    if size == 2:
                        break
        if best < 0:
            best = fallback
        if best < 0:
            yield tuple(d.bit_length() - 1 for d in dom)
            return
        for a in _bit_indices(dom[best]):
            self.nodes += 1
            branch = dom.copy()
            branch[best] = 1 << a
            if self._propagate(branch, [best]):
                yield from self._search(branch)


def reference_corpus():
    """Seeded small inputs: all three modes, reflexive inputs, pins, and
    targets from two to five vertices, reflexive or not; then the forcing
    gadgets and the T3r instance of K4, where two members of a protected
    neighbourhood often share two values; then reflexive copies of the
    equalizer and the in-star, where a centre lies in its own
    neighbourhoods."""
    rng = random.Random(50)
    targets = (T2r, T3, C3r, T3r, U4, build_named("U4r"), build_named("U5r"))
    for _ in range(300):
        n = rng.randint(1, 7)
        g = random_oriented_graph(n, rng, arc_chance=rng.choice((0.3, 0.5, 2 / 3)))
        if rng.random() < 0.15:
            g = OrientedGraph(g.n, g.arcs, reflexive=True)
        h = targets[rng.randrange(len(targets))]
        pins = {rng.randrange(n): rng.randrange(h.n)} if rng.random() < 0.25 else None
        yield g, h, MODES[rng.randrange(3)], pins
    for mode in (Mode.IOS, Mode.IOT):
        k4 = reduce_3edge_to_t3r(complete_graph(4), mode).graph
        for g in (equalizer().graph, apex_cycle(1).graph, selector_cycle(2).graph, k4):
            for h in (T3r, C3r, U4):
                yield g, h, mode, None
        for g in (equalizer().graph, in_star().graph):
            for h in (T3r, C3r):
                yield OrientedGraph(g.n, g.arcs, reflexive=True), h, mode, None


def test_search_matches_recursive_reference():
    # enumeration: the same sequence and node count after the first 200
    # solutions; deciding: the same verdict as the reference's first
    # witness, a witness that checks and keeps the pins, and no more nodes,
    # since solving split-off parts alone only skips work
    check_search_against_recursive_reference()


def test_propagation_matches_the_recursive_reference_on_reductions():
    # from equal domains, the solver's rules and the reference's derived
    # structures reach equal domains or both wipe out: at the root, and
    # after each single value at every vertex the root leaves undecided,
    # the first branch vertex among them
    cases = []
    for src in (complete_graph(4), prism_graph()):
        cases.append(reduce_3col_to_ios_c3r(src))
        cases.append(reduce_3col_to_iot_c3r(src))
        cases.append(reduce_3edge_to_t3r(src, Mode.IOS))
        cases.append(reduce_3edge_to_t3r(src, Mode.IOT))
        cases.append(reduce_3edge_to_u4(src))
    for inst in cases:
        g, h, mode = inst.graph, build_named(inst.target), inst.mode
        csp = _Csp(g, h, mode)
        ref = RecursiveSearch(g, h, mode)
        root = list(csp.start)
        want = list(root)
        assert csp._propagate(root, list(range(g.n)), [])
        assert ref._propagate(want, list(range(g.n)))
        assert root == want, (inst.target, mode)
        undecided = [v for v in range(g.n) if root[v] & (root[v] - 1)]
        assert undecided, (inst.target, mode)
        for v in undecided:
            for a in _bit_indices(root[v]):
                got = list(root)
                got[v] = 1 << a
                want = list(got)
                ok = csp._propagate(got, [v], [])
                assert ok == ref._propagate(want, [v]), (inst.target, mode, v, a)
                assert not ok or got == want, (inst.target, mode, v, a)


def test_split_searches_stopped_at_a_tiny_cap_keep_every_answer(monkeypatch):
    # a split search that stops unfinished leaves its part with the rest,
    # which may change node counts but no verdict or witness check
    monkeypatch.setattr(solver, "_PART_CAP", 2)
    check_split_inputs_against_naive()
    check_search_against_recursive_reference()


def check_search_against_recursive_reference():
    for g, h, mode, pins in reference_corpus():
        ref = RecursiveSearch(g, h, mode, pins)
        want = list(itertools.islice(ref.solutions(), 200))
        csp = _Csp(g, h, mode, pins)
        got = list(itertools.islice(csp.solutions(), 200))
        assert got == want, (g, h, mode, pins)
        assert csp.nodes == ref.nodes, (g, h, mode, pins)

        first = RecursiveSearch(g, h, mode, pins)
        ref_witness = next(first.solutions(), None)
        res = solve(g, h, mode, pins=pins)
        assert res.satisfiable == (ref_witness is not None), (g, h, mode, pins)
        if res.satisfiable:
            assert check_hom(g, h, res.witness.map, mode), (g, h, mode, pins)
            assert all(res.witness.map[v] == a for v, a in (pins or {}).items()), (g, h, mode, pins)
        assert res.nodes_explored <= first.nodes, (g, h, mode, pins)


def antidirected_cycle(n):
    return OrientedGraph(n, [(i, i + 1) if i % 2 == 0 else (i + 1, i) for i in range(n - 1)] + [(0, n - 1)])


def test_search_scales_to_ten_thousand_vertices():
    # one recursion per level used to stop at about 1000 levels; the
    # degree-2 DP is an independent reference on these inputs
    n = 10_000
    for g in (directed_path(n), directed_cycle(n), antidirected_cycle(n), edgeless(n)):
        for h in (C3r, T3r, U4):
            for mode in MODES:
                res = solve(g, h, mode)
                verdict = decide_poly(g, h, mode)
                assert verdict.algorithm == "degree2-dp", (h, mode)
                assert res.satisfiable == verdict.satisfiable, (h, mode)
                if res.satisfiable:
                    assert check_hom(g, h, res.witness.map, mode)
    # a frontier of 10^4 leaves: each leaf is a part of its own
    star = OrientedGraph(n + 1, [(0, i) for i in range(1, n + 1)])
    res = solve(star, T3r, Mode.PLAIN)
    assert res.satisfiable and check_hom(star, T3r, res.witness.map, Mode.PLAIN)


# --- a target wider than one 64-bit word ---


def _sparse_walks(rng, n, tries):
    """Arcs between random vertex pairs, each kept while both ends have
    fewer than two neighbours: paths and cycles, randomly oriented."""
    degree = [0] * n
    arcs = set()
    for _ in range(tries):
        u, v = rng.sample(range(n), 2)
        if degree[u] < 2 and degree[v] < 2 and not {(u, v), (v, u)} & arcs:
            arcs.add((u, v))
            degree[u] += 1
            degree[v] += 1
    return OrientedGraph(n, arcs)


def test_search_and_dp_agree_on_a_seventy_value_target():
    rng = random.Random(7070)
    inputs = (directed_cycle(6), directed_path(40), _sparse_walks(rng, 40, 60),
              directed_cycle(5), directed_cycle(7))
    for reflexive in (False, True):
        h = u_tournament(70, reflexive)
        for g in inputs:
            for mode in (Mode.IOS, Mode.IOT):
                res = solve(g, h, mode)
                verdict = decide_poly(g, h, mode)
                assert verdict.algorithm == "degree2-dp"
                assert res.satisfiable == verdict.satisfiable, (reflexive, g, mode)
                if g.n in (5, 7):  # the directed 5- and 7-cycles: NO against U70, YES against U70r
                    assert verdict.satisfiable == reflexive, (g, mode)
                for found in (res, verdict):
                    if found.satisfiable:
                        assert check_hom(g, h, found.witness.map, mode), (reflexive, g, mode)


def test_mask_table_is_the_union_of_its_values_masks():
    rng = random.Random(6464)
    width = 70
    # each value's mask has a bit of its own, so a value left out shows
    perm = list(range(width))
    rng.shuffle(perm)
    masks = [1 << own | 1 << rng.randrange(width) for own in perm]
    table = _MaskTable(masks)
    full = (1 << width) - 1
    for values in [0, full] + [rng.getrandbits(width) for _ in range(200)]:
        want = 0
        for a in range(width):
            if values >> a & 1:
                want |= masks[a]
        assert table[values] == want
        assert table[values] == want  # and again from the stored entry
