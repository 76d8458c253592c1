import itertools
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
    random_oriented_graph,
    transitive_tournament,
)
from injhom.poly import decide_poly
from injhom.reductions import (
    SimpleGraph,
    bridged_cubic_graph,
    complete_bipartite,
    complete_graph,
    reduce_3edge_to_t3r,
)
from injhom.solver import _Csp, _MaskTable, check_hom, enumerate_homs, protected_pairs, solve
from injhom.targets import build_named, u_tournament

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


def _ref_protected_pairs(g, mode):
    """protected_pairs from each neighbourhood's pairs, as it was derived
    before the solver kept each pair's common heads and tails."""
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
    """diff_adj, constraint_nbrs and pairs_at from the sorted pairs, with
    each pair's common heads and tails by set intersection."""
    diff_adj = [[] for _ in range(g.n)]
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.arcs:
        nbrs[u].add(v)
        nbrs[v].add(u)
    pairs_at = [[] for _ in range(g.n)]
    for a, b in _ref_protected_pairs(g, mode):
        diff_adj[a].append(b)
        diff_adj[b].append(a)
        nbrs[a].add(b)
        nbrs[b].add(a)
        heads = sorted(set(g.out_nbrs[a]).intersection(g.out_nbrs[b]))
        tails = sorted(set(g.in_nbrs[a]).intersection(g.in_nbrs[b]))
        if heads or tails:
            entry = (a, b, tuple(heads), tuple(tails))
            pairs_at[a].append(entry)
            pairs_at[b].append(entry)
    return diff_adj, [sorted(s) for s in nbrs], pairs_at


def test_graph_side_matches_per_pair_derivation():
    rng = random.Random(1212)
    for trial in range(1000):
        g = random_oriented_graph(rng.randint(1, 12), rng, arc_chance=rng.random())
        if rng.random() < 0.3:
            g = OrientedGraph(g.n, g.arcs, reflexive=True)
        for mode in MODES:
            assert protected_pairs(g, mode) == _ref_protected_pairs(g, mode), (trial, mode)
            csp = _Csp(g, C3r, mode)
            got = (csp.diff_adj, csp.constraint_nbrs, csp.pairs_at)
            assert got == _ref_graph_side(g, mode), (trial, mode)


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


def test_protected_pairs_hat_iot():
    g = hat()
    assert (0, 2) in protected_pairs(g, Mode.IOS)
    assert (0, 2) in protected_pairs(g, Mode.IOT)
    assert protected_pairs(g, Mode.PLAIN) == []


def test_protected_pairs_iot_unions():
    g = OrientedGraph(3, [(0, 1), (1, 2)])  # directed path through 1
    assert (0, 2) in protected_pairs(g, Mode.IOT)
    assert (0, 2) not in protected_pairs(g, Mode.IOS)


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
    # vertex 0 splits the rest into {1} and {2, 3, 4, 5}.  With 0 -> 1 the
    # second part needs three distinct in-neighbours of 2 inside {0, 1},
    # which propagation alone does not see; the search must come back to
    # vertex 0, past the solved part {1}, and answer YES with 0 -> 2
    g = OrientedGraph(6, [(0, 1), (2, 0), (3, 2), (4, 2), (5, 2)])
    res = solve(g, T3r, Mode.IOS)
    assert res.satisfiable and res.witness.map[0] == 2
    assert check_hom(g, T3r, res.witness.map, Mode.IOS)


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
    assert solve(reduce_3edge_to_t3r(complete_graph(4)).graph, T3r, Mode.IOS).nodes_explored == 62
    assert solve(reduce_3edge_to_t3r(complete_bipartite(3, 3)).graph, T3r, Mode.IOS).nodes_explored == 84


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


def test_nodes_explored_reported():
    g = directed_cycle(6)
    res = solve(g, C3r, Mode.IOS)
    assert res.nodes_explored >= 0


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
    after the same number of nodes.  The constraint tables come from _Csp;
    the value masks are rebuilt here from the target."""

    def __init__(self, g, h, mode, pins=None):
        self.csp = _Csp(g, h, mode, pins)
        self.g = g
        self.h = h
        self.nodes = 0
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
                for w in self.csp.diff_adj[v]:
                    nd = dom[w] & ~dv
                    if nd != dom[w]:
                        if not nd:
                            return False
                        dom[w] = nd
                        stack.append(w)
            for a, b, heads, tails in self.csp.pairs_at[v]:
                union = dom[a] | dom[b]
                if union.bit_count() != 2:
                    continue
                x = union & -union
                y = union ^ x
                both_out = out_mask[x.bit_length() - 1] & out_mask[y.bit_length() - 1]
                for w in heads:
                    nd = dom[w] & both_out
                    if nd != dom[w]:
                        if not nd:
                            return False
                        dom[w] = nd
                        stack.append(w)
                if tails:
                    both_in = in_mask[x.bit_length() - 1] & in_mask[y.bit_length() - 1]
                    for w in tails:
                        nd = dom[w] & both_in
                        if nd != dom[w]:
                            if not nd:
                                return False
                            dom[w] = nd
                            stack.append(w)
        return True

    def solutions(self):
        if self.g.n == 0:
            yield ()
            return
        if self.h.n == 0 or self.csp.infeasible:
            return
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
            for w in self.csp.constraint_nbrs[v]:
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
    targets from two to five vertices, reflexive or not."""
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


def test_search_matches_recursive_reference():
    # enumeration: the same sequence and node count after the first 200
    # solutions; deciding: the same verdict as the reference's first
    # witness, a witness that checks and keeps the pins, and no more nodes,
    # since solving split-off parts alone only skips work
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
    inputs = (directed_cycle(6), directed_path(40), _sparse_walks(rng, 40, 60))
    for reflexive in (False, True):
        h = u_tournament(70, reflexive)
        for g in inputs:
            for mode in (Mode.IOS, Mode.IOT):
                res = solve(g, h, mode)
                verdict = decide_poly(g, h, mode)
                assert verdict.algorithm == "degree2-dp"
                assert res.satisfiable == verdict.satisfiable, (reflexive, g, mode)
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
