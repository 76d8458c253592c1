"""Polynomial-time deciders for the tractable target/mode families.

Covered: the irreflexive targets T1, T2, C3, T3 (where the ios and iot
questions coincide) and the reflexive targets T1r, T2r under both modes.
Everything else -- the reflexive triangle, T3r, the whole U family and
custom targets -- is where the problems turn NP-complete, and decide_poly
reports those as not covered (None) instead of silently guessing.

T2r under ios is a 2-SAT problem.  Every other covered pair follows one
rule: an input vertex of underlying degree three is a no, and a transfer
DP along the remaining paths and cycles decides the rest.  Every yes
answer carries a reconstructed witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Mode, OrientedGraph, degrees, find_hats, max_degrees
from .solver import Homomorphism
from .targets import TargetSpec, build_named
from .twosat import TwoSatInstance, solve_2sat


@dataclass
class PolyVerdict:
    satisfiable: bool
    witness: Homomorphism | None
    algorithm: str


def _check_irreflexive(g: OrientedGraph) -> None:
    if g.reflexive:
        raise ValueError("polynomial deciders take irreflexive inputs")


def _branches(g: OrientedGraph) -> bool:
    """Has g a vertex of underlying degree three or more?"""
    return any(len(nbrs) > 2 for nbrs in g.underlying_nbrs)


def build_2sat_T2r_ios(g: OrientedGraph) -> TwoSatInstance:
    """Clause system for mapping g to the reflexive single arc t0 -> t1
    with separate in/out injectivity; variable v is true iff v maps to t1.

    Clause groups: (i) out-degree-2 vertices must sit at t0, (ii)
    in-degree-2 vertices at t1, (iii) arcs forbid t1 -> t0, (iv) two
    vertices sharing a common in- or out-neighbour take different images.
    Requires max in- and out-degree at most two.
    """
    _check_irreflexive(g)
    din, dout = max_degrees(g)
    if din > 2 or dout > 2:
        raise ValueError("2-SAT encoding needs in- and out-degrees at most 2")
    inst = TwoSatInstance(g.n)
    for v, (ind, outd) in enumerate(degrees(g)):
        if outd == 2:
            inst.add_clause((v, False))
        if ind == 2:
            inst.add_clause((v, True))
    for v, w in sorted(g.arcs):
        inst.add_clause((v, False), (w, True))
    for v, w in find_hats(g):
        inst.add_clause((v, True), (w, True))
        inst.add_clause((v, False), (w, False))
    return inst


def _forced_units_clash(g: OrientedGraph) -> bool:
    """Do the unit clauses of the T2r-ios encoding already contradict?

    Out-degree 2 forces t0 and in-degree 2 forces t1.  The units clash
    when a vertex is forced both ways, when an arc runs from a vertex
    forced to t1 into one forced to t0, or when a hat joins two vertices
    forced to the same image.  Long inputs with many degree-2 vertices
    are settled here without building the implication graph.
    """
    forced = [None] * g.n
    for v, (ind, outd) in enumerate(degrees(g)):
        if ind == 2 and outd == 2:
            return True
        if outd == 2:
            forced[v] = 0
        elif ind == 2:
            forced[v] = 1
    if any(forced[v] == 1 and forced[w] == 0 for v, w in g.arcs):
        return True
    # every hat is the in- or out-pair of its shared neighbour
    for group in g.in_nbrs + g.out_nbrs:
        if len(group) == 2:
            a, b = group
            if forced[a] is not None and forced[a] == forced[b]:
                return True
    return False


def decide_T2r_ios(g: OrientedGraph, mode: Mode = Mode.IOS) -> PolyVerdict:
    """Against the reflexive single arc, via the 2-SAT encoding."""
    _check_irreflexive(g)
    din, dout = max_degrees(g)
    if din > 2 or dout > 2:
        # a vertex with three protected neighbours cannot fit in two images
        return PolyVerdict(False, None, "two-sat")
    if _forced_units_clash(g):
        return PolyVerdict(False, None, "two-sat")
    assignment = solve_2sat(build_2sat_T2r_ios(g))
    if assignment is None:
        return PolyVerdict(False, None, "two-sat")
    image = tuple(1 if a else 0 for a in assignment)
    return PolyVerdict(True, Homomorphism(image, mode), "two-sat")


# --- transfer DP over components of underlying degree <= 2 ---


def _resolve_target(target) -> OrientedGraph:
    if isinstance(target, OrientedGraph):
        return target
    return build_named(target)


def _tables(h: OrientedGraph) -> tuple:
    """The DP's state tables for target h.  A state a * h.n + b says that
    two consecutive walk vertices take images a, b.

    arcs[f] lists the states an arc allows, walked forwards (f true:
    a -> b) or backwards.  moves[f, d][s] lists, in increasing order, the
    states (b, c) one walk step on from s = (a, b) along such an arc; d
    says that the middle vertex's two neighbours must take distinct
    images, so c != a.
    """
    n = h.n

    def ok(forward, a, b):
        if a == b:
            return h.reflexive
        return ((a, b) if forward else (b, a)) in h.arcs

    arcs = {f: [a * n + b for a in range(n) for b in range(n) if ok(f, a, b)] for f in (True, False)}
    moves = {
        (f, d): tuple(
            tuple(b * n + c for c in range(n) if ok(f, b, c) and not (d and c == a))
            for a in range(n) for b in range(n))
        for f in (True, False) for d in (True, False)
    }
    return arcs, moves


def _component_orders(g: OrientedGraph):
    """Each weak component with an arc as (is_cycle, vertex walk along
    the underlying path or cycle); assumes underlying degree <= 2.  A path
    is walked from its lower end, a cycle from its lowest vertex towards
    that vertex's lower neighbour."""
    nbrs = g.underlying_nbrs
    seen = [False] * g.n
    for v in range(g.n):
        if seen[v] or not nbrs[v]:
            continue
        ahead = _walk_away(nbrs, v, nbrs[v][0])
        is_cycle = len(nbrs[ahead[-1]]) == 2  # the walk came back round to v
        if is_cycle:
            order = [v] + ahead
        else:
            behind = _walk_away(nbrs, v, nbrs[v][1]) if len(nbrs[v]) == 2 else []
            order = behind[::-1] + [v] + ahead
            if order[-1] < order[0]:
                order.reverse()
        for w in order:
            seen[w] = True
        yield is_cycle, order


def _walk_away(nbrs, start, cur) -> list:
    """The vertices from cur on, stepping away from start, up to a path
    end or back round to start (not included)."""
    walk = []
    prev = start
    while cur != start:
        walk.append(cur)
        ends = nbrs[cur]
        if len(ends) == 1:
            break
        prev, cur = cur, ends[1] if ends[0] == prev else ends[0]
    return walk


def decide_degree2_dp(g: OrientedGraph, target, mode: Mode) -> PolyVerdict:
    """Transfer DP deciding mode-injective maps from a graph whose
    underlying degrees are at most 2 into an arbitrary fixed target.

    States are image pairs of consecutive walk vertices; the only local
    constraint beyond arc preservation is whether a vertex's two walk
    neighbours must take different images.  Inputs with an underlying
    degree-3 vertex are rejected as invalid.
    """
    _check_irreflexive(g)
    if _branches(g):
        raise ValueError("underlying degree exceeds 2")
    return _degree2_verdict(g, _resolve_target(target), mode, "degree2-dp")


def _degree2_verdict(g, h, mode, algorithm) -> PolyVerdict:
    images = _walk_images(g, h, mode)
    if images is None:
        return PolyVerdict(False, None, algorithm)
    return PolyVerdict(True, Homomorphism(tuple(images), mode), algorithm)


def _walk_images(g, h, mode):
    """An image per vertex of g, or None when no mode-injective map to h
    exists; g has underlying degree <= 2."""
    if g.n and h.n == 0:
        return None
    arcs, table = _tables(h)
    assignment = [0] * g.n
    for is_cycle, order in _component_orders(g):
        ends = order[1:] + order[:1] if is_cycle else order[1:]
        forwards = [(u, v) in g.arcs for u, v in zip(order, ends)]
        # differ[i]: must walk vertex i's two neighbours take distinct
        # images?  Under ios only where the walk turns (both arcs point
        # into or both out of the vertex); differ[0] matters for cycles only
        if mode is Mode.IOT:
            differ = [True] * len(forwards)
        elif mode is Mode.IOS:
            differ = [forwards[i - 1] != forwards[i] for i in range(len(forwards))]
        else:
            differ = [False] * len(forwards)
        # moves[i] steps from the images of walk vertices i-1, i to i, i+1
        moves = [table[f, d] for f, d in zip(forwards, differ)]
        first = arcs[forwards[0]]
        states = _dp_cycle(h.n, first, moves) if is_cycle else _dp_path(first, moves)
        if states is None:
            return None
        assignment[order[0]] = states[0] // h.n
        for v, s in zip(order[1:], states):
            assignment[v] = s % h.n
    return assignment


def _layers(first, moves):
    """Extend the state layer first by one walk vertex per move: each
    later layer maps its states to the state before.  None when some
    layer is empty."""
    layers = [first]
    for move in moves:
        if not layers[-1]:
            return None
        cur = {}
        for s in layers[-1]:
            for t in move[s]:
                if t not in cur:
                    cur[t] = s
        layers.append(cur)
    return layers if layers[-1] else None


def _trace_back(layers, s) -> list:
    states = [s]
    for layer in reversed(layers[1:]):
        s = layer[s]
        states.append(s)
    return states[::-1]


def _dp_path(first, moves):
    layers = _layers(dict.fromkeys(first), moves[1:])
    if layers is None:
        return None
    return _trace_back(layers, min(layers[-1]))


def _dp_cycle(n, first, moves):
    for s0 in first:
        layers = _layers({s0: None}, moves[1:-1])
        if layers is None:
            continue
        a0 = s0 // n
        for s in sorted(layers[-1]):
            closing = s % n * n + a0
            if closing in moves[-1][s] and s0 in moves[0][closing]:
                return _trace_back(layers, s)
    return None


# --- dispatch ---

# Algorithm label of each tractable (target, mode) pair other than T2r
# under ios.  Each of these targets leaves an input vertex room for at
# most two neighbours: the mode maps its in- and its out-neighbours
# injectively (under iot, all its neighbours) into those of its image, and
# no image has more than two in all.  So underlying degree three is a no,
# and the transfer DP settles the paths and cycles left.
_LABELS = {
    ("T1", Mode.IOS): "edgeless-check",
    ("T1", Mode.IOT): "edgeless-check",
    ("T2", Mode.IOS): "tiny-components",
    ("T2", Mode.IOT): "tiny-components",
    ("C3", Mode.IOS): "path-cycle-mod3",
    ("C3", Mode.IOT): "path-cycle-mod3",
    ("T3", Mode.IOS): "degree2-dp",
    ("T3", Mode.IOT): "degree2-dp",
    ("T1r", Mode.IOS): "degree-one-check",
    ("T1r", Mode.IOT): "tiny-components",
    ("T2r", Mode.IOT): "degree2-dp",
}


def decide_poly(g: OrientedGraph, target, mode: Mode):
    """Run the matching polynomial decider, or return None when the
    (target, mode) pair has no known polynomial algorithm here."""
    spec = TargetSpec.parse(target) if isinstance(target, str) else target
    if not isinstance(spec, TargetSpec):
        spec = TargetSpec.from_graph(spec)
    if spec.custom is not None or spec.name is None:
        return None
    if (spec.name, mode) == ("T2r", Mode.IOS):
        return decide_T2r_ios(g, mode)
    label = _LABELS.get((spec.name, mode))
    if label is None:
        return None
    _check_irreflexive(g)
    if _branches(g):
        return PolyVerdict(False, None, label)
    return _degree2_verdict(g, build_named(spec), mode, label)
