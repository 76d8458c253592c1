"""Polynomial-time decisions: a degree rule and a transfer DP, with the
search behind them.

Paths and cycles are easy against every fixed target: decide_poly sends
every input of underlying degree at most 2 to a transfer DP along its
paths and cycles.  Where the input branches, the tractable pairs -- T1,
T2, C3, T3 (where the ios and iot questions coincide), T1r under both
modes and T2r under iot -- answer no, since none of them leaves a vertex
room for three neighbours.  T2r under ios is 2-SAT, and the search
decides it: against a two-vertex target its propagation is 2-SAT's unit
propagation, and it never retries a decision that propagated cleanly.
Everything else -- the reflexive triangle, T3r, the whole U family,
custom targets, plain mode and reflexive inputs -- is left to the
search (None).  Every yes answer carries a witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Mode, OrientedGraph
from .solver import Homomorphism, solve
from .targets import TargetSpec


@dataclass
class PolyVerdict:
    satisfiable: bool
    witness: Homomorphism | None
    algorithm: str


def _branches(g: OrientedGraph) -> bool:
    """Has g a vertex of underlying degree three or more?  g is oriented,
    so a vertex's in- and out-neighbours are distinct and their counts
    add up to its underlying degree."""
    in_nbrs, out_nbrs = g.in_nbrs, g.out_nbrs
    return any(len(in_nbrs[v]) + len(out_nbrs[v]) > 2 for v in range(g.n))


# --- transfer DP over components of underlying degree <= 2 ---


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


def _walk_images(g, h, mode):
    """An image per vertex of g, or None when no mode-injective map to h
    exists; g has underlying degree <= 2.  The DP's states are image pairs
    of consecutive walk vertices: beyond arc preservation, the only local
    constraint is whether a vertex's two walk neighbours must differ."""
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

# Algorithm label of each tractable (target, mode) pair.  Each of these
# targets but T2r under ios leaves an input vertex room for at most two
# neighbours: the mode maps its in- and its out-neighbours injectively
# (under iot, all its neighbours) into those of its image, and no image
# has more than two in all.  So underlying degree three is a no.
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
    ("T2r", Mode.IOS): "two-sat",
    ("T2r", Mode.IOT): "degree2-dp",
}


def decide_poly(g: OrientedGraph, target, mode: Mode):
    """Decide by the polynomial route, or return None to leave g to the
    search.

    Reflexive inputs are left to the search.  An input of underlying
    degree at most 2 goes to the transfer DP, against any target.  A
    branching input is a no for a tabled pair, is decided by the search
    for T2r under ios (2-SAT there), and is left to the search otherwise.
    """
    spec = TargetSpec.parse(target) if isinstance(target, str) else target
    if not isinstance(spec, TargetSpec):
        spec = TargetSpec.from_graph(spec)
    if g.reflexive:
        return None
    label = _LABELS.get((spec.name, mode))
    if not _branches(g):
        images = _walk_images(g, spec.build(), mode)
        witness = Homomorphism(tuple(images), mode) if images is not None else None
        return PolyVerdict(images is not None, witness, label or "degree2-dp")
    if label is None:
        return None
    if (spec.name, mode) != ("T2r", Mode.IOS):
        return PolyVerdict(False, None, label)
    res = solve(g, spec.build(), mode)
    return PolyVerdict(res.satisfiable, res.witness, label)
