"""Polynomial-time decisions: a degree rule and a transfer DP, with the
search behind them.

Paths and cycles are easy against every fixed target: decide_poly sends
every input of underlying degree at most 2 to a transfer DP along its
paths and cycles.  The DP keeps each layer of states as one int bitmask
and steps a layer through a per-call mask table from mask to next mask,
so each walk vertex costs one dict lookup once the table has seen its
mask; the per-state masks it unions are built once per target.
One pass over the arcs lists each vertex's walk neighbours, unsorted,
and stops at the first vertex with a third, so this route builds no in-,
out- or sorted neighbour lists.  Where the input branches, the tractable pairs -- T1,
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

import operator
from dataclasses import dataclass
from functools import lru_cache

from .graphs import Mode, OrientedGraph
from .solver import Homomorphism, _MaskTable, _target_tables, solve
from .targets import TargetSpec


@dataclass
class PolyVerdict:
    satisfiable: bool
    witness: Homomorphism | None
    algorithm: str


# --- transfer DP over components of underlying degree <= 2 ---


@lru_cache(maxsize=64)
def _tables(h: OrientedGraph) -> tuple:
    """The DP's state tables for target h, shared by every call against
    an equal target.  A state a * h.n + b says that two consecutive walk
    vertices take images a, b; a layer is the mask of its states.

    arcs[f] is the mask of the states an arc allows, walked forwards
    (f true: a -> b) or backwards.  moves[f, d] is the (step, back) pair
    of a move from s = (a, b) to the states (b, c) one walk step on along
    such an arc; d says that the middle vertex's two neighbours must take
    distinct images, so c != a.  step[s] is the mask of the states one
    step on from s, back[t] the mask of the states one step before t.
    """
    n = h.n
    column = sum(1 << a * n for a in range(n))  # the states (a, 0)
    arcs, moves = {}, {}
    for f, support in zip((True, False), _target_tables(h)):
        # after[b]: the mask of the images c that may follow image b
        after = support.masks
        arcs[f] = sum(after[a] << a * n for a in range(n))
        for d in (True, False):
            # step[a * n + b]: the states (b, c); back[b * n + c]: the states (a, b)
            step = [(after[b] & ~(d << a)) << b * n for a in range(n) for b in range(n)]
            back = [(column << b) & ~(d << c * n + b) if after[b] >> c & 1 else 0
                    for b in range(n) for c in range(n)]
            moves[f, d] = step, back
    return arcs, moves


def _walk_nbrs(g: OrientedGraph):
    """Each vertex's underlying neighbours as a list in no set order, or
    None as soon as some vertex has a third: g branches.  g is oriented,
    so no pair of vertices is met twice."""
    nbrs = [[] for _ in range(g.n)]
    for u, v in g.arcs:
        at_u = nbrs[u]
        at_v = nbrs[v]
        if len(at_u) == 2 or len(at_v) == 2:
            return None
        at_u.append(v)
        at_v.append(u)
    return nbrs


def _component_orders(nbrs):
    """Each weak component with an arc as (is_cycle, vertex walk along
    the underlying path or cycle), given _walk_nbrs.  A path is walked
    from its lower end, a cycle from its lowest vertex towards that
    vertex's lower neighbour.  Only a start vertex's neighbours need an
    order: from any other vertex the walk goes on to the neighbour it did
    not come from."""
    seen = [False] * len(nbrs)
    for v, ends in enumerate(nbrs):
        if seen[v] or not ends:
            continue
        ends = sorted(ends)
        ahead = _walk_away(nbrs, v, ends[0])
        is_cycle = len(nbrs[ahead[-1]]) == 2  # the walk came back round to v
        if is_cycle:
            order = [v] + ahead
        else:
            behind = _walk_away(nbrs, v, ends[1]) if len(ends) == 2 else []
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


def _walk_images(g, nbrs, h, mode):
    """An image per vertex of g, or None when no mode-injective map to h
    exists; nbrs is g's _walk_nbrs.  The DP's states are image pairs of
    consecutive walk vertices: beyond arc preservation, the only local
    constraint is whether a vertex's two walk neighbours must differ."""
    n = h.n
    if g.n and n == 0:
        return None
    arcs, tables = _tables(h)
    # the mask memos live for this call only, so memory stays bounded;
    # each carries its move's back table for the trace-back
    table = {}
    for key, (step, back) in tables.items():
        table[key] = memo = _MaskTable(step)
        memo.back = back
    assignment = [0] * g.n
    for is_cycle, order in _component_orders(nbrs):
        ends = order[1:] + order[:1] if is_cycle else order[1:]
        forwards = list(map(g.arcs.__contains__, zip(order, ends)))
        # differ[i]: must walk vertex i's two neighbours take distinct
        # images?  Under ios only where the walk turns (both arcs point
        # into or both out of the vertex); differ[0] matters for cycles only
        if mode is Mode.IOT:
            differ = [True] * len(forwards)
        elif mode is Mode.IOS:
            differ = list(map(operator.ne, forwards[-1:] + forwards[:-1], forwards))
        else:
            differ = [False] * len(forwards)
        # moves[i] steps from the images of walk vertices i-1, i to i, i+1
        moves = list(map(table.__getitem__, zip(forwards, differ)))
        first = arcs[forwards[0]]
        states = _dp_cycle(n, first, moves) if is_cycle else _dp_path(first, moves)
        if states is None:
            return None
        assignment[order[0]] = states[0] // n
        for v, s in zip(order[1:], states):
            assignment[v] = s % n
    return assignment


def _layers(mask, moves):
    """The state masks from layer mask on, one more per move; None when
    some layer is empty."""
    if not mask:
        return None
    layers = [mask]
    for move in moves:
        mask = move[mask]
        if not mask:
            return None
        layers.append(mask)
    return layers


def _trace_back(layers, moves, s) -> list:
    """The states of a walk through layers that ends in state s, taking
    the lowest state of each layer that steps to the next one."""
    states = [s]
    for layer, back in zip(reversed(layers[:-1]), map(operator.attrgetter("back"), reversed(moves))):
        before = layer & back[s]
        s = (before & -before).bit_length() - 1
        states.append(s)
    states.reverse()
    return states


def _lowest(mask) -> int:
    return (mask & -mask).bit_length() - 1


def _dp_path(first, moves):
    layers = _layers(first, moves[1:])
    if layers is None:
        return None
    return _trace_back(layers, moves[1:], _lowest(layers[-1]))


def _dp_cycle(n, first, moves):
    """Try the start states in increasing order; each one's pass runs over
    the masks that earlier passes left in the move tables."""
    inner, closing, opening = moves[1:-1], moves[-1], moves[0]
    starts = first
    while starts:
        s0 = _lowest(starts)
        starts ^= 1 << s0
        layers = _layers(1 << s0, inner)
        if layers is None:
            continue
        a0 = s0 // n
        last = layers[-1]
        while last:
            s = _lowest(last)
            last ^= 1 << s
            wrap = s % n * n + a0  # the state that closes the cycle
            if closing.masks[s] >> wrap & 1 and opening.masks[wrap] >> s0 & 1:
                return _trace_back(layers, inner, s)
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
    nbrs = _walk_nbrs(g)
    if nbrs is not None:
        images = _walk_images(g, nbrs, spec.build(), mode)
        witness = Homomorphism(tuple(images), mode) if images is not None else None
        return PolyVerdict(images is not None, witness, label or "degree2-dp")
    if label is None:
        return None
    if (spec.name, mode) != ("T2r", Mode.IOS):
        return PolyVerdict(False, None, label)
    res = solve(g, spec.build(), mode)
    return PolyVerdict(res.satisfiable, res.witness, label)
