"""Polynomial-time decisions: a degree rule and a transfer DP, with the
search behind them.

Paths and cycles are easy against every fixed target: decide_poly sends
every input of underlying degree at most 2 to a transfer DP along its
paths and cycles.  The DP keeps each layer of states as one int bitmask
and steps a layer through a per-call memo from mask to next mask, so
each walk vertex costs one dict lookup once the memo has seen its mask;
the per-state tables the memo is filled from are built once per target.
Degrees are counted straight from the arcs, so this route builds no in-
or out-neighbour lists.  Where the input branches, the tractable pairs -- T1,
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
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

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
    so a vertex's underlying degree is the number of arcs it ends."""
    return bool(g.arcs) and max(Counter(chain.from_iterable(g.arcs)).values()) > 2


# --- transfer DP over components of underlying degree <= 2 ---


class _Move(dict):
    """One kind of walk step, as a map from a layer's state mask to the
    next layer's, filled on first use.  step[s] is the mask of the states
    one step on from state s, back[t] the mask of the states one step
    before t."""

    def __init__(self, step, back):
        super().__init__()
        self.step = step
        self.back = back

    def __missing__(self, mask):
        step = self.step
        nxt = 0
        rest = mask
        while rest:
            low = rest & -rest
            nxt |= step[low.bit_length() - 1]
            rest ^= low
        self[mask] = nxt
        return nxt


@lru_cache(maxsize=64)
def _tables(h: OrientedGraph) -> tuple:
    """The DP's state tables for target h, shared by every call against
    an equal target.  A state a * h.n + b says that two consecutive walk
    vertices take images a, b; a layer is the mask of its states.

    arcs[f] is the mask of the states an arc allows, walked forwards
    (f true: a -> b) or backwards.  moves[f, d] is the (step, back) pair
    of a move from s = (a, b) to the states (b, c) one walk step on along
    such an arc; d says that the middle vertex's two neighbours must take
    distinct images, so c != a.
    """
    n = h.n

    def ok(forward, a, b):
        if a == b:
            return h.reflexive
        return ((a, b) if forward else (b, a)) in h.arcs

    column = sum(1 << a * n for a in range(n))  # the states (a, 0)
    arcs, moves = {}, {}
    for f in (True, False):
        # after[b]: the mask of the images c that may follow image b
        after = [sum(1 << c for c in range(n) if ok(f, b, c)) for b in range(n)]
        arcs[f] = sum(after[a] << a * n for a in range(n))
        for d in (True, False):
            # step[a * n + b]: the states (b, c); back[b * n + c]: the states (a, b)
            step = [(after[b] & ~(d << a)) << b * n for a in range(n) for b in range(n)]
            back = [(column << b) & ~(d << c * n + b) if after[b] >> c & 1 else 0
                    for b in range(n) for c in range(n)]
            moves[f, d] = step, back
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
    n = h.n
    if g.n and n == 0:
        return None
    arcs, tables = _tables(h)
    # the mask memos live for this call only, so memory stays bounded
    table = {key: _Move(*pair) for key, pair in tables.items()}
    assignment = [0] * g.n
    for is_cycle, order in _component_orders(g):
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
            if closing.step[s] >> wrap & 1 and opening.step[wrap] >> s0 & 1:
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
