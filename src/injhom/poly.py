"""Polynomial-time decisions: a degree rule and a transfer DP, with the
search behind them.

Paths and cycles are easy against every fixed target: decide_poly sends
every input of underlying degree at most 2 to a transfer DP along its
paths and cycles.  The DP keeps each layer of states as one int bitmask
and steps a layer through a per-call mask table from mask to next mask,
so each walk vertex costs one dict lookup once the table has seen its
mask; the per-state masks it unions are built once per target from the
search's per-value masks.  Each walk's moves are built and stepped in
chunks of doubling size, from all of its start states at once, and the
walk stops at its first empty layer: a no that shows within a few
vertices builds and steps only those.  That pass is a path's DP, and its
witness is traced back through it.  A cycle's walk goes on through its
closing arc and its first arc again, so closing takes two more steps of
the same walk.  Its start states are tried in turn, each alone, and one
works when the last layer of its own pass holds it.  The lowest goes
first, before the all-states pass; after it, only the start states that
the all-states pass ends in can close, so only those are tried.
One pass over the arcs fills two flat lists, each vertex's first and
second walk neighbour (unsorted, -1 for none), and stops at the first
vertex with a third, so this route builds no list per vertex and no
in-, out- or sorted neighbour lists.  Where the input branches, the
tractable pairs -- T1, T2, C3, T3 (where the ios and iot questions
coincide), T1r under both modes and T2r under iot -- answer no, since
none of them leaves a vertex room for three neighbours.  T2r under ios
is 2-SAT, and the search decides it: against a two-vertex target its
propagation is 2-SAT's unit propagation, and it never retries a
decision that propagated cleanly.  Everything else -- the reflexive
triangle, T3r, the whole U family, custom targets, plain mode and
reflexive inputs -- is left to the search (None).  Every yes answer
carries a witness.

An answer is a solver.SolveResult, as the search's are, with its
algorithm label; the DP and the degree rule report 0 nodes, and the
T2r ios route keeps the search's own count.
"""

from __future__ import annotations

import dataclasses
import operator
from functools import lru_cache
from itertools import chain

from .graphs import Mode, OrientedGraph
from .solver import Homomorphism, SolveResult, _MaskTable, _target, solve
from .targets import TargetSpec


# --- transfer DP over components of underlying degree <= 2 ---


@lru_cache(maxsize=8)
def _tables(h: OrientedGraph) -> tuple:
    """The DP's state tables for target h, built from the masks of the
    solver's _Target for h.  They are shared by every call against an
    equal target and kept for the last eight targets, a bound of their
    own since U100's alone take about 53 MB.  A state a * h.n + b says
    that two consecutive walk vertices take images a, b; a layer is the
    mask of its states.

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
    target = _target(h)
    # after[b]: the mask of the images c that may follow image b
    for f, after in ((True, target.out_support.masks), (False, target.in_support.masks)):
        arcs[f] = sum(after[a] << a * n for a in range(n))
        for d in (True, False):
            # step[a * n + b]: the states (b, c); back[b * n + c]: the states (a, b)
            step = [(after[b] & ~(d << a)) << b * n for a in range(n) for b in range(n)]
            back = [(column << b) & ~(d << c * n + b) if after[b] >> c & 1 else 0
                    for b in range(n) for c in range(n)]
            moves[f, d] = step, back
    return arcs, moves


def _walk_nbrs(g: OrientedGraph):
    """Each vertex's first and second underlying neighbour, in no set
    order, as two flat lists with -1 for none; None as soon as some vertex
    has a third: g branches.  g is oriented, so no pair of vertices is met
    twice."""
    first = [-1] * g.n
    second = [-1] * g.n
    for u, v in g.arcs:
        if first[u] < 0:
            first[u] = v
        elif second[u] < 0:
            second[u] = v
        else:
            return None
        if first[v] < 0:
            first[v] = u
        elif second[v] < 0:
            second[v] = u
        else:
            return None
    return first, second


def _component_orders(nbrs):
    """Each weak component with an arc as (is_cycle, vertex walk along
    the underlying path or cycle), given _walk_nbrs.  A path is walked
    from its lower end, a cycle from its lowest vertex towards that
    vertex's lower neighbour.  Only a start vertex's neighbours need an
    order: from any other vertex the walk goes on to the neighbour it did
    not come from.  The scan stops once every vertex with a neighbour has
    been walked, so the last component marks no vertex as seen."""
    first, second = nbrs
    left = len(first) - first.count(-1)  # vertices with a neighbour, not yet walked
    seen = None
    for v, a in enumerate(first):
        if a < 0 or seen is not None and seen[v]:
            continue
        b = second[v]
        if a > b >= 0:
            a, b = b, a
        ahead = _walk_away(first, second, v, a)
        is_cycle = second[ahead[-1]] >= 0  # the walk came back round to v
        if is_cycle:
            order = [v] + ahead
        else:
            behind = _walk_away(first, second, v, b) if b >= 0 else []
            order = behind[::-1] + [v] + ahead
            if order[-1] < order[0]:
                order.reverse()
        left -= len(order)
        if not left:
            yield is_cycle, order
            return
        if seen is None:
            seen = [False] * len(first)
        for w in order:
            seen[w] = True
        yield is_cycle, order


def _walk_away(first, second, start, cur) -> list:
    """The vertices from cur on, stepping away from start, up to a path
    end or back round to start (not included)."""
    walk = []
    prev = start
    while cur != start:
        walk.append(cur)
        nxt = first[cur]
        if nxt == prev:
            nxt = second[cur]
            if nxt < 0:  # a path end
                break
        prev, cur = cur, nxt
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
    # moves[before, after]: the move of a walk vertex whose arcs before
    # and after it point along the walk or not.  Its two neighbours must
    # take distinct images under iot always, under ios where the walk
    # turns (both arcs point into or both out of the vertex)
    moves = {}
    for before in (True, False):
        for after in (True, False):
            differ = mode is Mode.IOT or mode is Mode.IOS and before != after
            moves[before, after] = table[after, differ]
    has = g.arcs.__contains__
    assignment = [0] * g.n
    for is_cycle, order in _component_orders(nbrs):
        first = arcs[has((order[0], order[1]))]
        states = _dp(first, _walk_moves(order, is_cycle, has, moves), is_cycle)
        if states is None:
            return None
        assignment[order[0]] = states[0] // n
        for v, s in zip(order[1:], states):
            assignment[v] = s % n
    return assignment


_CHUNK = 16  # moves in a walk's first chunk; each later chunk is twice as long


def _walk_moves(order, is_cycle, has, moves):
    """The moves of the walk along order, in chunks of doubling size, so
    a walk that dies early builds few of them.  Walk vertex i's move
    steps from the images of walk vertices i-1, i to i, i+1, through
    moves[before, after] for the arcs on either side of i; has says
    whether an arc of g points along the walk.  The walk runs from vertex
    1's move to the last vertex's, and a cycle's goes on through the
    closing arc and vertex 0's move, back to the first arc."""
    size = len(order)
    end = size if is_cycle else size - 1  # walk vertices 1 .. end-1 move
    first = before = has((order[0], order[1]))
    i, chunk = 1, _CHUNK
    while i < end:
        j = min(i + chunk, end)
        ends = order[i + 1:j + 1]
        if j == size:
            ends.append(order[0])
        forwards = list(map(has, zip(order[i:j], ends)))
        batch = list(map(moves.__getitem__, zip(chain((before,), forwards), forwards)))
        before = forwards[-1]
        if j == size:
            batch.append(moves[before, first])
        yield batch
        i, chunk = j, 2 * chunk


def _step(layers, moves) -> bool:
    """Step the last of layers through moves, appending a mask per move;
    False at the first empty one."""
    mask = layers[-1]
    append = layers.append
    for move in moves:
        mask = move[mask]
        if not mask:
            return False
        append(mask)
    return True


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


def _dp(first, chunks, closed):
    """The states of a walk from first through the moves that chunks
    yields, or None.  A walk from all of first's states at once stops at
    its first empty layer: then no walk works.  A path's witness is traced
    back through that walk's layers.  A closed walk must end in the state
    it starts from, and its start states are tried in turn, each alone,
    over the masks that earlier passes left.  The lowest is walked before
    the all-states walk, so a cycle that closes from it takes one pass; a
    start state's own walk ends inside the all-states walk's last layer,
    so only the start states in that layer are tried after it."""
    if not first:
        return None
    walk = []
    tried = 0
    if closed:
        tried = first & -first
        layers = [tried]
        for moves in chunks:
            walk += moves
            if not _step(layers, moves):
                break
        else:
            if layers[-1] & tried:
                return _trace_back(layers, walk, tried.bit_length() - 1)
    layers = [first]
    if not _step(layers, walk):
        return None
    for moves in chunks:
        walk += moves
        if not _step(layers, moves):
            return None
    last = layers[-1]
    if not closed:
        return _trace_back(layers, walk, (last & -last).bit_length() - 1)
    starts = first & last & ~tried
    while starts:
        start = starts & -starts
        starts ^= start
        layers = [start]
        if _step(layers, walk) and layers[-1] & start:
            return _trace_back(layers, walk, start.bit_length() - 1)
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
    """Decide by the polynomial route as a SolveResult, or return None
    to leave g to the search.

    Reflexive inputs are left to the search.  An input of underlying
    degree at most 2 goes to the transfer DP, against any target.  A
    branching input is a no for a tabled pair, is decided by the search
    for T2r under ios (2-SAT there), and is left to the search otherwise.
    """
    mode = Mode.parse(mode)
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
        return SolveResult(images is not None, witness, algorithm=label or "degree2-dp")
    if label is None:
        return None
    if (spec.name, mode) != ("T2r", Mode.IOS):
        return SolveResult(False, None, algorithm=label)
    return dataclasses.replace(solve(g, spec.build(), mode), algorithm=label)
