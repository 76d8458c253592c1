"""Exact backtracking search for locally injective homomorphisms.

A (G, H, mode) question becomes a binary constraint problem: one variable
per vertex of G with domain V(H), arc constraints for arc preservation,
and difference constraints between any two vertices that appear together
in a neighbourhood the mode protects.  Propagation keeps both constraint
kinds locally consistent, so the forcing gadgets collapse by unit
propagation instead of search.  Domains are bitmasks, and the values an
arc neighbour may take are read from tables indexed by domain mask.
Those tables are shared between searches against equal targets; the
input's side of the problem is built afresh for each search.

The search is depth-first on an explicit stack, with one domain list and
a trail of changes undone on backtracking, so input size is not bounded
by the interpreter's recursion limit and no node copies the domains.
Deciding and enumerating run the same loop.  Deciding (stopping at the
first solution) also solves the parts that the decided vertices split
the rest into one at a time, and a part without a solution fails the
decision that split it off; enumeration is that loop without splits or
backjumps, in the plain chronological order.

Reflexive input graphs are accepted: a loop puts the vertex inside its
own neighbourhoods (so its image must differ from its protected
neighbours' images) and demands a reflexive target.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Iterator

from .graphs import Mode, OrientedGraph


@dataclass(frozen=True)
class Homomorphism:
    """A total vertex map into a target, tagged with the mode it satisfies."""

    map: tuple
    mode: Mode


@dataclass
class SolveResult:
    satisfiable: bool
    witness: Homomorphism | None
    nodes_explored: int


def check_hom(g: OrientedGraph, h: OrientedGraph, f, mode: Mode = Mode.PLAIN) -> bool:
    """Is f a mode-injective homomorphism from g to h?

    f must assign an image in range(h.n) to every vertex; anything else is
    a ValueError, not a False.
    """
    f = tuple(f)
    if len(f) != g.n:
        raise ValueError(f"map covers {len(f)} vertices, graph has {g.n}")
    for a in f:
        if not 0 <= a < h.n:
            raise ValueError(f"image {a} out of range for target on {h.n} vertices")
    if g.reflexive and not h.reflexive and g.n > 0:
        return False  # loops cannot map anywhere
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
        else:  # IOT
            nbhd = set(ins) | set(outs)
            if len({f[y] for y in nbhd}) != len(nbhd):
                return False
    return True


def protected_pairs(g: OrientedGraph, mode: Mode) -> list:
    """Unordered vertex pairs the mode forces to distinct images: pairs
    inside one in- or out-neighbourhood (IOS) or inside a full
    neighbourhood (IOT), closed neighbourhoods if g is reflexive."""
    pairs = set()
    if mode is Mode.PLAIN:
        return []
    for x in range(g.n):
        ins = list(g.in_nbrs[x])
        outs = list(g.out_nbrs[x])
        if g.reflexive:
            ins.append(x)
            outs.append(x)
        if mode is Mode.IOS:
            groups = (ins, outs)
        else:
            groups = (sorted(set(ins) | set(outs)),)
        for group in groups:
            for a, b in itertools.combinations(group, 2):
                if a != b:
                    pairs.add((a, b) if a < b else (b, a))
    return sorted(pairs)


class _Csp:
    """One prepared search instance; not reusable across calls.

    The graph side holds, for each vertex, its must-differ partners, its
    constraint neighbours (arc or must-differ), and the must-differ pairs
    it belongs to that share an arc neighbour, as (a, b, common heads,
    common tails)."""

    def __init__(self, g: OrientedGraph, h: OrientedGraph, mode: Mode, pins=None):
        self.g = g
        self.h = h
        self.mode = mode
        self.nodes = 0
        self.infeasible = g.reflexive and not h.reflexive and g.n > 0
        hn = h.n
        self.out_support, self.in_support, self.out_common, self.in_common = _target_tables(h)
        pairs = protected_pairs(g, mode)
        diff_adj = [[] for _ in range(g.n)]
        nbrs = [set() for _ in range(g.n)]
        for u, v in g.arcs:
            nbrs[u].add(v)
            nbrs[v].add(u)
        # must-differ pairs sharing an arc neighbour: when the pair's two
        # domains cover only two values, both values are taken, so the
        # shared neighbour is constrained by both at once
        pairs_at = [[] for _ in range(g.n)]
        for a, b in pairs:
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
        self.diff_adj = diff_adj
        self.constraint_nbrs = [sorted(s) for s in nbrs]
        self.pairs_at = pairs_at
        self.start = [(1 << hn) - 1] * g.n
        if pins:
            for v, a in pins.items():
                if not (isinstance(v, int) and 0 <= v < g.n):
                    raise ValueError(f"pin on unknown vertex {v!r}")
                if not (isinstance(a, int) and 0 <= a < hn):
                    raise ValueError(f"pin image {a!r} out of range for target on {hn} vertices")
                self.start[v] &= 1 << a

    def _propagate(self, dom, stack, trail) -> bool:
        """Shrink domains to the fixpoint of the constraints, starting from
        the vertices in stack.  Every change is logged on trail as (vertex,
        old domain).  A wipeout returns False and leaves its partial
        changes on trail for the caller to undo."""
        out_support = self.out_support
        in_support = self.in_support
        out_common = self.out_common
        in_common = self.in_common
        out_nbrs = self.g.out_nbrs
        in_nbrs = self.g.in_nbrs
        diff_adj = self.diff_adj
        pairs_at = self.pairs_at
        log = trail.append
        while stack:
            v = stack.pop()
            dv = dom[v]
            if out_nbrs[v]:
                support = out_support[dv]
                for w in out_nbrs[v]:
                    dw = dom[w]
                    nd = dw & support
                    if nd != dw:
                        if not nd:
                            return False
                        log((w, dw))
                        dom[w] = nd
                        stack.append(w)
            if in_nbrs[v]:
                support = in_support[dv]
                for u in in_nbrs[v]:
                    du = dom[u]
                    nd = du & support
                    if nd != du:
                        if not nd:
                            return False
                        log((u, du))
                        dom[u] = nd
                        stack.append(u)
            if dv & (dv - 1) == 0:  # singleton: push difference constraints
                for w in diff_adj[v]:
                    dw = dom[w]
                    nd = dw & ~dv
                    if nd != dw:
                        if not nd:
                            return False
                        log((w, dw))
                        dom[w] = nd
                        stack.append(w)
            for a, b, heads, tails in pairs_at[v]:
                union = dom[a] | dom[b]
                if union.bit_count() != 2:
                    continue
                both_out = out_common[union]
                for w in heads:
                    dw = dom[w]
                    nd = dw & both_out
                    if nd != dw:
                        if not nd:
                            return False
                        log((w, dw))
                        dom[w] = nd
                        stack.append(w)
                if tails:
                    both_in = in_common[union]
                    for w in tails:
                        dw = dom[w]
                        nd = dw & both_in
                        if nd != dw:
                            if not nd:
                                return False
                            log((w, dw))
                            dom[w] = nd
                            stack.append(w)
        return True

    def _root(self):
        """The domains after the pins and root propagation, or None when
        they already leave no solution.  Needs a non-empty input."""
        if self.h.n == 0 or self.infeasible:
            return None
        dom = list(self.start)
        if not all(dom) or not self._propagate(dom, list(range(self.g.n)), []):
            return None
        return dom

    def solutions(self, first_only=False) -> Iterator[tuple]:
        """The solutions, depth-first on an explicit stack of frames.

        Domains live in one list.  Every change is logged on a trail, and
        backtracking undoes the trail to the frame's mark, so no node
        copies the domains.  A frame holds its branch vertex, the values
        not yet tried there, its trail mark, the node's frontier, a lower
        bound on the lowest undecided index, a backjump target (the index
        of the frame to resume when this one runs out of values) and the
        agenda of parts still to solve, a linked list of (frontier,
        backjump target, rest of the agenda) shared between frames.

        Enumeration resumes the parent of every frame that runs out of
        values: the chronological order.  A search for the first solution
        only (first_only) works part by part.  Once propagation is at its
        fixpoint, a constraint between a decided and an undecided vertex is
        unary, so undecided vertices joined only through decided ones share
        no constraint.  When a decision splits the undecided part it was
        made in, the parts are solved one after another, and a part whose
        first frame runs out of values fails the decision that split it
        off, past the frames of the parts solved before; a component that
        no decision touches fails the whole search.  The first part taken
        holds the frontier vertex enumeration would branch on, so an input
        that never splits is searched exactly as there.  After the first
        solution such a search may skip others.

        Against a target of at most two vertices every undecided domain is
        the whole target, so once propagation settles, the constraints left
        among undecided vertices are some of the input's own: a part
        without a solution means the input has none, and a first-only
        search fails every frame back to the root.  No decision that
        propagated cleanly is retried, so it takes at most two nodes per
        vertex; this is how it decides 2-SAT (Even, Itai & Shamir, SIAM J.
        Comput. 5(4), 1976).
        """
        n = self.g.n
        if n == 0:
            yield ()
            return
        dom = self._root()
        if dom is None:
            return
        self._owner = [0] * n
        self._next_id = 1
        self._first_only = first_only
        trail = []
        decided = [v for v in range(n) if dom[v] & (dom[v] - 1) == 0]
        frame = self._next_frame(dom, set(), decided, None, -1, 0, 0)
        if frame is None:
            yield tuple(d.bit_length() - 1 for d in dom)
            return
        frames = [frame]
        to_root = first_only and self.h.n <= 2
        while frames:
            frame = frames[-1]
            best, untried, mark, front, low_free, back, agenda = frame
            if len(trail) > mark:
                for v, old in reversed(trail[mark:]):
                    dom[v] = old
                del trail[mark:]
            if not untried:
                del frames[back + 1:]
                continue
            value = untried & -untried
            frame[1] = untried ^ value
            self.nodes += 1
            trail.append((best, dom[best]))
            dom[best] = value
            if not self._propagate(dom, [best], trail):
                continue
            decided = [w for w, _ in trail[mark:] if dom[w] & (dom[w] - 1) == 0]
            at = -1 if to_root else len(frames) - 1
            frame = self._next_frame(dom, front, decided, agenda, at, low_free, len(trail))
            if frame is None:
                yield tuple(d.bit_length() - 1 for d in dom)
            else:
                frames.append(frame)

    def _next_frame(self, dom, front, decided, agenda, at, low_free, mark):
        """The frame that follows frame at's decision, or None when every
        vertex is decided; at is -1 for the root and mark is the trail
        length.

        The frontier holds the undecided vertices with a decided
        constraint-neighbour: the parent's less what is now decided, plus
        the undecided neighbours of what is.  In a first-only search, when
        the decision has two or more undecided neighbours, the parts they
        fall into are split off: the part holding the best frontier vertex
        is searched now and the others go on the agenda, each to fail back
        to frame at.  A part with no frontier left is solved, and the
        agenda gives the next one.  With the agenda empty, only components
        that nothing decided touches are left: the lowest undecided index
        starts the next, failing back to frame at, or to the root in a
        first-only search.
        """
        nbrs = self.constraint_nbrs
        front = front.difference(decided)
        seeds = set()  # the undecided neighbours of what is now decided
        for w in decided:
            for x in nbrs[w]:
                if dom[x] & (dom[x] - 1):
                    seeds.add(x)
        front |= seeds
        back = at
        if front:
            best = _best(dom, front)
            if len(seeds) > 1 and self._first_only:
                parts = []
                for part in self._split(dom, seeds):
                    part_front = front.intersection(part)
                    front -= part_front
                    parts.append(part_front)
                if parts:
                    parts.append(front)  # the rest
                    for part_front in reversed(parts):
                        if best in part_front:
                            front = part_front
                        else:
                            agenda = (part_front, at, agenda)
        elif agenda is not None:
            front, back, agenda = agenda
            best = _best(dom, front)
        else:
            low_free = _lowest_free(dom, low_free)
            if low_free == len(dom):
                return None
            best = low_free
            if self._first_only:
                back = -1
        return [best, dom[best], mark, front, low_free, back, agenda]

    def _split(self, dom, seeds) -> list:
        """The parts of the undecided vertices that the seeds fall into,
        less one: a search from every seed in lockstep, one vertex per
        turn, two searches merging where they meet, stopped as soon as at
        most one is unfinished.  So the cost is about that of the finished
        parts, which come back as vertex lists; the unfinished one, the
        rest, does not.

        owner[v] - base is the index of the search that reached v; values
        below base are left over from earlier splits.
        """
        nbrs = self.constraint_nbrs
        # seeds joined by constraints among themselves lie in one part
        reached = {next(iter(seeds))}
        stack = list(reached)
        while stack:
            for x in nbrs[stack.pop()]:
                if x in seeds and x not in reached:
                    reached.add(x)
                    stack.append(x)
        if len(reached) == len(seeds):
            return []
        owner = self._owner
        base = self._next_id
        members = []
        for s in seeds:
            owner[s] = base + len(members)
            members.append([s])
        self._next_id = base + len(members)
        todo = [[s] for s in seeds]
        live = range(len(members))
        unfinished = len(members)
        finished = []
        while unfinished > 1:
            still = []
            for i in live:
                queue = todo[i]
                if not queue or members[i] is None:
                    continue  # finished, or merged into another search
                for x in nbrs[queue.pop()]:
                    j = owner[x] - base
                    if j == i:
                        continue
                    d = dom[x]
                    if not d & (d - 1):
                        continue  # decided
                    if j < 0:
                        owner[x] = base + i
                        members[i].append(x)
                        queue.append(x)
                    else:  # merge the smaller search into the larger
                        if len(members[j]) > len(members[i]):
                            i, j = j, i
                            queue = todo[i]
                        for y in members[j]:
                            owner[y] = base + i
                        members[i] += members[j]
                        queue += todo[j]
                        members[j] = None
                        unfinished -= 1
                if queue:
                    still.append(i)
                else:
                    finished.append(members[i])
                    unfinished -= 1
                if unfinished <= 1:
                    break
            live = still
        return finished


def _best(dom, front) -> int:
    """The frontier vertex with the smallest domain, lowest index on ties.

    Branching next to the decided region makes forcing sweep outward
    through one gadget block at a time."""
    best = -1
    best_size = 1 << 30
    for v in sorted(front):
        size = dom[v].bit_count()
        if size < best_size:
            best = v
            best_size = size
            if size == 2:  # no undecided domain is smaller
                break
    return best


def _lowest_free(dom, low_free) -> int:
    """The lowest undecided index from a lower bound, len(dom) if none."""
    n = len(dom)
    while low_free < n and dom[low_free] & (dom[low_free] - 1) == 0:
        low_free += 1
    return low_free


@functools.lru_cache(maxsize=256)
def _target_tables(h: OrientedGraph) -> tuple:
    """Mask tables of one target: supports (the values an arc neighbour
    may take, given a domain) and commons (the values an arc neighbour of
    both ends of a two-valued must-differ pair may take), out and in.

    Entries depend on the target alone, so every search against an equal
    target shares them, such as the named targets the command line builds
    afresh for each command.  The bound holds every named target and the
    whole tournament catalogue, irreflexive and reflexive (152 targets),
    with room to spare, so a caller that walks the catalogue in the same
    order on every call does not miss every time.
    """
    out_mask = [0] * h.n
    in_mask = [0] * h.n
    for a, b in h.arcs:
        out_mask[a] |= 1 << b
        in_mask[b] |= 1 << a
    if h.reflexive:
        for a in range(h.n):
            out_mask[a] |= 1 << a
            in_mask[a] |= 1 << a
    full = (1 << h.n) - 1
    return (
        _MaskTable(out_mask, operator.or_, 0),
        _MaskTable(in_mask, operator.or_, 0),
        _MaskTable(out_mask, operator.and_, full),
        _MaskTable(in_mask, operator.and_, full),
    )


class _MaskTable(dict):
    """A target's per-value masks folded (by union or intersection) over
    the values of a domain mask, indexed by the domain mask.  Entries are
    filled on first use, each from the entry without its lowest value, so
    a target of any size pays only for the domains that occur."""

    def __init__(self, masks, fold, empty):
        super().__init__({0: empty})
        self.masks = masks
        self.fold = fold

    def __missing__(self, dom):
        chain = []  # dom, then dom less its lowest values, down to an entry
        while dom not in self:
            chain.append(dom)
            dom &= dom - 1
        combined = self[dom]
        for sub in reversed(chain):
            low = sub & -sub
            combined = self.fold(combined, self.masks[low.bit_length() - 1])
            self[sub] = combined
        return combined


def enumerate_homs(g, h, mode: Mode, pins=None, limit=None) -> Iterator[tuple]:
    """Yield mode-injective homomorphisms g -> h as image tuples, in
    deterministic (lexicographic-by-branching) order."""
    gen = _Csp(g, h, mode, pins).solutions()
    if limit is None:
        yield from gen
    else:
        yield from itertools.islice(gen, limit)


def solve(g, h, mode: Mode, pins=None) -> SolveResult:
    """Decide mode-injective homomorphisms from g to h; the witness is the
    first one the part-by-part search finds."""
    csp = _Csp(g, h, mode, pins)
    first = next(csp.solutions(first_only=True), None)
    witness = Homomorphism(first, mode) if first is not None else None
    return SolveResult(
        satisfiable=first is not None,
        witness=witness,
        nodes_explored=csp.nodes,
    )
