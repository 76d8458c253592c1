"""Exact backtracking search for locally injective homomorphisms.

A (G, H, mode) question becomes a binary constraint problem: one variable
per vertex of G with domain V(H), arc constraints for arc preservation,
and difference constraints between any two vertices that appear together
in a neighbourhood the mode protects.  Propagation keeps both constraint
kinds locally consistent, so the forcing gadgets collapse by unit
propagation instead of search.  Domains are bitmasks, and the values an
arc neighbour may take are read from tables indexed by domain mask.

The search is depth-first on an explicit stack, with one domain list and
a trail of changes undone on backtracking, so input size is not bounded
by the interpreter's recursion limit and no node copies the domains.

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
    count: int | None  # total solutions when enumerating, else None
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
    """One prepared search instance; not reusable across calls."""

    def __init__(self, g: OrientedGraph, h: OrientedGraph, mode: Mode, pins=None):
        self.g = g
        self.h = h
        self.mode = mode
        self.nodes = 0
        self.infeasible = g.reflexive and not h.reflexive and g.n > 0
        hn = h.n
        self.out_support, self.in_support, self.out_common, self.in_common = _target_tables(h)
        pairs = protected_pairs(g, mode)
        self.diff_adj = [[] for _ in range(g.n)]
        for a, b in pairs:
            self.diff_adj[a].append(b)
            self.diff_adj[b].append(a)
        nbrs = [set() for _ in range(g.n)]
        for u, v in g.arcs:
            nbrs[u].add(v)
            nbrs[v].add(u)
        for a, b in pairs:
            nbrs[a].add(b)
            nbrs[b].add(a)
        self.constraint_nbrs = [tuple(sorted(s)) for s in nbrs]
        # must-differ pairs sharing an arc neighbour: when the pair's two
        # domains cover only two values, both values are taken, so the
        # shared neighbour is constrained by both at once
        self.pairs_at = [[] for _ in range(g.n)]
        for a, b in pairs:
            heads = sorted(set(g.out_nbrs[a]) & set(g.out_nbrs[b]))
            tails = sorted(set(g.in_nbrs[a]) & set(g.in_nbrs[b]))
            if heads or tails:
                entry = (a, b, tuple(heads), tuple(tails))
                self.pairs_at[a].append(entry)
                self.pairs_at[b].append(entry)
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

    def solutions(self) -> Iterator[tuple]:
        """Depth-first search on an explicit stack of frames.

        Domains live in one list.  Every change is logged on a trail, and
        backtracking undoes the trail to the frame's mark, so no node
        copies the domains.  A frame holds its branch vertex, the values
        not yet tried there, its trail mark, the node's frontier and a
        lower bound on the lowest undecided index.
        """
        n = self.g.n
        if n == 0:
            yield ()
            return
        if self.h.n == 0 or self.infeasible:
            return
        dom = list(self.start)
        if not all(dom):
            return
        trail = []
        if not self._propagate(dom, list(range(n)), trail):
            return
        trail.clear()  # the root's own changes are never undone
        nbrs = self.constraint_nbrs
        decided = [v for v in range(n) if dom[v] & (dom[v] - 1) == 0]
        best, front, low_free = _next_branch(dom, nbrs, set(), decided, 0)
        if best < 0:
            yield tuple(d.bit_length() - 1 for d in dom)
            return
        frames = [[best, dom[best], 0, front, low_free]]
        while frames:
            frame = frames[-1]
            best, untried, mark, front, low_free = frame
            if len(trail) > mark:
                for v, old in reversed(trail[mark:]):
                    dom[v] = old
                del trail[mark:]
            if not untried:
                frames.pop()
                continue
            value = untried & -untried
            frame[1] = untried ^ value
            self.nodes += 1
            trail.append((best, dom[best]))
            dom[best] = value
            if not self._propagate(dom, [best], trail):
                continue
            decided = [w for w, _ in trail[mark:] if dom[w] & (dom[w] - 1) == 0]
            best, front, low_free = _next_branch(dom, nbrs, front, decided, low_free)
            if best < 0:
                yield tuple(d.bit_length() - 1 for d in dom)
            else:
                frames.append([best, dom[best], len(trail), front, low_free])


def _next_branch(dom, nbrs, front, decided, low_free) -> tuple:
    """The vertex to branch on next, the node's frontier and the advanced
    lowest-undecided bound, given the parent's frontier and the vertices
    decided since.

    The frontier holds the undecided vertices with a decided
    constraint-neighbour: the parent's less what is now decided, plus the
    undecided neighbours of what is.  Branching next to the decided region
    makes forcing sweep outward through one gadget block at a time: take
    the frontier vertex with the smallest domain, lowest index on ties.
    With no frontier, the lowest undecided index seeds the next component.
    The vertex is -1 when all are decided.
    """
    front = front.difference(decided)
    for w in decided:
        for x in nbrs[w]:
            if dom[x] & (dom[x] - 1):
                front.add(x)
    best = -1
    best_size = 1 << 30
    for v in sorted(front):
        size = dom[v].bit_count()
        if size < best_size:
            best = v
            best_size = size
            if size == 2:  # no undecided domain is smaller
                break
    if best < 0:
        n = len(dom)
        while low_free < n and dom[low_free] & (dom[low_free] - 1) == 0:
            low_free += 1
        if low_free < n:
            best = low_free
    return best, front, low_free


@functools.lru_cache(maxsize=256)
def _target_tables(h: OrientedGraph) -> tuple:
    """Mask tables of one target: supports (the values an arc neighbour
    may take, given a domain) and commons (the values an arc neighbour of
    both ends of a two-valued must-differ pair may take), out and in.

    Entries depend on the target alone, so every search against an equal
    target shares them; chi's many small solves against the same catalogue
    tournaments would otherwise refill them each time.  The bound holds
    chi's whole catalogue, irreflexive and reflexive (152 targets): chi
    cycles through it in order, which a smaller LRU cache misses on every
    call.
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


def solve(g, h, mode: Mode, enumerate_all: bool = False, limit=None, pins=None) -> SolveResult:
    """Decide (or count) mode-injective homomorphisms from g to h.

    With enumerate_all the count field holds the number of solutions
    found (capped by limit when given); otherwise the search stops at the
    first witness and count is None.
    """
    csp = _Csp(g, h, mode, pins)
    first = None
    count = 0
    for sol in csp.solutions():
        if first is None:
            first = sol
        count += 1
        if not enumerate_all:
            break
        if limit is not None and count >= limit:
            break
    witness = Homomorphism(first, mode) if first is not None else None
    return SolveResult(
        satisfiable=first is not None,
        witness=witness,
        count=count if enumerate_all else None,
        nodes_explored=csp.nodes,
    )
