"""Exact backtracking search for locally injective homomorphisms.

A (G, H, mode) question becomes a binary constraint problem: one variable
per vertex of G with domain V(H), arc constraints for arc preservation,
and difference constraints between any two vertices that appear together
in a neighbourhood the mode protects.  Propagation keeps both constraint
kinds locally consistent, so the forcing gadgets collapse by unit
propagation instead of search.  Domains are bitmasks; targets are tiny.

Reflexive input graphs are accepted: a loop puts the vertex inside its
own neighbourhoods (so its image must differ from its protected
neighbours' images) and demands a reflexive target.
"""

from __future__ import annotations

import itertools
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


def _bit_indices(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
        out_mask = [0] * hn
        in_mask = [0] * hn
        for a, b in h.arcs:
            out_mask[a] |= 1 << b
            in_mask[b] |= 1 << a
        if h.reflexive:
            for a in range(hn):
                out_mask[a] |= 1 << a
                in_mask[a] |= 1 << a
        self.out_mask = out_mask
        self.in_mask = in_mask
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
        full = (1 << hn) - 1
        self.start = [full] * g.n
        if pins:
            for v, a in pins.items():
                if not (isinstance(v, int) and 0 <= v < g.n):
                    raise ValueError(f"pin on unknown vertex {v!r}")
                if not (isinstance(a, int) and 0 <= a < hn):
                    raise ValueError(f"pin image {a!r} out of range for target on {hn} vertices")
                self.start[v] &= 1 << a

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
            if dv & (dv - 1) == 0:  # singleton: push difference constraints
                for w in self.diff_adj[v]:
                    nd = dom[w] & ~dv
                    if nd != dom[w]:
                        if not nd:
                            return False
                        dom[w] = nd
                        stack.append(w)
            for a, b, heads, tails in self.pairs_at[v]:
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

    def solutions(self) -> Iterator[tuple]:
        if self.g.n == 0:
            yield ()
            return
        if self.h.n == 0 or self.infeasible:
            return
        dom = list(self.start)
        if any(d == 0 for d in dom):
            return
        if not self._propagate(dom, list(range(self.g.n))):
            return
        yield from self._search(dom)

    def _search(self, dom) -> Iterator[tuple]:
        # branch next to the decided region so forcing sweeps outward
        # through one gadget block at a time: among undecided vertices
        # with a decided constraint-neighbour take the smallest domain
        # (lowest index on ties); with no frontier, the lowest undecided
        # index seeds the next component
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
