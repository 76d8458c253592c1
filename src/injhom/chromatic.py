"""Injective oriented chromatic numbers.

A flavour-k-colouring of an oriented graph is a homomorphism, injective
in the flavour's sense, to some tournament on k vertices (reflexive for
the improper flavours, loopless for the proper one).  The chromatic
number is the least such k.  Targets are enumerated from a catalogue of
tournaments up to isomorphism, which keeps the search tiny through k=6,
and a tournament without room for the input's vertex degrees is skipped
without a search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .graphs import Mode, OrientedGraph, is_tournament
from .reductions import canonical_flavour
from .solver import enumerate_homs, solve

TOURNAMENT_CAP = 6


def canonical_tournament_key(g: OrientedGraph) -> int:
    """Isomorphism-invariant integer key: the minimum of the
    upper-triangle orientation bitmap over the vertex orders that sort
    the vertices by score (out-degree), ties broken by the sorted scores
    of their out-neighbours.

    Both sort keys are invariants, so every isomorphism maps this set of
    orders onto the other tournament's, and the minimum is still a
    complete invariant; only vertices with equal keys are permuted among
    themselves (the refinement idea of McKay & Piperno, "Practical graph
    isomorphism, II", J. Symbolic Computation 60, 2014)."""
    if not is_tournament(g):
        raise ValueError("key is defined for tournaments only")
    score = [len(out) for out in g.out_nbrs]
    invariant = [(score[v], sorted(score[w] for w in g.out_nbrs[v])) for v in range(g.n)]
    ranked = sorted(range(g.n), key=invariant.__getitem__)
    classes = [tuple(c) for _, c in itertools.groupby(ranked, key=invariant.__getitem__)]
    pairs = list(itertools.combinations(range(g.n), 2))
    best = None
    for parts in itertools.product(*map(itertools.permutations, classes)):
        perm = [v for part in parts for v in part]
        code = 0
        for u, v in pairs:
            code = (code << 1) | (1 if g.has_arc(perm[u], perm[v]) else 0)
        if best is None or code < best:
            best = code
    return best


@lru_cache(maxsize=None)
def enumerate_tournaments(k: int) -> tuple:
    """All tournaments on k vertices up to isomorphism (loopless),
    sorted by canonical key.  k is capped at 6; counts go
    1, 1, 2, 4, 12, 56."""
    if not 0 <= k <= TOURNAMENT_CAP:
        raise ValueError(f"tournament catalogue is capped at {TOURNAMENT_CAP} vertices")
    if k == 0:
        return (OrientedGraph(0, ()),)
    found = {}
    for smaller in enumerate_tournaments(k - 1):
        new = k - 1
        for pattern in range(1 << new):
            arcs = list(smaller.arcs)
            for old in range(new):
                if pattern >> old & 1:
                    arcs.append((old, new))
                else:
                    arcs.append((new, old))
            t = OrientedGraph(k, arcs)
            found.setdefault(canonical_tournament_key(t), t)
    return tuple(t for _, t in sorted(found.items()))


@lru_cache(maxsize=None)
def _reflexive_tournaments(k: int) -> tuple:
    """Reflexive copies of the catalogue's k-vertex tournaments, the
    targets of both improper flavours; built once per process."""
    return tuple(OrientedGraph(t.n, t.arcs, True) for t in enumerate_tournaments(k))


@lru_cache(maxsize=None)
def _targets(k: int, reflexive: bool, mode: Mode) -> tuple:
    """A flavour's k-vertex targets, each with its room in the mode."""
    targets = _reflexive_tournaments(k) if reflexive else enumerate_tournaments(k)
    return tuple((h, _room(h, mode)) for h in targets)


def _room(h: OrientedGraph, mode: Mode) -> frozenset:
    """For each vertex a of h, the most out-neighbours, in-neighbours and
    neighbours in all that an input vertex mapped to a can have in an ios
    or iot homomorphism: they take distinct out-neighbours of a,
    distinct in-neighbours of a and, in iot, distinct vertices of a's
    whole neighbourhood (a itself counts once, if h has loops)."""
    loop = int(h.reflexive)
    outs = [loop] * h.n
    ins = [loop] * h.n
    for a, b in h.arcs:
        outs[a] += 1
        ins[b] += 1
    return frozenset((o, i, o + i - loop if mode is Mode.IOT else o + i) for o, i in zip(outs, ins))


def _degrees_fit(need, room) -> bool:
    """False when some (out-degree, in-degree) pair in need fits in no
    vertex's room, so that no homomorphism from a graph with those
    degrees exists; True says nothing."""
    return all(any(d_out <= outs and d_in <= ins and d_out + d_in <= both
                   for outs, ins, both in room)
               for d_out, d_in in need)


class ChiCapError(ValueError):
    """The chromatic number exceeds the tournament catalogue cap."""


@dataclass(frozen=True)
class ChiResult:
    value: int
    tournament: OrientedGraph
    witness: tuple


_FLAVOUR_SETTINGS = {
    "proper-ios": (Mode.IOS, False),
    "improper-ios": (Mode.IOS, True),
    "improper-iot": (Mode.IOT, True),
}


def flavour_settings(flavour: str):
    """(mode, targets reflexive?) for a canonical flavour name."""
    return _FLAVOUR_SETTINGS[canonical_flavour(flavour)]


def chi(g: OrientedGraph, flavour: str) -> ChiResult:
    """Least k such that g has a flavour colouring with k colours,
    with the witness tournament and map.  Raises ChiCapError when no
    tournament up to the catalogue cap works."""
    if g.reflexive:
        raise ValueError("chromatic numbers are for irreflexive inputs")
    mode, reflexive = flavour_settings(flavour)
    need = {(len(out), len(ins)) for out, ins in zip(g.out_nbrs, g.in_nbrs)}
    start = 0 if g.n == 0 else 1
    for k in range(start, TOURNAMENT_CAP + 1):
        for target, room in _targets(k, reflexive, mode):
            if not _degrees_fit(need, room):
                continue
            res = solve(g, target, mode)
            if res.satisfiable:
                return ChiResult(k, target, res.witness.map)
    raise ChiCapError(
        f"no {canonical_flavour(flavour)} colouring with up to {TOURNAMENT_CAP} colours"
    )


def check_Um_forcing(g: OrientedGraph, um_vertices, t: OrientedGraph, mode: Mode) -> bool:
    """True when every homomorphism of g to t (in the given mode) is
    injective on um_vertices.  Used to confirm that a wrapped colouring
    instance really pins its embedded canonical tournament."""
    um_vertices = tuple(um_vertices)
    for hom in enumerate_homs(g, t, mode):
        images = [hom[v] for v in um_vertices]
        if len(set(images)) != len(images):
            return False
    return True
