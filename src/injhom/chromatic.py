"""Injective oriented chromatic numbers.

A flavour-k-colouring of an oriented graph is a homomorphism, injective
in the flavour's sense, to some tournament on k vertices (reflexive for
the improper flavours, loopless for the proper one).  The chromatic
number is the least such k.  Targets are enumerated from a catalogue of
tournaments up to isomorphism, which keeps the search tiny through k=6.
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
    """Isomorphism-invariant integer key: minimum over all vertex
    relabellings of the upper-triangle orientation bitmap."""
    if not is_tournament(g):
        raise ValueError("key is defined for tournaments only")
    pairs = list(itertools.combinations(range(g.n), 2))
    best = None
    for perm in itertools.permutations(range(g.n)):
        code = 0
        for u, v in pairs:
            code = (code << 1) | (1 if g.has_arc(perm[u], perm[v]) else 0)
        if best is None or code < best:
            best = code
    return best if best is not None else 0


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


def _reflexive_copy(t: OrientedGraph) -> OrientedGraph:
    return OrientedGraph(t.n, t.arcs, reflexive=True)


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
    start = 0 if g.n == 0 else 1
    for k in range(start, TOURNAMENT_CAP + 1):
        for t in enumerate_tournaments(k):
            target = _reflexive_copy(t) if reflexive else t
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
