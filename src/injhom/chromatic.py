"""Injective oriented chromatic numbers.

A flavour-k-colouring of an oriented graph is a homomorphism, injective
in the flavour's sense, to some tournament on k vertices (reflexive for
the improper flavours, loopless for the proper one).  The chromatic
number is the least such k.  FLAVOURS is the one table of flavours:
the colouring wrapper in reductions reads it too.

Such a homomorphism is exactly a colouring with k colours in which all
arcs between two colour classes point the same way (Sopena, "Oriented
graph coloring", Discrete Math. 229, 2001): the tournament is read off
the colouring, and a pair of colours no arc joins may point either way.
So one colour search per k decides every k-vertex tournament at once,
with colours interchangeable, and k starts at a degree bound that holds
for every tournament.  The catalogue of tournaments up to isomorphism
stays for callers that walk the targets themselves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .graphs import Mode, OrientedGraph, is_tournament
from .solver import _neighbourhoods, check_hom, enumerate_homs
from .solver import solve  # noqa: F401  perfbench/spans.py wraps chromatic.solve

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


class ChiCapError(ValueError):
    """The chromatic number exceeds the tournament catalogue cap."""


@dataclass(frozen=True)
class ChiResult:
    value: int
    tournament: OrientedGraph
    witness: tuple


# canonical flavour name -> (mode, are the target tournaments reflexive?)
FLAVOURS = {
    "proper-ios": (Mode.IOS, False),
    "improper-ios": (Mode.IOS, True),
    "improper-iot": (Mode.IOT, True),
}


def canonical_flavour(text: str) -> str:
    """The canonical name of a flavour, given in any case and with its
    two words in either order (ios-proper for proper-ios)."""
    name = str(text).lower()
    first, _, second = name.partition("-")
    for candidate in (name, f"{second}-{first}"):
        if candidate in FLAVOURS:
            return candidate
    raise ValueError(f"unknown flavour {text!r}; expected proper-ios, improper-ios or improper-iot")


def flavour_settings(flavour: str):
    """(mode, targets reflexive?) for a flavour name."""
    return FLAVOURS[canonical_flavour(flavour)]


def chi(g: OrientedGraph, flavour: str) -> ChiResult:
    """Least k such that g has a flavour colouring with k colours,
    with the witness tournament and map.  Raises ChiCapError when no
    tournament up to the catalogue cap works."""
    if g.reflexive:
        raise ValueError("chromatic numbers are for irreflexive inputs")
    mode, reflexive = flavour_settings(flavour)
    if g.n == 0:
        return ChiResult(0, OrientedGraph(0, (), reflexive), ())
    start = _degree_bound(g, mode, reflexive)
    search = _ColourSearch(g, mode, proper=not reflexive) if start <= TOURNAMENT_CAP else None
    for k in range(start, TOURNAMENT_CAP + 1):
        found = search.colouring(k)
        if found is None:
            continue
        colour, rows = found
        # orient each pair of colours the way its arcs point, and a pair
        # that no arc joins from the lower colour to the higher
        arcs = [(b, a) if rows >> b * k + a & 1 else (a, b)
                for a, b in itertools.combinations(range(k), 2)]
        target = OrientedGraph(k, arcs, reflexive)
        witness = tuple(colour)
        if not check_hom(g, target, witness, mode):
            raise RuntimeError(f"colour search returned an invalid {flavour} colouring")
        return ChiResult(k, target, witness)
    raise ChiCapError(
        f"no {canonical_flavour(flavour)} colouring with up to {TOURNAMENT_CAP} colours"
    )


def _degree_bound(g: OrientedGraph, mode: Mode, reflexive: bool) -> int:
    """Fewer colours than this admit no flavour colouring of the non-empty
    graph g.  Every vertex of a k-tournament has k - 1 neighbours.  A
    vertex mapped to it sends its in- and its out-neighbours injectively
    into the in- and out-neighbours of its image; with a loop the image
    counts on both sides under ios, and once under iot, where the whole
    neighbourhood maps injectively.  So a vertex of underlying degree d
    needs k >= d + 1 (proper), d - 1 (improper-ios) or d (improper-iot)."""
    d = max(map(len, g.underlying_nbrs))
    slack = 1 if not reflexive else (-1 if mode is Mode.IOS else 0)
    return max(1, d + slack)


class _ColourSearch:
    """Depth-first colour search for one graph and flavour, run for one
    number of colours at a time.

    The vertices are coloured in one fixed order, each with as many of
    its constraints (arcs and must-differ pairs) to vertices before it as
    possible: a maximum cardinality search on a bucket queue (Tarjan &
    Yannakakis, SIAM J. Comput. 13(3), 1984), O(n + m) with m the number
    of constraints.  A vertex's colour must differ from its placed
    must-differ partners' (and, in the proper flavour, from its placed
    arc neighbours'), and must keep every arc between two colour classes
    pointing one way.  Colours are interchangeable, so a vertex takes a
    colour already used or the lowest unused one (Brelaz, CACM 22(4),
    1979).
    """

    def __init__(self, g: OrientedGraph, mode: Mode, proper: bool):
        n = g.n
        self.proper = proper
        diffs = [set() for _ in range(n)]
        for members in _neighbourhoods(g, mode):
            for w in members:
                diffs[w].update(members)
        diffs = [sorted(d - {v}) for v, d in enumerate(diffs)]
        underlying = g.underlying_nbrs
        order = _max_cardinality_order([[*a, *b] for a, b in zip(underlying, diffs)])
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        self.order = order
        # each vertex's out-neighbours, in-neighbours and must-differ
        # partners that come before it in the order
        self.before = [
            tuple([w for w in nbrs[v] if pos[w] < i] for nbrs in (g.out_nbrs, g.in_nbrs, diffs))
            for i, v in enumerate(order)
        ]

    def colouring(self, k):
        """A colour per vertex and the orientation matrix between the
        colour classes, or None when k colours admit no colouring.

        The matrix is a k x k bit matrix in one int, rows: bit a * k + b
        says that an arc runs from class a to class b.  cols holds its
        transpose, so that the arcs into a class are a row too.  The
        frame of a depth holds the colours still to try for its vertex,
        the colours of the vertex's placed out- and in-neighbours, the
        number of colours in use before it, and the bits its colour set in
        the two matrices, which backtracking clears.
        """
        order = self.order
        before = self.before
        proper = self.proper
        n = len(order)
        full = (1 << k) - 1
        spread = _spread(k)
        colour = [0] * n
        rows = cols = 0
        used = 0  # colours 0 .. used - 1 are taken
        frames = []
        frame = None
        while True:
            if frame is None:  # open the next depth
                i = len(frames)
                if i == n:
                    return colour, rows
                outs, ins, diffs = before[i]
                out_cols = in_cols = banned = 0
                for w in outs:
                    out_cols |= 1 << colour[w]
                for w in ins:
                    in_cols |= 1 << colour[w]
                for w in diffs:
                    banned |= 1 << colour[w]
                if proper:
                    banned |= out_cols | in_cols
                options = (2 << used) - 1 & full & ~banned
                frame = [options, out_cols, in_cols, used, 0, 0]
            options, out_cols, in_cols, used, _, _ = frame
            while options:
                bit = options & -options
                options ^= bit
                c = bit.bit_length() - 1
                at = c * k
                to = out_cols & ~bit
                fro = in_cols & ~bit
                from_c = rows >> at & full
                into_c = cols >> at & full
                if to & fro or to & into_c or fro & from_c:
                    continue  # some pair of classes would point both ways
                new_out = to & ~from_c
                new_in = fro & ~into_c
                frame[0] = options
                frame[4] = set_rows = new_out << at | spread[new_in] << c
                frame[5] = set_cols = new_in << at | spread[new_out] << c
                rows |= set_rows
                cols |= set_cols
                colour[order[len(frames)]] = c
                frames.append(frame)
                used = max(used, c + 1)
                frame = None
                break
            else:
                if not frames:
                    return None
                frame = frames.pop()
                rows ^= frame[4]
                cols ^= frame[5]


@lru_cache(maxsize=None)
def _spread(k) -> tuple:
    """For each mask m of k bits, m's bit d moved to bit d * k: a row of
    a k x k bit matrix turned into a column."""
    return tuple(sum(1 << d * k for d in range(k) if m >> d & 1) for m in range(1 << k))


def _max_cardinality_order(nbrs) -> list:
    """The vertices, each next one having the most entries in its list
    nbrs[v] among those already taken; ties go to the vertex that
    reached that count last, and the first vertex of each component is
    its lowest.  Buckets by count hold stale entries, which are
    skipped."""
    n = len(nbrs)
    count = [0] * n
    taken = [False] * n
    buckets = [list(range(n - 1, -1, -1))]
    top = 0
    order = []
    while top >= 0:
        bucket = buckets[top]
        if not bucket:
            top -= 1
            continue
        v = bucket.pop()
        if taken[v] or count[v] != top:
            continue
        taken[v] = True
        order.append(v)
        for w in nbrs[v]:
            if not taken[w]:
                c = count[w] = count[w] + 1
                if c == len(buckets):
                    buckets.append([])
                buckets[c].append(w)
                if c > top:
                    top = c
    return order


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
