"""Core oriented-graph model and structural queries.

An oriented graph is a loopless digraph with at most one arc between any
pair of vertices.  Loops are never stored in the arc set: a target that
carries a loop at every vertex is marked with the ``reflexive`` flag
instead.  Vertices are dense 0-based integers so constructions stay
bit-reproducible.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

# The most vertices an edge-list file or a reduction instance may have, so
# that a header count cannot ask for more memory than the machine has; 100
# times the largest inputs the benchmark runs.
MAX_VERTICES = 10**6


def check_vertex_count(n) -> None:
    """Raise ValueError unless n is a nonnegative int."""
    if not (isinstance(n, int) and n >= 0):
        raise ValueError(f"vertex count must be a nonnegative int, got {n!r}")


class Mode(enum.Enum):
    """Which local-injectivity constraint a homomorphism must satisfy.

    PLAIN asks only for arc preservation.  IOS additionally requires the
    map to be injective on each vertex's in-neighbourhood and, separately,
    on its out-neighbourhood.  IOT requires injectivity on the union of
    the two neighbourhoods; this is stronger than IOS exactly when the
    target is reflexive, and coincides with IOS on irreflexive targets.
    """

    PLAIN = "plain"
    IOS = "ios"
    IOT = "iot"

    @classmethod
    def parse(cls, text) -> "Mode":
        """A member, or its name in any case; ValueError for anything else."""
        if isinstance(text, cls):
            return text
        try:
            return cls(str(text).lower())
        except ValueError:
            raise ValueError(f"unknown mode {text!r}; expected plain, ios or iot") from None


@dataclass(frozen=True)
class OrientedGraph:
    """Immutable oriented graph on vertices 0..n-1.

    ``arcs`` holds ordered pairs (u, v) with u != v; for any pair of
    vertices at most one of (u, v), (v, u) may be present.  ``reflexive``
    means every vertex carries a loop (loops are implicit, never listed).
    """

    n: int
    arcs: frozenset
    reflexive: bool = False

    def __init__(self, n: int, arcs: Iterable = (), reflexive: bool = False):
        arcs = frozenset(map(tuple, arcs))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "reflexive", bool(reflexive))
        self._validate()

    @classmethod
    def _checked(cls, n: int, arcs: frozenset, reflexive: bool = False) -> "OrientedGraph":
        """The graph on arcs that the caller has already checked: a
        frozenset of int pairs in range, with no loop and no digon.  The
        edge-list parser checks its body itself, disjoint_union joins two
        valid graphs, and the reductions join gadgets that are valid
        graphs, so all three build here."""
        g = object.__new__(cls)
        g.__dict__.update(n=n, arcs=arcs, reflexive=bool(reflexive))
        return g

    def _validate(self) -> None:
        check_vertex_count(self.n)
        for u, v in self.arcs:
            if not (isinstance(u, int) and isinstance(v, int)):
                raise ValueError(f"arc endpoints must be ints, got ({u!r}, {v!r})")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"arc ({u}, {v}) out of range for n={self.n}")
            if u == v:
                raise ValueError(f"loop at {u}: loops are modelled by the reflexive flag")
            if (v, u) in self.arcs:
                raise ValueError(f"digon between {u} and {v}: graph must be oriented")

    @property
    def num_arcs(self) -> int:
        return len(self.arcs)

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs

    @cached_property
    def out_nbrs(self) -> tuple:
        return self._directed_nbrs[0]

    @cached_property
    def in_nbrs(self) -> tuple:
        return self._directed_nbrs[1]

    @cached_property
    def _directed_nbrs(self) -> tuple:
        """Sorted out- and in-neighbour tuples per vertex: the arcs go to
        their rows in set order, and each short row is sorted alone."""
        out = [[] for _ in range(self.n)]
        inn = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            out[u].append(v)
            inn[v].append(u)
        for row in out:
            row.sort()
        for row in inn:
            row.sort()
        return tuple(map(tuple, out)), tuple(map(tuple, inn))

    @cached_property
    def underlying_nbrs(self) -> tuple:
        und = [[] for _ in range(self.n)]
        for u, v in self.arcs:  # oriented: no pair twice
            und[u].append(v)
            und[v].append(u)
        return tuple(map(tuple, map(sorted, und)))

    def in_degree(self, v: int) -> int:
        return len(self.in_nbrs[v])

    def out_degree(self, v: int) -> int:
        return len(self.out_nbrs[v])

    def __repr__(self) -> str:  # keep small graphs readable in test output
        flag = ", reflexive" if self.reflexive else ""
        return f"OrientedGraph({self.n}, {sorted(self.arcs)}{flag})"


def converse(g: OrientedGraph) -> OrientedGraph:
    """Reverse every arc; the reflexive flag is preserved."""
    return OrientedGraph(g.n, ((v, u) for u, v in g.arcs), g.reflexive)


def disjoint_union(g: OrientedGraph, h: OrientedGraph) -> OrientedGraph:
    """Place h next to g, shifting h's vertices by g.n."""
    if g.reflexive != h.reflexive:
        raise ValueError("cannot union a reflexive graph with an irreflexive one")
    # both parts are valid graphs, so their shifted union is one too
    arcs = g.arcs.union([(u + g.n, v + g.n) for u, v in h.arcs])
    return OrientedGraph._checked(g.n + h.n, arcs, g.reflexive)


def max_degrees(g: OrientedGraph) -> tuple:
    """(max in-degree, max out-degree), loops not counted; (0, 0) if empty."""
    return max(map(len, g.in_nbrs), default=0), max(map(len, g.out_nbrs), default=0)


# --- small constructors used throughout tests and demos ---


def edgeless(n: int) -> OrientedGraph:
    return OrientedGraph(n, ())


def directed_path(n: int) -> OrientedGraph:
    """P_n: vertices 0..n-1 with arcs i -> i+1."""
    return OrientedGraph(n, ((i, i + 1) for i in range(n - 1)))


def directed_cycle(n: int) -> OrientedGraph:
    """C_n (directed): arcs i -> i+1 mod n; needs n >= 3 to stay oriented."""
    if n < 3:
        raise ValueError("a directed cycle needs at least 3 vertices")
    return OrientedGraph(n, ((i, (i + 1) % n) for i in range(n)))


def hat() -> OrientedGraph:
    """Two arcs into a common head: 0 -> 1 <- 2."""
    return OrientedGraph(3, ((0, 1), (2, 1)))


def transitive_tournament(n: int) -> OrientedGraph:
    return OrientedGraph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def is_tournament(g: OrientedGraph) -> bool:
    """Exactly one arc between every pair of distinct vertices."""
    return g.num_arcs == g.n * (g.n - 1) // 2


def all_oriented_graphs(n: int) -> Iterator[OrientedGraph]:
    """Every oriented graph on n labelled vertices (3 states per pair)."""
    pairs = list(itertools.combinations(range(n), 2))
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        arcs = []
        for (u, v), s in zip(pairs, states):
            if s == 1:
                arcs.append((u, v))
            elif s == 2:
                arcs.append((v, u))
        yield OrientedGraph(n, arcs)


def random_oriented_graph(n: int, rng, arc_chance: float = 2 / 3) -> OrientedGraph:
    """Sample an oriented graph: each pair gets an arc with probability
    ``arc_chance``, direction uniform.  rng is a random.Random."""
    arcs = []
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < arc_chance:
            arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return OrientedGraph(n, arcs)
