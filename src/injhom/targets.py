"""Named target tournaments and the little grammar that selects them.

Recognized names: T1 T2 T3 (transitive tournaments), C3 (directed
triangle), U<m> for 4 <= m <= U_MAX (a directed triangle dominated by
every vertex of a transitive tournament on m-3 vertices), each optionally
suffixed with "r" for the reflexive version.  U<m> has about m^2/2 arcs;
the cap turns a name like U100000 into a clean error before any arc is
built.  A custom target is any tournament on at most U_MAX vertices
supplied as an OrientedGraph: the degree-2 DP's state tables grow as the
fourth power of the target's size, so a larger one is refused as a larger
U<m> is.  solve() itself takes any target graph.

A TargetSpec parses its name once, when it is made, and holds the graph
and labels; every function that takes a target reads it through
TargetSpec.of, which accepts a name, a spec or a custom tournament.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

from .fileformat import read_decimal
from .graphs import OrientedGraph, is_tournament, transitive_tournament

# matched whole and with ASCII digits only: "$" also matches before a
# trailing newline, and "\d" matches any Unicode digit
_NAME_RE = re.compile(r"(T[123]|C3|U(?P<m>[0-9]+))(?P<refl>r?)")
U_MAX = 100  # largest U<m>: 4,950 arcs, built in milliseconds


@dataclass(frozen=True)
class TargetSpec:
    """Either a recognized target name or a custom tournament.  The name
    is parsed once, when the spec is made; graph and labels (the
    printable vertex names) are what every reader of the spec reads."""

    name: str | None = None
    custom: OrientedGraph | None = None
    graph: OrientedGraph = field(init=False, repr=False, compare=False)
    labels: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.name is None) == (self.custom is None):
            raise ValueError("exactly one of name/custom must be given")
        if self.name is not None:
            graph, labels = _build(*_parse_name(self.name))
        elif not is_tournament(self.custom):
            raise ValueError("custom target must be a tournament")
        elif self.custom.n > U_MAX:
            raise ValueError(f"custom target needs at most {U_MAX} vertices, got {self.custom.n}")
        else:
            graph, labels = self.custom, tuple(f"v{i}" for i in range(self.custom.n))
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def parse(cls, text: str) -> "TargetSpec":
        return cls(name=text)

    @classmethod
    def from_graph(cls, g: OrientedGraph) -> "TargetSpec":
        return cls(custom=g)

    @classmethod
    def of(cls, target) -> "TargetSpec":
        """A name, a spec (returned as is) or a custom tournament, as a spec."""
        if isinstance(target, cls):
            return target
        return cls(name=target) if isinstance(target, str) else cls(custom=target)

    def build(self) -> OrientedGraph:
        return self.graph


def _parse_name(text: str):
    m = _NAME_RE.fullmatch(text)
    if not m:
        raise ValueError(
            f"unknown target {text!r}; expected T1|T2|T3|C3|U<m> with optional r suffix"
        )
    reflexive = bool(m.group("refl"))
    if m.group("m") is not None:
        size = int(m.group("m"))
        check_u_size(size)
        return ("U", size, reflexive)
    return (text[:2], None, reflexive)


def check_u_size(m: int) -> None:
    """Raise ValueError unless m is an int with 4 <= m <= U_MAX."""
    if not isinstance(m, int):
        raise ValueError(f"U targets need an int m, got {m!r}")
    if m < 4:
        raise ValueError(f"U targets need m >= 4, got {m}")
    if m > U_MAX:
        raise ValueError(f"U targets need m <= {U_MAX}, got {m}")


def u_tournament(m: int, reflexive: bool = False) -> OrientedGraph:
    """Directed triangle on 0,1,2 plus a transitive tournament on 3..m-1
    each of whose vertices dominates the whole triangle."""
    check_u_size(m)
    arcs = [(0, 1), (1, 2), (2, 0)]
    arcs += [(i, j) for i in range(3, m) for j in range(i + 1, m)]
    arcs += [(i, c) for i in range(3, m) for c in range(3)]
    return OrientedGraph(m, arcs, reflexive)


def build_named(target) -> OrientedGraph:
    """The graph of a target given as TargetSpec.of takes it.  Each named
    target is built once per process and shared, as graphs are
    immutable; custom targets are returned as given."""
    return TargetSpec.of(target).graph


# keyed by the parsed name, so "U04" and "U4" share one entry: at most the
# 202 targets T1-T3, C3 and U4-U100, each plain or reflexive
@functools.lru_cache(maxsize=None)
def _build(family, size, reflexive) -> tuple:
    """The graph and the labels of a named target."""
    if family == "C3":
        return OrientedGraph(3, ((0, 1), (1, 2), (2, 0)), reflexive), ("c1", "c2", "c3")
    if family == "U":
        graph, triangle = u_tournament(size, reflexive), ("c1", "c2", "c3")
    else:
        size = int(family[1])
        graph, triangle = OrientedGraph(size, transitive_tournament(size).arcs, reflexive), ()
    return graph, triangle + tuple(f"t{i}" for i in range(size - len(triangle)))


def target_labels(target) -> list:
    """Printable vertex names: c1..c3 for triangle vertices, t0.. for
    transitive ones, v0.. for custom targets."""
    return list(TargetSpec.of(target).labels)


def label_index(target, label: str) -> int:
    """Inverse of target_labels, for parsing pins like v=c2; bare indices
    in decimal digits are accepted too."""
    labels = target_labels(target)
    if label in labels:
        return labels.index(label)
    try:
        idx = read_decimal(label)
    except ValueError:
        raise ValueError(f"unknown target vertex {label!r}; expected one of {labels}") from None
    if not 0 <= idx < len(labels):
        raise ValueError(f"target vertex index {idx} out of range")
    return idx
