"""Named target tournaments and the little grammar that selects them.

Recognized names: T1 T2 T3 (transitive tournaments), C3 (directed
triangle), U<m> for 4 <= m <= U_MAX (a directed triangle dominated by
every vertex of a transitive tournament on m-3 vertices), each optionally
suffixed with "r" for the reflexive version.  U<m> has about m^2/2 arcs;
the cap turns a name like U100000 into a clean error before any arc is
built.  A custom target is any tournament supplied as an OrientedGraph.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .fileformat import read_decimal
from .graphs import OrientedGraph, is_tournament, transitive_tournament

# matched whole and with ASCII digits only: "$" also matches before a
# trailing newline, and "\d" matches any Unicode digit
_NAME_RE = re.compile(r"(T[123]|C3|U(?P<m>[0-9]+))(?P<refl>r?)")
U_MAX = 100  # largest U<m>: 4,950 arcs, built in milliseconds


@dataclass(frozen=True)
class TargetSpec:
    """Either a recognized target name or a custom tournament."""

    name: str | None = None
    custom: OrientedGraph | None = None

    def __post_init__(self):
        if (self.name is None) == (self.custom is None):
            raise ValueError("exactly one of name/custom must be given")
        if self.name is not None:
            _parse_name(self.name)
        elif not is_tournament(self.custom):
            raise ValueError("custom target must be a tournament")

    @classmethod
    def parse(cls, text: str) -> "TargetSpec":
        return cls(name=text)

    @classmethod
    def from_graph(cls, g: OrientedGraph) -> "TargetSpec":
        return cls(custom=g)

    def build(self) -> OrientedGraph:
        return build_named(self)


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
    """Raise ValueError unless 4 <= m <= U_MAX."""
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


def build_named(spec) -> OrientedGraph:
    """Resolve a TargetSpec (or a bare name string) to its graph.  Each
    named target is built once per process and shared, as graphs are
    immutable; custom targets are returned as given."""
    if isinstance(spec, str):
        spec = TargetSpec.parse(spec)
    if spec.custom is not None:
        return spec.custom
    return _build(*_parse_name(spec.name))


# keyed by the parsed name, so "U04" and "U4" share one entry: at most the
# 202 targets T1-T3, C3 and U4-U100, each plain or reflexive
@functools.lru_cache(maxsize=None)
def _build(family, size, reflexive) -> OrientedGraph:
    if family == "U":
        return u_tournament(size, reflexive)
    if family == "C3":
        return OrientedGraph(3, ((0, 1), (1, 2), (2, 0)), reflexive)
    k = int(family[1])
    t = transitive_tournament(k)
    return OrientedGraph(k, t.arcs, reflexive)


def target_labels(spec) -> list:
    """Printable vertex names: c1..c3 for triangle vertices, t0.. for
    transitive ones, v0.. for custom targets."""
    if isinstance(spec, str):
        spec = TargetSpec.parse(spec)
    if spec.custom is not None:
        return [f"v{i}" for i in range(spec.custom.n)]
    family, size, _ = _parse_name(spec.name)
    if family == "C3":
        return ["c1", "c2", "c3"]
    if family == "U":
        return ["c1", "c2", "c3"] + [f"t{i}" for i in range(size - 3)]
    return [f"t{i}" for i in range(int(family[1]))]


def label_index(spec, label: str) -> int:
    """Inverse of target_labels, for parsing pins like v=c2; bare indices
    in decimal digits are accepted too."""
    labels = target_labels(spec)
    if label in labels:
        return labels.index(label)
    try:
        idx = read_decimal(label)
    except ValueError:
        raise ValueError(f"unknown target vertex {label!r}; expected one of {labels}") from None
    if not 0 <= idx < len(labels):
        raise ValueError(f"target vertex index {idx} out of range")
    return idx
