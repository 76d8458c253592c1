"""Building blocks with heavily forced maps into small reflexive targets.

Each constructor returns a Gadget: an oriented graph plus a role table
naming the vertices other code needs to reach.  The forcing facts the
hardness transformations rely on (constant image classes, port equality,
parity conditions) are exercised by enumeration in the test suite rather
than restated here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import MAX_VERTICES, OrientedGraph


@dataclass(frozen=True, eq=False)
class Gadget:
    graph: OrientedGraph
    roles: dict

    def role_vertices(self, names) -> list:
        return [self.roles[name] for name in names]


def _check_size(n: int) -> None:
    """Refuse a gadget past MAX_VERTICES before building any of it."""
    if n > MAX_VERTICES:
        raise ValueError(f"gadget would have {n} vertices, more than {MAX_VERTICES}")


def apex_cycle(d: int) -> Gadget:
    """Directed cycle v1..v_{6d} where every second cycle arc is completed
    to a directed triangle by an apex: v_{2t} -> x_t -> v_{2t-1} for
    t = 1..3d.  9d vertices, 12d arcs.  CLI id "D"."""
    if d < 1:
        raise ValueError("apex_cycle needs d >= 1")
    _check_size(9 * d)
    cyc = 6 * d
    arcs = [(i, (i + 1) % cyc) for i in range(cyc)]
    roles = {}
    for i in range(1, cyc + 1):
        roles[f"v{i}"] = i - 1
    for t in range(1, 3 * d + 1):
        x = cyc + t - 1
        roles[f"x{t}"] = x
        arcs.append((2 * t - 1, x))  # v_{2t} -> x_t
        arcs.append((x, 2 * t - 2))  # x_t -> v_{2t-1}
    return Gadget(OrientedGraph(9 * d, arcs), roles)


def selector_cycle(d: int) -> Gadget:
    """apex_cycle(d) plus link vertices n_1..n_d with
    x_{3i-2} -> n_i -> x_{3i+1} (apex index taken mod 3d, with 0 meaning
    3d), so x1, n1, x4, n2, ... closes into a directed cycle that can only
    take a single image.  10d vertices.  CLI id "X"."""
    if d < 2:
        raise ValueError("selector_cycle needs d >= 2")
    _check_size(10 * d)
    base = apex_cycle(d)
    arcs = list(base.graph.arcs)
    roles = dict(base.roles)
    start = 9 * d
    for i in range(1, d + 1):
        link = start + i - 1
        roles[f"n{i}"] = link
        src = 3 * i - 2
        dst = (3 * i + 1) % (3 * d) or 3 * d
        arcs.append((roles[f"x{src}"], link))
        arcs.append((link, roles[f"x{dst}"]))
    return Gadget(OrientedGraph(10 * d, arcs), roles)


def selector_forced_cycle_roles(d: int) -> list:
    """Role names along the forced cycle of selector_cycle(d):
    x1, n1, x4, n2, ..., x_{3d-2}, n_d."""
    names = []
    for i in range(1, d + 1):
        names.append(f"x{3 * i - 2}")
        names.append(f"n{i}")
    return names


def antidirected_cycle(n: int) -> Gadget:
    """Even cycle v0..v_{n-1} whose two perfect matchings are oriented
    against each other: arcs v_{2k} -> v_{2k+1} and v_{2k} -> v_{2k-1}.
    Even positions are sources (out-degree 2), odd ones sinks.  CLI id
    "B"."""
    if n < 4 or n % 2:
        raise ValueError("antidirected_cycle needs even n >= 4")
    _check_size(n)
    arcs = []
    for k in range(0, n, 2):
        arcs.append((k, k + 1))
        arcs.append((k, (k - 1) % n))
    roles = {f"v{i}": i for i in range(n)}
    return Gadget(OrientedGraph(n, arcs), roles)


# Fixed 40-vertex coupler; node numbers follow the construction drawing.
# Ports: u = 11 and v = 9, each with in-degree one.
_EQUALIZER_ARCS = (
    (7, 0), (0, 1), (2, 1), (3, 2), (3, 4), (4, 5), (6, 5), (7, 6),
    (7, 11), (8, 1), (3, 9), (10, 5), (0, 12), (12, 17), (13, 17),
    (13, 15), (13, 14), (15, 16), (14, 16), (18, 16), (20, 21), (22, 21),
    (23, 21), (24, 23), (24, 22), (24, 25), (25, 12), (4, 19), (26, 6),
    (26, 27), (27, 28), (29, 28), (30, 28), (31, 29), (31, 30), (31, 32),
    (33, 32), (33, 2), (34, 33), (35, 34), (35, 36), (35, 37), (36, 38),
    (37, 38), (39, 38), (39, 26), (20, 19), (19, 18),
)


def equalizer() -> Gadget:
    """Fixed 40-vertex, 48-arc coupler whose two in-degree-one ports u and
    v are forced to equal images by any in/out-injective map to the
    reflexive transitive triangle; used to tie two remote vertices to one
    colour.  CLI id "F"."""
    return Gadget(OrientedGraph(40, _EQUALIZER_ARCS), {"u": 11, "v": 9})


def in_star() -> Gadget:
    """Three leaves all pointing at a centre (an orientation of the claw);
    the centre's three in-images must be pairwise distinct.  CLI id
    "instar"."""
    arcs = [(1, 0), (2, 0), (3, 0)]
    roles = {"centre": 0, "leaf1": 1, "leaf2": 2, "leaf3": 3}
    return Gadget(OrientedGraph(4, arcs), roles)


# CLI ids and parameter arity for the gadget subcommand.
GADGET_BUILDERS = {
    "D": (apex_cycle, 1),
    "X": (selector_cycle, 1),
    "B": (antidirected_cycle, 1),
    "F": (equalizer, 0),
    "instar": (in_star, 0),
}
