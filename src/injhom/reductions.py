"""Polynomial transformations between problems, with provenance, plus
brute-force oracles for the undirected source problems.

Each reducer consumes a source graph and emits a ReductionInstance: the
transformed oriented graph, the target/mode it is meant to be solved
against, and a provenance table that partitions the new vertex set among
the source objects (one entry per source vertex and per source edge).
One builder places every instance: it numbers the vertices, fills the
provenance, checks the size cap and builds the graph.  Its join step
builds the four vertex-and-edge reducers: a gadget on each source
vertex, and a block on each source edge glued to its endpoints' gadgets
at the ports numbered by the edge's position in each endpoint's incident
order.  Its link step builds the two transfers from the reflexive
triangle: a block on each source vertex, and an arc between two blocks'
x roles for each source arc.  The lift to U_m starts it from the U4
instance and glues each vertex's in-pendants onto its x as one block.
colouring_instance wraps a graph for a colouring flavour; the flavours
are defined in chromatic.FLAVOURS.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .chromatic import FLAVOURS, canonical_flavour
from .gadgets import Gadget, antidirected_cycle, apex_cycle, equalizer, in_star, selector_cycle
from .graphs import MAX_VERTICES, Mode, OrientedGraph, check_vertex_count, disjoint_union, max_degrees
from .targets import build_named, check_u_size


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on 0..n-1 with a per-vertex ordering of
    incident edges (the numbering the constructions index gadget ports
    by).  Default ordering sorts by the other endpoint; pass edge_order
    to exercise a different numbering.  Each vertex's incident edges are
    indexed once, so the queries below do not scan the edge set."""

    n: int
    edges: frozenset
    edge_order: tuple | None = None

    def __init__(self, n: int, edges, edge_order=None):
        check_vertex_count(n)
        norm = set()
        for u, v in edges:
            if not (isinstance(u, int) and isinstance(v, int)):
                raise ValueError(f"edge endpoints must be ints, got ({u!r}, {v!r})")
            if u == v:
                raise ValueError(f"loop at {u} not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            norm.add((min(u, v), max(u, v)))
        # in sorted order, each vertex's edges arrive sorted by the other endpoint
        rows = [[] for _ in range(n)]
        for e in sorted(norm):
            rows[e[0]].append(e)
            rows[e[1]].append(e)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(norm))
        if edge_order is not None:
            edge_order = tuple(tuple(es) for es in edge_order)
            if len(edge_order) != n:
                raise ValueError("edge_order needs one row per vertex")
            for v in range(n):
                if sorted(edge_order[v]) != rows[v]:
                    raise ValueError(f"edge_order[{v}] is not a permutation of incident edges")
        object.__setattr__(self, "edge_order", edge_order)
        index = tuple(map(tuple, rows)) if edge_order is None else edge_order
        object.__setattr__(self, "_incident", index)

    def incident(self, v: int) -> tuple:
        """Incident edges of v in this graph's fixed order."""
        return self._incident[v]

    def edge_index(self, v: int, edge) -> int:
        """1-based position of edge in v's incident ordering."""
        edge = (min(edge), max(edge))
        return self._incident[v].index(edge) + 1

    def neighbours(self, v: int) -> list:
        return sorted(a + b - v for a, b in self._incident[v])

    def degree(self, v: int) -> int:
        return len(self._incident[v])

    def min_degree(self) -> int:
        return min((self.degree(v) for v in range(self.n)), default=0)

    def is_cubic(self) -> bool:
        return self.n > 0 and all(self.degree(v) == 3 for v in range(self.n))

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in self.neighbours(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n


def with_random_edge_order(g: SimpleGraph, rng) -> SimpleGraph:
    """Same graph, incident edges shuffled independently per vertex."""
    rows = []
    for v in range(g.n):
        row = sorted(g.incident(v))
        rng.shuffle(row)
        rows.append(row)
    return SimpleGraph(g.n, g.edges, edge_order=rows)


def complete_graph(k: int) -> SimpleGraph:
    return SimpleGraph(k, itertools.combinations(range(k), 2))


def complete_bipartite(a: int, b: int) -> SimpleGraph:
    return SimpleGraph(a + b, ((i, a + j) for i in range(a) for j in range(b)))


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return SimpleGraph(n, ((i, (i + 1) % n) for i in range(n)))


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, ((i, i + 1) for i in range(n - 1)))


def prism_graph() -> SimpleGraph:
    """Two triangles joined by a matching; cubic on 6 vertices."""
    return SimpleGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])


def bridged_cubic_graph() -> SimpleGraph:
    """Smallest cubic graph with a bridge (10 vertices); the bridge makes
    a proper 3-edge-colouring impossible."""
    half1 = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (0, 4)]
    half2 = [(5, 6), (5, 7), (6, 7), (6, 8), (7, 8), (8, 9), (5, 9)]
    return SimpleGraph(10, half1 + half2 + [(4, 9)])


@dataclass
class ReductionInstance:
    """Transformed instance: solve `graph` against `target` under `mode`.

    provenance maps ("vertex", v) / ("edge", (u, w)) source keys to the
    role->index table of the vertices that key owns; together the entries
    partition the whole vertex set.
    """

    graph: OrientedGraph
    provenance: dict
    source_kind: str
    target: str
    mode: Mode

    def vertex_roles(self, v: int) -> dict:
        return self.provenance[("vertex", v)]

    def edge_roles(self, u: int, w: int) -> dict:
        return self.provenance[("edge", (min(u, w), max(u, w)))]


class _Builder:
    def __init__(self, start: ReductionInstance | None = None):
        """An empty instance, or a copy of start's arcs and provenance
        tables to add blocks to."""
        self.n = 0 if start is None else start.graph.n
        self.arcs = [] if start is None else list(start.graph.arcs)
        self.prov = {} if start is None else {key: dict(table) for key, table in start.provenance.items()}

    def block(self, key, size: int, roles: dict, arcs, glue=None) -> dict:
        """Add a block of `size` vertices under provenance `key`; `roles`
        and `arcs` use block-local indices.  `glue` maps block-local
        vertices to vertices already placed: those get no fresh number
        and no role, and the others are numbered in local order.  The
        roles join any table the key already has; returns that table."""
        glue = glue or {}
        base = self.n
        fresh = size - len(glue)
        if base + fresh > MAX_VERTICES:
            raise ValueError(f"reduction instance would pass {MAX_VERTICES} vertices")
        self.n += fresh
        place = list(range(base, self.n))
        for v in sorted(glue):
            place.insert(v, glue[v])
        table = self.prov.setdefault(key, {})
        table.update((name, place[idx]) for name, idx in roles.items() if idx not in glue)
        self.arcs.extend((place[u], place[v]) for u, v in arcs)
        return table

    def join(self, g: SimpleGraph, vertex_gadget, port, edge_block, ports) -> "_Builder":
        """Place the vertex-and-edge construction on g.  Each vertex x, in
        order, gets vertex_gadget(deg(x)), built once per degree.  Each
        edge xy, in sorted order, gets the block edge_block = (size,
        roles, arcs), whose two port vertices `ports` are glued to the
        vertices of role port(i) in x's gadget and port(j) in y's, where
        i and j are the edge's positions in x's and y's incident order."""
        gadgets = {d: vertex_gadget(d) for d in set(map(g.degree, range(g.n)))}
        at = []  # at[x][edge]: the vertex of x's gadget the edge's block is glued to
        for x in range(g.n):
            gad = gadgets[g.degree(x)]
            table = self.block(("vertex", x), gad.graph.n, gad.roles, gad.graph.arcs)
            at.append({e: table[port(i)] for i, e in enumerate(g.incident(x), 1)})
        for e in sorted(g.edges):
            self.block(("edge", e), *edge_block, {ports[0]: at[e[0]][e], ports[1]: at[e[1]][e]})
        return self

    def link(self, g: OrientedGraph, vertex_block) -> "_Builder":
        """Place the transfer construction on g.  Each vertex x, in order,
        gets the block vertex_block(x) = (size, roles, arcs), and each arc
        uv, in sorted order, becomes an arc from u's block's role x to
        v's."""
        xs = [self.block(("vertex", x), *vertex_block(x))["x"] for x in range(g.n)]
        self.arcs.extend((xs[u], xs[v]) for u, v in sorted(g.arcs))
        return self

    def instance(self, source_kind: str, target: str, mode: Mode) -> ReductionInstance:
        # a starting instance's arcs and each block's are a valid graph's,
        # placed one-to-one on fresh vertices and on glued ones no block
        # joins to each other, and each link joins two blocks along an edge
        # or arc of the valid source graph: no loop, digon or vertex out of
        # range
        graph = OrientedGraph._checked(self.n, frozenset(self.arcs))
        return ReductionInstance(graph, self.prov, source_kind, target, mode)


def reduce_3col_to_ios_c3r(g: SimpleGraph) -> ReductionInstance:
    """Proper 3-colourability of a min-degree-3 graph as an ios question
    against the reflexive triangle.

    One selector_cycle(deg(x)) per vertex x, whose forced cycle carries
    x's colour.  Each edge wz becomes a bridge of three fresh vertices
    a -> m <- b with feeds n_i -> a and n_j -> b from the link vertices
    numbered by the edge's position at w and at z.  An arc n -> a forces
    a's image one step past the cycle colour (the link already has an
    out-neighbour carrying the colour itself), so in-injectivity at m
    says exactly colour(w) != colour(z).
    """
    if g.min_degree() < 3:
        raise ValueError("reduction needs minimum degree 3")
    # a -> m <- b, fed by ports 3 -> a and 4 -> b glued to the links
    bridge = 5, {"a": 0, "m": 1, "b": 2}, [(0, 1), (2, 1), (3, 0), (4, 2)]
    b = _Builder().join(g, selector_cycle, "n{}".format, bridge, (3, 4))
    return b.instance("vertex-3-colouring", "C3r", Mode.IOS)


def reduce_3edge_to_t3r(g: SimpleGraph, mode: Mode = Mode.IOS) -> ReductionInstance:
    """Proper 3-edge-colourability of a cubic graph against the reflexive
    transitive triangle (same construction for ios and iot).

    One in-star per vertex (its three leaf images become the colours of
    the three incident edges) and one equalizer per edge whose ports are
    identified with the matching leaves, forcing both endpoints to agree
    on the edge's colour.
    """
    mode = Mode.parse(mode)
    if mode not in (Mode.IOS, Mode.IOT):
        raise ValueError("mode must be ios or iot")
    if not g.is_cubic():
        raise ValueError("reduction needs a cubic graph")
    eq = equalizer()
    block = eq.graph.n, {f"f{w}": w for w in range(eq.graph.n)}, eq.graph.arcs
    b = _Builder().join(g, lambda d: in_star(), "leaf{}".format, block, (eq.roles["u"], eq.roles["v"]))
    return b.instance("cubic-3-edge-colouring", "T3r", mode)


def reduce_3col_to_iot_c3r(g: SimpleGraph) -> ReductionInstance:
    """Proper 3-colourability of a connected graph as an iot question
    against the reflexive triangle.

    One antidirected cycle on 6*deg(x) vertices per vertex x (labelled so
    the attachment points x_{6i} have in-degree two), and per edge a fresh
    apex reached from both attachment points by directed length-2 paths;
    whole-neighbourhood injectivity at the apex forbids equal colours.
    """
    if not g.is_connected():
        raise ValueError("reduction needs a connected graph")
    if g.min_degree() < 1:
        raise ValueError("reduction needs minimum degree 1")

    def cycle(d):
        # x_k is raw vertex (k+1) mod size, putting every x_{6i} in the
        # in-degree-2 class
        size = 6 * d
        return Gadget(antidirected_cycle(size).graph, {f"x{k}": (k + 1) % size for k in range(size)})

    # mid0 -> apex <- mid1, reached from ports 3 -> mid0 and 4 -> mid1
    paths = 5, {"mid0": 0, "mid1": 1, "apex": 2}, [(0, 2), (1, 2), (3, 0), (4, 1)]
    b = _Builder().join(g, cycle, lambda i: f"x{6 * (i - 1)}", paths, (3, 4))
    return b.instance("vertex-3-colouring", "C3r", Mode.IOT)


def reduce_3edge_to_u4(g: SimpleGraph) -> ReductionInstance:
    """Proper 3-edge-colourability of a cubic graph against the loopless
    U4 tournament: keep the vertices, replace each edge xy by the path
    x -> v1 -> v2 -> v3 -> v4 <- y.  Vertices are forced onto the
    dominating vertex, so the v1/v4 images around a vertex enumerate its
    edge colours."""
    if not g.is_cubic():
        raise ValueError("reduction needs a cubic graph")
    # v1 -> v2 -> v3 -> v4, with ports 4 -> v1 and 5 -> v4 glued to x and y
    path = 6, {"v1": 0, "v2": 1, "v3": 2, "v4": 3}, [(0, 1), (1, 2), (2, 3), (4, 0), (5, 3)]
    point = Gadget(OrientedGraph(1), {"x": 0})
    b = _Builder().join(g, lambda d: point, lambda i: "x", path, (4, 5))
    return b.instance("cubic-3-edge-colouring", "U4", Mode.IOS)


def _in_pendants(k: int) -> tuple:
    """The block (size, roles, arcs) of a vertex x with k in-pendants
    pend1..pendk."""
    roles = {"x": 0}
    roles.update({f"pend{p}": p for p in range(1, k + 1)})
    return 1 + k, roles, [(p, 0) for p in range(1, k + 1)]


def lift_u4_instance(inst: ReductionInstance, m: int) -> ReductionInstance:
    """Lift a U4 instance to U_m (m >= 4) by giving each original vertex
    enough fresh in-pendants to reach in-degree m-4, which pins it to the
    one U_m vertex that dominates the triangle with room to spare."""
    check_u_size(m)
    if inst.target != "U4":
        raise ValueError("can only lift U4 instances")
    b = _Builder(inst)
    for key, table in inst.provenance.items():
        if key[0] == "vertex":
            x = table["x"]
            b.block(key, *_in_pendants(max(0, (m - 4) - inst.graph.in_degree(x))), glue={0: x})
    return b.instance(inst.source_kind, f"U{m}", inst.mode)


def reduce_3edge_to_um(g: SimpleGraph, m: int = 4) -> ReductionInstance:
    """reduce_3edge_to_u4 followed by the lift to U_m."""
    check_u_size(m)
    inst = reduce_3edge_to_u4(g)
    return inst if m == 4 else lift_u4_instance(inst, m)


def reduce_ios_c3r_to_umr(g: OrientedGraph, m: int) -> ReductionInstance:
    """Transfer an ios question against the reflexive triangle (input max
    in/out degree 2) to one against reflexive U_m: in-pendants raise each
    vertex's in-degree past anything outside U_m's triangle, so the
    original graph must land inside the triangle copy."""
    check_u_size(m)
    if g.reflexive:
        raise ValueError("input must be irreflexive")
    if max(max_degrees(g)) > 2:
        raise ValueError("reduction needs in- and out-degrees at most 2")
    b = _Builder().link(g, lambda x: _in_pendants(m - 3 if g.in_degree(x) == 2 else m - 2))
    return b.instance("ios-C3r", f"U{m}r", Mode.IOS)


def reduce_iot_c3r_to_umr(g: OrientedGraph, m: int) -> ReductionInstance:
    """Transfer an iot question against the reflexive triangle to one
    against reflexive U_m: each vertex gets a private transitive
    tournament on m-3 vertices shooting into it, and every tournament
    vertex gets three private out-pendants keeping it off the triangle."""
    check_u_size(m)
    if g.reflexive:
        raise ValueError("input must be irreflexive")
    t = m - 3
    roles = {"x": 0}
    arcs = []
    for i in range(1, t + 1):
        roles[f"t{i}"] = i
        arcs += [(i, j) for j in (0, *range(i + 1, t + 1))]
    pos = t + 1
    for i in range(1, t + 1):
        for tag in ("a", "b", "c"):
            roles[f"t{i}{tag}"] = pos
            arcs.append((i, pos))
            pos += 1
    b = _Builder().link(g, lambda x: (pos, roles, arcs))
    return b.instance("iot-C3r", f"U{m}r", Mode.IOT)


def colouring_instance(g: OrientedGraph, k: int, flavour: str):
    """Wrap g so a single homomorphism question answers whether the
    WRAPPED graph admits a flavour k-colouring (which in turn equals
    whether g maps to the canonical k-vertex target).

    Returns (graph, target name, mode).  Proper colourings need k >= 4,
    improper ones k >= 3; smaller k is outside the hard range and is
    answered directly by the chromatic module instead.
    """
    flavour = canonical_flavour(flavour)
    mode, reflexive = FLAVOURS[flavour]
    if g.reflexive:
        raise ValueError("input must be irreflexive")
    if not reflexive:
        if k < 4:
            raise ValueError(f"{flavour} wrapping needs k >= 4")
        return disjoint_union(g, build_named(f"U{k}")), f"U{k}", mode
    if k == 3:
        return disjoint_union(g, apex_cycle(6).graph), "C3r", mode
    if k >= 4:
        return disjoint_union(g, build_named(f"U{k}")), f"U{k}r", mode
    raise ValueError("improper wrapping needs k >= 3")


# --- brute-force oracles for the source problems ---

_ORACLE_CAP = 20


def _first_colouring(nbrs, k: int):
    """The lexicographically first proper k-colouring of the graph with
    neighbour lists nbrs, or None, by backtracking in vertex order.  It
    uses no colour before every lower one (a relabelling would be
    smaller), so a vertex tries the colours in use and one more."""
    colours = [-1] * len(nbrs)

    def place(v: int, used: int) -> bool:
        if v == len(nbrs):
            return True
        for c in range(min(k, used + 1)):
            if all(colours[w] != c for w in nbrs[v]):
                colours[v] = c
                if place(v + 1, max(used, c + 1)):
                    return True
        colours[v] = -1
        return False

    return colours if place(0, 0) else None


def oracle_k_colouring(g: SimpleGraph, k: int):
    """Exhaustive proper k-colouring search; returns the lexicographically
    first colour list or None.  Capped at 20 vertices."""
    if g.n > _ORACLE_CAP:
        raise ValueError(f"oracle size cap exceeded: {g.n} > {_ORACLE_CAP} vertices")
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _first_colouring([g.neighbours(v) for v in range(g.n)], k)


def oracle_3col(g: SimpleGraph) -> bool:
    return oracle_k_colouring(g, 3) is not None


def oracle_3edge(g: SimpleGraph) -> bool:
    return find_3edge_colouring(g) is not None


def find_3edge_colouring(g: SimpleGraph):
    """Exhaustive proper 3-edge-colouring, as a 3-colouring of the line
    graph on the sorted edges; returns {edge: colour} for the
    lexicographically first one, or None.  Capped at 20 vertices."""
    if g.n > _ORACLE_CAP:
        raise ValueError(f"oracle size cap exceeded: {g.n} > {_ORACLE_CAP} vertices")
    edges = sorted(g.edges)
    index = {e: i for i, e in enumerate(edges)}
    # the edges that share an endpoint with (u, v): no other joins u to v
    line = [[index[f] for f in g.incident(u) + g.incident(v) if f != (u, v)] for u, v in edges]
    colours = _first_colouring(line, 3)
    return None if colours is None else dict(zip(edges, colours))
