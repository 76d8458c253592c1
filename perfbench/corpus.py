"""Seeded input graphs for the benchmark, as plain data, and the
edge-list writer that hands them to the program.

Graphs here are ``(n, edges)`` pairs with edges as ``(u, v)`` tuples:
unordered for the undirected sources of the hardness reductions, ordered
(tail, head) for oriented inputs.  Only ``random.Random`` instances made
from the workload seed drive the choices, so one seed gives one corpus.
"""

from __future__ import annotations

import itertools


def write_edge_list(path, n, edges) -> None:
    """The program's edge-list format: header ``n m`` then one pair a line."""
    lines = [f"{n} {len(edges)}"]
    lines += [f"{u} {v}" for u, v in sorted(edges)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def norm(edges):
    return sorted((min(u, v), max(u, v)) for u, v in edges)


def is_connected(n, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def random_cubic(n, rng):
    """Connected simple cubic graph from the configuration model: pair up
    3n half-edges uniformly and reject loops, parallel edges and
    disconnected results."""
    if n % 2 or n < 4:
        raise ValueError("cubic graphs need even n >= 4")
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = set()
        for i in range(0, len(points), 2):
            u, v = points[i], points[i + 1]
            e = (min(u, v), max(u, v))
            if u == v or e in edges:
                break
            edges.add(e)
        else:
            if is_connected(n, edges):
                return sorted(edges)


def relabel(n, edges, rng):
    """Same graph under a uniform random vertex permutation.  The program
    numbers each vertex's incident edges by the other endpoint, so a
    relabelling is how an edge-list file carries another incidence order."""
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return 10, norm(outer + spokes + inner)


def degree_bounded_oriented(n, rng):
    """Oriented graph with every in- and out-degree at most 2: the union
    of two random functional digraphs, minus loops, repeats and opposite
    pairs."""
    arcs = set()
    for _ in range(2):
        perm = list(range(n))
        rng.shuffle(perm)
        for u in range(n):
            v = perm[u]
            if u != v and (v, u) not in arcs:
                arcs.add((u, v))
    return sorted(arcs)


def random_oriented(n, density, rng):
    """Oriented graph with round(density * n(n-1)/2) arcs on uniformly
    chosen vertex pairs, each direction uniform.  A fixed arc count, not a
    coin per pair, keeps the seed from moving the edge count, which moves
    the chromatic number and the work of ``chi`` with it."""
    pairs = list(itertools.combinations(range(n), 2))
    chosen = rng.sample(pairs, round(density * len(pairs)))
    return [(u, v) if rng.random() < 0.5 else (v, u) for u, v in chosen]


# Long inputs of underlying degree <= 2, labelled along the walk.

def directed_path(n):
    return [(i, i + 1) for i in range(n - 1)]


def directed_cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def antidirected_cycle(n):
    """Even cycle whose arcs alternate direction: even vertices are
    sources, odd ones sinks."""
    if n % 2 or n < 4:
        raise ValueError("antidirected cycles need even n >= 4")
    return [(k, (k + d) % n) for k in range(0, n, 2) for d in (1, -1)]


def edgeless(n):
    return []


LONG_SHAPES = {
    "path": directed_path,
    "cycle": directed_cycle,
    "anti": antidirected_cycle,
    "edgeless": edgeless,
}
