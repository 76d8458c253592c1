"""Reference answers that do not come from the solver under test, and
parsers for what the CLI prints.

- ``hom_exists`` is a plain backtracking search, written here, that
  decides whether an oriented graph maps to a small target under a mode.
- ``walk_reference`` decides the long degree-2 inputs with a transfer
  matrix over consecutive image pairs, raised to the walk length.
- The rest reads the CLI's ``v -> label`` witness lines, ``chi`` reports
  and reduction provenance sidecars.
"""

from __future__ import annotations

import re
from collections import deque

IOS, IOT = "ios", "iot"


def target_masks(k, arcs, reflexive):
    """Out- and in-neighbour bitmasks of a target, loops included."""
    out_m = [(1 << a) if reflexive else 0 for a in range(k)]
    in_m = list(out_m)
    for a, b in arcs:
        out_m[a] |= 1 << b
        in_m[b] |= 1 << a
    return out_m, in_m


def neighbourhoods(n, arcs):
    outs = [[] for _ in range(n)]
    ins = [[] for _ in range(n)]
    for u, v in arcs:
        outs[u].append(v)
        ins[v].append(u)
    return outs, ins


def must_differ_pairs(n, arcs, mode):
    """Vertex pairs a mode forces apart: two in- or two out-neighbours of
    one vertex (ios), any two neighbours of one vertex (iot)."""
    outs, ins = neighbourhoods(n, arcs)
    groups = []
    for x in range(n):
        if mode == IOS:
            groups += [outs[x], ins[x]]
        else:
            groups.append(outs[x] + ins[x])
    return {(min(a, b), max(a, b)) for grp in groups for i, a in enumerate(grp) for b in grp[i + 1:]}


def hom_exists(n, arcs, k, h_arcs, h_reflexive, mode) -> bool:
    """Does the oriented graph (n, arcs) map to the target (k, h_arcs,
    h_reflexive) injectively in the given mode?  Vertices are assigned in
    breadth-first order; each new vertex is filtered against its assigned
    arc neighbours and its assigned must-differ partners."""
    if n == 0:
        return True
    out_m, in_m = target_masks(k, h_arcs, h_reflexive)
    outs, ins = neighbourhoods(n, arcs)
    order, seen = [], set()
    for root in range(n):
        if root in seen:
            continue
        seen.add(root)
        queue = deque([root])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in outs[v] + ins[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    pos = {v: i for i, v in enumerate(order)}
    differ = [[] for _ in range(n)]
    for a, b in must_differ_pairs(n, arcs, mode):
        if pos[a] < pos[b]:
            differ[b].append(a)
        else:
            differ[a].append(b)
    preds_out = [[u for u in ins[v] if pos[u] < pos[v]] for v in range(n)]  # u -> v
    preds_in = [[w for w in outs[v] if pos[w] < pos[v]] for v in range(n)]  # v -> w
    image = [0] * n
    full = (1 << k) - 1

    def place(i):
        if i == n:
            return True
        v = order[i]
        cand = full
        for u in preds_out[v]:
            cand &= out_m[image[u]]
        for w in preds_in[v]:
            cand &= in_m[image[w]]
        for u in differ[v]:
            cand &= ~(1 << image[u])
        while cand:
            low = cand & -cand
            image[v] = low.bit_length() - 1
            if place(i + 1):
                return True
            cand ^= low
        return False

    return place(0)


# --- long degree-2 inputs: transfer matrix over image pairs ---

def _steps(shape):
    """Arc direction of walk step i (+1: v_i -> v_{i+1}) and the period."""
    if shape in ("path", "cycle"):
        return (lambda i: 1), 1
    if shape == "anti":
        return (lambda i: 1 if i % 2 == 0 else -1), 2
    raise ValueError(shape)


def _matmul(a, b):
    out = []
    for row in a:
        acc = 0
        while row:
            low = row & -row
            acc |= b[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return out


def _matpow(m, e):
    size = len(m)
    result = [1 << i for i in range(size)]
    while e:
        if e & 1:
            result = _matmul(result, m)
        m = _matmul(m, m)
        e >>= 1
    return result


def walk_reference(shape, n, k, h_arcs, h_reflexive, mode) -> bool:
    """Exact answer for a directed path, directed cycle, antidirected
    cycle or edgeless graph on n vertices, labelled along the walk.

    A state of step i is the image pair (f(v_i), f(v_{i+1})); a transition
    from step i to i+1 keeps the shared image and forbids f(v_i) =
    f(v_{i+2}) where the mode makes v_i and v_{i+2} must-differ partners at
    v_{i+1}.  Paths ask for any walk of n-2 transitions, cycles for a
    closed walk of n."""
    if shape == "edgeless" or n == 1:
        return k > 0
    out_m, _ = target_masks(k, h_arcs, h_reflexive)
    direction, period = _steps(shape)

    def arc_ok(a, b, d):
        return bool(out_m[a] >> b & 1) if d > 0 else bool(out_m[b] >> a & 1)

    def must(i):  # at v_{i+1}, between v_i and v_{i+2}
        if mode == IOT:
            return True
        return direction(i) != direction(i + 1)  # both in or both out

    def valid(i):
        return [arc_ok(s // k, s % k, direction(i)) for s in range(k * k)]

    mats = []
    for r in range(period):
        here, there = valid(r), valid(r + 1)
        rows = []
        for s in range(k * k):
            a, b = divmod(s, k)
            row = 0
            if here[s]:
                for c in range(k):
                    if there[b * k + c] and not (must(r) and a == c):
                        row |= 1 << (b * k + c)
            rows.append(row)
        mats.append(rows)
    cycle = mats[0]
    for m in mats[1:]:
        cycle = _matmul(cycle, m)
    start = [s for s, ok in enumerate(valid(0)) if ok]
    if shape == "path":
        full, rem = divmod(n - 2, period)
        walk = _matpow(cycle, full)
        for m in mats[:rem]:
            walk = _matmul(walk, m)
        return any(walk[s] for s in start)
    if n % period:
        raise ValueError("walk length must be a multiple of the period")
    closed = _matpow(cycle, n // period)
    return any(closed[s] >> s & 1 for s in start)


# --- what the CLI prints ---

def label_table(target):
    """Label -> index for a named target, as the CLI prints them: c1..c3
    for triangle vertices, t0.. for transitive ones."""
    m = re.fullmatch(r"(T(\d)|C3|U(\d+))r?", target)
    if m is None:
        raise ValueError(f"unnamed target {target!r}")
    if target.startswith("C3"):
        labels = ["c1", "c2", "c3"]
    elif target.startswith("U"):
        labels = ["c1", "c2", "c3"] + [f"t{i}" for i in range(int(m.group(3)) - 3)]
    else:
        labels = [f"t{i}" for i in range(int(m.group(2)))]
    return {lab: i for i, lab in enumerate(labels)}


_MAP_LINE = re.compile(r"(\d+) -> (\S+)")


def parse_witness(lines, n, labels=None):
    """Image tuple from ``v -> label`` lines covering 0..n-1 once each, or
    None when the lines do not form such a map."""
    image = [None] * n
    for line in lines:
        m = _MAP_LINE.fullmatch(line)
        if m is None:
            return None
        v = int(m.group(1))
        lab = m.group(2)
        a = labels.get(lab) if labels is not None else (int(lab) if lab.isdigit() else None)
        if a is None or not 0 <= v < n or image[v] is not None:
            return None
        image[v] = a
    if any(a is None for a in image):
        return None
    return tuple(image)


def read_edge_list(path):
    """(n, arcs) from an edge-list file the program wrote."""
    with open(path, encoding="utf-8") as fh:
        rows = [ln.split() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    n = int(rows[0][0])
    return n, [(int(u), int(v)) for u, v in rows[1:]]


_PROV_LINE = re.compile(r"(vertex (\d+)|edge (\d+)-(\d+)): (.*)")


def read_provenance(path):
    """{("vertex", v) | ("edge", (u, w)): {role: instance vertex}} from a
    reduction's ``.prov`` sidecar."""
    table = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            m = _PROV_LINE.fullmatch(line.strip())
            if m is None:
                continue
            key = ("vertex", int(m.group(2))) if m.group(2) else ("edge", (int(m.group(3)), int(m.group(4))))
            table[key] = {name: int(idx) for name, idx in (item.split("=") for item in m.group(5).split())}
    return table


def proper_vertex_colouring(edges, colour) -> bool:
    return all(colour[u] != colour[v] for u, v in edges)


def proper_edge_colouring(n, edges, colour) -> bool:
    """colour maps each normalized edge to a colour; proper when the edges
    at every vertex carry distinct colours."""
    at = [[] for _ in range(n)]
    for (u, v) in edges:
        at[u].append(colour[(u, v)])
        at[v].append(colour[(u, v)])
    return all(len(set(cs)) == len(cs) for cs in at)


def chi_lower_bound(n, arcs, flavour):
    """Colours any flavour colouring needs: a vertex and its out- (or in-)
    neighbours take distinct colours on loopless targets, its out- (or in-)
    neighbours on reflexive ones under ios, all its neighbours under iot."""
    if n == 0:
        return 0
    outs, ins = neighbourhoods(n, arcs)
    if flavour == "proper-ios":
        return 1 + max(max(len(outs[v]), len(ins[v])) for v in range(n))
    if flavour == "improper-ios":
        return max(1, max(max(len(outs[v]), len(ins[v])) for v in range(n)))
    return max(1, max(len(outs[v]) + len(ins[v]) for v in range(n)))
