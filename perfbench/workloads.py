"""The three workloads: what set-up writes, which CLI calls make one
operation, and how each answer is checked.

Each workload has two halves.  ``corpus`` is timed as set-up: it draws
the seeded inputs and writes them as edge-list files.  ``ops`` is not
timed: it works out the reference answers and returns the operations,
each a list of argument vectors for ``injhom.cli.main`` plus a check of
the exit codes and printed lines.  A check returns None when the answer
is right and a reason otherwise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import checks
import corpus as cg

SUITES = ("gadget-F", "lemma-B", "lemma-D", "oracle-equivalence", "reductions")


@dataclass(eq=False)
class Op:
    name: str
    calls: list
    check: object
    baseline: bool = False  # reported with exact counts by the traced run


@dataclass
class Program:
    """The program's modules, as imported by the latest set-up."""

    cli: object
    chromatic: object
    graphs: object
    reductions: object
    solver: object
    targets: object
    verify: object


def witness_ok(prog, n, arcs, target, mode, lines):
    """Reason the ``v -> label`` lines are not a valid witness, or None."""
    g = prog.graphs
    f = checks.parse_witness(lines, n, checks.label_table(target))
    if f is None:
        return "unreadable witness"
    # looked up on each call, so that a traced run times it
    if not prog.solver.check_hom(g.OrientedGraph(n, arcs), prog.targets.build_named(target),
                                 f, g.Mode.parse(mode)):
        return "witness is not a valid homomorphism"
    return None


def _verdict(code, lines):
    verdict = {0: True, 1: False}.get(code)
    if verdict is None or lines[:1] != ["YES" if verdict else "NO"]:
        return None
    return verdict


# --- hardness: reduce then decide ---

CUBIC_LADDER = (8, 12, 16, 20, 24, 32, 40)
# A configuration-model draw is already uniformly labelled, so random cubic
# graphs run once each; more independent draws steady the quantiles more
# than relabelled copies of fewer draws would.  The paper graphs also run
# under seeded relabellings.
DRAWS_PER_SIZE = 6
RELABELLINGS = 2
ORIENTED_SIZES = (8, 10, 12, 14)
TRANSFER_M = 4

# (reduce kind, extra reduce arguments, target, mode, source problem)
C3R_IOS = ("3col-to-ios-c3r", (), "C3r", "ios", "3col")
C3R_IOT = ("3col-to-iot-c3r", (), "C3r", "iot", "3col")
U4 = ("3edge-to-um", ("--m", "4"), "U4", "ios", "3edge")
U6 = ("3edge-to-um", ("--m", "6"), "U6", "ios", "3edge")
T3R_IOS = ("3edge-to-t3r", ("--mode", "ios"), "T3r", "ios", "3edge")
T3R_IOT = ("3edge-to-t3r", ("--mode", "iot"), "T3r", "iot", "3edge")
PAPER_KINDS = (C3R_IOS, C3R_IOT, T3R_IOS, T3R_IOT, U4, U6)

# Search times on these instances are heavy-tailed in the incidence order
# and, for random cubic graphs, in the draw: the same reduction takes
# milliseconds on one order and runs past any deadline on another.  A
# seeded input landing in that tail would flip a verdict from one seed to
# the next.  So the tail is measured on fixed instances, and each kind
# runs seeded inputs only where 25 or more draws all finished far below
# the deadline:
# - T3r runs on the given labelling of the five paper graphs only (bridged
#   graph 1.7 s, Petersen over 60 s; relabelled prism and bridged graphs,
#   and random cubic graphs from 8 vertices up, also ran past 4 s);
# - on random cubic graphs, 3col-to-iot-c3r runs up to 12 vertices (some
#   24- to 40-vertex draws pass 10 s), 3col-to-ios-c3r up to 24 (a
#   40-vertex draw took 1.2 s), U4 and U6 through 40.
CUBIC_MAX_N = {C3R_IOS: 24, C3R_IOT: 12, U4: 40, U6: 40}


@dataclass
class Source:
    name: str
    n: int
    edges: list  # normalized
    order: int
    path: str


@dataclass
class HardnessCorpus:
    sources: list = field(default_factory=list)
    oriented: list = field(default_factory=list)  # (n, arcs, path)
    workdir: str = ""


def hardness_corpus(prog, seed, workdir):
    rng = random.Random(seed)
    red = prog.reductions
    fixed = {
        "K4": red.complete_graph(4),
        "K33": red.complete_bipartite(3, 3),
        "prism": red.prism_graph(),
        "bridged": red.bridged_cubic_graph(),
    }
    graphs = [(name, g.n, cg.norm(g.edges), RELABELLINGS) for name, g in fixed.items()]
    graphs.append(("petersen", *cg.petersen(), RELABELLINGS))
    graphs += [(f"cubic{n}-{i}", n, cg.random_cubic(n, rng), 0)
               for n in CUBIC_LADDER for i in range(DRAWS_PER_SIZE)]
    out = HardnessCorpus(workdir=workdir)
    for name, n, edges, relabellings in graphs:
        for order in range(1 + relabellings):
            labelled = edges if order == 0 else cg.relabel(n, edges, rng)
            path = f"{workdir}/{name}-o{order}.txt"
            cg.write_edge_list(path, n, labelled)
            out.sources.append(Source(name, n, cg.norm(labelled), order, path))
    for n in ORIENTED_SIZES:
        arcs = cg.degree_bounded_oriented(n, rng)
        path = f"{workdir}/oriented{n}.txt"
        cg.write_edge_list(path, n, arcs)
        out.oriented.append((n, arcs, path))
    return out


def _three_colourable(prog, src):
    if src.n <= 20:
        return prog.reductions.oracle_3col(prog.reductions.SimpleGraph(src.n, src.edges))
    # Brooks: a connected cubic graph other than K4 is 3-colourable
    return True


def _edge_colouring_reference(prog, src):
    """Is the cubic source 3-edge-colourable?  Exhaustive up to 20
    vertices; above that the U4 route, whose YES must decode to a proper
    colouring."""
    red, solver = prog.reductions, prog.solver
    g = red.SimpleGraph(src.n, src.edges)
    if src.n <= 20:
        return red.find_3edge_colouring(g) is not None
    inst = red.reduce_3edge_to_u4(g)
    res = solver.solve(inst.graph, prog.targets.build_named("U4"), inst.mode)
    if res.satisfiable:
        f = res.witness.map
        colour = {e: f[inst.edge_roles(*e)["v1"]] for e in src.edges}
        if not checks.proper_edge_colouring(src.n, src.edges, colour):
            raise RuntimeError(f"U4 reference for {src.name} decodes to an improper colouring")
    return res.satisfiable


def _decoder(kind, src):
    """Check that a YES witness decodes to a proper colouring of the
    source, through the provenance sidecar."""
    nbrs = [[] for _ in range(src.n)]
    for u, v in src.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)

    def vertex_colouring(role):
        def decode(f, prov):
            colour = [f[prov[("vertex", v)][role]] for v in range(src.n)]
            return checks.proper_vertex_colouring(src.edges, colour)
        return decode

    if kind == "3col-to-ios-c3r":
        return vertex_colouring("x1")  # a vertex of the selector's forced cycle
    if kind == "3col-to-iot-c3r":
        return vertex_colouring("x0")  # an attachment point of the cycle
    if kind == "3edge-to-t3r":
        def decode(f, prov):
            # the program numbers a vertex's edges by the other endpoint
            colour = {(u, v): f[prov[("vertex", u)][f"leaf{1 + sorted(nbrs[u]).index(v)}"]]
                      for u, v in src.edges}
            return checks.proper_edge_colouring(src.n, src.edges, colour)
        return decode

    def decode(f, prov):
        colour = {e: f[prov[("edge", e)]["v1"]] for e in src.edges}
        return checks.proper_edge_colouring(src.n, src.edges, colour)
    return decode


def _reduce_op(prog, name, kind, extra, target, mode, src_path, out, expected, decode,
               baseline=False):
    reduce_argv = ["reduce", kind, src_path, "--out", out, *extra]
    decide_argv = ["decide", out, target, mode]
    banner = f"target: {target}  mode: {mode}"

    def check(outs):
        (rc, rout), (dc, dout) = outs
        if rc != 0 or banner not in rout.splitlines():
            return f"reduce exited {rc} without '{banner}'"
        lines = dout.splitlines()
        verdict = _verdict(dc, lines)
        if verdict is None:
            return f"decide exited {dc} with {lines[:1]}"
        if verdict != expected:
            return f"answered {'YES' if verdict else 'NO'}, reference says {'YES' if expected else 'NO'}"
        if not verdict:
            return None
        n, arcs = checks.read_edge_list(out)
        bad = witness_ok(prog, n, arcs, target, mode, lines[2:])
        if bad is None and decode is not None:
            f = checks.parse_witness(lines[2:], n, checks.label_table(target))
            if not decode(f, checks.read_provenance(out + ".prov")):
                bad = "witness decodes to an improper colouring of the source"
        return bad

    return Op(name, [reduce_argv, decide_argv], check, baseline)


def hardness_ops(prog, corpus):
    ops = []
    answers = {}
    for src in corpus.sources:
        if src.name.startswith("cubic"):
            kinds = [k for k in CUBIC_MAX_N if src.n <= CUBIC_MAX_N[k]]
        elif src.order > 0:
            kinds = [k for k in PAPER_KINDS if k[2] != "T3r"]
        else:
            kinds = PAPER_KINDS
        for kind, extra, target, mode, problem in kinds:
            key = (src.name, problem)
            if key not in answers:
                answers[key] = (_three_colourable(prog, src) if problem == "3col"
                                else _edge_colouring_reference(prog, src))
            tag = f"{kind}-{target}-{mode}"
            name = f"{src.name}-o{src.order}/{tag}"
            out = f"{corpus.workdir}/{src.name}-o{src.order}-{tag}.txt"
            ops.append(_reduce_op(prog, name, kind, extra, target, mode, src.path, out,
                                  answers[key], _decoder(kind, src), baseline=target == "T3r"))
    for n, arcs, path in corpus.oriented:
        for mode in ("ios", "iot"):
            kind = f"{mode}-c3r-to-umr"
            target = f"U{TRANSFER_M}r"
            expected = checks.hom_exists(n, arcs, 3, [(0, 1), (1, 2), (2, 0)], True, mode)
            out = f"{corpus.workdir}/oriented{n}-{kind}.txt"
            ops.append(_reduce_op(prog, f"oriented{n}/{kind}", kind, ("--m", str(TRANSFER_M)),
                                  target, mode, path, out, expected, None))
    return ops


# --- long-sparse: decide on long paths and cycles ---

POLY_TARGETS = ("T3", "C3", "T2r")
SEARCH_TARGETS = ("C3r", "T3r", "U4")
# One size from each band: the band's least size plus a seeded multiple of
# 12, two choices a band.  walk_reference gives every shape, target and
# mode the same verdict at n and n + 12 for these sizes, so every seed gets
# the same verdicts, the same witnesses to print and the same
# RecursionErrors; with any even size in a band, the share of YES answers,
# and so the work, moved with the seed.  The solver recurses once per search
# level, so sizes keep clear of n = 1000, where whether the default
# recursion limit is hit depends on the caller's stack depth.
SIZE_STEP = 12
SEARCH_SIZES = (316, 474, 710, 3168)  # the last: recursion certainly too deep
POLY_ONLY_SIZE = 9800


@dataclass
class LongCorpus:
    files: list = field(default_factory=list)  # (shape, n, search?, path)


def long_corpus(prog, seed, workdir):
    rng = random.Random(seed)
    out = LongCorpus()
    bands = [(lo, True) for lo in SEARCH_SIZES] + [(POLY_ONLY_SIZE, False)]
    for lo, search in bands:
        n = lo + SIZE_STEP * rng.randrange(2)
        for shape, make in cg.LONG_SHAPES.items():
            path = f"{workdir}/{shape}{n}.txt"
            cg.write_edge_list(path, n, make(n))
            out.files.append((shape, n, search, path))
    return out


def long_ops(prog, corpus):
    ops = []
    for shape, n, search, path in corpus.files:
        targets = POLY_TARGETS + (SEARCH_TARGETS if search else ())
        for target in targets:
            h = prog.targets.build_named(target)
            for mode in ("ios", "iot"):
                expected = checks.walk_reference(shape, n, h.n, h.arcs, h.reflexive, mode)
                ops.append(_decide_op(prog, shape, n, target, mode, path, expected))
    return ops


def _decide_op(prog, shape, n, target, mode, path, expected):
    def check(outs):
        ((code, out),) = outs
        lines = out.splitlines()
        verdict = _verdict(code, lines)
        if verdict is None:
            return f"decide exited {code} with {lines[:1]}"
        if verdict != expected:
            return f"answered {'YES' if verdict else 'NO'}, reference says {'YES' if expected else 'NO'}"
        if verdict:
            return witness_ok(prog, n, cg.LONG_SHAPES[shape](n), target, mode, lines[2:])
        return None

    return Op(f"{shape}{n}/{target}-{mode}", [["decide", path, target, mode]], check)


# --- many-small: chi on small random graphs, plus the verify suites ---

CHI_SIZES = range(4, 10)
DENSITIES = (0.3, 0.5, 0.7)
GRAPHS_PER_CELL = 8
FLAVOURS = ("proper-ios", "improper-ios", "improper-iot")
MINIMALITY_MAX_N = 5  # brute-force minimality on the smallest graphs


@dataclass
class SmallCorpus:
    graphs: list = field(default_factory=list)  # (n, arcs, path)


def small_corpus(prog, seed, workdir):
    rng = random.Random(seed)
    out = SmallCorpus()
    for n in CHI_SIZES:
        for density in DENSITIES:
            for i in range(GRAPHS_PER_CELL):
                arcs = cg.random_oriented(n, density, rng)
                path = f"{workdir}/g{n}-{density}-{i}.txt"
                cg.write_edge_list(path, n, arcs)
                out.graphs.append((n, arcs, path))
    return out


def small_ops(prog, corpus):
    cap = prog.chromatic.TOURNAMENT_CAP
    catalogue = [prog.chromatic.enumerate_tournaments(k) for k in range(cap + 1)]
    if [len(ts) for ts in catalogue] != [1, 1, 1, 2, 4, 12, 56]:
        raise RuntimeError("tournament catalogue has the wrong class counts")
    ops = []
    for n, arcs, path in corpus.graphs:
        for flavour in FLAVOURS:
            ops.append(_chi_op(prog, n, arcs, path, flavour, catalogue))
    for suite in SUITES:
        ops.append(Op(f"verify/{suite}", [["verify", suite]], _verify_check))
    return ops


def _verify_check(outs):
    ((code, out),) = outs
    lines = out.splitlines()
    if code != 0 or not lines or any(not ln.startswith("pass ") for ln in lines[:-1]):
        return f"suite exited {code}"
    done, _, total = lines[-1].split()[0].partition("/")
    if done != total or int(total) != len(lines) - 1:
        return f"suite reported {lines[-1]!r}"
    return None


def _chi_op(prog, n, arcs, path, flavour, catalogue):
    cap = len(catalogue) - 1
    mode = "ios" if flavour.endswith("ios") else "iot"
    reflexive = flavour.startswith("improper")
    lower = checks.chi_lower_bound(n, arcs, flavour)

    def maps_to_none(k):
        return not any(checks.hom_exists(n, arcs, k, t.arcs, reflexive, mode) for t in catalogue[k])

    def check(outs):
        ((code, out),) = outs
        lines = out.splitlines()
        if code == 1 and lines[:1] and lines[0].startswith("NOT DETERMINED"):
            # a map to some k-tournament extends to a 6-tournament holding it
            if lower > cap or maps_to_none(cap):
                return None
            return f"capped, but a {cap}-vertex tournament admits a {flavour} colouring"
        if code != 0 or len(lines) < 2 or not lines[0].startswith("chromatic number: "):
            return f"chi exited {code} with {lines[:1]}"
        k = int(lines[0].split(": ")[1])
        body = lines[1].removeprefix("tournament: ")
        if body.endswith(" (reflexive)") != reflexive:
            return "tournament reflexivity does not match the flavour"
        body = body.removesuffix(" (reflexive)")
        t_arcs = [] if body == "(edgeless)" else [tuple(map(int, a.split("->"))) for a in body.split()]
        pairs = {frozenset(a) for a in t_arcs}
        if len(pairs) != len(t_arcs) or len(pairs) != k * (k - 1) // 2 or any(
                not (0 <= u < k and 0 <= v < k and u != v) for u, v in t_arcs):
            return "printed target is not a tournament on k vertices"
        f = checks.parse_witness(lines[2:], n)
        if f is None or any(not 0 <= a < k for a in f):
            return "unreadable witness"
        g = prog.graphs
        if not prog.solver.check_hom(g.OrientedGraph(n, arcs), g.OrientedGraph(k, t_arcs, reflexive),
                                 f, g.Mode.parse(mode)):
            return "witness is not a valid colouring"
        if k < lower:
            return f"chromatic number {k} is below the degree bound {lower}"
        if n <= MINIMALITY_MAX_N and k > 1 and not maps_to_none(k - 1):
            return f"{k - 1} colours suffice"
        return None

    return Op(f"chi/{flavour}/{path.rsplit('/', 1)[1]}", [["chi", path, flavour]], check)


WORKLOADS = {
    "hardness": (hardness_corpus, hardness_ops),
    "long-sparse": (long_corpus, long_ops),
    "many-small": (small_corpus, small_ops),
}
