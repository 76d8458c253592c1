"""Exact backtracking search for locally injective homomorphisms.

A (G, H, mode) question becomes a binary constraint problem: one
variable per vertex of G with domain V(H), arc constraints for arc
preservation, and an all-different constraint on each neighbourhood the
mode protects.  Each vertex's partners (the other members of every
protected neighbourhood it lies in, repeats kept) are one flat list, which
the singleton rule walks; the neighbourhoods of three or more members are
also listed at each member without that member, for the naked-pair rule.
Each domain starts on the target values with room for the vertex's
protected neighbourhoods (the degree filter: a value's in- and
out-degree, and under iot its whole neighbourhood, at least the
vertex's, loops counted), then the pins apply.  No propagation rule
derives this from whole-target domains, and it holds for deciding and
enumerating alike.  A search ends at the root with no solution only
when some start domain is empty or root propagation empties one.
Propagation has three rules, so the forcing gadgets collapse by unit
propagation instead of search: arc support in both directions,
singleton elimination and the naked-pair rule (two members of one
protected neighbourhood on the same two values use both up, so its other
members lose them: the size-two Hall sets of the all-different
constraint).  Domains are bitmasks.  Each target value has an out- and
an in-mask, its loop included; the values an arc neighbour may take are
read from tables that map a domain mask to the union of its values'
masks, and an arc side whose union is the whole target removes nothing
and is skipped.  All that the search derives from the target alone is
one _Target, shared by the searches against equal targets and by the
transfer DP in poly, which steps its layers through the same kind of
table.  The input's side of the problem reads the graph's own neighbour
lists and is built afresh for each search.

The search is depth-first on an explicit stack, with one domain list and
a trail of changes undone on backtracking, so input size is not bounded
by the interpreter's recursion limit and no node copies the domains.
Deciding and enumerating run the same loop.  Deciding (stopping at the
first solution) also solves the parts that the decided vertices split
the rest into one at a time, each found by a capped search from a
neighbour of the decision, and a part without a solution fails the
decision that split it off.  Where a failure ends the whole search (the
root, the parts split off there and each component no decision touches)
a decision tries only the lowest value of each orbit of the target's
automorphisms, since the image of a value that failed fails too.
Enumeration is that loop without splits, backjumps or skipped values, in
the plain chronological order.

Reflexive input graphs are accepted: a loop puts the vertex inside its
own neighbourhoods (so its image must differ from its protected
neighbours' images), and against an irreflexive target every start
domain is empty.

Every decision route answers with a SolveResult: solve with its node
count and the label "backtracking", poly.decide_poly with the label of
the polynomial rule that answered.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .graphs import Mode, OrientedGraph

# The most vertices in a part that a split finds.  Node counts: a cap of
# 32 takes a 24-vertex C3r colouring instance from 230 to 6,654 nodes, 64
# costs the seed-3 hardness corpus 1.9% more, 128 and 256 keep every
# count.  With no cap the counts barely move, but the sixteen 9,760-vertex
# T3r instances of random cubic graphs on 160 vertices (seeds 1-8, ios
# and iot) take 23.6 s in all instead of 16.3 s, one run each (2-vCPU x86
# guest, Python 3.11).
_PART_CAP = 128

# The most permutations _Target.reps tries in its search for the
# target's automorphisms: 7!, every permutation of a 7-vertex target.
_ORBIT_CAP = 5040


@dataclass(frozen=True)
class Homomorphism:
    """A total vertex map into a target, tagged with the mode it satisfies."""

    map: tuple
    mode: Mode


@dataclass
class SolveResult:
    """An answer of any decision route; nodes_explored is 0 for a route
    that does not search."""

    satisfiable: bool
    witness: Homomorphism | None
    nodes_explored: int = 0
    algorithm: str = "backtracking"


def check_hom(g: OrientedGraph, h: OrientedGraph, f, mode: Mode = Mode.PLAIN) -> bool:
    """Is f a mode-injective homomorphism from g to h?

    f must assign an image in range(h.n) to every vertex; anything else is
    a ValueError, not a False.
    """
    if type(mode) is not Mode:  # brute-force loops call this once per map
        mode = Mode.parse(mode)
    f = tuple(f)
    if len(f) != g.n:
        raise ValueError(f"map covers {len(f)} vertices, graph has {g.n}")
    for a in f:
        if not (isinstance(a, int) and 0 <= a < h.n):
            raise ValueError(f"image {a!r} out of range for target on {h.n} vertices")
    if g.reflexive and not h.reflexive and g.n > 0:
        return False  # loops cannot map anywhere
    for u, v in g.arcs:
        a, b = f[u], f[v]
        if a == b:
            if not h.reflexive:
                return False
        elif (a, b) not in h.arcs:
            return False
    if mode is Mode.PLAIN:
        return True
    # f is injective on every in-neighbourhood exactly when the pairs
    # (centre, image of an in-neighbour) over the arcs are distinct, and
    # on every out-neighbourhood likewise; a loop adds (x, f(x)) to both
    # sides, and iot asks all the pairs of both sides to be distinct
    arcs = g.arcs
    loops = list(enumerate(f)) if g.reflexive else []
    want = len(arcs) + len(loops)
    ins = {(v, f[u]) for u, v in arcs}
    ins.update(loops)
    if mode is Mode.IOS:
        outs = {(u, f[v]) for u, v in arcs}
        outs.update(loops)
        return len(ins) == len(outs) == want
    ins.update([(u, f[v]) for u, v in arcs])
    return len(ins) == want + len(arcs)


def _neighbourhoods(g: OrientedGraph, mode: Mode) -> Iterator[tuple]:
    """The member tuples of the neighbourhoods the mode protects that have
    two or more members: each in- and each out-neighbourhood under ios,
    the whole neighbourhood under iot, with the centre itself under loops.
    The mode makes each of them an all-different constraint."""
    if mode is Mode.PLAIN:
        return
    loop = g.reflexive
    iot = mode is Mode.IOT
    for x, (ins, outs) in enumerate(zip(g.in_nbrs, g.out_nbrs)):
        if iot:
            sides = (ins + outs + (x,),) if loop else (ins + outs,)
        else:
            sides = (ins + (x,), outs + (x,)) if loop else (ins, outs)
        for members in sides:
            if len(members) > 1:
                yield members


class _Csp:
    """One prepared search instance; not reusable across calls.

    The graph side holds, for each vertex, its partners (the other members
    of the protected neighbourhoods it belongs to, repeats kept), those of
    the neighbourhoods that have three or more members, each as the tuple
    of its other members, and its constraint neighbours (arc neighbours and
    partners, once each).  start holds the start domains, pins applied;
    an empty one is the only NO that root propagation does not find."""

    def __init__(self, g: OrientedGraph, h: OrientedGraph, mode: Mode, pins=None):
        self.g = g
        self.h = h
        self.nodes = 0
        self.target = target = _target(h)
        nbhds_at = [[] for _ in range(g.n)]
        partners = [[] for _ in range(g.n)]
        # most neighbourhoods of a hardness instance have two members;
        # those reach only the partners, unsliced
        for members in _neighbourhoods(g, mode):
            if len(members) == 2:
                a, b = members
                partners[a].append(b)
                partners[b].append(a)
            else:
                for i, w in enumerate(members):
                    others = members[:i] + members[i + 1:]
                    nbhds_at[w].append(others)
                    partners[w].extend(others)
        self.nbhds_at = nbhds_at
        self.partners = partners
        self.constraint_nbrs = [
            sorted({*outs, *ins, *near}) if near else sorted(outs + ins)
            for outs, ins, near in zip(g.out_nbrs, g.in_nbrs, partners)
        ]
        self.start = target.start(g, mode)
        self.pinned = bool(pins)
        if pins:
            for v, a in pins.items():
                if not (isinstance(v, int) and 0 <= v < g.n):
                    raise ValueError(f"pin on unknown vertex {v!r}")
                if not (isinstance(a, int) and 0 <= a < h.n):
                    raise ValueError(f"pin image {a!r} out of range for target on {h.n} vertices")
                self.start[v] &= 1 << a

    def _propagate(self, dom, stack, trail) -> bool:
        """Shrink domains to the fixpoint of the three rules, starting from
        the vertices in stack.  Every change is logged on trail as (vertex,
        old domain).  A wipeout returns False and leaves its partial
        changes on trail for the caller to undo.

        An arc side whose support is the whole target removes nothing and
        is skipped (the no-op revisions of AC-3).  The two difference rules
        read the popped vertex v's partners and protected neighbourhoods,
        each without v itself.  A singleton v takes its value from its
        partners.  A two-valued v looks in each neighbourhood of three or
        more members for a twin, another member with the same two values:
        the two use both values up, so the other members lose them (the
        naked-pair rule); a neighbourhood of two has no other member to
        prune.  Each rule's premise holds only once some vertex reaches
        that domain, and that vertex is then pushed, so the fixpoint, and
        with it every node count, is the one all rules reach in any order.
        The naked-pair rule removes only values no solution uses, and the
        members of a neighbourhood are pairwise constraint neighbours, so
        it never reaches across the parts a decision splits off."""
        out_support = self.target.out_support
        in_support = self.target.in_support
        out_nbrs = self.g.out_nbrs
        in_nbrs = self.g.in_nbrs
        full = self.target.full
        nbhds_at = self.nbhds_at
        partners = self.partners
        log = trail.append
        while stack:
            v = stack.pop()
            dv = dom[v]
            nbrs = out_nbrs[v]
            if nbrs:
                support = out_support[dv]
                if support != full:
                    for w in nbrs:
                        dw = dom[w]
                        nd = dw & support
                        if nd != dw:
                            if not nd:
                                return False
                            log((w, dw))
                            dom[w] = nd
                            stack.append(w)
            nbrs = in_nbrs[v]
            if nbrs:
                support = in_support[dv]
                if support != full:
                    for u in nbrs:
                        du = dom[u]
                        nd = du & support
                        if nd != du:
                            if not nd:
                                return False
                            log((u, du))
                            dom[u] = nd
                            stack.append(u)
            if dv & (dv - 1) == 0:  # a singleton: the partners lose its value
                keep = ~dv
                for w in partners[v]:
                    dw = dom[w]
                    if dw & dv:
                        nd = dw & keep
                        if not nd:
                            return False
                        log((w, dw))
                        dom[w] = nd
                        stack.append(w)
                continue
            if dv.bit_count() != 2:
                continue
            keep = ~dv
            for others in nbhds_at[v]:
                for twin in others:  # a twin on v's two values
                    if dom[twin] == dv:
                        break
                else:
                    continue
                for w in others:  # the others lose both values
                    dw = dom[w]
                    if dw & dv and w != twin:
                        nd = dw & keep
                        if not nd:  # w held nothing but v's values
                            return False
                        log((w, dw))
                        dom[w] = nd
                        stack.append(w)
        return True

    def _root(self):
        """The domains after the pins and root propagation, or None when
        some start domain is empty or root propagation wipes one out."""
        dom = list(self.start)
        if not all(dom) or not self._propagate(dom, list(range(self.g.n)), []):
            return None
        return dom

    def solutions(self, first_only=False) -> Iterator[tuple]:
        """The solutions, depth-first on an explicit stack of frames.

        Domains live in one list.  Every change is logged on a trail, and
        backtracking undoes the trail to the frame's mark, so no node
        copies the domains.  A frame holds its branch vertex, the values
        not yet tried there, its trail mark, the node's frontier, a lower
        bound on the lowest undecided index, a backjump target (the index
        of the frame to resume when this one runs out of values) and the
        agenda of parts still to solve, a linked list of (frontier,
        backjump target, rest of the agenda) shared between frames.

        Enumeration resumes the parent of every frame that runs out of
        values: the chronological order.  A search for the first solution
        only (first_only) works part by part.  Once propagation is at its
        fixpoint, a constraint between a decided and an undecided vertex is
        unary, so undecided vertices joined only through decided ones share
        no constraint.  When a decision splits the undecided part it was
        made in, the parts are solved one after another, and a part whose
        first frame runs out of values fails the decision that split it
        off, past the frames of the parts solved before; a component that
        no decision touches fails the whole search.  The first part taken
        holds the frontier vertex enumeration would branch on, so an input
        that never splits is searched exactly as there.  After the first
        solution such a search may skip others.

        A first-only search without pins against three or more values
        also skips symmetric values at the frames whose failure ends the
        whole search (backjump target -1): the root frame, the parts split
        off at the root and each fresh component.  There it tries only the
        lowest value of each orbit of the target's automorphism group
        (_Target.reps).  This is sound: an automorphism keeps each value's
        in- and out-degree, so it maps the degree filter's start domains
        onto themselves, and root propagation from them commutes with
        every automorphism, so it reaches domains that each automorphism
        maps onto themselves, and a root singleton is a value every
        automorphism fixes.  Such a frame's vertices keep
        their root domains and meet only root singletons, so its
        subproblem maps onto itself too, and a value whose subtree failed
        has images that fail alike.  The lowest value of a domain is the
        lowest of its orbit, so the first value tried, every witness and
        every verdict stay the same and no count of nodes rises.  Pins
        break the symmetry of the root domains, so the rule is off under
        pins.  It is off against two or fewer values as well, where every
        frame fails back to the root, not only these.

        Against a target of at most two vertices every undecided domain is
        the whole target, so once propagation settles, the constraints left
        among undecided vertices are some of the input's own: a part
        without a solution means the input has none, and a first-only
        search fails every frame back to the root.  No decision that
        propagated cleanly is retried, so it takes at most two nodes per
        vertex; this is how it decides 2-SAT (Even, Itai & Shamir, SIAM J.
        Comput. 5(4), 1976).
        """
        n = self.g.n
        dom = self._root()
        if dom is None:
            return
        self._owner = [0] * n
        self._next_id = 1
        self._first_only = first_only
        # the values tried at a frame whose failure ends the search
        skip = first_only and self.h.n > 2 and not self.pinned
        self._reps = self.target.reps if skip else self.target.full
        trail = []
        decided = [v for v in range(n) if dom[v] & (dom[v] - 1) == 0]
        frame = self._next_frame(dom, set(), decided, None, -1, 0, 0)
        if frame is None:
            yield tuple(d.bit_length() - 1 for d in dom)
            return
        frames = [frame]
        to_root = first_only and self.h.n <= 2
        while frames:
            frame = frames[-1]
            best, untried, mark, front, low_free, back, agenda = frame
            if len(trail) > mark:
                for v, old in reversed(trail[mark:]):
                    dom[v] = old
                del trail[mark:]
            if not untried:
                del frames[back + 1:]
                continue
            value = untried & -untried
            frame[1] = untried ^ value
            self.nodes += 1
            trail.append((best, dom[best]))
            dom[best] = value
            if not self._propagate(dom, [best], trail):
                continue
            decided = [w for w, _ in trail[mark:] if dom[w] & (dom[w] - 1) == 0]
            at = -1 if to_root else len(frames) - 1
            frame = self._next_frame(dom, front, decided, agenda, at, low_free, len(trail))
            if frame is None:
                yield tuple(d.bit_length() - 1 for d in dom)
            else:
                frames.append(frame)

    def _next_frame(self, dom, front, decided, agenda, at, low_free, mark):
        """The frame that follows frame at's decision, or None when every
        vertex is decided; at is -1 for the root and mark is the trail
        length.

        The frontier holds the undecided vertices with a decided
        constraint-neighbour: the parent's less what is now decided, plus
        the undecided neighbours of what is.  In a first-only search, when
        the decision has two or more undecided neighbours (the seeds), the
        parts that _split finds for them are split off, and the rest of
        the frontier, when any is left, is one more part.  The part
        holding the best frontier vertex is searched now and the others go
        on the agenda, each to fail back to frame at.  A part with no
        frontier left is solved, and the agenda gives the next one.  With
        the agenda empty, only components that nothing decided touches are
        left: the lowest undecided index starts the next, failing back to
        frame at, or to the root in a first-only search.
        """
        nbrs = self.constraint_nbrs
        front = front.difference(decided)
        seeds = set()  # the undecided neighbours of what is now decided
        for w in decided:
            for x in nbrs[w]:
                if dom[x] & (dom[x] - 1):
                    seeds.add(x)
        front |= seeds
        back = at
        if front:
            best = _best(dom, front)
            if len(seeds) > 1 and self._first_only:
                parts = []
                for part in self._split(dom, seeds):
                    part_front = front.intersection(part)
                    front -= part_front
                    parts.append(part_front)
                if parts:
                    if front:
                        parts.append(front)  # the rest
                    for part_front in reversed(parts):
                        if best in part_front:
                            front = part_front
                        else:
                            agenda = (part_front, at, agenda)
        elif agenda is not None:
            front, back, agenda = agenda
            best = _best(dom, front)
        else:
            low_free = _lowest_free(dom, low_free)
            if low_free == len(dom):
                return None
            best = low_free
            if self._first_only:
                back = -1
        untried = dom[best] if back != -1 else dom[best] & self._reps
        return [best, untried, mark, front, low_free, back, agenda]

    def _split(self, dom, seeds) -> list:
        """The parts of the undecided vertices that seeds fall into, as
        vertex lists, from one search per seed in turn.  A search stops
        unfinished when its part would grow past _PART_CAP or when it
        reaches a vertex that an earlier stopped search reached; a finished
        search is a part.  Once a search has reached every seed that no
        part holds (which a stopped search rules out), the split ends, and
        that search's region stays with the rest of the caller's frontier.

        owner[v] is the id of the search that reached v, base plus its
        seed's number; ids below base are left over from earlier splits.
        """
        nbrs = self.constraint_nbrs
        owner = self._owner
        base = self._next_id
        self._next_id = base + len(seeds)
        parts = []
        left = len(seeds)  # the seeds that no part holds
        for me, s in enumerate(seeds, base):
            if owner[s] >= base:
                continue  # in a part, or reached by a stopped search
            owner[s] = me
            part = [s]
            reached = 1  # the seeds in part
            for x in part:
                for y in nbrs[x]:
                    d = dom[y]
                    if owner[y] == me or not d & (d - 1):
                        continue  # reached already, or decided
                    if owner[y] >= base or len(part) == _PART_CAP:
                        break  # stop unfinished
                    owner[y] = me
                    part.append(y)
                    reached += y in seeds
                else:
                    if reached == left:
                        return parts  # this search's region is the rest
                    continue
                break
            else:
                parts.append(part)
                left -= reached
        return parts


def _best(dom, front) -> int:
    """The frontier vertex with the smallest domain, lowest index on ties.

    Branching next to the decided region makes forcing sweep outward
    through one gadget block at a time."""
    best = -1
    best_size = 1 << 30
    for v in sorted(front):
        size = dom[v].bit_count()
        if size < best_size:
            best = v
            best_size = size
            if size == 2:  # no undecided domain is smaller
                break
    return best


def _lowest_free(dom, low_free) -> int:
    """The lowest undecided index from a lower bound, len(dom) if none."""
    n = len(dom)
    while low_free < n and dom[low_free] & (dom[low_free] - 1) == 0:
        low_free += 1
    return low_free


class _Target(dict):
    """What the search derives from one target, which depends on the
    target alone.

    out_support and in_support give the values an arc neighbour may take,
    given a domain; their masks, loops included, are each value's out- and
    in-neighbours, and poly's transfer DP reads them too.  reps is the
    mask of the lowest value of each orbit of the target's automorphisms,
    found on first use.  Indexed by (iot, loops, in-degree, out-degree),
    with loops 1 for a reflexive input, the object itself is the degree
    filter: the values a vertex may take, filled on first use.  Under ios
    and iot, start looks every input vertex up in it once.

    A locally injective map sends each protected neighbourhood of a
    vertex injectively into the matching one of its image (Fiala &
    Kratochvil, Comput. Sci. Rev. 2(2), 2008).  So a value needs an in-
    and an out-degree at least the vertex's, each counting a loop, and
    under iot a whole neighbourhood at least the vertex's, the loop
    counted once; that last bound says more only against a reflexive
    target.  The entries shrink as either degree grows."""

    def __init__(self, h: OrientedGraph):
        super().__init__()
        self.h = h
        self.full = (1 << h.n) - 1
        hr = int(h.reflexive)
        out_mask = [hr << a for a in range(h.n)]  # a loop to itself
        in_mask = out_mask.copy()
        for a, b in h.arcs:
            out_mask[a] |= 1 << b
            in_mask[b] |= 1 << a
        self.out_support = _MaskTable(out_mask)
        self.in_support = _MaskTable(in_mask)
        # each value's in-degree, out-degree and whole degree, loop counted
        self.room = [
            (len(ins) + hr, len(outs) + hr, len(ins) + len(outs) + hr)
            for ins, outs in zip(h.in_nbrs, h.out_nbrs)
        ]

    def __missing__(self, key):
        iot, own, ins, outs = key
        whole = ins + outs + own if iot else 0
        ins += own
        outs += own
        mask = 0
        for a, (room_in, room_out, room_whole) in enumerate(self.room):
            if ins <= room_in and outs <= room_out and whole <= room_whole:
                mask |= 1 << a
        self[key] = mask
        return mask

    def start(self, g: OrientedGraph, mode: Mode) -> list:
        """Each vertex's start domain: under ios and iot the values with
        room for its protected neighbourhoods, one lookup per vertex; the
        whole target in plain mode.  A loop maps only onto a loop, so a
        looped input starts on no value of an irreflexive target."""
        if g.reflexive and not self.h.reflexive:
            return [0] * g.n
        if mode is Mode.PLAIN:
            return [self.full] * g.n
        iot = itertools.repeat(mode is Mode.IOT)
        own = itertools.repeat(int(g.reflexive))
        keys = zip(iot, own, map(len, g.in_nbrs), map(len, g.out_nbrs))
        return list(map(self.__getitem__, keys))

    @functools.cached_property
    def reps(self) -> int:
        """The lowest value of each orbit, as a mask.

        The automorphisms are found by brute force over the permutations
        that keep each value's (out-degree, in-degree); when those number
        more than _ORBIT_CAP, every value counts as its own orbit, which
        is always sound.  Named targets have at most six such permutations
        (the rotations and reflections of C3's triangle)."""
        h = self.h
        classes = {}
        for a in range(h.n):
            classes.setdefault((len(h.out_nbrs[a]), len(h.in_nbrs[a])), []).append(a)
        groups = [c for c in classes.values() if len(c) > 1]
        reps = self.full
        if math.prod(map(math.factorial, map(len, groups))) > _ORBIT_CAP:
            return reps
        arcs = h.arcs
        image = list(range(h.n))
        for perms in itertools.product(*map(itertools.permutations, groups)):
            for c, p in zip(groups, perms):
                for a, b in zip(c, p):
                    image[a] = b
            if all((image[a], image[b]) in arcs for a, b in arcs):
                for a, b in enumerate(image):
                    if b > a:  # b has a lower value in its orbit
                        reps &= ~(1 << b)
        return reps


# Every search and DP against a target reads its _Target, found by
# equality, so custom targets read from a file for every command share it
# too.  One benchmark process meets at most ten targets (many-small's
# verify suites; hardness five, long-sparse six), counted with
# cache_info() after one pass; the bound keeps those with room to spare.
_target = functools.lru_cache(maxsize=16)(_Target)


class _MaskTable(dict):
    """The union of per-value masks over the values of a value mask,
    indexed by the value mask.  Entries are filled on first use, one per
    mask asked for, so a table over any number of values pays only for
    the masks that occur."""

    def __init__(self, masks):
        super().__init__()
        self.masks = masks

    def __missing__(self, values):
        masks = self.masks
        union = 0
        rest = values
        while rest:
            low = rest & -rest
            union |= masks[low.bit_length() - 1]
            rest ^= low
        self[values] = union
        return union


def enumerate_homs(g, h, mode: Mode, pins=None, limit=None) -> Iterator[tuple]:
    """Yield mode-injective homomorphisms g -> h as image tuples, in
    deterministic (lexicographic-by-branching) order."""
    gen = _Csp(g, h, Mode.parse(mode), pins).solutions()
    if limit is None:
        yield from gen
    else:
        yield from itertools.islice(gen, limit)


def solve(g, h, mode: Mode, pins=None) -> SolveResult:
    """Decide mode-injective homomorphisms from g to h; the witness is the
    first one the part-by-part search finds."""
    mode = Mode.parse(mode)
    csp = _Csp(g, h, mode, pins)
    first = next(csp.solutions(first_only=True), None)
    witness = Homomorphism(first, mode) if first is not None else None
    return SolveResult(
        satisfiable=first is not None,
        witness=witness,
        nodes_explored=csp.nodes,
    )
