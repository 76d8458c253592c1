import itertools
import random
import time

import pytest

from injhom import chromatic
from injhom.chromatic import (
    ChiCapError,
    ChiResult,
    TOURNAMENT_CAP,
    _degree_bound,
    _max_cardinality_order,
    canonical_tournament_key,
    check_Um_forcing,
    chi,
    enumerate_tournaments,
    flavour_settings,
)
from injhom.graphs import (
    Mode,
    OrientedGraph,
    all_oriented_graphs,
    directed_cycle,
    directed_path,
    edgeless,
    is_tournament,
    random_oriented_graph,
    transitive_tournament,
)
from injhom.solver import _neighbourhoods, check_hom, solve
from injhom.targets import build_named


def test_catalogue_counts():
    expected = [1, 1, 1, 2, 4, 12, 56]
    for k, want in enumerate(expected):
        assert len(enumerate_tournaments(k)) == want, k


def test_catalogue_members_are_tournaments():
    for k in range(TOURNAMENT_CAP + 1):
        for t in enumerate_tournaments(k):
            assert t.n == k and is_tournament(t)


def test_catalogue_covers_all_orientations():
    # every way of orienting K_k appears up to isomorphism, k <= 5
    for k in range(1, 6):
        keys = {canonical_tournament_key(t) for t in enumerate_tournaments(k)}
        pairs = list(itertools.combinations(range(k), 2))
        for pattern in range(1 << len(pairs)):
            arcs = [
                (u, v) if pattern >> i & 1 else (v, u)
                for i, (u, v) in enumerate(pairs)
            ]
            assert canonical_tournament_key(OrientedGraph(k, arcs)) in keys


def test_canonical_key_relabelling_invariance():
    # every 6-vertex class, so vertices with equal score and equal
    # out-neighbour scores get permuted among themselves
    rng = random.Random(9)
    for t in enumerate_tournaments(6):
        key = canonical_tournament_key(t)
        for _ in range(10):
            perm = list(range(6))
            rng.shuffle(perm)
            relabelled = OrientedGraph(6, [(perm[u], perm[v]) for u, v in t.arcs])
            assert canonical_tournament_key(relabelled) == key, t


def test_canonical_key_rejects_non_tournaments():
    with pytest.raises(ValueError):
        canonical_tournament_key(directed_path(3))


def test_catalogue_cap():
    with pytest.raises(ValueError):
        enumerate_tournaments(7)


def test_flavour_settings():
    # every case, with the two words in either order
    want = {
        "proper-ios": (Mode.IOS, False),
        "improper-ios": (Mode.IOS, True),
        "improper-iot": (Mode.IOT, True),
    }
    for name, settings in want.items():
        first, second = name.split("-")
        for text in (name, f"{second}-{first}"):
            for spelling in (text, text.upper(), text.title(), text.title().swapcase()):
                assert flavour_settings(spelling) == settings, spelling
    for text in ("proper-iot", "iot-proper", "rainbow"):
        with pytest.raises(ValueError, match="unknown flavour"):
            flavour_settings(text)


def test_chi_edgeless():
    for flavour in ("proper-ios", "improper-ios", "improper-iot"):
        res = chi(edgeless(3), flavour)
        assert res.value == 1


def test_chi_empty_graph():
    assert chi(edgeless(0), "proper-ios").value == 0


def test_chi_directed_path():
    p3 = directed_path(3)
    assert chi(p3, "improper-ios").value == 1
    assert chi(p3, "improper-iot").value == 2
    assert chi(p3, "proper-ios").value == 3


def test_chi_transitive_tournament():
    t4 = transitive_tournament(4)
    res = chi(t4, "proper-ios")
    assert res.value == 4


def test_chi_witness_is_valid_and_minimal():
    rng = random.Random(13)
    for _ in range(10):
        g = random_oriented_graph(5, rng)
        for flavour in ("proper-ios", "improper-ios", "improper-iot"):
            mode, reflexive = flavour_settings(flavour)
            try:
                res = chi(g, flavour)
            except ChiCapError:
                continue
            assert isinstance(res, ChiResult)
            assert res.tournament.n == res.value
            assert res.tournament.reflexive == reflexive
            assert check_hom(g, res.tournament, res.witness, mode)
            # nothing smaller works
            if res.value > 1:
                smaller = enumerate_tournaments(res.value - 1)
                from injhom.solver import solve

                for t in smaller:
                    target = OrientedGraph(t.n, t.arcs, reflexive=True) if reflexive else t
                    assert not solve(g, target, mode).satisfiable


FLAVOURS = ("proper-ios", "improper-ios", "improper-iot")


def chi_by_catalogue(g, flavour):
    """The chromatic number by one search per catalogue tournament, None
    past the cap: the definition, kept as the oracle."""
    mode, reflexive = flavour_settings(flavour)
    for k in range(0 if g.n == 0 else 1, TOURNAMENT_CAP + 1):
        for t in enumerate_tournaments(k):
            if solve(g, OrientedGraph(k, t.arcs, reflexive), mode).satisfiable:
                return k
    return None


def test_chi_matches_per_tournament_oracle():
    rng = random.Random(808)
    graphs = [g for n in range(5) for g in all_oriented_graphs(n)]
    graphs += [random_oriented_graph(rng.randint(5, 8), rng, rng.choice((0.3, 0.5, 0.7)))
               for _ in range(40)]
    capped = 0
    for g in graphs:
        for flavour in FLAVOURS:
            mode, reflexive = flavour_settings(flavour)
            want = chi_by_catalogue(g, flavour)
            try:
                res = chi(g, flavour)
            except ChiCapError:
                assert want is None, (g, flavour)
                capped += 1
                continue
            assert res.value == want, (g, flavour)
            assert res.tournament.n == res.value and is_tournament(res.tournament)
            assert res.tournament.reflexive == reflexive
            assert check_hom(g, res.tournament, res.witness, mode), (g, flavour)
    assert capped > 0


def test_degree_bound_rejects_only_k_without_colourings():
    # below the bound no k-tournament admits a colouring, by brute force
    rng = random.Random(21)
    graphs = [g for n in range(1, 5) for g in all_oriented_graphs(n)]
    graphs += [random_oriented_graph(5, rng, 0.5) for _ in range(12)]
    below = 0
    for g in graphs:
        for flavour in FLAVOURS:
            mode, reflexive = flavour_settings(flavour)
            bound = _degree_bound(g, mode, reflexive)
            assert bound >= 1
            for k in range(1, min(bound, 5)):
                below += 1
                for t in enumerate_tournaments(k):
                    h = OrientedGraph(k, t.arcs, reflexive)
                    assert not any(check_hom(g, h, f, mode)
                                   for f in itertools.product(range(k), repeat=g.n)), (g, h)
    assert below > 0


@pytest.mark.parametrize("make", [directed_path, directed_cycle])
def test_chi_on_ten_thousand_vertices(make):
    g = make(10_000)
    want = {"proper-ios": 3 if make is directed_path else 4,  # 3 does not divide 10^4
            "improper-ios": 1, "improper-iot": 3}
    for flavour in FLAVOURS:
        start = time.process_time()
        res = chi(g, flavour)
        assert time.process_time() - start < 1.0, flavour
        assert res.value == want[flavour], flavour


def test_max_cardinality_order():
    rng = random.Random(4)
    for _ in range(30):
        g = random_oriented_graph(rng.randint(1, 12), rng, 0.3)
        nbrs = [set(g.underlying_nbrs[v]) for v in range(g.n)]
        for _, members in _neighbourhoods(g, Mode.IOT):
            for a, b in itertools.combinations(members, 2):
                nbrs[a].add(b)
                nbrs[b].add(a)
        order = _max_cardinality_order([sorted(s) for s in nbrs])
        assert sorted(order) == list(range(g.n))
        for i, v in enumerate(order):
            taken = set(order[:i])
            counts = {w: len(nbrs[w] & taken) for w in order[i:]}
            assert counts[v] == max(counts.values())
            if not counts[v]:
                assert v == min(counts)  # a new component starts at its lowest vertex


def test_chi_cap_error():
    rng = random.Random(3)
    g = random_oriented_graph(8, rng, arc_chance=0.9)
    with pytest.raises(ChiCapError):
        chi(g, "proper-ios")


def test_chi_refuses_an_invalid_colouring(monkeypatch):
    # every vertex on colour 0: the arc's ends share a colour, which no
    # loopless tournament allows
    monkeypatch.setattr(chromatic._ColourSearch, "colouring", lambda self, k: ([0, 0], 0))
    with pytest.raises(RuntimeError, match="invalid proper-ios colouring"):
        chi(directed_path(2), "proper-ios")


def test_chi_rejects_reflexive_inputs():
    g = OrientedGraph(2, [(0, 1)], reflexive=True)
    with pytest.raises(ValueError):
        chi(g, "proper-ios")


def test_chi_flavour_ordering():
    # improper-ios <= improper-iot on any graph where both are defined
    rng = random.Random(14)
    for _ in range(10):
        g = random_oriented_graph(4, rng)
        a = chi(g, "improper-ios").value
        b = chi(g, "improper-iot").value
        assert a <= b


def test_um_forcing_u4_against_all_reflexive_4_tournaments():
    u4 = build_named("U4")
    for t in enumerate_tournaments(4):
        target = OrientedGraph(4, t.arcs, reflexive=True)
        assert check_Um_forcing(u4, range(4), target, Mode.IOS)


def test_um_forcing_detects_collapse():
    # an edgeless pair can land on one vertex, so forcing fails
    g = edgeless(2)
    t = transitive_tournament(2)
    assert not check_Um_forcing(g, (0, 1), t, Mode.PLAIN)
