import gc
import itertools
import random
import weakref

import pytest

from injhom.chromatic import (
    ChiCapError,
    ChiResult,
    TOURNAMENT_CAP,
    _degrees_fit,
    _room,
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
from injhom import solver
from injhom.solver import check_hom, solve
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
    assert flavour_settings("proper-ios") == (Mode.IOS, False)
    assert flavour_settings("improper-ios") == (Mode.IOS, True)
    assert flavour_settings("iot-improper") == (Mode.IOT, True)


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


def test_degree_filter_rejects_only_targets_without_homs():
    # every target the filter rejects has no homomorphism, by brute force
    rng = random.Random(21)
    graphs = [g for n in range(5) for g in all_oriented_graphs(n)]
    graphs += [random_oriented_graph(rng.choice((5, 6)), rng, 0.5) for _ in range(12)]
    rejected = 0
    for g in graphs:
        need = {(g.out_degree(v), g.in_degree(v)) for v in range(g.n)}
        for k in range(1, 5):
            for t in enumerate_tournaments(k):
                for reflexive in (False, True):
                    h = OrientedGraph(k, t.arcs, reflexive)
                    for mode in (Mode.IOS, Mode.IOT):
                        if _degrees_fit(need, _room(h, mode)):
                            continue
                        rejected += 1
                        assert not any(
                            check_hom(g, h, f, mode)
                            for f in itertools.product(range(k), repeat=g.n)
                        ), (g, h, mode)
    assert rejected > 0


def test_graph_side_built_once_per_mode(monkeypatch):
    built = []
    original = solver._build_graph_side

    def counting(g, mode):
        built.append(mode)
        return original(g, mode)

    monkeypatch.setattr(solver, "_build_graph_side", counting)
    g = random_oriented_graph(8, random.Random(5), arc_chance=0.5)
    for flavour in ("proper-ios", "improper-ios", "improper-iot"):
        chi(g, flavour)
    solve(g, build_named("T3r"), Mode.IOS)
    assert built == [Mode.IOS, Mode.IOT]


def test_graph_side_dies_with_its_graph():
    # a side kept past its graph would hold a large input's constraint
    # tables into the next operation
    g = OrientedGraph(7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 3)])
    solve(g, build_named("U4"), Mode.IOT)
    chi(g, "improper-ios")
    assert g in solver._GRAPH_SIDES
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_chi_cap_error():
    rng = random.Random(3)
    g = random_oriented_graph(8, rng, arc_chance=0.9)
    with pytest.raises(ChiCapError):
        chi(g, "proper-ios")


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
