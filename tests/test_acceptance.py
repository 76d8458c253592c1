"""Top-level acceptance checks.

Each test covers one numbered criterion, prints exactly one PASS/FAIL
line (`pytest -s` shows those lines), and asserts exact equality on
every fact plus the stated runtime bounds.
"""

import itertools
import random
import time

from injhom.chromatic import check_Um_forcing, chi, enumerate_tournaments
from injhom.gadgets import antidirected_cycle, apex_cycle, equalizer, selector_cycle, selector_forced_cycle_roles
from injhom.graphs import (
    Mode,
    OrientedGraph,
    all_oriented_graphs,
    directed_cycle,
    directed_path,
    edgeless,
    random_oriented_graph,
)
from injhom.poly import decide_poly
from injhom.reductions import (
    complete_bipartite,
    complete_graph,
    lift_u4_instance,
    reduce_3col_to_ios_c3r,
    reduce_3col_to_iot_c3r,
    reduce_3edge_to_t3r,
    reduce_3edge_to_u4,
    reduce_ios_c3r_to_umr,
    reduce_iot_c3r_to_umr,
)
from injhom.solver import check_hom, enumerate_homs, solve
from injhom.targets import build_named

C3r = build_named("C3r")
T3r = build_named("T3r")


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def _brute_sat(g, h, mode):
    return any(
        check_hom(g, h, f, mode)
        for f in itertools.product(range(h.n), repeat=g.n)
    )


DECIDER_CASES = [
    ("T1", Mode.IOS), ("T2", Mode.IOS), ("C3", Mode.IOS), ("T3", Mode.IOS),
    ("T1r", Mode.IOS), ("T2r", Mode.IOS), ("T1r", Mode.IOT), ("T2r", Mode.IOT),
]


def test_criterion_1_deciders_vs_brute_force():
    start = time.perf_counter()
    corpus = []
    for n in range(5):
        corpus.extend(all_oriented_graphs(n))
    exhaustive = len(corpus)
    rng = random.Random(20260816)
    for i in range(500):
        corpus.append(random_oriented_graph(5 + i % 2, rng))
    bad = []
    for name, mode in DECIDER_CASES:
        target = build_named(name)
        for g in corpus:
            verdict = decide_poly(g, name, mode)
            if verdict is None:
                bad.append((name, mode.value, "no decider"))
                break
            want = _brute_sat(g, target, mode)
            if verdict.satisfiable != want:
                bad.append((name, mode.value, "answer mismatch"))
                break
            if verdict.satisfiable and not check_hom(g, target, verdict.witness.map, mode):
                bad.append((name, mode.value, "bad witness"))
                break
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 120
    _report(1, ok,
            f"8 deciders vs brute force on {exhaustive} exhaustive + 500 random graphs"
            f" ({elapsed:.1f}s < 120s)" + (f" failures: {bad}" if bad else ""))


def test_criterion_2_triangle_decider_shapes():
    bad = []
    for n in range(3, 13):
        got = decide_poly(directed_cycle(n), "C3", Mode.IOS).satisfiable
        if got != (n % 3 == 0):
            bad.append(f"C{n}")
    for n in range(1, 9):
        if not decide_poly(directed_path(n), "C3", Mode.IOS).satisfiable:
            bad.append(f"P{n}")
    _report(2, not bad,
            "directed cycles C3..C12 accepted iff length % 3 == 0; paths P1..P8 all accepted"
            + (f" failures: {bad}" if bad else ""))


def test_criterion_3_forced_constants_and_pins():
    start = time.perf_counter()
    bad = []

    gad = apex_cycle(2)
    homs = list(enumerate_homs(gad.graph, C3r, Mode.IOS))
    if len(homs) != 6:
        bad.append(f"apex_cycle(2) hom count {len(homs)} != 6")
    x1, x4 = gad.roles["x1"], gad.roles["x4"]
    if not all(f[x1] == f[x4] for f in homs):
        bad.append("apex_cycle(2) x1/x4 not constant")

    for d in (2, 3):
        gad = selector_cycle(d)
        cyc = gad.role_vertices(selector_forced_cycle_roles(d))
        homs = list(enumerate_homs(gad.graph, C3r, Mode.IOS))
        if d == 2 and len(homs) != 3:
            bad.append(f"selector_cycle(2) hom count {len(homs)} != 3")
        if not all(len({f[v] for v in cyc}) == 1 for f in homs):
            bad.append(f"selector_cycle({d}) forced cycle not constant")
        for colour in range(3):
            if not solve(gad.graph, C3r, Mode.IOS, pins={v: colour for v in cyc}).satisfiable:
                bad.append(f"selector_cycle({d}) pin colour {colour} does not extend")
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 60
    _report(3, ok,
            f"forced-image classes and pin extensions on the apex/selector cycles"
            f" ({elapsed:.2f}s < 60s)" + (f" failures: {bad}" if bad else ""))


def test_criterion_4_antidirected_cycle_divisibility():
    bad = []
    for n in range(4, 26, 2):
        got = solve(antidirected_cycle(n).graph, C3r, Mode.IOT).satisfiable
        if got != (n % 6 == 0):
            bad.append(f"C3r n={n}")
    for n in range(4, 22, 2):
        got = solve(antidirected_cycle(n).graph, T3r, Mode.IOT).satisfiable
        if got != (n % 4 == 0):
            bad.append(f"T3r n={n}")
    for n in (6, 12, 18, 24):
        g = antidirected_cycle(n).graph
        homs = list(enumerate_homs(g, C3r, Mode.IOT))
        if not homs:
            bad.append(f"n={n} no witnesses")
        for f in homs:
            if any(len({f[v] for v in range(r, n, 6)}) != 1 for r in range(6)):
                bad.append(f"n={n} witness breaks mod-6 classes")
                break
    _report(4, not bad,
            "antidirected cycles hit C3r iff length % 6 == 0 and T3r iff % 4 == 0;"
            " witnesses constant on mod-6 classes"
            + (f" failures: {bad}" if bad else ""))


def test_criterion_5_equalizer_port_forcing():
    eq = equalizer()
    u, v = eq.roles["u"], eq.roles["v"]
    bad = []
    runs = 0
    for mode in (Mode.IOS, Mode.IOT):
        for pin in range(3):
            homs = list(enumerate_homs(eq.graph, T3r, mode, pins={u: pin}))
            runs += 1
            if not homs:
                bad.append(f"{mode.value} pin t{pin} unsat")
            elif not all(f[v] == pin for f in homs):
                bad.append(f"{mode.value} pin t{pin} does not force the far port")
    _report(5, not bad and runs == 6,
            "equalizer: 6 pinned full enumerations, far port always equals the pin"
            + (f" failures: {bad}" if bad else ""))


def test_criterion_6_reductions_end_to_end():
    bad = []
    slowest = 0.0

    def timed_answer(inst):
        nonlocal slowest
        t0 = time.perf_counter()
        res = solve(inst.graph, build_named(inst.target), inst.mode)
        slowest = max(slowest, time.perf_counter() - t0)
        return res.satisfiable

    # (a) vertex 3-colouring via ios against the reflexive triangle
    if not timed_answer(reduce_3col_to_ios_c3r(complete_bipartite(3, 3))):
        bad.append("(a) K33 expected yes")
    if timed_answer(reduce_3col_to_ios_c3r(complete_graph(4))):
        bad.append("(a) K4 expected no")

    # (b) edge 3-colouring via the reflexive transitive triangle, both modes
    for mode in (Mode.IOS, Mode.IOT):
        if not timed_answer(reduce_3edge_to_t3r(complete_graph(4), mode)):
            bad.append(f"(b) K4 {mode.value} expected yes")
        if not timed_answer(reduce_3edge_to_t3r(complete_bipartite(3, 3), mode)):
            bad.append(f"(b) K33 {mode.value} expected yes")

    # (c) vertex 3-colouring via iot against the reflexive triangle
    if not timed_answer(reduce_3col_to_iot_c3r(complete_graph(3))):
        bad.append("(c) K3 expected yes")
    if timed_answer(reduce_3col_to_iot_c3r(complete_graph(4))):
        bad.append("(c) K4 expected no")

    # (d) edge 3-colouring via U4, plus the lift to U5
    u4_inst = reduce_3edge_to_u4(complete_graph(4))
    if not timed_answer(u4_inst):
        bad.append("(d) K4 U4 expected yes")
    if not timed_answer(lift_u4_instance(u4_inst, 5)):
        bad.append("(d) K4 lifted U5 expected yes")

    # (e) transfers to reflexive U_m agree with the triangle source answer
    rng = random.Random(606)
    corpus = list(all_oriented_graphs(3))
    corpus += [random_oriented_graph(7, rng, arc_chance=0.25) for _ in range(8)]
    corpus += [random_oriented_graph(10, rng, arc_chance=0.15) for _ in range(4)]
    corpus += [directed_cycle(9), directed_cycle(12), antidirected_cycle(12).graph]
    checked = 0
    for g in corpus:
        assert g.n <= 12
        want_iot = solve(g, C3r, Mode.IOT).satisfiable
        low_degree = all(g.in_degree(v) <= 2 and g.out_degree(v) <= 2 for v in range(g.n))
        for m in (4, 5):
            if timed_answer(reduce_iot_c3r_to_umr(g, m)) != want_iot:
                bad.append(f"(e) iot transfer m={m} mismatch on {g!r}")
            checked += 1
            if low_degree:
                want_ios = solve(g, C3r, Mode.IOS).satisfiable
                if timed_answer(reduce_ios_c3r_to_umr(g, m)) != want_ios:
                    bad.append(f"(e) ios transfer m={m} mismatch on {g!r}")
                checked += 1
    ok = not bad and slowest < 300
    _report(6, ok,
            f"all six hardness constructions end-to-end, {checked} transfer checks,"
            f" slowest solve {slowest:.2f}s < 300s" + (f" failures: {bad}" if bad else ""))


def test_criterion_7_twosat_vs_brute_force():
    target = build_named("T2r")
    bad = 0
    total = 0
    for n in range(6):
        for g in all_oriented_graphs(n):
            if any(g.in_degree(v) > 2 or g.out_degree(v) > 2 for v in range(g.n)):
                continue
            total += 1
            verdict = decide_poly(g, "T2r", Mode.IOS)
            want = _brute_sat(g, target, Mode.IOS)
            if verdict.satisfiable != want:
                bad += 1
                continue
            if verdict.satisfiable and not check_hom(g, target, verdict.witness.map, Mode.IOS):
                bad += 1
    _report(7, bad == 0 and total > 0,
            f"2-SAT decider vs brute force on all {total} oriented graphs with <= 5"
            f" vertices and in/out degrees <= 2 ({bad} mismatches)")


def test_criterion_8_chromatic_sanity():
    bad = []
    for flavour in ("proper-ios", "improper-ios", "improper-iot"):
        if chi(edgeless(3), flavour).value != 1:
            bad.append(f"edgeless {flavour}")
    if chi(directed_path(3), "improper-iot").value != 2:
        bad.append("directed P3 improper-iot")
    counts = [len(enumerate_tournaments(k)) for k in range(1, 6)]
    if counts != [1, 1, 2, 4, 12]:
        bad.append(f"catalogue sizes {counts}")
    u4 = build_named("U4")
    for t in enumerate_tournaments(4):
        reflexive_t = OrientedGraph(4, t.arcs, reflexive=True)
        for mode in (Mode.IOS, Mode.IOT):
            if not check_Um_forcing(u4, range(4), reflexive_t, mode):
                bad.append(f"U4 forcing fails on key {t!r} in {mode.value}")
    _report(8, not bad,
            "chromatic numbers on the stock examples, catalogue sizes 1,1,2,4,12,"
            " U4 forced injective on every reflexive 4-tournament"
            + (f" failures: {bad}" if bad else ""))
