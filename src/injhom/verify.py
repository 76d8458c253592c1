"""Named property suites re-checking the facts the library is built on:
gadget forcing behaviour, the antidirected-cycle divisibility rules,
reduction end-to-end equivalence, and decider-vs-brute-force agreement.
Each suite returns (label, ok) pairs so callers can report line by line.
"""

from __future__ import annotations

import itertools
import random

from .gadgets import (
    antidirected_cycle,
    apex_cycle,
    equalizer,
    selector_cycle,
    selector_forced_cycle_roles,
)
from .graphs import Mode, all_oriented_graphs, random_oriented_graph
from .poly import decide_poly
from .reductions import (
    complete_bipartite,
    complete_graph,
    oracle_3col,
    oracle_3edge,
    reduce_3col_to_ios_c3r,
    reduce_3col_to_iot_c3r,
    reduce_3edge_to_t3r,
    reduce_3edge_to_um,
)
from .solver import check_hom, enumerate_homs, solve
from .targets import TargetSpec, build_named


def _x_class_roles(d: int) -> list:
    return [f"x{3 * i + 1}" for i in range(d)]


def suite_lemma_D() -> list:
    """Apex-cycle and selector-cycle forcing against the reflexive
    triangle."""
    C3r = build_named("C3r")
    T3r = build_named("T3r")
    out = []
    for d in (1, 2):
        gad = apex_cycle(d)
        sols = list(enumerate_homs(gad.graph, C3r, Mode.IOS))
        out.append((f"apex_cycle({d}) -> C3r has 6 homs", len(sols) == 6))
        cls = [gad.roles[r] for r in _x_class_roles(d)]
        out.append(
            (f"apex_cycle({d}) x-class constant in every hom",
             all(len({s[v] for v in cls}) == 1 for s in sols)))
        out.append((f"apex_cycle({d}) -> T3r unsatisfiable",
                    not solve(gad.graph, T3r, Mode.IOS).satisfiable))
    for d in (2, 3):
        gad = selector_cycle(d)
        cyc = [gad.roles[r] for r in selector_forced_cycle_roles(d)]
        sols = list(enumerate_homs(gad.graph, C3r, Mode.IOS))
        out.append((f"selector_cycle({d}) -> C3r has 3 homs", len(sols) == 3))
        out.append(
            (f"selector_cycle({d}) forced cycle constant",
             all(len({s[v] for v in cyc}) == 1 for s in sols)))
        pins_ok = all(
            solve(gad.graph, C3r, Mode.IOS, pins={v: c for v in cyc}).satisfiable
            for c in range(3))
        out.append((f"selector_cycle({d}) every constant pinning extends", pins_ok))
    return out


def suite_lemma_B() -> list:
    """Antidirected-cycle divisibility rules in iot mode."""
    C3r = build_named("C3r")
    T3r = build_named("T3r")
    out = []
    for n in range(4, 26, 2):
        g = antidirected_cycle(n).graph
        sat = solve(g, C3r, Mode.IOT).satisfiable
        out.append((f"antidirected_cycle({n}) -> C3r iot iff n % 6 == 0",
                    sat == (n % 6 == 0)))
    for n in range(4, 22, 2):
        g = antidirected_cycle(n).graph
        sat = solve(g, T3r, Mode.IOT).satisfiable
        out.append((f"antidirected_cycle({n}) -> T3r iot iff n % 4 == 0",
                    sat == (n % 4 == 0)))
    for n in (6, 12, 18):
        g = antidirected_cycle(n).graph
        sols = list(enumerate_homs(g, C3r, Mode.IOT))
        ok = bool(sols) and all(
            len({s[v] for v in range(k, n, 6)}) == 1 for s in sols for k in range(6))
        out.append((f"antidirected_cycle({n}) C3r witnesses constant on residues mod 6", ok))
    return out


def suite_gadget_F() -> list:
    """Equalizer port forcing, both modes, all three pins."""
    eq = equalizer()
    T3r = build_named("T3r")
    out = []
    for mode in (Mode.IOS, Mode.IOT):
        for pin in range(3):
            sols = list(enumerate_homs(eq.graph, T3r, mode, pins={eq.roles["u"]: pin}))
            label = f"equalizer {mode.value} pin u=t{pin}"
            out.append((f"{label} satisfiable", bool(sols)))
            out.append((f"{label} forces v=t{pin}",
                        all(s[eq.roles["v"]] == pin for s in sols)))
    return out


def suite_reductions() -> list:
    """Known answers and size formulas for the hardness constructions."""
    k3 = complete_graph(3)
    k4 = complete_graph(4)
    k33 = complete_bipartite(3, 3)
    out = []

    def answer(inst):
        return solve(inst.graph, build_named(inst.target), inst.mode).satisfiable

    i = reduce_3col_to_ios_c3r(k4)
    out.append(("3col->ios-C3r K4 size 138", i.graph.n == 138))
    out.append(("3col->ios-C3r K4 unsatisfiable", not answer(i)))
    i = reduce_3col_to_ios_c3r(k33)
    out.append(("3col->ios-C3r K33 size 207", i.graph.n == 207))
    out.append(("3col->ios-C3r K33 satisfiable", answer(i)))
    for mode in (Mode.IOS, Mode.IOT):
        i = reduce_3edge_to_t3r(k4, mode)
        out.append((f"3edge->T3r K4 {mode.value} size 244", i.graph.n == 244))
        out.append((f"3edge->T3r K4 {mode.value} satisfiable", answer(i)))
    i = reduce_3col_to_iot_c3r(k3)
    out.append(("3col->iot-C3r K3 size 45", i.graph.n == 45))
    out.append(("3col->iot-C3r K3 satisfiable", answer(i)))
    i = reduce_3col_to_iot_c3r(k4)
    out.append(("3col->iot-C3r K4 unsatisfiable", not answer(i)))
    i = reduce_3edge_to_um(k4)
    out.append(("3edge->U4 K4 size 28", i.graph.n == 28))
    out.append(("3edge->U4 K4 satisfiable", answer(i)))
    i = reduce_3edge_to_um(k4, 5)
    out.append(("3edge->U5 K4 size 32", i.graph.n == 32))
    out.append(("3edge->U5 K4 satisfiable", answer(i)))
    out.append(("oracle: K4 not 3-colourable", not oracle_3col(k4)))
    out.append(("oracle: K33 3-edge-colourable", oracle_3edge(k33)))
    return out


_ORACLE_CASES = [
    ("T1", Mode.IOS), ("T2", Mode.IOS), ("C3", Mode.IOS), ("T3", Mode.IOS),
    ("T1r", Mode.IOS), ("T2r", Mode.IOS), ("T1r", Mode.IOT), ("T2r", Mode.IOT),
]


_ORACLE_SEED = 20250816
_ORACLE_SAMPLES = 60  # random 4-vertex graphs besides every 3-vertex one


def suite_oracle_equivalence() -> list:
    """Polynomial deciders vs exhaustive map search on small graphs."""
    out = []
    pool = list(all_oriented_graphs(3))
    rng = random.Random(_ORACLE_SEED)
    pool += [random_oriented_graph(4, rng) for _ in range(_ORACLE_SAMPLES)]
    for name, mode in _ORACLE_CASES:
        target = build_named(name)
        ok = True
        for g in pool:
            verdict = decide_poly(g, TargetSpec.parse(name), mode)
            brute = any(
                check_hom(g, target, f, mode)
                for f in itertools.product(range(target.n), repeat=g.n))
            if verdict is None or verdict.satisfiable != brute:
                ok = False
                break
            if verdict.satisfiable and not check_hom(g, target, verdict.witness.map, mode):
                ok = False
                break
        out.append((f"decider vs brute force: {name} {mode.value} on {len(pool)} graphs", ok))
    return out


SUITES = {
    "lemma-D": suite_lemma_D,
    "lemma-B": suite_lemma_B,
    "gadget-F": suite_gadget_F,
    "reductions": suite_reductions,
    "oracle-equivalence": suite_oracle_equivalence,
}


def run_suite(name: str) -> list:
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}") from None
    return fn()
