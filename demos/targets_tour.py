"""Tour of the named targets: which questions have polynomial answers.

Runs a handful of small oriented graphs against every named target in
both injective modes and reports the algorithm that settled each case.
Paths and cycles go to the transfer DP against every target.  On an
input with a vertex of underlying degree three the complexity split
shows: T1, T2, C3, T3 and the reflexive T1r, T2r are decided in
polynomial time (T2r under ios by a search that is 2-SAT there), while
the reflexive triangle, T3r and the U family fall back to search.
"""

from injhom import (
    Mode,
    OrientedGraph,
    build_named,
    decide_poly,
    directed_cycle,
    directed_path,
    hat,
    solve,
    transitive_tournament,
)

TARGETS = ["T1", "T2", "C3", "T3", "T1r", "T2r", "C3r", "T3r", "U4"]

GRAPHS = [
    ("directed path P5", directed_path(5)),
    ("directed cycle C6", directed_cycle(6)),
    ("directed cycle C5", directed_cycle(5)),
    ("hat (two arcs into one head)", hat()),
    ("transitive tournament T4", transitive_tournament(4)),
]


def verdict_for(g, name, mode):
    poly = decide_poly(g, name, mode)
    if poly is not None:
        return poly.satisfiable, poly.algorithm
    res = solve(g, build_named(name), mode)
    return res.satisfiable, "backtracking"


def main():
    for mode in (Mode.IOS, Mode.IOT):
        print(f"=== mode {mode.value} ===")
        header = f"{'graph':32}" + "".join(f"{t:>6}" for t in TARGETS)
        print(header)
        for label, g in GRAPHS:
            row = f"{label:32}"
            for name in TARGETS:
                sat, _ = verdict_for(g, name, mode)
                row += f"{'yes' if sat else '-':>6}"
            print(row)
        print()

    claw = OrientedGraph(4, [(0, 1), (0, 2), (3, 0)])
    for label, g in (("directed cycle C6", directed_cycle(6)),
                     ("claw 3 -> 0 -> 1, 2: degree 3 at vertex 0", claw)):
        print(f"algorithms used ({label}):")
        for name in TARGETS:
            sat, algo = verdict_for(g, name, Mode.IOS)
            print(f"  {name:4} -> {'yes' if sat else 'no':3}  via {algo}")
        print()


if __name__ == "__main__":
    main()
