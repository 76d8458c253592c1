"""Command-line front end.

Subcommands: decide, solve, gadget, reduce, chi, verify.  Exit status is
0 for YES / all-pass, 1 for NO / any-fail, 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import operator
import sys

from .chromatic import FLAVOURS, ChiCapError, chi
from .fileformat import (
    EdgeListError,
    format_edge_list,
    parse_edge_list,
    parse_undirected_edge_list,
)
from .gadgets import GADGET_BUILDERS
from .graphs import Mode, OrientedGraph
from .poly import decide_poly
from .reductions import (
    ReductionInstance,
    SimpleGraph,
    reduce_3col_to_ios_c3r,
    reduce_3col_to_iot_c3r,
    reduce_3edge_to_t3r,
    reduce_3edge_to_um,
    reduce_ios_c3r_to_umr,
    reduce_iot_c3r_to_umr,
)
from .solver import enumerate_homs, solve
from .targets import TargetSpec, label_index, target_labels
from .verify import SUITES, run_suite


def _read_graph(path: str) -> OrientedGraph:
    with open(path, encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def _read_simple(path: str) -> SimpleGraph:
    with open(path, encoding="utf-8") as fh:
        n, edges = parse_undirected_edge_list(fh.read())
    return SimpleGraph(n, edges)


def _resolve_target(text: str) -> TargetSpec:
    if text.startswith("@"):
        return TargetSpec.from_graph(_read_graph(text[1:]))
    return TargetSpec.parse(text)


def _write_map(images, labels) -> None:
    """One 'v -> label' line per vertex v, in one write; each label's
    ' -> label' tail is built once."""
    tails = [f" -> {label}\n" for label in labels]
    lines = map(operator.add, map(str, itertools.count()), map(tails.__getitem__, images))
    sys.stdout.write("".join(lines))


def _answer(res, spec, *notes) -> int:
    """Print YES or NO, the notes, one line each, and the witness map;
    return the exit status."""
    print("YES" if res.satisfiable else "NO", *notes, sep="\n")
    if res.witness:
        _write_map(res.witness.map, target_labels(spec))
    return 0 if res.satisfiable else 1


def _cmd_decide(args) -> int:
    g = _read_graph(args.input)
    spec = _resolve_target(args.target)
    mode = Mode.parse(args.mode)
    verdict = decide_poly(g, spec, mode) or solve(g, spec.build(), mode)
    return _answer(verdict, spec, f"algorithm: {verdict.algorithm}")


def _parse_pins(spec: TargetSpec, texts) -> dict:
    pins = {}
    for text in texts or ():
        vertex, eq, label = text.partition("=")
        if not eq or not vertex.isdecimal():
            raise ValueError(f"bad pin {text!r}; expected VERTEX=LABEL")
        v = int(vertex)
        if v in pins:
            raise ValueError(f"vertex {v} pinned twice")
        pins[v] = label_index(spec, label)
    return pins


def _cmd_solve(args) -> int:
    if args.limit is not None and not args.enumerate:
        raise ValueError("--limit applies only with --enumerate")
    g = _read_graph(args.input)
    spec = _resolve_target(args.target)
    mode = Mode.parse(args.mode)
    pins = _parse_pins(spec, args.pin)
    target = spec.build()
    if args.enumerate:
        labels = target_labels(spec)
        count = 0
        for hom in enumerate_homs(g, target, mode, pins=pins, limit=args.limit):
            print(f"witness {count + 1}:")
            _write_map(hom, labels)
            count += 1
        print(f"solutions: {count}" + (" (limit reached)" if args.limit == count and count else ""))
        return 0 if count else 1
    return _answer(solve(g, target, mode, pins=pins), spec)


def _cmd_gadget(args) -> int:
    try:
        builder, arity = GADGET_BUILDERS[args.name]
    except KeyError:
        raise ValueError(
            f"unknown gadget {args.name!r}; available: {', '.join(sorted(GADGET_BUILDERS))}") from None
    if len(args.params) != arity:
        raise ValueError(f"gadget {args.name} takes {arity} parameter(s), got {len(args.params)}")
    gad = builder(*args.params)
    comments = [f"gadget {args.name}" + (" " + " ".join(str(p) for p in args.params) if args.params else "")]
    comments += [f"role {name} = {v}" for name, v in sorted(gad.roles.items(), key=lambda kv: kv[1])]
    text = format_edge_list(gad.graph, comments=comments)
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {gad.graph.n} vertices / {gad.graph.num_arcs} arcs to {args.emit}")
    else:
        sys.stdout.write(text)
    return 0


# kind: (its source graph, the flag it takes or None, its builder)
_REDUCE_KINDS = {
    "3col-to-ios-c3r": ("undirected", None, lambda g, _: reduce_3col_to_ios_c3r(g)),
    "3col-to-iot-c3r": ("undirected", None, lambda g, _: reduce_3col_to_iot_c3r(g)),
    "3edge-to-t3r": ("undirected", "mode", lambda g, mode: reduce_3edge_to_t3r(g, Mode.parse(mode))),
    "3edge-to-um": ("undirected", "m", lambda g, m: reduce_3edge_to_um(g, m)),
    "ios-c3r-to-umr": ("oriented", "m", lambda g, m: reduce_ios_c3r_to_umr(g, m)),
    "iot-c3r-to-umr": ("oriented", "m", lambda g, m: reduce_iot_c3r_to_umr(g, m)),
}
_REDUCE_FLAGS = {"mode": "ios", "m": 4}  # each flag's default


def _provenance_lines(inst: ReductionInstance) -> list:
    lines = []
    for key in sorted(inst.provenance):
        kind, ident = key
        head = f"vertex {ident}" if kind == "vertex" else f"edge {ident[0]}-{ident[1]}"
        roles = inst.provenance[key]
        body = " ".join(f"{name}={v}" for name, v in sorted(roles.items(), key=lambda kv: kv[1]))
        lines.append(f"{head}: {body}")
    return lines


def _cmd_reduce(args) -> int:
    source_kind, takes, build = _REDUCE_KINDS[args.kind]
    value = None
    for flag, default in _REDUCE_FLAGS.items():
        given = getattr(args, flag)
        if flag == takes:
            value = default if given is None else given
        elif given is not None:
            kinds = ", ".join(kind for kind, spec in _REDUCE_KINDS.items() if spec[1] == flag)
            raise ValueError(f"--{flag} applies only to {kinds}")
    g = _read_simple(args.input) if source_kind == "undirected" else _read_graph(args.input)
    inst = build(g, value)
    comments = [
        f"reduction {args.kind} of {args.input}",
        f"solve against {inst.target} in mode {inst.mode.value}",
    ]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(inst.graph, comments=comments))
    prov_path = args.out + ".prov"
    with open(prov_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(_provenance_lines(inst)) + "\n")
    print(f"wrote {inst.graph.n} vertices / {inst.graph.num_arcs} arcs to {args.out}")
    print(f"provenance: {prov_path}")
    print(f"target: {inst.target}  mode: {inst.mode.value}")
    return 0


def _cmd_chi(args) -> int:
    g = _read_graph(args.input)
    try:
        result = chi(g, args.flavour)
    except ChiCapError as exc:
        print(f"NOT DETERMINED: {exc}")
        return 1
    print(f"chromatic number: {result.value}")
    arcs = " ".join(f"{u}->{v}" for u, v in sorted(result.tournament.arcs))
    print(f"tournament: {arcs if arcs else '(edgeless)'}"
          + (" (reflexive)" if result.tournament.reflexive else ""))
    _write_map(result.witness, range(result.tournament.n))
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite)
    failed = 0
    for label, ok in results:
        print(f"{'pass' if ok else 'FAIL'}  {label}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and each call to main gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="injhom",
        description="Locally-injective homomorphisms of oriented graphs to small tournaments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide with the polynomial algorithms where available")
    p.add_argument("input", help="edge-list file")
    p.add_argument("target", help="T1|T2|T3|C3 (optional r suffix) | U<m>[r] | @file")
    p.add_argument("mode", help="plain | ios | iot")
    p.set_defaults(fn=_cmd_decide)

    p = sub.add_parser("solve", help="backtracking search, optionally enumerating witnesses")
    p.add_argument("input")
    p.add_argument("target")
    p.add_argument("mode")
    p.add_argument("--enumerate", action="store_true", help="list every witness")
    p.add_argument("--limit", type=_positive_int, default=None, help="stop after this many witnesses")
    p.add_argument("--pin", action="append", metavar="VERTEX=LABEL",
                   help="force a vertex's image (repeatable)")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("gadget", help="emit a named gadget as an edge list")
    p.add_argument("name", help=f"one of: {', '.join(sorted(GADGET_BUILDERS))}")
    p.add_argument("params", nargs="*", type=int, help="size parameter, where applicable")
    p.add_argument("--emit", metavar="PATH", help="write here instead of stdout")
    p.set_defaults(fn=_cmd_gadget)

    p = sub.add_parser("reduce", help="transform a source instance, with provenance sidecar")
    p.add_argument("kind", choices=sorted(_REDUCE_KINDS))
    p.add_argument("input", help="edge-list file (undirected for colouring kinds)")
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument("--m", type=int, help="tournament size for U-family kinds (default 4)")
    p.add_argument("--mode", help="ios | iot (3edge-to-t3r only; default ios)")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("chi", help="injective oriented chromatic number")
    p.add_argument("input")
    p.add_argument("flavour", help=" | ".join(FLAVOURS))
    p.set_defaults(fn=_cmd_chi)

    p = sub.add_parser("verify", help="run a named property suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except (EdgeListError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
