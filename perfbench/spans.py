"""Spans around the program's public entry points, recorded from outside.

``Tracer.install`` replaces each entry point with a wrapper in the module
that imports it (``injhom.cli``, ``injhom.chromatic``, ``injhom.verify``),
so the program's own code is untouched and every call it makes through
those names opens a span.  A span records its layer, start, end and
parent; self time is a span's duration minus the durations of its
children, summed per layer.  Like the operations, spans are timed in the
process's CPU time.  Spans stay in memory and are written out once, at
the end of the run.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import process_time_ns

REDUCERS = (
    "reduce_3col_to_ios_c3r",
    "reduce_3col_to_iot_c3r",
    "reduce_3edge_to_t3r",
    "reduce_3edge_to_um",
    "reduce_ios_c3r_to_umr",
    "reduce_iot_c3r_to_umr",
)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, layer, start ns, end ns)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []  # [span id, start ns, children ns]
        self._next_id = 0
        self._saved = []

    def reset(self):
        self._next_id = 0
        self.spans.clear()
        self.self_ns.clear()
        self.counts.clear()

    def span(self, layer, fn, *args, **kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, process_time_ns(), 0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = process_time_ns()
            self._stack.pop()
            dur = end - frame[1]
            self.self_ns[layer] += dur - frame[2]
            if self._stack:
                self._stack[-1][2] += dur
            self.spans.append((sid, parent, layer, frame[1], end))

    def _patch(self, module, name, wrapper):
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, functools.wraps(getattr(module, name))(wrapper))

    def _wrap(self, module, name, layer, after=None):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = self.span(layer, fn, *args, **kwargs)
            if after is not None:
                after(result)
            return result

        self._patch(module, name, wrapper)

    def install(self, prog):
        """Wrap the entry points through which the CLI, the chromatic
        layer and the verify suites reach the other layers, and the
        solver's check_hom, which only the benchmark's own checks call
        through the module."""
        cli, chromatic, solver, verify = prog.cli, prog.chromatic, prog.solver, prog.verify
        count = self.counts

        def solved(res):
            count["solver.nodes"] += res.nodes_explored

        def answered(verdict):
            count["poly.answered"] += verdict is not None

        def built(inst):
            count["reductions.instance_vertices"] += inst.graph.n

        self._wrap(cli, "main", "cli")
        self._wrap(cli, "parse_edge_list", "fileformat.parse")
        self._wrap(cli, "parse_undirected_edge_list", "fileformat.parse")
        self._wrap(cli, "format_edge_list", "fileformat.format")
        self._wrap(cli, "decide_poly", "poly.decide", answered)
        # the suites' own poly calls are timed, but poly.routed_share
        # counts the operations that the CLI routed to poly
        self._wrap(verify, "decide_poly", "poly.decide")
        for module in (cli, verify):
            for name in REDUCERS:
                if hasattr(module, name):
                    self._wrap(module, name, "reductions.build", built)
            self._wrap_solve(module, solver, solved)
            self._wrap_enumerate(module)
        self._wrap(cli, "chi", "chromatic.chi")
        self._wrap(chromatic, "enumerate_tournaments", "chromatic.catalogue")
        self._wrap(cli, "run_suite", "verify.suite")
        self._wrap_solve(chromatic, solver, solved, calls="chromatic.solve_calls")
        self._wrap(solver, "check_hom", "solver.check_hom")

    def _wrap_solve(self, module, solver, after, calls=None):
        """solve() as a solver.solve span, preceded by a solver.setup span
        that builds the same constraint problem and stops there
        (enumerate_homs with limit=0), pricing the set-up share."""
        fn = module.solve
        probe = solver.enumerate_homs

        def wrapper(g, h, mode, *args, **kwargs):
            if calls:
                self.counts[calls] += 1
            pins = kwargs.get("pins", args[2] if len(args) > 2 else None)
            self.span("solver.setup", lambda: list(probe(g, h, mode, pins=pins, limit=0)))
            result = self.span("solver.solve", fn, g, h, mode, *args, **kwargs)
            after(result)
            return result

        self._patch(module, "solve", wrapper)

    def _wrap_enumerate(self, module):
        fn = module.enumerate_homs

        def wrapper(*args, **kwargs):
            # one span per witness produced, so no span stays open while
            # the caller consumes it
            homs = fn(*args, **kwargs)
            while True:
                try:
                    hom = self.span("solver.solve", next, homs)
                except StopIteration:
                    return
                yield hom

        self._patch(module, "enumerate_homs", wrapper)

    def uninstall(self):
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)

    def self_ms(self, layer):
        return self.self_ns.get(layer, 0) / 1e6

    def dump(self, path, baseline):
        """Write the spans, and the per-operation counts of the baseline
        operations, as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"baseline": baseline,
                       "fields": ["id", "parent", "layer", "start_ns", "end_ns"],
                       "spans": self.spans}, fh)
