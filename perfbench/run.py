"""Benchmark of the injhom command line, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  Set-up imports the program, draws the seeded corpus
and writes it as edge-list files (and, for ``many-small``, builds the
tournament catalogue cold); it is repeated, at least five times and for
at least three seconds, and its median reported.  Each operation is one
or two in-process calls to ``injhom.cli.main`` with stdout captured,
under a wall-clock deadline armed with ``signal.setitimer``.  Passes over
the whole corpus repeat until S seconds of wall time have gone, not
counting time spent on operations that failed.

Set-up and operations are timed in the process's CPU time (user plus
system, ``time.process_time``), not wall time: the program is
single-threaded and waits on nothing but the page cache, and wall time
would also hold the time the hypervisor gives to other guests.  Each CPU
time is then scaled to a reference machine speed by a calibration search
run next to it (see ``speed.py``).

An operation's time is its median over the passes.  The least, which
``timeit`` advises, catches the guest's short bursts of speed: over 200
seconds, the least of a fixed batch of operations per 20-second window
spread by 0.55 of its median across windows, and the median by 0.05.
An operation that times out, raises (``RecursionError`` included) or
answers wrongly has failed and is charged the deadline; it is not run
again in later passes.  A wrong answer also makes the result incorrect
and the exit status 1.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` untraced and traced passes alternate, the layers'
entry points are wrapped (see ``spans.py``), and the last line reports
per-layer self times, exact counts and the tracing overhead; the spans
of the last traced pass are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

import workloads
from spans import Tracer
from speed import Speed

ROOT = Path(__file__).resolve().parent.parent
DEADLINE_S = 5.0
SETUP_REPEATS = 5  # at least this many set-ups ...
SETUP_SECONDS = 3.0  # ... and at least this long in all
SETUP_CALIBRATIONS = 8  # before and after each set-up
OP_BUDGET_SHARE = 0.1  # of the measuring time, for one operation's repeats


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def import_program():
    """Fresh import of the program, so that import time is part of every
    set-up repetition."""
    for name in [m for m in sys.modules if m == "injhom" or m.startswith("injhom.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"injhom.{name}")
            for name in ("cli", "chromatic", "graphs", "reductions", "solver", "targets", "verify")}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError("injhom was not imported from this checkout's src")
    return workloads.Program(**mods)


def setup(name, seed, workdir):
    """One set-up repetition; returns (seconds, catalogue seconds, program, corpus)."""
    make_corpus, _ = workloads.WORKLOADS[name]
    start = time.process_time()
    prog = import_program()
    corpus = make_corpus(prog, seed, str(workdir))
    catalogue_s = 0.0
    if name == "many-small":
        cat_start = time.process_time()  # a fresh import has an empty cache
        for k in range(prog.chromatic.TOURNAMENT_CAP + 1):
            prog.chromatic.enumerate_tournaments(k)
        catalogue_s = time.process_time() - cat_start
    return time.process_time() - start, catalogue_s, prog, corpus


def run_op(main, op):
    """([(exit code, stdout)], None) or (None, failure)."""
    outs = []
    try:
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        try:
            for argv in op.calls:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
                outs.append((code, buf.getvalue()))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        return None, "deadline"
    except RecursionError:
        return None, "RecursionError"
    except Exception as exc:  # any other crash is a failed operation, not a benchmark error
        return None, f"{type(exc).__name__}: {exc}"
    return outs, None


class Session:
    """The measurement of one workload: per-operation samples, failures
    and wrong answers."""

    def __init__(self, prog, ops, speed):
        self.prog = prog
        self.ops = ops
        self.speed = speed
        self.samples = {op: [] for op in ops}
        self.traced_samples = {op: [] for op in ops}
        self.failed = {}  # op -> reason
        self.failed_seconds = 0.0  # spent in operations that failed
        self.wrong = []
        self.verified = set()  # (op name, digest of outputs)

    def run_pass(self, tracer=None, budget=None):
        """One pass over the operations still standing; returns per-op
        count deltas when traced.  With a budget, an operation that has
        two samples summing to the budget sits the pass out, so that the
        slowest few do not take the time that more samples of the rest
        would use."""
        main = self.prog.cli.main
        samples = self.traced_samples if tracer else self.samples
        per_op = {}
        for op in self.ops:
            if op in self.failed:
                continue
            if budget is not None and len(samples[op]) >= 2 and sum(samples[op]) >= budget:
                continue
            before = dict(tracer.counts) if tracer else None
            # every operation starts with the collector's counts at zero, as
            # in a fresh CLI process; otherwise how many collections land in
            # an operation depends on the ones before it, and the large
            # long-sparse operations varied up to threefold between passes
            gc.collect()
            self.speed.calibrate()
            wall, cpu = time.perf_counter(), time.process_time()
            outs, failure = run_op(main, op)
            cpu = time.process_time() - cpu
            if failure is None:
                failure = self._check(op, outs, force=tracer is not None)
            if failure is not None:
                self.failed[op] = failure
                self.failed_seconds += time.perf_counter() - wall
                continue
            samples[op].append(self.speed.scale(cpu))
            if tracer:
                per_op[op] = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
        return per_op

    def _check(self, op, outs, force):
        digest = (op.name, hashlib.blake2b(repr(outs).encode(), digest_size=16).digest())
        if digest in self.verified and not force:
            return None
        try:
            reason = op.check(outs)
        except (ValueError, IndexError, KeyError) as exc:  # output the check cannot read
            reason = f"unreadable output ({type(exc).__name__}: {exc})"
        if reason is not None:
            self.wrong.append(f"{op.name}: {reason}")
            return f"wrong answer: {reason}"
        self.verified.add(digest)
        return None

    def measuring(self, start):
        """Seconds since start, less those spent waiting on failures."""
        return time.perf_counter() - start - self.failed_seconds

    def op_ms(self, op):
        if op in self.failed:
            return DEADLINE_S * 1000
        return statistics.median(self.samples[op]) * 1000


def end_to_end(session, setup_s):
    times = [session.op_ms(op) for op in session.ops]
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    decided = len(session.ops) - len(session.failed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (deciles[4], "ms"),
        "op_p90_ms": (deciles[8], "ms"),
        "ops_per_s": (decided / (sum(times) / 1000), "1/s"),
        "decided_share": (decided / len(session.ops), "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


LAYER_TIMES = {
    "solver.solve_ms": "solver.solve",
    "solver.setup_ms": "solver.setup",
    "solver.check_hom_ms": "solver.check_hom",
    "fileformat.parse_ms": "fileformat.parse",
    "fileformat.format_ms": "fileformat.format",
    "poly.decide_ms": "poly.decide",
    "reductions.build_ms": "reductions.build",
    "chromatic.chi_ms": "chromatic.chi",
    "verify.suite_ms": "verify.suite",
    "cli.self_ms": "cli",
}


def traced(session, seconds, catalogue_ms, trace_path):
    """Alternate untraced and traced passes; per-layer medians over the
    traced passes, counts from the last one, overhead as the difference of
    the summed operation times, each operation at its median."""
    tracer = Tracer()
    prog = session.prog
    layers = []
    start = time.perf_counter()
    session.run_pass()  # settles which operations fail; they sit out the rest
    while not layers or session.measuring(start) < seconds:
        session.run_pass()
        tracer.reset()
        tracer.install(prog)
        since = len(session.speed.history)
        try:
            per_op = session.run_pass(tracer)
        finally:
            tracer.uninstall()
        scale = session.speed.scale(1.0, since)
        layers.append({metric: tracer.self_ms(layer) * scale for metric, layer in LAYER_TIMES.items()})
    counts = tracer.counts
    attempted = len(session.ops)
    nodes = counts.get("solver.nodes", 0)
    search_ms = statistics.median(layer["solver.solve_ms"] - layer["solver.setup_ms"] for layer in layers)
    metrics = {metric: (statistics.median(layer[metric] for layer in layers), "ms")
               for metric in LAYER_TIMES}
    metrics.update({
        "solver.nodes": (nodes, "count"),
        "solver.us_per_node": (max(search_ms, 0.0) * 1000 / nodes if nodes else 0.0, "us"),
        "poly.routed_share": (counts.get("poly.answered", 0) / attempted, "ratio"),
        "reductions.instance_vertices": (counts.get("reductions.instance_vertices", 0), "count"),
        "chromatic.solve_calls": (counts.get("chromatic.solve_calls", 0), "count"),
        "chromatic.catalogue_cold_ms": (catalogue_ms, "ms"),
        "trace.overhead_ms": (1000 * sum(statistics.median(session.traced_samples[op])
                                         - statistics.median(session.samples[op])
                                         for op in session.ops if op not in session.failed), "ms"),
    })
    baseline = {op.name: per_op.get(op, "failed") for op in session.ops if op.baseline}
    for name, row in baseline.items():
        print(f"baseline {name}: {row}")
    tracer.dump(trace_path, baseline)
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "injhom" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _on_alarm)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        speed = Speed()
        times, catalogue = [], []
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
            rep_dir = workdir / f"setup{len(times)}"
            rep_dir.mkdir()
            # each repetition starts from the same heap: the previous
            # repetition's program and corpus are released first
            prog = corpus = None
            gc.collect()
            since = len(speed.history)
            speed.calibrate(SETUP_CALIBRATIONS)
            seconds, catalogue_s, prog, corpus = setup(args.workload, args.seed, rep_dir)
            speed.calibrate(SETUP_CALIBRATIONS)
            times.append(speed.scale(seconds, since))
            catalogue.append(speed.scale(catalogue_s, since))
        setup_s = statistics.median(times)
        catalogue_ms = statistics.median(catalogue) * 1000
        ops = workloads.WORKLOADS[args.workload][1](prog, corpus)
        session = Session(prog, ops, speed)
        # A user's CLI process holds the program and one input; this one
        # also holds the corpus and the references.  Freezing them keeps
        # the cyclic collector from walking them during every operation,
        # which made operation times swing by a third from run to run.
        gc.collect()
        gc.freeze()
        if args.trace:
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            metrics = traced(session, args.seconds, catalogue_ms, trace_path)
        else:
            start = time.perf_counter()
            passes = 0
            while passes == 0 or session.measuring(start) < args.seconds:
                session.run_pass(budget=args.seconds * OP_BUDGET_SHARE)
                passes += 1
            print(f"{args.workload}: {len(ops)} operations, {passes} passes")
            metrics = end_to_end(session, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for op, reason in session.failed.items():
        print(f"failed {op.name}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not session.wrong,
        "attempted": len(session.ops),
        "failed": len(session.failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not session.wrong else 1


if __name__ == "__main__":
    sys.exit(main())
