"""Times at a reference machine speed.

On a shared 2-vCPU guest the CPU time of one piece of code swings
between two levels, the slower up to about twice the faster, for seconds
to minutes at a time, as other guests come and go on the same cores.  A run of a
workload can fall wholly in either level, so raw times of unchanged code
spread by half from run to run.

So the benchmark runs a fixed calibration search, with its own reference
solver ``checks.hom_exists``, before every operation and around every
set-up, and scales each CPU time by ``REFERENCE_S`` over the median of
the latest calibration times: a time is reported as it would read on a
machine where the calibration takes exactly ``REFERENCE_S``.  The
calibration does not run the program, so a change to the program moves
the scaled times and leaves the scale alone.

Measured on that guest: 219 rounds of 40 ``chi`` operations, each
operation preceded by the calibration, over 150 seconds.  The rounds'
operation time spread by 0.22 of its median, and its ratio to the
calibration time by 0.05.  In the fast level the operations ran 1.48
times faster than in the slow one, and the calibration 1.45 times.
Editing ``checks.hom_exists`` changes the reference: then every time
moves, and the baseline must be measured again.
"""

from __future__ import annotations

import random
import statistics
import time

import checks
import corpus as cg

REFERENCE_S = 0.001
WINDOW = 15  # latest calibration times the scale is the median of


def _instance():
    """A 12-vertex random oriented graph that does not map to the
    reflexive transitive 6-tournament under ios, which the search shows
    by backtracking (about 1 ms)."""
    n, k = 12, 6
    arcs = cg.random_oriented(n, 0.3, random.Random(7))
    return n, arcs, k, [(a, b) for a in range(k) for b in range(a + 1, k)], True, "ios"


class Speed:
    def __init__(self):
        self._args = _instance()
        self.history = []  # every calibration time, in order

    def calibrate(self, runs=1):
        for _ in range(runs):
            start = time.process_time()
            checks.hom_exists(*self._args)
            self.history.append(time.process_time() - start)

    def scale(self, seconds, since=None):
        """CPU seconds as seconds at the reference speed, by the median of
        the latest WINDOW calibrations, or of those from index ``since``
        on."""
        times = self.history[-WINDOW:] if since is None else self.history[since:]
        return seconds * REFERENCE_S / statistics.median(times)
