"""
A fixed reference loop that gauges the speed of the host.

A shared host's speed drifts by tens of percent over minutes, and that
drift is most of the run-to-run spread of a wall time.  The benchmark
times this loop at intervals during a run, outside every measured span,
and scales each reported time by ``NOMINAL_S / mean(loop times)``.  A
reported time is then the time the work would take on a host where the
loop takes ``NOMINAL_S``.  The loop does the kind of work kcrystals spends
its time on (small tuples, sorting, dict and set lookups, list building),
so that contention slows it about as much as it slows the package.
"""

from __future__ import annotations

import time

ITERATIONS = 20_000
NOMINAL_S = 0.02
INTERVAL_S = 0.2  # the least work between two samples inside one process


def _step(state: tuple, i: int) -> tuple:
    return tuple(sorted((state[1], state[0] ^ i, (state[2] + i) % 97)))


def sample() -> float:
    """Seconds the reference loop takes now."""
    start = time.perf_counter()
    counts: dict = {}
    seen: set = set()
    rows: list = []
    state = (1, 2, 3)
    for i in range(ITERATIONS):
        state = _step(state, i & 255)
        counts[state] = counts.get(state, 0) + 1
        if state not in seen:
            seen.add(state)
            rows.append(list(state))
        if len(rows) > 500:
            rows = [row[::-1] for row in rows[:100]]
    return time.perf_counter() - start
