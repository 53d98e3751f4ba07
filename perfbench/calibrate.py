#!/usr/bin/env python3
"""Host-speed calibration: time a fixed loop that never imports the program.

The host this benchmark runs on is shared, and its speed shifts: the same
run has taken 2.5 times longer half an hour apart. ``run.py`` starts this
script as a child process before the set-up and before every timed run,
and reports its host-time metrics in *reference seconds*, host seconds
scaled by ``REFERENCE_S / <median calibration time>``. Running it in a
child keeps anything the program does to the interpreter (a trace hook, a
changed GC threshold) out of the calibration, so a slower program cannot
hide behind a slower calibration.

The loop mixes the two kinds of work the simulator does: small-array
NumPy dominance tests (a skyline filter) and interpreter-bound heap and
dict traffic (an event loop). Prints the median of ``ROUNDS`` timings in
seconds.
"""

from __future__ import annotations

import heapq
import statistics
import time

import numpy as np

#: Timings per call; the median is printed.
ROUNDS = 3
#: The loop's time on the reference host (the 2 vCPU Intel Xeon the
#: README's numbers come from, in its faster state).
REFERENCE_S = 0.135


def loop() -> float:
    rng = np.random.default_rng(12345)
    points = rng.random((700, 4))
    start = time.perf_counter()
    kept = 0
    for i in range(700):
        le = (points <= points[i]).all(axis=1)
        lt = (points < points[i]).any(axis=1)
        kept += int(not (le & lt).any())
    heap, state = [], {}
    for i in range(100000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
    while heap:
        t, i = heapq.heappop(heap)
        state[i % 997] = state.get(i % 997, 0) + t
    elapsed = time.perf_counter() - start
    if kept < 1 or len(state) != 997:
        raise RuntimeError("calibration loop computed a wrong result")
    return elapsed


def main() -> None:
    print(repr(statistics.median(loop() for _ in range(ROUNDS))))


if __name__ == "__main__":
    main()
