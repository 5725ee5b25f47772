"""Host-speed calibration of every host time the benchmark reports.

The benchmark was built on a shared 2-core host whose speed swings by up
to 1.8x in phases lasting ten seconds or more: far longer than one op,
and long enough to move a whole run.  So the worker times a fixed
pure-Python loop (the simulator is pure Python too) between ops, and
scales each op's host time by ``CALIBRATION_S`` over the mean of the
loop times just before and just after it; set-up is scaled by the loop
times at process start and when set-up ends.  Every host time is thus in
seconds of a host on which the loop takes ``CALIBRATION_S``.  The loop
uses nothing from the program under test, so no change to the program
can move it.
"""

from __future__ import annotations

import time

CALIBRATION_S = 0.005
_ITERATIONS = 20_000


def calibration_loop() -> float:
    """Seconds one run of the fixed calibration loop takes right now."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(_ITERATIONS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start
