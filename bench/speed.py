"""Machine-speed reference for the end-to-end times.

The benchmark host's speed drifts by about ±20% over tens of seconds (other
tenants share its cores): the same Zielonka solve at n=2048 took 68-106 ms
in 10-second windows of one 150-second run, while its ratio to this
reference stayed within 17-18.7. So every time the end-to-end metrics report
is measured next to this fixed pure-Python work, which does not touch the
library, and scaled to the speed at which the work takes REFERENCE_S:

    reported = measured * REFERENCE_S / reference time measured alongside

A change to the library moves the reported times as it moves wall time; a
slower or faster moment of the host does not.
"""

from __future__ import annotations

import statistics
import time

# The reference's typical time on a 2.1 GHz Xeon vCPU with Python 3.11.
REFERENCE_S = 0.002
# Reference samples each verdict is scaled by: itself and WINDOW on each side.
WINDOW = 3


def _work() -> int:
    table: dict[int, int] = {}
    ring = [0] * 64
    x = 1
    for i in range(3000):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        key = x >> 54
        table[key] = table.get(key, 0) + (x & 0xFFFF)
        ring[i & 63] = key
    return sum(table.values()) + sum(ring)


def reference() -> float:
    """Seconds the fixed reference work takes right now."""
    started = time.perf_counter()
    _work()
    return time.perf_counter() - started


def scaled(times: list[float], refs: list[float]) -> list[float]:
    """Each time scaled by the median reference sample around it."""
    out = []
    for i, t in enumerate(times):
        local = statistics.median(refs[max(0, i - WINDOW): i + WINDOW + 1])
        out.append(t * REFERENCE_S / local)
    return out
