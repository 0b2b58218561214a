"""Host speed, sampled with a fixed loop that never touches divsamp.

Other tenants of a shared host slow this process by up to half, for
seconds to minutes at a time.  A calibration loop run next to an op slows by
nearly the same factor, so the benchmark scales each op's latency by
``CALIBRATION_REFERENCE_S`` / (loop time sampled around it).  No change to
divsamp moves the loop.
"""

from __future__ import annotations

import json
import math
import statistics
import time

# Time of one calibration loop when the host gives this process a full core:
# the fastest loops seen on the 2-vCPU Xeon host where the benchmark was
# defined.  Scaled times read as that host's uncontended seconds.
CALIBRATION_REFERENCE_S = 75e-6
CALIBRATION_RUNS = 3


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: int) -> None:
        self.x = x
        self.y = y


def _calibration_loop() -> float:
    # Mixes what the ops spend time on: float math calls, small objects and
    # dicts, and JSON text.
    acc = 0.0
    for i in range(1, 150):
        x = i * 0.001
        acc += math.log(1.0 + x) * math.cos(x) - math.sqrt(x)
    points = {}
    for i in range(60):
        points[i] = _Point(i * 0.5, i)
        acc += math.log1p(points[i].x) * points[i].y
    acc += len(sorted(points.values(), key=lambda pt: -pt.x))
    text = json.dumps({"a": [i * 0.1 for i in range(40)], "b": "x" * 20})
    return acc + len(json.loads(text)["a"])


def host_sample() -> float:
    """Seconds per calibration loop right now: median of ``CALIBRATION_RUNS`` loops."""
    times = []
    for _ in range(CALIBRATION_RUNS):
        t0 = time.perf_counter()
        _calibration_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def host_scale(samples) -> float:
    """Factor that turns times measured at the sampled host speed into reference time."""
    return CALIBRATION_REFERENCE_S / statistics.fmean(samples)
