"""The host's speed, sampled during a run, to take host noise out of timings.

On a shared host the single-thread speed of the machine drifts by up to
a factor of two, in phases that last from seconds to minutes, whatever
the benchmark does.  A run of half a minute cannot average that out.
So the thread that times the operations also samples the speed, between
two operations and at most every ``SAMPLE_INTERVAL_S``, with a fixed
pure-Python probe timed in thread CPU time, and every timed interval is
reported in *reference seconds*: seconds on a host on which the probe
takes ``REFERENCE_PROBE_S``.

The probe runs in the measuring thread, never beside it: a probe thread
competes with the measured code for the interpreter lock and the
caches, so it times the benchmark's own load instead of the host's.
"""

from __future__ import annotations

import bisect
import time
from typing import List, Tuple

PROBE_ITERATIONS = 20000
#: probe time of the reference host
REFERENCE_PROBE_S = 0.002
#: least wall time between two samples: a probe costs about 2 ms, so
#: sampling adds at most 4% to a phase's wall time
SAMPLE_INTERVAL_S = 0.05


def probe() -> float:
    """Thread CPU seconds of a fixed dictionary-update loop."""
    start = time.thread_time()
    table = {}
    for i in range(PROBE_ITERATIONS):
        table[i & 255] = table.get(i & 255, 0) + i
    return time.thread_time() - start


class HostSpeed:
    """Probe samples ``(wall time, probe seconds)`` of one run."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._last = float("-inf")

    def sample(self) -> None:
        """Probe the host unless the last sample is more recent than
        ``SAMPLE_INTERVAL_S``.  Call it between two timed intervals."""
        now = time.perf_counter()
        if now - self._last >= SAMPLE_INTERVAL_S:
            self._last = now
            self.samples.append((now, probe()))

    def reference_seconds(self, start: float, end: float) -> float:
        """The wall interval ``[start, end]`` in reference seconds.

        Between two samples the host's slowdown is the mean of their
        probe times over the reference; before the first and after the
        last sample it is that sample's.
        """
        points = sorted(self.samples)
        if not points:
            raise ValueError("no host-speed sample was taken")
        times = [t for t, _probe in points]
        lo = max(bisect.bisect_right(times, start) - 1, 0)
        window = points[lo:bisect.bisect_left(times, end) + 1]
        total = 0.0
        first_t, first_p = window[0]
        last_t, last_p = window[-1]
        if start < first_t:
            total += (min(end, first_t) - start) * REFERENCE_PROBE_S / first_p
        if end > last_t:
            total += (end - max(start, last_t)) * REFERENCE_PROBE_S / last_p
        for (t0, p0), (t1, p1) in zip(window, window[1:]):
            a, b = max(t0, start), min(t1, end)
            if b > a:
                total += (b - a) * 2 * REFERENCE_PROBE_S / (p0 + p1)
        return total
