"""Machine speed, sampled between benchmark items, to take out host noise.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within seconds while CPU time stays equal to wall time: the slowdown is in
the processor, not in scheduling, so neither CPU-time clocks nor longer runs
remove it.  `Clock` runs a fixed pure-Python reference computation (list and
integer arithmetic modulo a prime and dictionary updates, the operations
valknaf's finite-field and polynomial layers are made of) between items and
keeps each sample's duration.  A measured interval is then scaled by

    REFERENCE_S / median(samples taken within WINDOW_S of the interval)

so every reported time is in seconds of the reference machine
(perfbench/record.json): the time the interval would have taken had the host
run the reference computation in REFERENCE_S.  The reference computation
never calls valknaf, so a change to the program moves the scaled times
exactly as it moves the raw ones; only the host's speed is divided out.
"""

from __future__ import annotations

import inspect
import statistics
import time
from bisect import bisect_left, bisect_right

# Seconds one reference sample takes on the reference machine.
REFERENCE_S = 0.0004
# Samples within this many seconds of an interval set its speed.
WINDOW_S = 0.2
# One sample is due per this many seconds of elapsed time.
EVERY_S = 0.01
# Fewest samples behind a speed: the nearest ones are added if the window
# holds fewer.
MIN_SAMPLES = 10
# Most samples one tick takes after a long interval.
MAX_BURST = 20
_PRIME = 10007
_A = list(range(1, 25))
_B = list(range(7, 31))


def reference_work() -> int:
    """Fixed work: products of two degree-23 polynomials over F_10007."""
    total = 0
    table = {}
    for r in range(5):
        out = [0] * (len(_A) + len(_B) - 1)
        for i, x in enumerate(_A):
            for j, y in enumerate(_B):
                out[i + j] = (out[i + j] + x * y + r) % _PRIME
        for k, c in enumerate(out):
            table[k] = table.get(k, 0) ^ c
        total += sum(table.values())
    return total


def speed_of(durations) -> float:
    """Host time factor of reference samples: 1 on the reference machine."""
    return statistics.median(durations) / REFERENCE_S


def sampler_source() -> str:
    """Source of `reference_work` and `samples(n)` that needs only `time`.

    For a fresh interpreter that must sample its own speed without
    importing anything it would not import anyway.
    """
    return "\n".join([
        "import time",
        f"_PRIME, _A, _B = {_PRIME!r}, {_A!r}, {_B!r}",
        inspect.getsource(reference_work),
        "def samples(n):",
        "    out = []",
        "    for _ in range(n):",
        "        start = time.perf_counter()",
        "        reference_work()",
        "        out.append(time.perf_counter() - start)",
        "    return out",
        ""])


class Clock:
    """Reference samples over time, and scaling of intervals by them."""

    def __init__(self):
        self.mids: list[float] = []
        self.durations: list[float] = []
        self._last = float("-inf")

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            reference_work()
            end = time.perf_counter()
            self.mids.append((start + end) / 2)
            self.durations.append(end - start)
            self._last = end

    def tick(self) -> None:
        """One sample per EVERY_S seconds since the last, up to MAX_BURST.

        A long item is thus followed by a burst of samples, enough for a
        steady median right next to it, at the same share of the time as
        the single samples between short items.
        """
        due = int((time.perf_counter() - self._last) / EVERY_S)
        if due:
            self.sample(min(due, MAX_BURST))

    def speed(self, start: float, end: float) -> float:
        """Median sample duration around [start, end] over REFERENCE_S."""
        lo = bisect_left(self.mids, start - WINDOW_S)
        hi = bisect_right(self.mids, end + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            before = bisect_left(self.mids, start)
            after = bisect_right(self.mids, end)
            lo = min(lo, max(0, before - MIN_SAMPLES // 2))
            hi = max(hi, min(len(self.mids), after + MIN_SAMPLES // 2))
        return speed_of(self.durations[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """Seconds of the reference machine that [start, end] stands for."""
        return (end - start) / self.speed(start, end)
