"""Measures how fast this core runs while a workload runs on it.

On a shared host the speed of one core drifts by up to 2x within seconds
and over minutes, as neighbours load it, so raw host times of the same
code spread by 20-40 % between runs. A SpeedSampler interrupts the
workload every INTERVAL_S of host time and times one slice of a fixed
probe, on the same core and in the same process. run.py then takes the
slices' own time out of the workload's host time and rescales what is
left by REFERENCE_S over the mean slice time. A time is thus reported in
seconds on a host where one slice takes REFERENCE_S. A change to dispo6
moves it in full, because the probe shares no code with dispo6.

The probe mixes arithmetic with the small-object, dict and heap work of an
event simulator, because the two slow down by different amounts under
contention and dispo6 does both. It touches a few KiB, so it neither moves
peak_rss_mb nor evicts much of the workload's cache. It draws nothing
from any RNG of the workload and changes no state the workload can see.
Never change the probe or REFERENCE_S: that would rescale every time
measured with them.
"""

import heapq
import signal
import time

# About what one slice takes on a 2-vCPU x86-64 VM; any fixed value
# serves, since only ratios between runs matter.
REFERENCE_S = 0.0015
INTERVAL_S = 0.1


class _Event:
    __slots__ = ("at", "node")

    def __init__(self, at: int, node: int):
        self.at = at
        self.node = node


def probe() -> int:
    """One fixed slice of work; returns a checksum of it."""
    total = 0
    for i in range(4000):
        total += i * i % 7
    queue: list = []
    counts: dict = {}
    for i in range(600):
        heapq.heappush(queue, (i * 7919 % 1009, i, _Event(i, i % 37)))
        if len(queue) > 64:
            _, _, event = heapq.heappop(queue)
            counts[event.node] = counts.get(event.node, 0) + event.at
    return total + len(counts)


class SpeedSampler:
    """Times one probe slice every INTERVAL_S of host time while active."""

    def __init__(self):
        self.slices: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        started = time.perf_counter()
        probe()
        self.slices.append(time.perf_counter() - started)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.slices:  # shorter than one interval: time one slice now
            self._on_alarm(None, None)
