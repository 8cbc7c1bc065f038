"""Intrusion detection: a per-address packet rate over a sliding window.

The mobile host feeds it every packet that reaches one of its active home
addresses; an alert makes the host dispose of the address. A flood
segment's packets (engine.py) are observed as one run, and `first_alert`
finds, in closed form, the packet of a run that would raise the alert.
"""

import functools
import math
from collections import deque
from typing import NamedTuple

from .addressing import Ipv6Address
from .engine import US_PER_SECOND
from .messages import record


@record
class AttackAlert(NamedTuple):
    hoa: Ipv6Address
    window_rate: float


class _Window(deque):
    """One address's observations inside the monitor's window, oldest
    first: a packet's instant (int us), or a run [first_us, interval_us,
    count] of a segment's packets; `total` counts them all."""

    __slots__ = ("total",)

    def __init__(self):
        super().__init__()
        self.total = 0

    def trim(self, cutoff_us: int) -> None:
        """Forget every observation before `cutoff_us`."""
        while self:
            run = self[0]
            if type(run) is not list:
                if run >= cutoff_us:
                    return
                self.popleft()
                self.total -= 1
                continue
            first, interval, count = run
            if first >= cutoff_us:
                return
            if first + (count - 1) * interval < cutoff_us:
                self.popleft()
                self.total -= count
                continue
            gone = -((first - cutoff_us) // interval)
            run[0] = first + gone * interval
            run[2] = count - gone
            self.total -= gone
            return

    def newest(self) -> int:
        """The instant of the latest observation."""
        run = self[-1]
        if type(run) is not list:
            return run
        first, interval, count = run
        return first + (count - 1) * interval

    def since(self, cutoff_us: int) -> int:
        """Observations at or after `cutoff_us`."""
        kept = 0
        for run in self:
            if type(run) is not list:
                kept += run >= cutoff_us
                continue
            first, interval, count = run
            if first >= cutoff_us:
                kept += count
            elif first + (count - 1) * interval >= cutoff_us:
                kept += count + ((first - cutoff_us) // interval)
        return kept


class IntrusionMonitor:
    """Per-address packets-per-second over a sliding window, strict threshold.

    A burst of exactly threshold*window packets stays quiet; one more
    raises an alert. A flood segment's packets are observed as one run.

    Windows are kept in the order their addresses were last observed. A
    window whose newest observation has left the window is forgotten
    when the next packet is observed: the next observation of its address
    would have trimmed it to nothing anyway. Only `observe` forgets,
    because it runs at the simulator's clock, which no later observation
    precedes; a run is observed when its segment is charged, possibly
    ahead of other runs with earlier packets.
    """

    def __init__(self, threshold_pps: float = 10.0, window_s: float = 10.0):
        self.threshold_pps = threshold_pps
        self.window_s = window_s
        self._window_us = round(window_s * US_PER_SECOND)
        self._windows: dict[Ipv6Address, _Window] = {}

    @functools.cached_property
    def _alert_count(self) -> float:
        """The fewest observations in a window that raise an alert."""
        if not math.isfinite(self.threshold_pps * self.window_s):
            return math.inf
        count = max(0, math.floor(self.threshold_pps * self.window_s) - 1)
        while count / self.window_s <= self.threshold_pps:
            count += 1
        return count

    def observe(self, hoa: Ipv6Address, now_us: int) -> AttackAlert | None:
        window = self._latest(hoa)
        window.append(now_us)
        window.total += 1
        cutoff = now_us - self._window_us
        window.trim(cutoff)
        windows = self._windows
        while True:  # ends at the latest, `hoa` itself
            oldest = next(iter(windows))
            if windows[oldest].newest() >= cutoff:
                break
            del windows[oldest]
        rate = window.total / self.window_s
        if rate > self.threshold_pps:
            return AttackAlert(hoa=hoa, window_rate=rate)
        return None

    def observe_run(self, hoa: Ipv6Address, first_us: int, interval_us: int,
                    count: int) -> None:
        """`count` observations interval_us apart, none of them alerting."""
        window = self._latest(hoa)
        window.append([first_us, interval_us, count])
        window.total += count
        window.trim(first_us + (count - 1) * interval_us - self._window_us)

    def _latest(self, hoa: Ipv6Address) -> _Window:
        """`hoa`'s window, moved to the end as the latest observed."""
        windows = self._windows
        window = windows.pop(hoa, None)
        if window is None:
            window = _Window()
        windows[hoa] = window
        return window

    def first_alert(self, hoa: Ipv6Address, first_us: int, interval_us: int,
                    count: int) -> int:
        """Index of the observation in a run that would raise the alert;
        `count` if none would.

        Observation j of the run sees old(j) earlier observations still in
        the window plus min(j, span) + 1 of the run's own, span being how
        many intervals the window holds. old only falls as j grows, so the
        first j with old(j) + j + 1 >= alert count is found by stepping j
        to alert count - 1 - old(j) until it holds; past span the run's
        share stops growing and nothing can alert any more.
        """
        needed = self._alert_count
        window = self._windows.get(hoa)
        span = self._window_us // interval_us
        j = 0
        while j < count and j <= span:
            old = window.since(first_us + j * interval_us - self._window_us) if window else 0
            if old + j + 1 >= needed:
                return j
            j = max(j + 1, needed - 1 - old)
        return count

    def clear(self, hoa: Ipv6Address) -> None:
        self._windows.pop(hoa, None)
