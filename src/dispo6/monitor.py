"""Intrusion detection: a per-key event rate over a sliding window.

The mobile host feeds it every packet that reaches one of its active home
addresses; an alert makes the host dispose of the address. A flood
segment's packets (engine.py) are observed as one run, and `first_alert`
finds, in closed form, the packet of a run that would raise the alert.
The HIP gate (distribution.py) counts each identity's requests over
`HIP_WINDOW_S` with one.
"""

import functools
import math
from collections import deque
from collections.abc import Hashable

from .addressing import Ipv6Address
from .engine import US_PER_SECOND

# a host's flood detection: more than 10 packets/s over 10 s on an address
DETECTION_THRESHOLD_PPS = 10.0
DETECTION_WINDOW_S = 10.0


class _Window(deque):
    """One address's observations inside the monitor's window, oldest
    first, each a run [first_us, interval_us, count] in int us; `total`
    counts them all.

    It has no `__init__` of its own: `IntrusionMonitor._latest` builds
    it empty and sets `total`, which is unset until then."""

    __slots__ = ("total",)

    def trim(self, cutoff_us: int) -> None:
        """Forget every observation before `cutoff_us`."""
        while self:
            run = self[0]
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
        first, interval, count = self[-1]
        return first + (count - 1) * interval

    def since(self, cutoff_us: int) -> int:
        """Observations at or after `cutoff_us`."""
        kept = 0
        for first, interval, count in self:
            if first >= cutoff_us:
                kept += count
            elif first + (count - 1) * interval >= cutoff_us:
                kept += count + ((first - cutoff_us) // interval)
        return kept


class IntrusionMonitor:
    """Per-key events per second over a sliding window of `window_s`,
    strict threshold.

    A burst of exactly threshold_pps*window_s events stays quiet; one
    more raises an alert. Hosts watch each home address's packets with
    `DETECTION_THRESHOLD_PPS` unless their owner sets another threshold;
    the HIP gate watches each identity's requests over `HIP_WINDOW_S`. A
    flood segment's packets are observed as one run.

    Windows are kept in the order their keys were last observed. A
    window whose newest observation has left the window is forgotten
    when the next event is observed: the next observation of its key
    would have trimmed it to nothing anyway. Only `observe` forgets,
    because it runs at the simulator's clock, which no later observation
    precedes; a run is observed when its segment is charged, possibly
    ahead of other runs with earlier packets.
    """

    def __init__(self, threshold_pps: float,
                 window_s: float = DETECTION_WINDOW_S):
        self.threshold_pps = threshold_pps
        self.window_s = window_s
        self._window_us = round(window_s * US_PER_SECOND)
        self._windows: dict[Hashable, _Window] = {}

    @functools.cached_property
    def _alert_count(self) -> float:
        """The fewest observations in a window that raise an alert: the
        least count with count / window_s > threshold_pps."""
        if not math.isfinite(self.threshold_pps * self.window_s):
            return math.inf
        count = max(0, math.floor(self.threshold_pps * self.window_s) - 1)
        while count / self.window_s <= self.threshold_pps:
            count += 1
        return count

    def observe(self, key: Hashable, now_us: int) -> bool:
        """Whether this event raises the alert on `key`."""
        window = self.observe_run(key, now_us, 1, 1)
        cutoff = now_us - self._window_us
        windows = self._windows
        while True:  # ends at the latest, `key` itself
            oldest, old = next(iter(windows.items()))
            if old is window or old.newest() >= cutoff:
                break
            del windows[oldest]
        return window.total >= self._alert_count

    def observe_run(self, key: Hashable, first_us: int, interval_us: int,
                    count: int) -> _Window:
        """Record `count` observations of `key` interval_us apart; returns
        `key`'s window."""
        window = self._latest(key)
        window.append([first_us, interval_us, count])
        window.total += count
        window.trim(first_us + (count - 1) * interval_us - self._window_us)
        return window

    def _latest(self, key: Hashable) -> _Window:
        """`key`'s window, moved to the end as the latest observed."""
        windows = self._windows
        window = windows.pop(key, None)
        if window is None:
            window = _Window()
            window.total = 0
        windows[key] = window
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
        if (window.total if window else 0) + count < needed:
            # the window and the whole run together stay quiet (without
            # this exit `flood_drain` wall_s was 0.1530 s, not 0.1488 s)
            return count
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
