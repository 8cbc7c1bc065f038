"""Deterministic discrete-event engine: virtual time, nodes, message delivery.

One seeded PRNG is owned by the engine and shared by every component, so a
(seed, scenario) pair fully determines a run. Time is fixed-point integer
microseconds to keep day/hour arithmetic exact over 1000-day horizons.

The queue is a heap of plain tuples ``(us, seq, target, is_timer, payload)``:
fire time in integer microseconds, a scheduling sequence number that breaks
ties in scheduling order, the target node id, whether the payload is a timer
token (``on_timer``) or a packet (``on_packet``), and the payload itself.
The engine keeps the current instant as an int; ``now`` is a `SimTime` that
is rebuilt only when the event loop moves to a later instant, so every
event at one instant shares one ``now`` object.
"""

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import NamedTuple

from .addressing import Ipv6Address
from .messages import record

US_PER_SECOND = 1_000_000
US_PER_MINUTE = 60 * US_PER_SECOND
US_PER_HOUR = 60 * US_PER_MINUTE
US_PER_DAY = 24 * US_PER_HOUR


@dataclass(frozen=True, order=True, slots=True)
class SimTime:
    """Simulated instant, microseconds since epoch 0."""

    micros: int

    def __post_init__(self):
        if self.micros < 0:
            raise ValueError(f"negative SimTime: {self.micros}")

    @classmethod
    def from_seconds(cls, seconds: float) -> "SimTime":
        return cls(round(seconds * US_PER_SECOND))

    @classmethod
    def from_hours(cls, hours: float) -> "SimTime":
        return cls(round(hours * US_PER_HOUR))

    @classmethod
    def from_days(cls, days: float) -> "SimTime":
        return cls(round(days * US_PER_DAY))

    @classmethod
    def at(cls, day: int, hour: float = 0.0) -> "SimTime":
        return cls(day * US_PER_DAY + round(hour * US_PER_HOUR))

    @property
    def seconds(self) -> float:
        return self.micros / US_PER_SECOND

    @property
    def day(self) -> int:
        return self.micros // US_PER_DAY

    @property
    def hour_of_day(self) -> float:
        return (self.micros % US_PER_DAY) / US_PER_HOUR

    def hhmm(self) -> str:
        minutes = (self.micros % US_PER_DAY) // US_PER_MINUTE
        return f"{minutes // 60:02d}:{minutes % 60:02d}"

    def __add__(self, other: "SimTime") -> "SimTime":
        return SimTime(self.micros + other.micros)

    def plus_seconds(self, seconds: float) -> "SimTime":
        return SimTime(self.micros + round(seconds * US_PER_SECOND))


EPOCH = SimTime(0)


@dataclass(frozen=True, slots=True)
class LinkModel:
    """Uniform delivery latency and loss applied to every routed packet."""

    latency_s: float = 0.05
    loss_probability: float = 0.0

    def __post_init__(self):
        if self.latency_s < 0:
            raise ValueError("negative latency")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError("loss probability outside [0,1]")


@record
class Packet(NamedTuple):
    """Routable unit: addresses plus an opaque payload."""

    src: Ipv6Address
    dst: Ipv6Address
    payload: object
    size_bytes: int = 56


@dataclass(slots=True)
class TrafficCounters:
    """Engine-level accounting. sent = delivered + lost + unroutable + in_flight."""

    sent: int = 0
    delivered: int = 0
    lost: int = 0
    unroutable: int = 0
    in_flight: int = 0

    def conserved(self) -> bool:
        return self.sent == self.delivered + self.lost + self.unroutable + self.in_flight


class PastEventError(Exception):
    """An event was scheduled before the current simulation time."""


class Node:
    """Base simulated node. Subclasses react to packets and timer wakeups."""

    def __init__(self, sim: "Simulator", node_id: str):
        self.sim = sim
        self.node_id = node_id
        sim.add_node(self)

    def on_packet(self, packet: Packet) -> None:
        raise NotImplementedError

    def on_timer(self, token: object) -> None:
        raise NotImplementedError


class Simulator:
    """Single-threaded event loop over a heap of (time, seq) ordered events."""

    def __init__(self, seed: int = 0, link: LinkModel | None = None,
                 keep_trace: bool = False):
        self.seed = seed
        self.rng = random.Random(seed)
        # the link model is fixed for the simulator's life
        self.link = link if link is not None else LinkModel()
        self._latency_us = round(self.link.latency_s * US_PER_SECOND)
        self._loss = self.link.loss_probability
        self._us = 0
        self.now = EPOCH
        self.counters = TrafficCounters()
        self.trace: list[tuple[int, str, object]] | None = [] if keep_trace else None
        self.nodes: dict[str, Node] = {}
        self._queue: list[tuple[int, int, str, bool, object]] = []
        self._seq = itertools.count()
        self._exact_routes: dict[Ipv6Address, str] = {}
        self._prefix_routes: dict[int, str] = {}

    # -- nodes and routing ------------------------------------------------

    def add_node(self, node: Node) -> None:
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        self.nodes[node.node_id] = node

    def register_route(self, address: Ipv6Address, node_id: str) -> None:
        self._exact_routes[address] = node_id

    def unregister_route(self, address: Ipv6Address) -> None:
        self._exact_routes.pop(address, None)

    def register_prefix_route(self, prefix: int, node_id: str) -> None:
        self._prefix_routes[prefix] = node_id

    # -- scheduling --------------------------------------------------------

    def schedule_at(self, fire_at: SimTime, node_id: str, token: object) -> None:
        """Wake `node_id` with `token` (its `on_timer`) at `fire_at`."""
        if fire_at.micros < self._us:
            raise PastEventError(f"event at {fire_at} scheduled at {self.now}")
        heapq.heappush(self._queue, (fire_at.micros, next(self._seq), node_id,
                                     True, token))

    def call_at(self, fire_at: SimTime, node_id: str, token: object) -> None:
        self.schedule_at(fire_at, node_id, token)

    def call_in(self, delay_s: float, node_id: str, token: object) -> None:
        if delay_s < 0:
            raise PastEventError(f"negative delay {delay_s} s at {self.now}")
        heapq.heappush(self._queue, (self._us + round(delay_s * US_PER_SECOND),
                                     next(self._seq), node_id, True, token))

    def send(self, packet: Packet) -> bool:
        """Route a packet. Returns True if a delivery event was scheduled.

        Unroutable destinations are black-holed with a counter, the way the
        Internet swallows traffic to deconfigured addresses.
        """
        counters = self.counters
        counters.sent += 1
        target = self._exact_routes.get(packet.dst)
        if target is None:
            target = self._prefix_routes.get(packet.dst.prefix)
            if target is None:
                counters.unroutable += 1
                return False
        if self._loss > 0 and self.rng.random() < self._loss:
            counters.lost += 1
            return False
        counters.in_flight += 1
        heapq.heappush(self._queue, (self._us + self._latency_us,
                                     next(self._seq), target, False, packet))
        return True

    # -- event loop ----------------------------------------------------------

    def run_until(self, t_end: SimTime) -> int:
        """Process every event with fire_at <= t_end; leaves now == t_end."""
        processed = self._loop(t_end.micros)
        if t_end.micros > self._us:
            self._us = t_end.micros
            self.now = t_end
        return processed

    def run(self) -> int:
        """Drain the queue entirely."""
        return self._loop(None)

    def pending(self) -> int:
        return len(self._queue)

    def _loop(self, limit_us: int | None) -> int:
        queue, nodes, counters = self._queue, self.nodes, self.counters
        trace, pop = self.trace, heapq.heappop
        processed = 0
        while queue and (limit_us is None or queue[0][0] <= limit_us):
            us, _, target, is_timer, payload = pop(queue)
            if us != self._us:
                self._us = us
                self.now = SimTime(us)
            processed += 1
            node = nodes.get(target)
            if node is None:
                continue
            if is_timer:
                node.on_timer(payload)
                continue
            counters.in_flight -= 1
            counters.delivered += 1
            if trace is not None:
                trace.append((us, target, payload))
            node.on_packet(payload)
        return processed
