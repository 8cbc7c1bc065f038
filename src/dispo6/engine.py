"""Deterministic discrete-event engine: virtual time, nodes, message delivery.

One seeded PRNG is owned by the engine and shared by every component, so a
(seed, scenario) pair fully determines a run. Time is fixed-point integer
microseconds to keep day/hour arithmetic exact over 1000-day horizons.

The queue is a heap of plain tuples ``(us, seq, target, is_timer, payload)``:
fire time in integer microseconds, a scheduling sequence number that breaks
ties in scheduling order, the target node id, whether the payload is a timer
token (``on_timer``) or a packet (``on_packet``), and the payload itself.
The clock is one int, ``now_us``, and every layer below the public
constructors takes and keeps time as int microseconds: handlers read
``sim.now_us``, and the event loop moves the clock without building an
object per instant. ``now`` is a read-only `SimTime` view of the clock for
callers of the API, built on each read.

Flood segments. A source that sends one packet every ``interval_us`` from
``first_us`` on (a non-spoofed flood, see `Flooder`) hands the whole train
to `Simulator.flood` instead of queueing a timer per packet. Packet k
reaches its h-th hop at ``first_us + k*interval_us + h*latency``; the
segment keeps, per hop, the pieces ``[k_lo, k_hi, node_id, packet]`` of
identical packets on their way there, and no per-packet list. The segment
is integrated lazily: before the clock moves past an instant, and before
`run_until` returns, each hop takes every packet that reached it in one
call of its ``on_run(packet, first_us, interval_us, count)``, which charges
the packets in closed form and returns the packet it forwards for each of
them, or None. The traffic counters move by ``count`` at once, so they
balance at every instant. Hop state changes only at queued events and at
split packets (below), so a piece is uniform between them.

A segment splits into single packets only where a hop's state changes
because of the packets themselves. A node that can change that way
defines ``run_split(packet, first_us, interval_us, count)``: the index of
the first packet of a run that must go through ``on_packet``. Before each
step the engine composes the forward decisions of the hops upstream of such
a node (``run_fate(packet)``, pure) into the run that will reach it, asks
it for that index, and steps only up to it. The split packet is then
delivered through ``on_packet`` at its own instant, the way the per-packet
path delivers every packet.

Same-instant ties. The per-packet path runs the events of one instant in
scheduling order; a packet on a link was scheduled one latency before it
arrives, a flood's timer one interval before it fires. Segments use this
rule: at one instant every queued event runs first, then the split packet
if there is one, then the other segment packets. A packet the flood emits
at a split's instant goes out before the split on the packet path when
the interval is longer than the latency, since its timer was then set
first; whatever the split sends meets it one hop on in that order. The
rule matches the per-packet path when each queued event at the instant
was scheduled before the segment packets it ties with, which every timer
of the library (a second or more) and every message sent by a queued
event before the flood's own step at the earlier instant satisfy. One
case differs: with an interval longer than the latency, a queued delivery
that trips the monitor at an emission's instant sends its block request
ahead of the emitted packet here, and behind it on the per-packet path.

A flood stays on the per-packet path when the link loses packets (each
loss is a draw from the shared PRNG), when the trace is kept (it lists
every packet), when the latency is zero, and when its first hop has no
closed form (no ``on_run``).
"""

import heapq
import itertools
import random
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .addressing import Ipv6Address
from .messages import record

US_PER_SECOND = 1_000_000
US_PER_MINUTE = 60 * US_PER_SECOND
US_PER_HOUR = 60 * US_PER_MINUTE
US_PER_DAY = 24 * US_PER_HOUR
# later than any instant a run reaches
FOREVER = 1 << 62


class SimTime(int):
    """Simulated instant, microseconds since epoch 0: an int with a check.

    The library keeps time as plain int microseconds, so a `SimTime`
    passes wherever an int instant does. The type stays for the API's
    callers, the benchmark's workloads among them, which build instants
    with `from_seconds`, `at` and `plus_seconds`, read `micros`, and
    start ledgers at `EPOCH`.
    """

    __slots__ = ()

    def __new__(cls, micros: int) -> "SimTime":
        if micros < 0:
            raise ValueError(f"negative SimTime: {micros}")
        return super().__new__(cls, micros)

    @classmethod
    def from_seconds(cls, seconds: float) -> "SimTime":
        return cls(round(seconds * US_PER_SECOND))

    @classmethod
    def at(cls, day: int, hour: float = 0.0) -> "SimTime":
        return cls(day * US_PER_DAY + round(hour * US_PER_HOUR))

    @property
    def micros(self) -> int:
        return int(self)

    @property
    def seconds(self) -> float:
        return self / US_PER_SECOND

    def hhmm(self) -> str:
        minutes = self % US_PER_DAY // US_PER_MINUTE
        return f"{minutes // 60:02d}:{minutes % 60:02d}"

    def plus_seconds(self, seconds: float) -> "SimTime":
        return SimTime(self + round(seconds * US_PER_SECOND))


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
    """Base simulated node. Subclasses react to packets and timer wakeups.

    A node that flood segments may cross also defines ``on_run`` and, if
    it forwards them towards a node that splits runs, ``run_fate``; a node
    whose state the packets themselves can change defines ``run_split``
    (see the module docstring).
    """

    on_run = None
    run_fate = None
    run_split = None

    def __init__(self, sim: "Simulator", node_id: str):
        self.sim = sim
        self.node_id = node_id
        sim.add_node(self)

    def on_packet(self, packet: Packet) -> None:
        raise NotImplementedError

    def on_timer(self, token: object) -> None:
        raise NotImplementedError


class _Segment:
    """The packets first_us + k*interval_us of one flood, hop by hop.

    legs[h] holds, in order of k, the pieces [k_lo, k_hi, node_id, packet]
    on their way to their h-th hop; leg 0 is the source's own emission.
    next_us is the earliest instant at which one of them arrives.
    """

    __slots__ = ("first_us", "interval_us", "legs", "next_us")

    def __init__(self, first_us: int, interval_us: int, source: str,
                 packet: Packet, count: int):
        self.first_us = first_us
        self.interval_us = interval_us
        self.legs = [deque([[0, count, source, packet]])]
        self.next_us = first_us


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
        self.now_us = 0
        self.counters = TrafficCounters()
        self.trace: list[tuple[int, str, object]] | None = [] if keep_trace else None
        self.nodes: dict[str, Node] = {}
        self._queue: list[tuple[int, int, str, bool, object]] = []
        self._seq = itertools.count()
        self._exact_routes: dict[Ipv6Address, str] = {}
        self._prefix_routes: dict[int, str] = {}
        self._floods: list[_Segment] = []
        self._splits = 0  # segment packets delivered through on_packet

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

    def _route(self, dst: Ipv6Address) -> str | None:
        target = self._exact_routes.get(dst)
        if target is None:
            target = self._prefix_routes.get(dst.prefix)
        return target

    @property
    def now(self) -> SimTime:
        """The clock as a `SimTime`, for callers of the API."""
        return SimTime(self.now_us)

    # -- scheduling --------------------------------------------------------

    def schedule_at(self, fire_us: int, node_id: str, token: object) -> None:
        """Wake `node_id` with `token` (its `on_timer`) at `fire_us`."""
        if fire_us < self.now_us:
            raise PastEventError(f"event at {fire_us} us scheduled at {self.now_us} us")
        # a SimTime shrinks to a plain int here, so the clock is always one
        heapq.heappush(self._queue, (int(fire_us), next(self._seq), node_id,
                                     True, token))

    def call_at(self, fire_us: int, node_id: str, token: object) -> None:
        self.schedule_at(fire_us, node_id, token)

    def call_in(self, delay_s: float, node_id: str, token: object) -> None:
        if delay_s < 0:
            raise PastEventError(f"negative delay {delay_s} s at {self.now_us} us")
        heapq.heappush(self._queue, (self.now_us + round(delay_s * US_PER_SECOND),
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
        heapq.heappush(self._queue, (self.now_us + self._latency_us,
                                     next(self._seq), target, False, packet))
        return True

    def flood(self, source: str, packet: Packet, first_us: int,
              interval_us: int, count: int) -> bool:
        """Send `packet` from `source` `count` times, at first_us +
        k*interval_us, as one segment. False, with nothing scheduled, when
        the flood needs the per-packet path (see the module docstring)."""
        if first_us < self.now_us:
            raise PastEventError(f"flood at {first_us} us scheduled at {self.now_us} us")
        if self._loss > 0 or self.trace is not None or self._latency_us <= 0:
            return False
        first_hop = self._route(packet.dst)
        if first_hop == source or (first_hop is not None
                                   and self.nodes[first_hop].on_run is None):
            return False
        if count > 0:
            self._floods.append(_Segment(first_us, interval_us, source,
                                         packet, count))
        return True

    # -- event loop ----------------------------------------------------------

    def run_until(self, end_us: int) -> int:
        """Process every event at or before `end_us`; leaves the clock there."""
        processed = self._loop(end_us)
        if end_us > self.now_us:
            self.now_us = int(end_us)
        return processed

    def run(self) -> int:
        """Drain the queue and every flood segment entirely."""
        return self._loop(None)

    def pending(self) -> int:
        return len(self._queue)

    def _loop(self, limit_us: int | None) -> int:
        queue, nodes, counters = self._queue, self.nodes, self.counters
        trace, pop = self.trace, heapq.heappop
        processed, splits = 0, self._splits
        while True:
            while queue and (limit_us is None or queue[0][0] <= limit_us):
                us, seq, target, is_timer, payload = pop(queue)
                if us != self.now_us:
                    if self._floods and self._flow(us):
                        heapq.heappush(queue, (us, seq, target, is_timer,
                                               payload))
                        continue
                    self.now_us = us
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
            if not self._floods or not self._flow(
                    FOREVER if limit_us is None else limit_us + 1):
                return processed + self._splits - splits

    # -- flood segments ------------------------------------------------------

    def _flow(self, stop: int) -> bool:
        """Deliver the segment packets that arrive before `stop`, none before
        a queued event. True when a split packet queued an event before
        `stop`, which must run first."""
        queue, floods = self._queue, self._floods
        while True:
            limit = queue[0][0] if queue and queue[0][0] < stop else stop
            until, split = self._plan(limit)
            last = -1
            for segment in floods:
                if segment.next_us < until:
                    last = max(last, self._advance(segment, until))
            if last > self.now_us:
                self.now_us = last
            if split is not None:
                for segment in floods:
                    self._emit_before_split(segment, until)
                self._split(*split)
            elif until == limit:
                break
        if any(segment.next_us == FOREVER for segment in floods):
            floods[:] = [s for s in floods if s.next_us != FOREVER]
        return bool(queue) and queue[0][0] < stop

    def _plan(self, limit: int):
        """The next step: deliver what arrives before `until`, then `split`
        (segment, hop, k, node id, packet) on the packet path, if any.

        For every node with ``run_split``, the pieces bound for it are
        followed through the forward decisions of the hops before it, and
        the first contiguous run it will receive is asked for its split.
        The step ends there, or where that run ends: the node's state after
        the run is known only once the run is charged.
        """
        nodes, latency = self.nodes, self._latency_us
        runs: dict[str, list] = {}
        for segment in self._floods:
            if segment.next_us >= limit:
                continue
            interval = segment.interval_us
            heads: dict[tuple[int, str], list] = {}
            # a farther leg holds older packets: walk k in increasing order
            for hop in range(len(segment.legs) - 1, -1, -1):
                for k_lo, k_hi, node_id, packet in segment.legs[hop]:
                    h, node = hop, nodes[node_id]
                    while node.run_split is None:
                        packet = node.run_fate(packet)
                        node_id = None if packet is None else self._route(packet.dst)
                        if node_id is None:
                            break
                        h, node = h + 1, nodes[node_id]
                    else:
                        head = heads.get((h, node_id))
                        if head is None:
                            heads[h, node_id] = [k_lo, k_hi, packet, True]
                        elif head[3] and head[1] == k_lo and head[2] == packet:
                            head[1] = k_hi
                        else:
                            head[3] = False
            for (h, node_id), (k_lo, k_hi, packet, _) in heads.items():
                runs.setdefault(node_id, []).append(
                    (segment.first_us + k_lo * interval + h * latency,
                     interval, k_hi - k_lo, packet, segment, h, k_lo))
        until, split = limit, None
        for node_id, node_runs in runs.items():
            node_runs.sort(key=itemgetter(0))
            first, interval, count, packet, segment, h, k_lo = node_runs[0]
            if first >= until:
                continue
            other = FOREVER
            if len(node_runs) > 1:
                # the next run interleaves from its first packet on
                other = node_runs[1][0]
                count = min(count, -((first - other) // interval))
            # a packet at the instant another run starts goes alone
            j = nodes[node_id].run_split(packet, first, interval, count) if count else 0
            if j < count or not count:
                t, at = first + j * interval, (segment, h, k_lo + j, node_id, packet)
            else:
                t, at = min(first + count * interval, other), None
            if t < until:
                until, split = t, at
        return until, split

    def _advance(self, segment: _Segment, until: int) -> int:
        """Hand every packet of `segment` that arrives before `until` to its
        hop, nearest the source first; returns the last arrival handed."""
        nodes, counters = self.nodes, self.counters
        interval, legs = segment.interval_us, segment.legs
        base, last, h = segment.first_us, -1, 0
        while h < len(legs):
            leg = legs[h]
            k_end = -((base - until) // interval)
            while leg and leg[0][0] < k_end:
                piece = leg[0]
                k_lo, k_hi, node_id, packet = piece
                k_stop = k_hi if k_hi <= k_end else k_end
                count = k_stop - k_lo
                if h:
                    counters.in_flight -= count
                    counters.delivered += count
                out = nodes[node_id].on_run(packet, base + k_lo * interval,
                                            interval, count)
                if out is not None:
                    self._forward(segment, h + 1, k_lo, k_stop, out)
                if k_stop == k_hi:
                    leg.popleft()
                else:
                    piece[0] = k_stop
                last = max(last, base + (k_stop - 1) * interval)
            h += 1
            base += self._latency_us
        self._next_arrival(segment)
        return last

    def _forward(self, segment: _Segment, h: int, k_lo: int, k_hi: int,
                 packet: Packet) -> None:
        """`send` for the packets k_lo..k_hi-1, each at its own instant."""
        counters, count = self.counters, k_hi - k_lo
        counters.sent += count
        target = self._route(packet.dst)
        if target is None:
            counters.unroutable += count
            return
        counters.in_flight += count
        legs = segment.legs
        if h == len(legs):
            legs.append(deque())
        leg = legs[h]
        if leg:
            tail = leg[-1]
            if tail[1] == k_lo and tail[2] == target and tail[3] == packet:
                tail[1] = k_hi
                return
        leg.append([k_lo, k_hi, target, packet])

    def _split(self, segment: _Segment, h: int, k: int, node_id: str,
               packet: Packet) -> None:
        """Deliver packet k of leg h through the node's on_packet."""
        piece = segment.legs[h][0]
        if piece[0] != k or piece[2] != node_id:
            raise RuntimeError(f"split packet {k} is not next on leg {h}")
        self._take(segment, h, segment.first_us + k * segment.interval_us
                   + h * self._latency_us)
        self.counters.in_flight -= 1
        self.counters.delivered += 1
        self.nodes[node_id].on_packet(packet)

    def _emit_before_split(self, segment: _Segment, us: int) -> None:
        """Send the packet `segment` emits at `us` on the packet path, ahead
        of a split packet at that instant, if the per-packet path would
        have: its timer, set one interval earlier, then precedes the split
        packet's delivery, set one latency earlier. Anything the split
        sends then meets this packet one hop on in that order."""
        interval, leg = segment.interval_us, segment.legs[0]
        if (interval <= self._latency_us or not leg
                or segment.first_us + leg[0][0] * interval != us):
            return
        _, _, source, packet = self._take(segment, 0, us)
        packet = self.nodes[source].on_run(packet, us, interval, 1)
        if packet is not None:
            self.send(packet)

    def _take(self, segment: _Segment, h: int, us: int) -> list:
        """Take the next packet of leg h, due at `us`, to the packet path."""
        leg = segment.legs[h]
        piece = leg[0]
        piece[0] += 1
        if piece[0] == piece[1]:
            leg.popleft()
        self._next_arrival(segment)
        self.now_us = us
        self._splits += 1
        return piece

    def _next_arrival(self, segment: _Segment) -> None:
        interval, latency = segment.interval_us, self._latency_us
        best = FOREVER
        for h, leg in enumerate(segment.legs):
            if leg:
                best = min(best, segment.first_us + leg[0][0] * interval
                           + h * latency)
        segment.next_us = best
