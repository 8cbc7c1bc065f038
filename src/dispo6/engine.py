"""Deterministic discrete-event engine: virtual time, nodes, message delivery.

A seed drives two PRNGs: the engine's ``rng``, shared by the protocol
(keys, interface ids, care-of addresses, SA tags), and the scenario's
workload stream (call days and hours, attack starts), so what the protocol
draws never moves a call. A (seed, scenario) pair fully determines a run.
Time is fixed-point integer microseconds to keep day/hour arithmetic exact
over 1000-day horizons.

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
is integrated lazily, in one place: before the event loop pops each
event, and before `run_until` returns, each hop takes every packet that
reached it before the next queued event in one call of its
``on_run(packet, first_us, interval_us, count)``, which charges the
packets in closed form and returns the packet it forwards for each of
them, or None. A run of no packets (``count`` 0) changes nothing and
returns what each packet of a run would be forwarded as. The traffic
counters move by ``count`` at once, so they balance at every instant. Hop
state changes only at queued events and at split packets (below), so a
piece is uniform between them.

A step is planned, then advanced. The plan follows every piece through
the hops it will cross, asking each what it forwards with a run of no
packets, to the first node that splits runs or has no ``on_run``, and
ends the step before the first packet that must go through ``on_packet``
(below), or where the first run such a node receives ends. The advance
then walks the legs once, nearest the source first: it hands each hop its
due packets, queues what the hop forwards on the next leg, and notes the
leg's next arrival as it leaves it.

A segment splits into single packets only where a hop's state changes
because of the packets themselves, or where a hop has no closed form. A
node that can change that way defines ``run_split(packet, first_us,
interval_us, count)``: the index of the first packet of a run that must
go through ``on_packet``. The plan asks it for that index on the run that
will reach it, and follows that run on past it, so that what it forwards
is seen before any of it arrives. A node without ``on_run`` splits at
every packet: the packets bound for it leave the segment there and reach
it one at a time. A split packet is delivered through ``on_packet`` at
its own instant, the way the per-packet path delivers every packet, and
whatever it sends is a single packet.

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

Step caches. `HomeAgent._tunneled`, `MobileHost._run_reply` and
`EnergyAccount` each document the cache it keeps of what a step's runs
rebuild. The engine merges a forwarded run into the leg's last piece when
the packets match, comparing by identity first, which a reused packet
meets. It keeps nothing of a plan: a step builds one list per run it
plans and one dict of them, and sorts a node's runs only when it has more
than one.
"""

import heapq
import itertools
import random
from collections import deque
from dataclasses import dataclass
from operator import itemgetter

from .addressing import IID_BITS, Ipv6Address
from .messages import record

US_PER_SECOND = 1_000_000
US_PER_MINUTE = 60 * US_PER_SECOND
US_PER_HOUR = 60 * US_PER_MINUTE
US_PER_DAY = 24 * US_PER_HOUR
# later than any instant a run reaches
FOREVER = 1 << 62
# one-way delivery latency of the simulated link, in seconds
LINK_LATENCY_S = 0.05


def day_hour_us(day: int, hour: float = 0.0) -> int:
    """The instant `hour` hours into day `day`, in int microseconds."""
    return day * US_PER_DAY + round(hour * US_PER_HOUR)


def hhmm(micros: int) -> str:
    """Time of day of an instant in int microseconds, as 'hh:mm'."""
    minutes = micros % US_PER_DAY // US_PER_MINUTE
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


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
        return cls(day_hour_us(day, hour))

    @property
    def micros(self) -> int:
        return int(self)

    def plus_seconds(self, seconds: float) -> "SimTime":
        return SimTime(self + round(seconds * US_PER_SECOND))


EPOCH = SimTime(0)


@record
class Packet:
    """Routable unit: addresses plus an opaque payload."""

    src: Ipv6Address
    dst: Ipv6Address
    payload: object


@dataclass(slots=True)
class TrafficCounters:
    """Engine-level accounting. sent = delivered + lost + unroutable + in_flight.

    The link is lossless, so `lost` stays 0; it is kept as a key of the
    run's metrics."""

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

    A node that flood segments may cross also defines ``on_run``, which
    takes a run of them and returns what it forwards for each; a node
    whose state the packets themselves can change defines ``run_split``
    (see the module docstring). A node without ``on_run`` takes segment
    packets one at a time, through ``on_packet``.
    """

    on_run = None
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
    next_us is the earliest instant at which one of them arrives; after a
    split it is the split's instant, until the next `_advance` finds it.
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

    def __init__(self, seed: int = 0, latency_s: float = LINK_LATENCY_S):
        self.rng = random.Random(seed)
        # every routed packet takes this long; a flood segment orders its
        # hops by it, so it is a whole microsecond or more
        self._latency_us = round(latency_s * US_PER_SECOND)
        if self._latency_us < 1:
            raise ValueError(f"latency {latency_s} s is under 1 us")
        self.now_us = 0
        self.counters = TrafficCounters()
        self.nodes: dict[str, Node] = {}
        self._queue: list[tuple[int, int, str, bool, object]] = []
        self._seq = itertools.count()
        self._exact_routes: dict[Ipv6Address, str] = {}
        self._prefix_routes: dict[int, str] = {}
        self._floods: list[_Segment] = []
        self._splits = 0  # segment packets delivered through on_packet
        self._spent = False  # a segment in _floods has no packet left

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
        """The node `dst` reaches: its own route, else its /64 prefix's;
        None when it is unroutable. The one lookup of the route tables."""
        target = self._exact_routes.get(dst)
        if target is None:
            target = self._prefix_routes.get(dst >> IID_BITS)
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
        self.schedule_at(self.now_us + round(delay_s * US_PER_SECOND), node_id,
                         token)

    def send(self, packet: Packet) -> bool:
        """Route a packet. Returns True if a delivery event was scheduled.

        Unroutable destinations are black-holed with a counter, the way the
        Internet swallows traffic to deconfigured addresses.
        """
        counters = self.counters
        counters.sent += 1
        target = self._route(packet.dst)
        if target is None:
            counters.unroutable += 1
            return False
        counters.in_flight += 1
        heapq.heappush(self._queue, (self.now_us + self._latency_us,
                                     next(self._seq), target, False, packet))
        return True

    def flood(self, source: str, packet: Packet, first_us: int,
              interval_us: int, count: int) -> bool:
        """Send `packet` from `source` `count` times, at first_us +
        k*interval_us, as one segment. False, with nothing scheduled, when
        the flood needs the per-packet path: its first hop is its source or
        has no closed form (no ``on_run``)."""
        if first_us < self.now_us:
            raise PastEventError(f"flood at {first_us} us scheduled at {self.now_us} us")
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
        processed = self._loop(end_us + 1)
        if end_us > self.now_us:
            self.now_us = int(end_us)
        return processed

    def run(self) -> int:
        """Drain the queue and every flood segment entirely."""
        return self._loop(FOREVER)

    def pending(self) -> int:
        """Number of events the per-packet path would have queued: timers
        and packets in flight. A flood segment counts as its source's
        emission timer while it has packets to emit, plus one for each of
        its packets in flight to a later hop."""
        count = len(self._queue)
        for segment in self._floods:
            legs = segment.legs
            count += bool(legs[0])
            for h in range(1, len(legs)):
                for k_lo, k_hi, _, _ in legs[h]:
                    count += k_hi - k_lo
        return count

    def _loop(self, stop: int) -> int:
        """Process every event before `stop`."""
        queue, nodes, counters = self._queue, self.nodes, self.counters
        pop = heapq.heappop
        processed, splits = 0, self._splits
        while True:
            if self._floods:
                self._flow(stop)
            if not queue or queue[0][0] >= stop:
                return processed + self._splits - splits
            us, _, target, is_timer, payload = pop(queue)
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
            node.on_packet(payload)

    # -- flood segments ------------------------------------------------------

    def _flow(self, stop: int) -> None:
        """Deliver the segment packets due before `stop` and before the next
        queued event, read again after each split, which may queue one."""
        queue, floods = self._queue, self._floods
        while True:
            limit = queue[0][0] if queue and queue[0][0] < stop else stop
            until, split = self._plan(limit)
            last = -1
            for segment in floods:
                if segment.next_us < until:
                    handed = self._advance(segment, until)
                    if handed > last:
                        last = handed
            if last > self.now_us:
                self.now_us = last
            if split is not None:
                for segment in floods:
                    self._emit_before_split(segment, until)
                self._split(*split)
            elif until == limit:
                break
        if self._spent:
            self._spent = False
            floods[:] = [s for s in floods if s.next_us != FOREVER]

    def _plan(self, limit: int):
        """The next step: deliver what arrives before `until`, then `split`
        (segment, hop, k, node id, packet) on the packet path, if any.

        Each piece is followed to the first node that splits runs or has
        no closed form, and the first contiguous run that node will
        receive is asked for its split. Past a node that splits runs, the
        piece that starts its run is followed on: the pieces merged into
        that run carry the same packet, so they go the same way. The step
        ends at the earliest split, or where that run ends: the node's
        state after the run is known only once the run is charged.
        """
        nodes, latency, route = self.nodes, self._latency_us, self._route
        # node id -> its runs [first_us, k_hi, packet, contiguous, segment,
        # hop, k_lo], in the order the walk found them
        runs = {}
        for segment in self._floods:
            if segment.next_us >= limit:
                continue
            legs, interval = segment.legs, segment.interval_us
            # where the last piece's walk began, and the first run it
            # reached: a walk that gets there goes the same way from there
            # (without it `flood_drain` wall_s was 0.1529 s, not 0.1488 s)
            seen_h, seen_id, seen_packet, seen_run = -1, None, None, None
            # a farther leg holds older packets: walk k in increasing order
            for hop in range(len(legs) - 1, -1, -1):
                for k_lo, k_hi, start_id, start_packet in legs[hop]:
                    h, node_id, packet, reached = hop, start_id, start_packet, None
                    while True:
                        if (h == seen_h and packet is seen_packet
                                and node_id == seen_id):
                            run = seen_run
                            if run is not None:
                                if run[3] and run[1] == k_lo:
                                    run[1] = k_hi
                                else:
                                    run[3] = False
                                reached = reached or run
                            break
                        node = nodes[node_id]
                        on_run = node.on_run
                        if on_run is None or node.run_split is not None:
                            node_runs = runs.get(node_id)
                            if node_runs is None:
                                node_runs = runs[node_id] = []
                            for run in node_runs:
                                if run[4] is segment and run[5] == h:
                                    if run[3] and run[1] == k_lo and (
                                            run[2] is packet or run[2] == packet):
                                        run[1] = k_hi
                                    else:
                                        run[3] = False
                                    on_run = None
                                    break
                            else:
                                run = [segment.first_us + k_lo * interval
                                       + h * latency, k_hi, packet, True,
                                       segment, h, k_lo]
                                node_runs.append(run)
                            reached = reached or run
                        if on_run is None:
                            break
                        # a run of no packets changes nothing and says
                        # what each packet of the run is forwarded as
                        packet = on_run(packet, 0, 0, 0)
                        if packet is None:
                            break
                        node_id = route(packet.dst)
                        if node_id is None:
                            break
                        h += 1
                    seen_h, seen_id, seen_packet, seen_run = (
                        hop, start_id, start_packet, reached)
        until, split = limit, None
        for node_id, node_runs in runs.items():
            if len(node_runs) > 1:
                node_runs.sort(key=itemgetter(0))
            first, k_hi, packet, _, segment, h, k_lo = node_runs[0]
            if first >= until:
                continue
            interval, count, other = segment.interval_us, k_hi - k_lo, FOREVER
            if len(node_runs) > 1:
                # the next run interleaves from its first packet on
                other = node_runs[1][0]
                count = min(count, -((first - other) // interval))
            # a packet at the instant another run starts goes alone
            run_split = nodes[node_id].run_split
            j = run_split(packet, first, interval, count) if (
                count and run_split is not None) else 0
            if j < count or not count:
                t, at = first + j * interval, (segment, h, k_lo + j, node_id, packet)
            else:
                t, at = first + count * interval, None
                if other < t:
                    t = other
            if t < until:
                until, split = t, at
        return until, split

    def _advance(self, segment: _Segment, until: int) -> int:
        """Hand every packet of `segment` that arrives before `until` to its
        hop, nearest the source first, and set the segment's next arrival;
        returns the last arrival handed."""
        nodes, counters = self.nodes, self.counters
        interval, latency = segment.interval_us, self._latency_us
        last, next_us = -1, FOREVER
        # a list iterator also yields the legs that _forward appends
        for h, leg in enumerate(segment.legs):
            if leg:
                base = segment.first_us + h * latency
                k_end = -((base - until) // interval)
                k_stop = 0
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
                if k_stop and base + (k_stop - 1) * interval > last:
                    last = base + (k_stop - 1) * interval
                # nothing reaches this leg again before the next step (a
                # second walk over the legs took `flood_drain` wall_s to
                # 0.1505 s from 0.1483 s)
                if leg and base + leg[0][0] * interval < next_us:
                    next_us = base + leg[0][0] * interval
        segment.next_us = next_us
        if next_us == FOREVER:
            self._spent = True
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
            if tail[1] == k_lo and tail[2] == target and (
                    tail[3] is packet or tail[3] == packet):
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
        segment.next_us = us
        self.now_us = us
        self._splits += 1
        return piece
