"""Pass-through span recorder installed on dispo6's classes for a traced run.

Each wrapped public method records one span (name, start, end, parent) in
flat arrays and returns exactly what the original returned, so tracing
draws nothing from the simulator's RNG and cannot reorder events. Spans
stay in memory while the workload runs and are written out once it ends.
"""

import array
import functools
import importlib
import json
import sys
import time
from pathlib import Path

# Layer boundaries: span name -> (module, class or None, attributes).
# Every node handler is wrapped so that the engine's self time is the
# event loop alone.
SPANS = [
    ("engine.run", "engine", "Simulator", ["run_until", "run"]),
    ("engine.send", "engine", "Simulator", ["send"]),
    ("engine.schedule", "engine", "Simulator", ["schedule_at"]),
    ("home_agent.on_packet", "home_agent", "HomeAgent", ["on_packet"]),
    ("home_agent.intercept", "home_agent", "HomeAgent", ["intercept"]),
    ("home_agent.admin", "home_agent", "HomeAgent",
     ["reverse_tunnel", "process_binding_update", "generate_home_address",
      "block_address", "reactivate_address", "deconfigure_address"]),
    ("mobile_host.on_packet", "mobile_host", "MobileHost", ["on_packet"]),
    ("mobile_host.on_timer", "mobile_host", "MobileHost", ["on_timer"]),
    ("mobile_host.monitor", "mobile_host", "IntrusionMonitor", ["observe"]),
    ("caller.on_packet", "caller", "CallerNode", ["on_packet"]),
    ("caller.on_timer", "caller", "CallerNode", ["on_timer"]),
    ("caller.place_call", "caller", "CallerNode", ["place_call"]),
    ("distribution.handle_request", "distribution", "DistributionResponder",
     ["handle_request"]),
    ("distribution.session", "distribution", "InitiatorSession",
     ["__init__", "start", "on_message", "on_timer"]),
    ("crypto.verify", "crypto", "Ed25519Scheme", ["verify"]),
    ("crypto.sign", "crypto", "Ed25519Scheme", ["sign"]),
    ("crypto.keygen", "crypto", "Ed25519Scheme", ["generate"]),
    ("crypto.keygen", "crypto", "CertificateAuthority", ["issue"]),
    ("energy.on_packet", "energy", "EnergyAccount", ["on_packet"]),
    ("energy.advance", "energy", "EnergyAccount", ["advance"]),
    ("adversary.emit", "adversary", "Flooder", ["on_timer"]),
    ("adversary.on_packet", "adversary", "Flooder", ["on_packet"]),
    ("scenario.run", "scenario", None, ["run_scenario"]),
    ("scenario.write", "scenario", None,
     ["write_call_log", "write_daily_series", "write_metrics_json",
      "write_battery_series"]),
    ("cli", "cli", None, ["main"]),
]

# Count-only boundaries, too fine-grained for a span each.
COUNTS = [
    ("addressing.new", "addressing", "Ipv6Address", "__init__"),
    ("addressing.hash_calls", "addressing", "Ipv6Address", "__hash__"),
    ("distribution.challenges", "distribution", "HipGate", "issue"),
]

MGMT_ATTRS = {"generate_home_address", "block_address", "reactivate_address",
              "deconfigure_address"}

# Certificate issuance signs; that signature belongs to key set-up, not to
# the handshake's crypto.sign.
ABSORBING = "crypto.keygen"


class Recorder:
    """Flat span store plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array.array("i")
        self.parents = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, tally=None):
        """Wrap `fn` in a span; `tally(result)` may add to the counters."""
        name_id = self._name_id(name)
        stack, ids, parents = self._stack, self.name_ids, self.parents
        starts, ends, clock = self.starts, self.ends, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(ids)
            ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[index] = t0
                ends[index] = t1
            if tally is not None:
                tally(result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def write(self, path: Path) -> None:
        """Dump every span: a JSON header line, then the four raw arrays."""
        with open(path, "wb") as handle:
            header = {"names": self.names, "spans": len(self.name_ids),
                      "arrays": ["name_id:i", "parent:i", "start:d", "end:d"],
                      "counts": self.counts}
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_ids, self.parents, self.starts, self.ends):
                column.tofile(handle)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive total_s and self_s (total minus children)."""
        names, ids, parents = self.names, self.name_ids, self.parents
        starts, ends = self.starts, self.ends
        absorbing = self._name_ids.get(ABSORBING, -2)
        stats = {name: [0, 0.0, 0.0] for name in names}
        rows = [stats[name] for name in names]
        child = array.array("d", bytes(8 * len(ids)))
        # children are recorded after their parent, so walking backwards
        # finishes every child before its parent is visited
        for i in range(len(ids) - 1, -1, -1):
            duration = ends[i] - starts[i]
            parent = parents[i]
            if parent >= 0:
                child[parent] += duration
                if ids[parent] == absorbing:
                    continue
            row = rows[ids[i]]
            row[0] += 1
            row[1] += duration
            row[2] += duration - child[i]
        return {name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in stats.items()}


def install(recorder: Recorder) -> None:
    """Replace each boundary with its pass-through wrapper, in every module
    of the package that holds a reference to it."""
    from dispo6.distribution import GrantAction

    def tally_for(name: str, attr: str):
        if name == "engine.run":
            return lambda processed: recorder.add("engine.events", processed)
        if name == "distribution.handle_request":
            return lambda action: recorder.add(
                "distribution.grants",
                isinstance(action, GrantAction))
        if attr in MGMT_ATTRS:
            return lambda _: recorder.add("home_agent.mgmt")
        return None

    for name, module, cls, attrs in SPANS:
        owner = importlib.import_module(f"dispo6.{module}")
        if cls is not None:
            owner = getattr(owner, cls)
        for attr in attrs:
            original = owner.__dict__[attr]
            wrapped = recorder.span(name, original, tally_for(name, attr))
            if cls is None:
                _rebind_function(original, wrapped)
            else:
                setattr(owner, attr, wrapped)
    for name, module, cls, attr in COUNTS:
        owner = getattr(importlib.import_module(f"dispo6.{module}"), cls)
        setattr(owner, attr, recorder.counter(name, owner.__dict__[attr]))
    for name in ("engine.events", "distribution.grants", "home_agent.mgmt"):
        recorder.counts.setdefault(name, 0)


def _rebind_function(original, wrapped) -> None:
    for module_name, module in list(sys.modules.items()):
        if module_name == "dispo6" or module_name.startswith("dispo6."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


def layer_metrics(stats: dict[str, dict[str, float]], counts: dict[str, int],
                  program_counters: dict[str, int]) -> dict[str, float]:
    """Map one traced repeat onto the benchmark's per-layer metric names."""

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def self_s(name):
        return stats.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return stats.get(name, {}).get("total_s", 0.0)

    requests = calls("distribution.handle_request")
    grants = counts["distribution.grants"]
    return {
        "engine.events": counts["engine.events"],
        "engine.self_s": self_s("engine.run"),
        "engine.send.calls": calls("engine.send"),
        "engine.send.self_s": self_s("engine.send"),
        "engine.schedule.calls": calls("engine.schedule"),
        "engine.schedule.self_s": self_s("engine.schedule"),
        "addressing.new": counts["addressing.new"],
        "addressing.hash_calls": counts["addressing.hash_calls"],
        "home_agent.on_packet.calls": calls("home_agent.on_packet"),
        "home_agent.on_packet.self_s": self_s("home_agent.on_packet"),
        "home_agent.intercept.calls": calls("home_agent.intercept"),
        "home_agent.intercept.self_s": self_s("home_agent.intercept"),
        "home_agent.dropped_blocked": program_counters["home_agent.dropped_blocked"],
        "home_agent.admin.calls": calls("home_agent.admin"),
        "home_agent.admin.self_s": self_s("home_agent.admin"),
        "home_agent.mgmt.calls": counts["home_agent.mgmt"],
        "mobile_host.on_packet.calls": calls("mobile_host.on_packet"),
        "mobile_host.on_packet.self_s": self_s("mobile_host.on_packet"),
        "mobile_host.monitor.calls": calls("mobile_host.monitor"),
        "mobile_host.monitor.self_s": self_s("mobile_host.monitor"),
        "mobile_host.on_timer.calls": calls("mobile_host.on_timer"),
        "mobile_host.on_timer.self_s": self_s("mobile_host.on_timer"),
        "mobile_host.disposals": program_counters["mobile_host.disposals"],
        "caller.on_packet.self_s": self_s("caller.on_packet"),
        "caller.on_timer.self_s": self_s("caller.on_timer"),
        "caller.place_call.calls": calls("caller.place_call"),
        "distribution.requests": requests,
        "distribution.handle_request.self_s": self_s("distribution.handle_request"),
        "distribution.session.self_s": self_s("distribution.session"),
        "distribution.grant_ratio": grants / requests if requests else 0.0,
        "distribution.challenges": counts["distribution.challenges"],
        "crypto.verify.calls": calls("crypto.verify"),
        "crypto.verify.total_s": total_s("crypto.verify"),
        "crypto.verifies_per_grant": calls("crypto.verify") / grants if grants else 0.0,
        "crypto.sign.calls": calls("crypto.sign"),
        "crypto.sign.total_s": total_s("crypto.sign"),
        "crypto.keygen.calls": calls("crypto.keygen"),
        "crypto.keygen.total_s": total_s("crypto.keygen"),
        "energy.on_packet.calls": calls("energy.on_packet"),
        "energy.on_packet.self_s": self_s("energy.on_packet"),
        "energy.advance.calls": calls("energy.advance"),
        "energy.advance.self_s": self_s("energy.advance"),
        "adversary.emit.calls": calls("adversary.emit"),
        "adversary.emit.self_s": self_s("adversary.emit"),
        "scenario.self_s": self_s("scenario.run"),
        "scenario.write_s": total_s("scenario.write"),
        "cli.self_s": self_s("cli"),
    }
