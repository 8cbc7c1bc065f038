from dataclasses import dataclass

import pytest

from dispo6.addressing import Ipv6Address, NameService
from dispo6.crypto import CertificateAuthority, Ed25519Scheme
from dispo6.engine import Simulator
from dispo6.home_agent import HomeAgent

HOME_PREFIX = 0x20010DB800010000
VISITED_PREFIX = 0x20010DB801000000
PEER_PREFIX = 0x20010DB800CC0000
ATTACKER_PREFIX = 0x20010DB8BEEF0000


@dataclass
class World:
    sim: Simulator
    names: NameService
    agent: HomeAgent
    scheme: Ed25519Scheme | None
    ca: CertificateAuthority | None


@pytest.fixture
def make_world():
    def build(seed: int = 0, latency_s: float = 0.05,
              pki: bool = False) -> World:
        sim = Simulator(seed, latency_s)
        names = NameService()
        scheme = Ed25519Scheme() if pki else None
        ca = CertificateAuthority(scheme, sim.rng) if pki else None
        agent = HomeAgent(sim, "home-agent", HOME_PREFIX)
        return World(sim=sim, names=names, agent=agent, scheme=scheme, ca=ca)

    return build


def record_deliveries(sim: Simulator) -> list[tuple[int, str, object]]:
    """(instant in us, node id, packet) for each packet that a node of
    `sim`, as it stands now, takes through `on_packet` from now on, in
    delivery order. The runs of a flood segment (`on_run`) are not listed."""
    deliveries = []
    for node in sim.nodes.values():
        def spy(packet, node_id=node.node_id, original=node.on_packet):
            deliveries.append((sim.now_us, node_id, packet))
            original(packet)

        node.on_packet = spy
    return deliveries


def binding_of(agent: HomeAgent, host_id: str) -> Ipv6Address | None:
    """The care-of address that `agent` tunnels `host_id`'s home
    addresses to."""
    return agent._hosts[host_id].care_of


def home_addresses(agent: HomeAgent, host_id: str) -> set[Ipv6Address]:
    """Every home address `agent` has allocated to `host_id`, in any state."""
    return {hoa for hoa, entry in agent._entries.items()
            if entry.owner == host_id}
