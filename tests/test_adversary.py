import math

import pytest

from dispo6.addressing import AddressState, Ipv6Address
from dispo6.adversary import (
    FOUR_HOUR_SCHEDULE,
    SIX_HOUR_SCHEDULE,
    AttackSchedule,
    Flooder,
    block_prime_window,
    run_scheduled_prime_attack,
)
from dispo6.energy import (
    DEFAULT_PARAMS,
    Battery,
    EnergyAccount,
    drain_rate,
    flood_profile,
    lifetime_under,
)
from dispo6.engine import EPOCH, US_PER_SECOND, SimTime, day_hour_us
from dispo6.caller import CallOutcome, StartCall
from dispo6.mobile_host import Mode
from dispo6.distribution import RequestOutcome
from attackers import PerSourceFilter, SpitCaller
from test_mobile_host import call_once, make_caller, make_host
from conftest import ATTACKER_PREFIX

ATTACKER_ADDR = Ipv6Address(ATTACKER_PREFIX, 0xA)


def flood(world, target, rate, seconds, spoof=False, start_s=0.0):
    flooder = Flooder(world.sim, "flooder", ATTACKER_ADDR)
    flooder.flood_between(SimTime.from_seconds(start_s),
                          SimTime.from_seconds(start_s + seconds),
                          target, rate, spoof=spoof)
    return flooder


def count_simtime_builds(monkeypatch) -> list[int]:
    """The instants of every `SimTime` built until `monkeypatch.undo()`."""
    built = []
    new = SimTime.__new__

    def counting_new(cls, micros):
        built.append(micros)
        return new(cls, micros)

    monkeypatch.setattr(SimTime, "__new__", counting_new)
    return built


class TestFlooder:
    def test_emission_rate_and_replies(self, make_world):
        world = make_world()
        host = make_host(world, detection_threshold_pps=1e9)
        caller = make_caller(world)
        hoa = host.grant_out_of_band(caller.fqdn)
        flooder = flood(world, hoa, rate=100, seconds=10)
        world.sim.run()
        assert flooder.stats.sent == 1000
        assert flooder.stats.replies_received == 1000  # victim pongs back

    def test_spoofed_sources_unique_and_futile_to_filter(self, make_world):
        world = make_world()
        sources = []
        original_send = world.sim.send

        def spy(packet):
            sources.append(packet.src)
            return original_send(packet)

        world.sim.send = spy
        flood(world, Ipv6Address(0x9999, 1), rate=1000, seconds=10, spoof=True)
        world.sim.run()
        assert len(sources) == 10_000
        assert len(set(sources)) == len(sources)  # uniform 128-bit draws
        victim_filter = PerSourceFilter(strikes=1)
        filtered = sum(0 if victim_filter.admit(src) else 1 for src in sources)
        assert filtered / len(sources) < 0.01

    def test_flood_between_validation(self, make_world):
        world = make_world()
        flooder = Flooder(world.sim, "flooder", ATTACKER_ADDR)
        with pytest.raises(ValueError, match="rate"):
            flooder.flood_between(EPOCH, EPOCH, ATTACKER_ADDR, 0)
        with pytest.raises(ValueError, match="stops before"):
            flooder.flood_between(SimTime.from_seconds(2),
                                  SimTime.from_seconds(1), ATTACKER_ADDR, 1)
        # packets less than 0.5 us apart would all leave at one instant
        with pytest.raises(ValueError, match="rate"):
            flooder.flood_between(EPOCH, SimTime.from_seconds(1),
                                  ATTACKER_ADDR, 3e6)
        assert world.sim.pending() == 0

    @pytest.mark.parametrize("rate", [-1.0, math.nan, math.inf, 1e-320])
    def test_flood_between_refuses_a_rate_without_a_finite_step(
            self, make_world, rate):
        # 1 / 1e-320 overflows to inf, whose round() raised OverflowError
        world = make_world()
        flooder = Flooder(world.sim, "flooder", ATTACKER_ADDR)
        with pytest.raises(ValueError, match="rate"):
            flooder.flood_between(EPOCH, SimTime.from_seconds(1),
                                  ATTACKER_ADDR, rate)
        assert world.sim.pending() == 0


class TestFloodEnergy:
    def make_energized_host(self, world, timeout_s=10.0):
        account = EnergyAccount(Battery(), DEFAULT_PARAMS, timeout_s, EPOCH)
        return make_host(world, energy=account, detection_threshold_pps=1e9), account

    def test_flood_on_active_address_matches_drain_curve(self, make_world):
        world = make_world()
        host, account = self.make_energized_host(world)
        caller = make_caller(world)
        hoa = host.grant_out_of_band(caller.fqdn)
        seconds = 600
        flood(world, hoa, rate=100, seconds=seconds)
        world.sim.run()
        account.advance(world.sim.now)
        consumed = account.battery.capacity - account.remaining
        expected = world.sim.now / US_PER_SECOND * drain_rate(
            DEFAULT_PARAMS, flood_profile(100))
        # event horizon ends one latency after the last emission
        assert consumed == pytest.approx(expected, rel=2e-3)

    def test_flood_takes_few_events(self, make_world):
        # a segment crosses the agent, the host and the ledger in closed
        # form; one timer and four deliveries per ping would be ~5 events
        world = make_world()
        host, account = self.make_energized_host(world)
        hoa = host.grant_out_of_band(make_caller(world).fqdn)
        flood(world, hoa, rate=100, seconds=600)
        processed = world.sim.run()
        assert host.counters.pings == 60_000
        assert processed < 0.01 * host.counters.pings

    def test_paper_exhaustion_run(self, make_world):
        """The paper's 3.75 h battery exhaustion under 100 pkt/s."""
        world = make_world()
        host, account = self.make_energized_host(world)
        hoa = host.grant_out_of_band(make_caller(world).fqdn)
        lifetime_s = 3600.0 * lifetime_under(DEFAULT_PARAMS, Battery(),
                                             flood_profile(100))
        assert lifetime_s == pytest.approx(3.75 * 3600)
        flood(world, hoa, rate=100, seconds=1.1 * lifetime_s)
        world.sim.run()
        assert account.dead
        assert account.dead_at / US_PER_SECOND == pytest.approx(lifetime_s, rel=2e-3)
        assert account.balanced()
        assert host.counters.pings == pytest.approx(100 * lifetime_s, rel=2e-3)

    def test_flood_on_blocked_address_is_idle_drain(self, make_world):
        world = make_world()
        host, account = self.make_energized_host(world)
        caller = make_caller(world)
        hoa = host.grant_out_of_band(caller.fqdn)
        host.dispose_address(hoa)
        world.sim.run()
        packets_before = account.packets
        flood(world, hoa, rate=100, seconds=600, start_s=1.0)
        world.sim.run()
        assert account.packets == packets_before  # nothing reached the radio
        account.advance(world.sim.now)
        # pure state drain, no per-packet costs beyond the disposal exchange
        assert account.consumed_packets < 10 * DEFAULT_PARAMS.e_tx

    def test_sleep_deprivation_exact_rate_blocks_powersave(self, make_world):
        world = make_world()
        host, account = self.make_energized_host(world, timeout_s=10.0)
        caller = make_caller(world)
        hoa = host.grant_out_of_band(caller.fqdn)
        flood(world, hoa, rate=1.0 / 10.0, seconds=2000)
        world.sim.run()
        assert account.powersave_fraction(world.sim.now) == 0.0

    def test_half_rate_allows_powersave(self, make_world):
        world = make_world()
        host, account = self.make_energized_host(world, timeout_s=10.0)
        caller = make_caller(world)
        hoa = host.grant_out_of_band(caller.fqdn)
        flood(world, hoa, rate=1.0 / 20.0, seconds=2000)
        world.sim.run()
        assert account.powersave_fraction(world.sim.now) > 0.0

    def test_run_builds_no_simtime_but_the_death_record(self, make_world,
                                                        monkeypatch):
        # scheduled calls, a segment flood, a per-packet flood and the
        # ledger all keep time as int us; the only SimTime a run builds is
        # the instant the battery dies
        world = make_world()
        lifetime_s = 60.0
        battery = Battery(capacity=lifetime_s * drain_rate(DEFAULT_PARAMS,
                                                           flood_profile(100)))
        account = EnergyAccount(battery, DEFAULT_PARAMS, 10.0, EPOCH)
        host = make_host(world, energy=account, detection_threshold_pps=1e9)
        outcomes = []
        callers = [make_caller(world, i) for i in range(3)]
        for i, caller in enumerate(callers):
            caller.on_start_call = lambda node, token: node.place_call(
                token.target_fqdn, outcomes.append)
            for k in range(2):
                world.sim.call_at(SimTime.from_seconds(1 + 10 * k + i),
                                  caller.node_id, StartCall(host.fqdn, 0, i, False))
        hoa = host.grant_out_of_band(callers[0].fqdn)
        flooder = flood(world, hoa, rate=100, seconds=2 * lifetime_s)
        flooder.flood_between(EPOCH, SimTime.from_seconds(30), host.prime, 5.0,
                              spoof=True)
        built = count_simtime_builds(monkeypatch)
        world.sim.run_until(30 * US_PER_SECOND)
        world.sim.run()
        monkeypatch.undo()
        assert len(outcomes) == 6 and host.counters.pings > 100 * 30
        assert account.dead
        assert built == [account.dead_at]


class TestAttackSchedule:
    def test_presets_match_published_setup(self):
        assert FOUR_HOUR_SCHEDULE.daily_hours == 4
        assert FOUR_HOUR_SCHEDULE.start_choices == (8, 12, 16)
        assert FOUR_HOUR_SCHEDULE.paper_rejection_probability() == pytest.approx(1 / 9)
        assert SIX_HOUR_SCHEDULE.daily_hours == 6
        assert SIX_HOUR_SCHEDULE.start_choices == (8, 14)
        assert SIX_HOUR_SCHEDULE.paper_rejection_probability() == pytest.approx(1 / 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            AttackSchedule(daily_hours=5, start_choices=(8,))
        with pytest.raises(ValueError):
            AttackSchedule(daily_hours=6, start_choices=(21,))
        with pytest.raises(ValueError):
            AttackSchedule(daily_hours=4, start_choices=())

    @pytest.mark.parametrize("schedule,fraction", [
        (FOUR_HOUR_SCHEDULE, 4 / 12), (SIX_HOUR_SCHEDULE, 6 / 12)])
    def test_schedule_measure_over_many_days(self, schedule, fraction):
        import random

        rng = random.Random(123)
        days = 10_000
        covered_hours = 0.0
        for _ in range(days):
            start = schedule.draw_start(rng)
            overlap = min(start + schedule.daily_hours, 20) - max(start, 8)
            covered_hours += max(0.0, overlap)
        measured = covered_hours / (days * 12.0)
        assert measured == pytest.approx(fraction, rel=0.01)

    def test_draws_cover_all_choices(self):
        import random

        rng = random.Random(5)
        seen = {FOUR_HOUR_SCHEDULE.draw_start(rng) for _ in range(200)}
        assert seen == {8, 12, 16}


class TestScheduledPrimeAttack:
    def test_window_mode_blocks_requests_inside_window_only(self, make_world):
        world = make_world(pki=True)
        host = make_host(world)
        block_prime_window(world.sim, host, day_hour_us(0, 8),
                           day_hour_us(0, 12))
        results = []
        caller_in = make_caller(world, i=1)
        caller_out = make_caller(world, i=2)
        inside = SimTime.at(0, 9)
        outside = SimTime.at(0, 13)
        world.sim.run_until(inside)
        caller_in.request_address(host.fqdn, results.append)
        world.sim.run_until(inside.plus_seconds(30))
        assert results[-1].outcome is RequestOutcome.TIMEOUT
        world.sim.run_until(outside)
        caller_out.request_address(host.fqdn, results.append)
        world.sim.run_until(outside.plus_seconds(30))
        assert results[-1].outcome is RequestOutcome.GRANTED

    def test_an_earlier_alert_does_not_cut_the_window_short(self, make_world):
        """The alert's 60 s reopening falls inside the window, and the
        window's end, not the alert, reopens the prime."""
        world = make_world()
        host = make_host(world)
        flood(world, host.prime, 50.0, 10.0)
        block_prime_window(world.sim, host, 30 * US_PER_SECOND,
                           3600 * US_PER_SECOND)
        for at_s, state in ((100, AddressState.BLOCKED),
                            (1800, AddressState.BLOCKED),
                            (3601, AddressState.ACTIVE)):
            world.sim.run_until(at_s * US_PER_SECOND)
            assert host.address_states[host.prime] is state
            assert world.agent.state_of(host.prime) is state
        assert host.counters.alerts == 1

    def test_windows_are_scheduled_without_simtime(self, make_world,
                                                   monkeypatch):
        world = make_world()
        host = make_host(world)
        flooder = Flooder(world.sim, "flooder", ATTACKER_ADDR)
        built = count_simtime_builds(monkeypatch)
        run_scheduled_prime_attack(world.sim, host, FOUR_HOUR_SCHEDULE,
                                   horizon_days=3, flooder=flooder,
                                   flood_rate_pps=100.0)
        monkeypatch.undo()
        assert built == []
        world.sim.run()
        # three 4-hour windows at 100 pkt/s
        assert flooder.stats.sent == 3 * 4 * 3600 * 100

    def test_horizon_zero_schedules_nothing(self, make_world):
        world = make_world()
        host = make_host(world)
        flooder = Flooder(world.sim, "flooder", ATTACKER_ADDR)
        run_scheduled_prime_attack(world.sim, host, FOUR_HOUR_SCHEDULE,
                                   horizon_days=0, flooder=flooder,
                                   flood_rate_pps=100.0)
        assert world.sim.run() == 0 and flooder.stats.sent == 0

    def test_packet_level_attack_triggers_detection_block(self, make_world):
        world = make_world()
        host = make_host(world)
        flooder = Flooder(world.sim, "flooder", ATTACKER_ADDR)
        # one 4-hour window starting at 08:00, packet-level
        schedule = AttackSchedule(daily_hours=4, start_choices=(8,))
        run_scheduled_prime_attack(world.sim, host, schedule, horizon_days=1,
                                   flooder=flooder, flood_rate_pps=100.0)
        world.sim.run_until(SimTime.at(0, 8).plus_seconds(5))
        assert world.agent.state_of(host.prime) is AddressState.BLOCKED
        assert host.counters.alerts >= 1
        # while the flood lasts, optimistic reactivation gets re-blocked
        world.sim.run_until(SimTime.at(0, 8).plus_seconds(300))
        assert host.counters.reactivations >= 1
        assert world.agent.state_of(host.prime) is AddressState.BLOCKED

    def test_prime_recovers_once_flood_stops(self, make_world):
        world = make_world()
        host = make_host(world)
        flooder = Flooder(world.sim, "flooder", ATTACKER_ADDR)
        flooder.flood_between(EPOCH, SimTime.from_seconds(120), host.prime, 100.0)
        world.sim.run_until(SimTime.from_seconds(10))
        assert world.agent.state_of(host.prime) is AddressState.BLOCKED
        world.sim.run()  # flood ends; the last quiet period expires the block
        assert world.agent.state_of(host.prime) is AddressState.ACTIVE
        assert host.counters.reactivations >= 1


class TestSpit:
    def test_spit_lifecycle(self, make_world):
        world = make_world(pki=True)
        host = make_host(world)
        keys = world.scheme.generate(world.sim.rng)
        spitter = SpitCaller(world.sim, "spit", "salesman.example",
                             Ipv6Address(ATTACKER_PREFIX, 0xB), world.names,
                             scheme=world.scheme, keys=keys,
                             certificate=world.ca.issue("salesman.example",
                                                        keys.public),
                             ca=world.ca, require_signed_response=True)
        outcomes = []
        spitter.place_call(host.fqdn, outcomes.append)
        world.sim.run()
        assert outcomes == [CallOutcome.CONNECTED]
        host.spit_block(spitter.fqdn)
        world.sim.run()
        spitter.place_call(host.fqdn, outcomes.append)
        world.sim.run()
        assert outcomes[-1] is CallOutcome.FAILED
        results = []
        spitter.re_request_address(host.fqdn, results.append)
        world.sim.run()
        assert results[0].outcome is RequestOutcome.REFUSED
