"""Coverage for remaining smaller behaviours across packages."""

from __future__ import annotations

import pytest

from repro.bittorrent.swarm import SwarmScenario
from repro.net import attach_wireless_host
from repro.sim import Simulator


class TestSwarmScenarioApi:
    def test_getitem_and_wireless_flag(self):
        sc = SwarmScenario(seed=1, file_size=128 * 1024, piece_length=65_536)
        wired = sc.add_wired_peer("w")
        wireless = sc.add_wireless_peer("m")
        assert sc["w"] is wired
        assert not wired.wireless
        assert wireless.wireless
        with pytest.raises(KeyError):
            sc["nope"]

    def test_run_until_complete_times_out_false(self):
        sc = SwarmScenario(seed=2, file_size=128 * 1024, piece_length=65_536)
        sc.add_wired_peer("lonely")  # no seed: cannot complete
        sc.start_all()
        assert sc.run_until_complete(["lonely"], timeout=10.0) is False

    def test_torrent_points_at_tracker(self):
        sc = SwarmScenario(seed=3, file_size=128 * 1024, piece_length=65_536)
        assert sc.torrent.tracker_ip == sc.tracker_host.ip
        assert sc.torrent.tracker_port == sc.tracker.port

    def test_mobility_helper_registers_controller(self):
        sc = SwarmScenario(seed=4, file_size=128 * 1024, piece_length=65_536)
        mob = sc.add_wireless_peer("m")
        ctl = sc.add_mobility(mob, interval=30.0, start=False)
        assert mob.mobility is ctl
        assert not ctl._running if hasattr(ctl, "_running") else True


class TestWirelessDynamics:
    def test_rate_change_mid_run_affects_throughput(self):
        from repro.net import AddressAllocator, Host, Internet, Packet

        class Sink:
            def __init__(self):
                self.packets = []

            def receive(self, packet):
                self.packets.append(packet)

        class Payload:
            wire_size = 1460

        sim = Simulator(seed=5)
        internet = Internet(sim, core_delay=0.0)
        alloc = AddressAllocator()
        mob = Host(sim, "m")
        mob.transport = Sink()
        from repro.net import attach_wired_host

        fixed = Host(sim, "f")
        attach_wired_host(sim, fixed, internet, alloc.allocate(),
                          up_rate=10_000_000)
        channel = attach_wireless_host(sim, mob, internet, alloc.allocate(),
                                       rate=20_000)
        for i in range(100):
            sim.schedule(i * 0.01, lambda: fixed.send(
                Packet(fixed.ip, mob.ip, Payload(), created_at=sim.now)))
        sim.run(until=2.0)
        slow_count = len(mob.transport.packets)
        channel.set_rate(200_000)
        sim.run(until=4.0)
        fast_count = len(mob.transport.packets) - slow_count
        assert fast_count > slow_count  # drains much faster after the boost

    def test_mac_efficiency_validated(self):
        from repro.net import WirelessChannel, Host, Internet

        sim = Simulator()
        internet = Internet(sim)
        host = Host(sim, "h")
        with pytest.raises(ValueError):
            WirelessChannel(sim, host, internet, mac_efficiency=0.0)
        with pytest.raises(ValueError):
            WirelessChannel(sim, host, internet, mac_efficiency=1.5)
        with pytest.raises(ValueError):
            WirelessChannel(sim, host, internet, rate=0)
        with pytest.raises(ValueError):
            WirelessChannel(sim, host, internet, ber=1.0)


class TestCounterEdges:
    def test_value_at_exact_boundaries(self):
        from repro.obs.metrics import Counter

        sim = Simulator()
        counter = Counter("x", lambda: sim.now, record_history=True)
        sim.schedule(1.0, lambda: counter.add(10))
        sim.schedule(1.0, lambda: counter.add(5))
        sim.run()
        assert counter.value_at(1.0) == 15
        assert counter.value_at(0.999) == 0

    def test_mobility_controller_param_validation(self):
        from repro.net import MobilityController, AddressAllocator, Host, Internet

        sim = Simulator()
        internet = Internet(sim)
        host = Host(sim, "h")
        alloc = AddressAllocator()
        with pytest.raises(ValueError):
            MobilityController(sim, host, internet, alloc, interval=0)
        with pytest.raises(ValueError):
            MobilityController(sim, host, internet, alloc, interval=10, downtime=-1)
        with pytest.raises(ValueError):
            MobilityController(sim, host, internet, alloc, interval=10, jitter=10)


class TestWP2PConfigDefaults:
    def test_wp2p_defaults_enable_all_components(self):
        from repro.wp2p import WP2PConfig

        cfg = WP2PConfig()
        assert cfg.am_enabled
        assert cfg.identity_retention
        assert cfg.role_reversal
        assert cfg.mobility_aware_fetching
        assert cfg.lihd_u_max is None  # LIHD needs an explicit ceiling

    def test_wp2p_config_inherits_client_config(self):
        from repro.bittorrent import ClientConfig
        from repro.wp2p import WP2PConfig

        cfg = WP2PConfig(unchoke_slots=7)
        assert isinstance(cfg, ClientConfig)
        assert cfg.unchoke_slots == 7
