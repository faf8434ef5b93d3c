"""repro.chaos: schedules, presets, the controller, and runner integration.

Covers the determinism contract (same seed + same schedule -> identical
faults and results, serial == parallel, chaos-keyed caching), the
per-fault semantics, the mobility stop-mid-handoff regression, the
flapping leak bounds (addresses / timers / ledger state under audit),
and the runner's per-cell wall-clock timeout.
"""

from __future__ import annotations

import time

import pytest

from repro import audit, chaos
from repro.bittorrent.swarm import SwarmScenario
from repro.chaos import (
    ChaosController,
    ChaosSchedule,
    CorruptionBurst,
    HandoffStorm,
    LinkBlackout,
    LinkDegradation,
    PeerChurn,
    PeerCrash,
    TrackerOutage,
    preset_schedule,
)
from repro.obs.tracing import RingBufferSink
from repro.context import current_context
from repro.runner import ResultCache, Runner, Scenario, run_context, scenario
from repro.runner.spec import ScenarioSpec, cell_digest
from repro.tcp import TCPConfig

import repro.experiments  # noqa: F401  (registers figx_chaos)


# Small, fast figx_chaos campaign shared by the runner-facing tests.
FAST_CHAOS = {"runs": 1, "intensities": [0.0, 1.5]}


def small_swarm(seed: int = 7, **kwargs) -> SwarmScenario:
    sc = SwarmScenario(
        seed=seed, file_size=256 * 1024, piece_length=32_768, **kwargs
    )
    sc.add_wired_peer("seed0", complete=True)
    sc.add_wired_peer("leech0")
    sc.add_wireless_peer("mob0", rate=100_000)
    return sc


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
class TestSchedule:
    def test_events_sorted_by_start(self):
        sched = ChaosSchedule((
            PeerCrash(start=20.0), TrackerOutage(start=5.0), LinkBlackout(start=10.0),
        ))
        assert [e.start for e in sched] == [5.0, 10.0, 20.0]

    def test_json_round_trip(self):
        sched = ChaosSchedule((
            PeerCrash(start=1.0, target="a", downtime=3.0),
            PeerChurn(start=2.0, duration=60.0, rate_per_min=1.5, downtime=9.0),
            TrackerOutage(start=3.0, duration=12.0, mode="refuse"),
            LinkBlackout(start=4.0, duration=6.0, target="wireless"),
            LinkDegradation(start=5.0, duration=7.0, rate_factor=0.4, ber=1e-5),
            HandoffStorm(start=6.0, count=4, spacing=8.0, downtime=0.5),
            CorruptionBurst(start=7.0, duration=9.0, probability=0.3),
        ))
        assert ChaosSchedule.from_jsonable(sched.to_jsonable()) == sched

    def test_from_jsonable_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault event kind"):
            ChaosSchedule.from_jsonable([{"kind": "meteor_strike", "start": 1.0}])

    def test_composition(self):
        a = ChaosSchedule((PeerCrash(start=9.0),))
        b = ChaosSchedule((TrackerOutage(start=1.0),))
        combined = a + b
        assert len(combined) == 2
        assert combined.events[0].kind == "tracker_outage"

    def test_validation(self):
        with pytest.raises(ValueError):
            PeerCrash(start=-1.0)
        with pytest.raises(ValueError):
            TrackerOutage(start=0.0, mode="emp")
        with pytest.raises(ValueError):
            CorruptionBurst(start=0.0, probability=1.0)
        with pytest.raises(ValueError):
            LinkDegradation(start=0.0, rate_factor=0.0)


class TestPresets:
    def test_pure_function_of_arguments(self):
        for name in chaos.PRESET_NAMES:
            assert preset_schedule(name, 1.3, 200.0) == preset_schedule(name, 1.3, 200.0)

    def test_zero_intensity_is_empty(self):
        for name in chaos.PRESET_NAMES:
            assert preset_schedule(name, 0.0, 300.0).empty

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError, match="unknown chaos preset"):
            preset_schedule("lava", 1.0, 300.0)

    def test_schedules_are_cache_keyable(self):
        # Every preset's schedule survives the JSON round-trip the cache
        # and worker payloads rely on.
        for name in chaos.PRESET_NAMES:
            sched = preset_schedule(name, 2.0, 300.0)
            assert ChaosSchedule.from_jsonable(sched.to_jsonable()) == sched


# ----------------------------------------------------------------------
# Controller fault semantics
# ----------------------------------------------------------------------
class TestController:
    def test_peer_crash_stops_client_and_rejoin_restarts(self):
        sc = small_swarm()
        sc.add_chaos(ChaosSchedule((
            PeerCrash(start=3.0, target="leech0", downtime=5.0),
        )))
        sc.start_all()
        sc.run(until=4.0)
        leech = sc["leech0"]
        assert not leech.client.started
        assert leech.host.ip is None
        sc.run(until=10.0)
        assert leech.client.started
        assert leech.host.ip is not None

    def test_link_blackout_keeps_client_running(self):
        sc = small_swarm(seed=8)
        sc.add_chaos(ChaosSchedule((
            LinkBlackout(start=3.0, duration=4.0, target="mob0"),
        )))
        sc.start_all()
        sc.run(until=4.0)
        mob = sc["mob0"]
        assert mob.client.started       # the process survives a dead radio
        assert mob.host.ip is None
        sc.run(until=10.0)
        assert mob.host.ip is not None

    def test_tracker_blackout_returns_at_original_address(self):
        sc = small_swarm(seed=9)
        original = sc.tracker_host.ip
        sc.add_chaos(ChaosSchedule((
            TrackerOutage(start=2.0, duration=5.0, mode="blackout"),
        )))
        sc.start_all()
        sc.run(until=3.0)
        assert sc.tracker_host.ip is None
        sc.run(until=10.0)
        assert sc.tracker_host.ip == original == sc.torrent.tracker_ip

    def test_degradation_restores_baseline(self):
        sc = small_swarm(seed=10)
        mob = sc["mob0"]
        base_rate = mob.channel.rate
        leech_link = sc["leech0"].host.interface.link
        base_down = leech_link.downlink.rate
        sc.add_chaos(ChaosSchedule((
            LinkDegradation(start=1.0, duration=3.0, target="*",
                            rate_factor=0.25, extra_delay=0.05),
        )))
        sc.start_all()
        sc.run(until=2.0)
        assert mob.channel.rate == pytest.approx(base_rate * 0.25)
        assert leech_link.downlink.rate == pytest.approx(base_down * 0.25)
        sc.run(until=5.0)
        assert mob.channel.rate == pytest.approx(base_rate)
        assert leech_link.downlink.rate == pytest.approx(base_down)

    def test_handoff_storm_via_mobility_controller(self):
        sc = small_swarm(seed=11)
        mob = sc["mob0"]
        controller = sc.add_mobility(mob, interval=500.0, downtime=1.0)
        sc.add_chaos(ChaosSchedule((
            HandoffStorm(start=2.0, target="mobile", count=3, spacing=4.0,
                         downtime=0.5),
        )))
        sc.start_all()
        sc.run(until=20.0)
        assert controller.handoffs == 3
        assert sc.chaos.faults_injected == 3

    def test_overlapping_host_faults_are_skipped(self):
        sc = small_swarm(seed=12)
        sc.add_chaos(ChaosSchedule((
            LinkBlackout(start=2.0, duration=10.0, target="leech0"),
            PeerCrash(start=5.0, target="leech0", downtime=1.0),
        )))
        sc.start_all()
        sc.run(until=8.0)
        assert sc.chaos.faults_injected == 1
        assert sc.chaos.faults_skipped == 1

    def test_second_controller_rejected(self):
        sc = small_swarm(seed=13)
        sc.add_chaos(ChaosSchedule((PeerCrash(start=1.0),)))
        with pytest.raises(RuntimeError, match="already has an armed"):
            sc.add_chaos(ChaosSchedule((PeerCrash(start=2.0),)))

    def test_churn_is_deterministic_per_seed(self):
        def run_once():
            sc = small_swarm(seed=21)
            sc.add_chaos(ChaosSchedule((
                PeerChurn(start=1.0, duration=120.0, rate_per_min=4.0,
                          downtime=3.0, target="*"),
            )))
            sc.start_all()
            sc.run(until=90.0)
            return sc.chaos.log, sc["leech0"].client.manager.bytes_completed

        first, second = run_once(), run_once()
        assert first == second
        assert any(kind == "peer_churn" for _, kind, _ in first[0])

    def test_metrics_and_trace_events(self):
        sc = small_swarm(seed=14)
        sc.add_chaos(ChaosSchedule((
            TrackerOutage(start=1.0, duration=2.0, mode="refuse"),
            CorruptionBurst(start=2.0, duration=3.0, target="leech0",
                            probability=0.4),
        )))
        sink = sc.sim.trace.attach(RingBufferSink())
        sc.start_all()
        sc.run(until=10.0)
        assert sc.sim.metrics.counter("chaos.faults").total == 2
        assert sc.sim.metrics.counter("chaos.tracker_outage").total == 1
        names = {e["event"] for e in sink.by_layer("chaos")}
        assert names >= {"tracker_outage", "corruption_burst"}


# ----------------------------------------------------------------------
# The run context's chaos axis
# ----------------------------------------------------------------------
class TestGlobalInstall:
    def test_unleashed_attaches_to_new_scenarios(self):
        with run_context(chaos="handoff-storm", chaos_intensity=1.0,
                         chaos_horizon=60.0):
            sc = small_swarm(seed=15)
            sc.add_mobility(sc["mob0"], interval=500.0, downtime=1.0)
            assert sc.chaos is not None
            sc.start_all()
            sc.run(until=60.0)
        assert current_context().chaos is None
        assert sc.chaos.faults_injected > 0

    def test_off_by_default(self):
        assert current_context().chaos is None
        assert small_swarm(seed=16).chaos is None

    def test_install_validates_preset(self):
        with pytest.raises(ValueError, match="unknown chaos preset"):
            with run_context(chaos="nope"):
                pass
        assert current_context().chaos is None


# ----------------------------------------------------------------------
# Satellite: MobilityController.stop() mid-handoff
# ----------------------------------------------------------------------
class TestStopMidHandoff:
    def test_stop_cancels_inflight_reconnect(self):
        sc = small_swarm(seed=17)
        mob = sc["mob0"]
        controller = sc.add_mobility(mob, interval=10.0, downtime=2.0)
        sc.start_all()
        sc.run(until=10.5)            # handoff at t=10, reconnect due t=12
        assert controller.in_handoff
        assert mob.host.ip is None
        controller.stop()
        sc.run(until=20.0)
        # the stale reconnect must NOT have re-attached the host
        assert mob.host.ip is None
        assert not controller.in_handoff

    def test_trigger_handoff_refuses_when_stopped_or_busy(self):
        sc = small_swarm(seed=18)
        controller = sc.add_mobility(sc["mob0"], interval=100.0, downtime=2.0)
        sc.start_all()
        sc.run(until=1.0)
        assert controller.trigger_handoff()        # forces one now
        assert not controller.trigger_handoff()    # mid-handoff: refused
        sc.run(until=5.0)
        controller.stop()
        assert not controller.trigger_handoff()    # stopped: refused


# ----------------------------------------------------------------------
# Satellite: flapping must not leak addresses, timers, or ledger state
# ----------------------------------------------------------------------
class TestFlappingLeaks:
    def test_repeated_flap_cycles_stay_bounded(self):
        with audit.audited():
            # fast-failing TCP so doomed SYNs toward stale (pre-handoff)
            # addresses die in seconds — the address-book prune runs on
            # connect failure, and we want to observe the steady state,
            # not the 60 s default SYN backoff
            sc = SwarmScenario(
                seed=19, file_size=4 * 1024 * 1024, piece_length=32_768,
                tracker_interval=15.0,
                tcp_config=TCPConfig(max_syn_retries=2, max_rto=2.0),
            )
            sc.add_wired_peer("seed0", complete=True, up_rate=120_000)
            sc.add_wired_peer("f0", up_rate=60_000)
            sc.add_wireless_peer("mob0", rate=80_000)
            # 18 forced handoff cycles against the mobile peer plus three
            # tracker blackouts: every cycle regenerates the mobile's
            # peer ID and address.
            sc.add_chaos(ChaosSchedule((
                HandoffStorm(start=2.0, target="mob0", count=18, spacing=6.0,
                             downtime=0.5),
                TrackerOutage(start=20.0, duration=4.0, mode="blackout"),
                TrackerOutage(start=50.0, duration=4.0, mode="blackout"),
                TrackerOutage(start=80.0, duration=4.0, mode="refuse"),
            )))
            sc.start_all()
            sc.run(until=70.0)
            mid_pending = sc.sim.pending_events
            sc.run(until=130.0)

            # Addresses: the allocator's live set is exactly the up hosts.
            up_ips = {
                h.host.ip for h in sc.peers.values() if h.host.ip is not None
            }
            if sc.tracker_host.ip is not None:
                up_ips.add(sc.tracker_host.ip)
            assert sc.alloc.live_addresses == up_ips

            # Timers: the pending-event count must not grow with flap
            # count (a leaked timer per cycle would roughly double it
            # between the two checkpoints).
            assert sc.sim.pending_events <= mid_pending * 1.5 + 25

            # Ledger + address book: entries for dead peer IDs are
            # pruned/decayed instead of accumulating one per flap.
            for handle in sc.peers.values():
                assert len(handle.client.ledger.known_ids()) <= 8
                assert len(handle.client.known_addresses) <= 8
            # Tracker records for stale IDs prune on the announce path.
            assert sc.tracker.swarm_size(sc.torrent.info_hash) <= 8
            assert sc.chaos.faults_injected >= 18


# ----------------------------------------------------------------------
# Runner integration: determinism, caching, ambient chaos
# ----------------------------------------------------------------------
class TestRunnerIntegration:
    def test_serial_equals_parallel(self):
        serial = Runner(jobs=1).run("figx_chaos", FAST_CHAOS)
        parallel = Runner(jobs=4).run("figx_chaos", FAST_CHAOS)
        assert serial.values == parallel.values

    def test_warm_cache_hits_everything(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cold = Runner(jobs=2, cache=cache).run("figx_chaos", FAST_CHAOS)
        warm = Runner(jobs=2, cache=cache).run("figx_chaos", FAST_CHAOS)
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == warm.stats.total_cells
        assert warm.values == cold.values

    def test_graceful_degradation_ordering(self):
        run = Runner(jobs=4).run("figx_chaos", FAST_CHAOS)
        completion = {
            (variant, intensity): value["completion"]
            for ((variant, intensity), _seed), value in run.values.items()
        }
        assert not run.failures
        # chaos hurts both variants...
        assert completion[("default", 1.5)] > completion[("default", 0.0)]
        assert completion[("wp2p", 1.5)] > completion[("wp2p", 0.0)]
        # ...but wP2P degrades more gracefully than the default client
        assert completion[("wp2p", 1.5)] < completion[("default", 1.5)]

    def test_ambient_chaos_keys_the_cache_separately(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        clean = Runner(jobs=2, cache=cache).run("figx_chaos", FAST_CHAOS)
        chaotic = Runner(
            jobs=2, cache=cache, chaos="blackout", chaos_intensity=1.0
        ).run("figx_chaos", FAST_CHAOS)
        assert chaotic.stats.cache_hits == 0           # disjoint address space
        assert chaotic.values != clean.values          # and different physics
        rerun = Runner(
            jobs=2, cache=cache, chaos="blackout", chaos_intensity=1.0
        ).run("figx_chaos", FAST_CHAOS)
        assert rerun.stats.cache_hits == rerun.stats.total_cells
        assert rerun.values == chaotic.values

    def test_chaos_digest_distinct_from_clean(self):
        spec = ScenarioSpec.create("x", {"a": 1}, seeds=[1])
        chaotic_spec = ScenarioSpec.create(
            "x", {"a": 1}, seeds=[1],
            chaos={"preset": "mixed", "intensity": 1.0, "horizon": 300.0},
        )
        clean = cell_digest(spec, ("k",), 1, code="c")
        chaotic = cell_digest(chaotic_spec, ("k",), 1, code="c")
        assert clean != chaotic
        # chaos folds into the cell digest only, never into the spec hash
        assert spec.spec_hash() == chaotic_spec.spec_hash()
        # and the clean digest is exactly the legacy (pre-chaos) digest
        assert clean == cell_digest(
            ScenarioSpec.create("x", {"a": 1}, seeds=[1], chaos=None),
            ("k",), 1, code="c",
        )

    def test_bad_preset_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown chaos preset"):
            Runner(chaos="volcano")

    def test_audit_composes_with_chaos(self):
        run = Runner(
            jobs=2, audit=True, chaos="handoff-storm", chaos_intensity=1.0
        ).run("figx_chaos", {"runs": 1, "intensities": [1.0]})
        assert not run.failures


# ----------------------------------------------------------------------
# Satellite: per-cell wall-clock timeout
# ----------------------------------------------------------------------
@scenario
class _SleepyScenario(Scenario):
    """Cells that burn real wall clock; used to test cell_timeout."""

    name = "_test_sleepy"
    description = "test-only: cells that sleep for their key's duration"
    defaults = {"sleeps": [0.01, 1.5]}

    def cells(self, p):
        for s in p["sleeps"]:
            yield (s,), 0

    def run_cell(self, key, seed, p):
        time.sleep(key[0])
        return key[0]

    def assemble(self, p, values, failures):
        return sorted(v for v in values.values())


class TestCellTimeout:
    def test_slow_cell_becomes_failure_without_retry(self):
        run = Runner(jobs=1, cell_timeout=0.4).run("_test_sleepy")
        assert run.stats.failed == 1
        assert len(run.failures) == 1
        failure = run.failures[0]
        assert failure.key == (1.5,)
        assert "CellTimeout" in failure.error
        assert failure.attempts == 1          # timeouts are not retried
        assert run.values[((0.01,), 0)] == 0.01

    def test_pool_workers_also_enforce_the_budget(self):
        run = Runner(jobs=2, cell_timeout=0.4).run("_test_sleepy")
        assert run.stats.failed == 1
        assert "CellTimeout" in run.failures[0].error

    def test_generous_budget_passes_everything(self):
        run = Runner(jobs=1, cell_timeout=30.0).run(
            "_test_sleepy", {"sleeps": [0.01, 0.02]}
        )
        assert not run.failures

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError, match="cell_timeout"):
            Runner(cell_timeout=0.0)


# ----------------------------------------------------------------------
# MTTR accounting (repro.chaos.recovery)
# ----------------------------------------------------------------------
class TestRecoveryTracking:
    def churned_swarm(self, seed: int = 500) -> SwarmScenario:
        sc = SwarmScenario(seed=seed, file_size=1024 * 1024,
                           piece_length=16_384)
        sc.add_chaos(preset_schedule("churn", intensity=3.0, horizon=120.0))
        sc.add_wired_peer("seed", complete=True, up_rate=64_000)
        sc.add_wired_peer("l0", up_rate=32_000)
        sc.add_wired_peer("l1", up_rate=32_000)
        return sc

    def test_armed_controller_tracks_recoveries(self):
        sink = None
        sc = self.churned_swarm()
        sink = sc.sim.trace.attach(RingBufferSink())
        sc.start_all()
        sc.run(until=180.0)
        tracker = sc.chaos.recovery
        assert tracker is not None
        assert tracker.samples > 100  # 1 Hz read-only sampling ran
        assert sc.chaos.faults_injected > 0
        summary = tracker.summary()
        assert summary["recoveries"] + summary["censored"] >= \
            sc.chaos.faults_injected
        if tracker.recoveries:
            assert summary["mean_mttr"] > 0.0
            assert summary["max_mttr"] >= summary["mean_mttr"]
            for recovery in tracker.recoveries:
                assert recovery.recovered_at > recovery.fault_time
            events = sink.matching("recovered")
            assert len(events) == len(tracker.recoveries)
            assert sc.sim.metrics.snapshot()[
                "chaos.recovery_seconds"]["count"] == len(tracker.recoveries)

    def test_recovery_tracking_is_read_only(self):
        # Identical runs with and without the tracker sampling must not
        # diverge: sampling reads counters, it never touches peers.
        def completion(arm_tracker: bool) -> float:
            sc = self.churned_swarm(seed=501)
            if not arm_tracker and sc.chaos is not None \
                    and sc.chaos.recovery is not None:
                sc.chaos.recovery.stop()
            sc.start_all()
            sc.run_until_complete(["l0", "l1"], timeout=400)
            return sc.sim.now

        assert completion(True) == completion(False)

    def test_empty_schedule_arms_no_tracker(self):
        sc = SwarmScenario(seed=502, file_size=256 * 1024,
                           piece_length=65_536)
        sc.add_chaos(ChaosSchedule())
        assert sc.chaos.recovery is None

    def test_runreport_renders_mttr_section(self):
        from repro.analysis.runreport import render_report

        sc = self.churned_swarm(seed=503)
        sink = sc.sim.trace.attach(RingBufferSink())
        sc.start_all()
        sc.run(until=180.0)
        if not sc.chaos.recovery.recoveries:
            pytest.skip("no recovery completed under this seed")
        report = render_report(sink.records)
        assert "## Fault recovery (MTTR)" in report
        assert "Mean MTTR" in report
