"""Tests for the mean-field fluid swarm tier (:mod:`repro.scale`)."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

import repro.experiments  # noqa: F401  — registers the figure scenarios
from repro.chaos import preset_schedule
from repro.chaos.schedule import (
    ChaosSchedule,
    HandoffStorm,
    LinkBlackout,
    LinkDegradation,
    PeerChurn,
    PeerCrash,
    TrackerOutage,
)
from repro.runner import BACKENDS, Runner, ScenarioSpec, get_scenario
from repro.runner.axes import context_from
from repro.runner.spec import canonical_json, cell_digest
from repro.scale import (
    FluidParams,
    FluidSwarm,
    MatchedScenario,
    PeerClass,
    ValidationReport,
    ValidationRow,
    class_matches,
    cross_validate,
    expected_prefix_fraction,
    playability_surrogate,
    run_fluid,
    schedule_modifiers,
)

MIB = 1 << 20


def params(file_size=4 * MIB, scale=1.0, mobile=True, wp2p=False, **kw):
    classes = [
        PeerClass("seeds", 5 * scale, 96_000.0, 1_000_000.0, seed=True),
        PeerClass("wired", 75 * scale, 48_000.0, 500_000.0),
    ]
    if mobile:
        classes.append(PeerClass(
            "mobile", 20 * scale, 24_000.0, 100_000.0, mobile=True,
            wp2p=wp2p, wireless_shared=True, handoff_interval=90.0,
        ))
    return FluidParams(
        file_size=file_size, piece_length=65_536,
        classes=tuple(classes), **kw,
    )


# ----------------------------------------------------------------------
# Model validation and surrogates
# ----------------------------------------------------------------------
class TestModel:
    def test_availability_is_a_duty_cycle(self):
        always_on = PeerClass("w", 1, 1.0, 1.0)
        assert always_on.availability() == 1.0
        mobile = PeerClass("m", 1, 1.0, 1.0, mobile=True,
                           handoff_interval=90.0, handoff_downtime=1.0,
                           restart_delay=15.0)
        assert mobile.availability() == pytest.approx(90.0 / 106.0)

    def test_wp2p_recovers_cheaper_than_default(self):
        default = PeerClass("m", 1, 1.0, 1.0, handoff_interval=60.0)
        wp2p = PeerClass("m", 1, 1.0, 1.0, handoff_interval=60.0, wp2p=True)
        assert wp2p.recovery_cost < default.recovery_cost
        assert wp2p.availability() > default.availability()

    @pytest.mark.parametrize("bad", [
        dict(count=-1),
        dict(download_rate=0.0),
        dict(handoff_interval=0.0),
        dict(lihd_level=0.0),
        dict(selection="weirdest"),
        dict(arrival_rate=-1.0),
    ])
    def test_peer_class_rejects_bad_fields(self, bad):
        kw = dict(name="x", count=1.0, upload_rate=1.0, download_rate=1.0)
        kw.update(bad)
        with pytest.raises(ValueError):
            PeerClass(**kw)

    def test_fluid_params_rejects_duplicate_class_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            FluidParams(file_size=MIB, piece_length=65_536, classes=(
                PeerClass("a", 1, 1.0, 1.0), PeerClass("a", 1, 1.0, 1.0),
            ))

    def test_num_pieces_rounds_up(self):
        p = FluidParams(file_size=65_537, piece_length=65_536,
                        classes=(PeerClass("a", 1, 1.0, 1.0),))
        assert p.num_pieces == 2

    def test_prefix_fraction_bounds_and_value(self):
        assert expected_prefix_fraction(0.0, 20) == 0.0
        assert expected_prefix_fraction(1.0, 20) == 1.0
        # m=2: (p + p^2)/2
        assert expected_prefix_fraction(0.5, 2) == pytest.approx(0.375)

    def test_inorder_surrogate_tracks_progress(self):
        assert playability_surrogate(0.4, 64, "inorder") == pytest.approx(0.4)
        # Rarest-first leaves the prefix far behind the downloaded fraction.
        assert playability_surrogate(0.4, 64, "rarest") < 0.05


# ----------------------------------------------------------------------
# Chaos-schedule -> rate-parameter mapping
# ----------------------------------------------------------------------
class TestChaosMap:
    def test_every_event_kind_maps(self):
        schedule = ChaosSchedule(events=(
            PeerChurn(start=10.0, duration=60.0, rate_per_min=6.0,
                      downtime=20.0, target="wired"),
            PeerCrash(start=5.0, target="mobile", downtime=30.0),
            TrackerOutage(start=40.0, duration=25.0),
            LinkBlackout(start=50.0, duration=5.0, target="wireless"),
            LinkDegradation(start=60.0, duration=30.0, rate_factor=0.5,
                            ber=0.0, target="wireless"),
            HandoffStorm(start=70.0, count=10, spacing=2.0, downtime=1.5,
                         target="mobile"),
        ))
        windows, impulses = schedule_modifiers(schedule)
        kinds = {
            (w.departure_rate > 0, w.freeze_rejoin, w.availability_factor,
             w.upload_factor, w.extra_handoff_rate > 0)
            for w in windows
        }
        churn = next(w for w in windows if w.departure_rate > 0)
        assert churn.departure_rate == pytest.approx(0.1)  # 6/min -> 0.1/s
        assert churn.rejoin_rate == pytest.approx(1.0 / 20.0)
        outage = next(w for w in windows if w.freeze_rejoin)
        assert outage.target == "*"
        blackout = next(w for w in windows if w.availability_factor == 0.0)
        assert blackout.end == pytest.approx(55.0)
        degradation = next(w for w in windows if w.upload_factor == 0.5)
        assert degradation.download_factor == 0.5
        storm = next(w for w in windows if w.extra_handoff_rate > 0)
        assert storm.extra_handoff_rate == pytest.approx(0.5)
        assert storm.end == pytest.approx(70.0 + 20.0)
        assert len(impulses) == 1 and impulses[0].downtime == 30.0
        assert len(kinds) == 5  # five distinct window shapes

    def test_mapping_is_pure(self):
        schedule = preset_schedule("mixed", 1.5, 300.0)
        assert schedule_modifiers(schedule) == schedule_modifiers(schedule)

    def test_class_matching_selectors(self):
        wired = PeerClass("wired", 1, 1.0, 1.0)
        mobile = PeerClass("roamer", 1, 1.0, 1.0, mobile=True)
        assert class_matches(wired, "*") and class_matches(mobile, "*")
        assert class_matches(wired, "wired") and not class_matches(mobile, "wired")
        assert class_matches(mobile, "wireless") and class_matches(mobile, "mobile")
        assert class_matches(mobile, "roamer")
        assert not class_matches(wired, "roamer")

    def test_churn_slows_the_swarm(self):
        clean = run_fluid(params()).leecher_completion_time()
        churned = FluidSwarm(
            params(),
            chaos=ChaosSchedule(events=(
                PeerChurn(start=0.0, duration=600.0, rate_per_min=6.0,
                          downtime=30.0, target="*"),
            )),
        ).run().leecher_completion_time()
        assert churned > clean

    def test_blackout_halts_wireless_progress(self):
        p = params(max_time=400.0)
        blackout = ChaosSchedule(events=(
            LinkBlackout(start=0.0, duration=400.0, target="wireless"),
        ))
        result = FluidSwarm(p, chaos=blackout).run()
        assert result.classes["mobile"].final_progress == 0.0
        assert result.classes["wired"].completion_time is not None


# ----------------------------------------------------------------------
# Crash-impulse population accounting
# ----------------------------------------------------------------------
def _state(swarm, name):
    return next(s for s in swarm._states if s.cls.name == name)


class TestImpulseConservation:
    def test_permanent_impulse_kills_parked_recovery_pools(self):
        # Regression: the first crash parks the class in a slow recovery
        # pool; a later permanent impulse used to remove only the online
        # remainder, leaving the parked mass alive (and rejoining)
        # forever after a supposedly fatal crash.
        schedule = ChaosSchedule(events=(
            PeerCrash(start=2.0, target="wired", downtime=500.0),
            PeerCrash(start=6.0, target="wired", downtime=None),
        ))
        swarm = FluidSwarm(params(mobile=False, max_time=60.0),
                           chaos=schedule)
        swarm.run()
        wired = _state(swarm, "wired")
        assert wired.alive == pytest.approx(0.0, abs=1e-9)
        assert wired.online == pytest.approx(0.0, abs=1e-9)
        assert wired.offline == pytest.approx(0.0, abs=1e-9)

    def test_overlapping_transient_impulses_conserve_mass(self):
        # The second crash re-parks everything it can reach — online
        # mass plus the first impulse's half-drained pool — without
        # creating or destroying population.
        schedule = ChaosSchedule(events=(
            PeerCrash(start=2.0, target="wired", downtime=500.0),
            PeerCrash(start=6.0, target="wired", downtime=500.0),
        ))
        swarm = FluidSwarm(params(mobile=False, max_time=60.0),
                           chaos=schedule)
        swarm.run()
        wired = _state(swarm, "wired")
        assert wired.alive == pytest.approx(75.0)
        assert wired.online + wired.offline == pytest.approx(
            wired.alive, abs=1e-9)

    def test_zero_downtime_impulse_does_not_leak_mass(self):
        # Regression: a transient crash with downtime=0 used to zero the
        # online mass without parking it anywhere — the peers vanished
        # while still being counted alive, stalling the class forever.
        schedule = ChaosSchedule(events=(
            PeerCrash(start=2.0, target="wired", downtime=0.0),
        ))
        swarm = FluidSwarm(params(mobile=False, max_time=600.0),
                           chaos=schedule)
        result = swarm.run()
        wired = _state(swarm, "wired")
        assert wired.online + wired.offline == pytest.approx(
            wired.alive, abs=1e-9)
        assert result.classes["wired"].completion_time is not None


class TestMassConservationProperty:
    def test_every_step_conserves_population_under_fuzzed_chaos(self):
        # Mirrors scripts/fuzz_audit.py's seed rotation: each drawn
        # topology/schedule is a pure function of its seed, so a
        # violating step reproduces from the seed alone.  The invariant
        # (`alive == online + Σpools` with departures accounted) is the
        # one the hybrid backend's boundary source terms must preserve.
        for seed in range(8):
            rng = random.Random(seed)
            classes = (
                PeerClass("seeds", 4.0, 96_000.0, 1_000_000.0, seed=True),
                PeerClass("wired", rng.uniform(10.0, 100.0), 48_000.0,
                          500_000.0,
                          arrival_rate=rng.choice([0.0, 0.0, 0.5])),
                PeerClass("mobile", rng.uniform(5.0, 40.0), 24_000.0,
                          100_000.0, mobile=True, wireless_shared=True,
                          handoff_interval=rng.choice([60.0, 90.0])),
            )
            events = []
            for _ in range(rng.randint(1, 4)):
                draw = rng.random()
                start = rng.uniform(0.0, 120.0)
                target = rng.choice(["*", "wired", "mobile", "wireless"])
                if draw < 0.5:
                    events.append(PeerCrash(
                        start=start, target=target,
                        downtime=rng.choice([None, 0.0, 10.0, 300.0]),
                    ))
                elif draw < 0.8:
                    events.append(PeerChurn(
                        start=start, duration=rng.uniform(10.0, 60.0),
                        rate_per_min=rng.uniform(1.0, 10.0),
                        downtime=rng.choice([5.0, 30.0]), target=target,
                    ))
                else:
                    events.append(TrackerOutage(
                        start=start, duration=rng.uniform(5.0, 40.0),
                    ))
            p = FluidParams(
                file_size=MIB, piece_length=65_536, classes=classes,
                max_time=180.0,
            )
            swarm = FluidSwarm(p, chaos=ChaosSchedule(events=tuple(events)))
            while swarm.t < p.max_time:
                swarm.advance(swarm.t + p.dt)
                for s in swarm._states:
                    context = f"seed={seed} t={swarm.t} class={s.cls.name}"
                    assert s.online + s.offline == pytest.approx(
                        s.alive, abs=1e-6), context
                    born = s.cls.count + s.cls.arrival_rate * swarm.t
                    assert -1e-6 <= s.alive <= born + 1e-6, context


# ----------------------------------------------------------------------
# Engine determinism and scale-invariant cost
# ----------------------------------------------------------------------
class TestEngine:
    def test_bit_identical_reruns(self):
        a = run_fluid(params()).to_jsonable()
        b = run_fluid(params()).to_jsonable()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_cost_is_per_class_not_per_peer(self):
        small = run_fluid(params(scale=1.0))
        huge = run_fluid(params(scale=1_000.0))
        # Proportional populations: identical dynamics, identical steps.
        assert huge.steps == small.steps
        assert huge.peak_population == pytest.approx(
            1_000.0 * small.peak_population)
        for name, cr in small.classes.items():
            assert huge.classes[name].completion_time == pytest.approx(
                cr.completion_time)

    def test_wp2p_beats_default_under_mobility(self):
        default = run_fluid(params())
        wp2p = run_fluid(params(wp2p=True))
        dt_default = default.classes["mobile"].completion_time
        dt_wp2p = wp2p.classes["mobile"].completion_time
        assert dt_wp2p < dt_default

    def test_seeds_never_download(self):
        result = run_fluid(params())
        seeds = result.classes["seeds"]
        assert seeds.completion_time == 0.0
        assert seeds.mean_goodput == 0.0
        assert result.leecher_completion_time() is not None

    def test_censored_swarm_reports_none(self):
        p = params(max_time=5.0)  # far too short to finish
        result = run_fluid(p)
        assert result.leecher_completion_time() is None

    def test_metrics_and_traces_flow_through_obs(self):
        from repro.obs.tracing import RingBufferSink

        swarm = FluidSwarm(params())
        sink = swarm.trace.attach(RingBufferSink())
        result = swarm.run()
        snapshot = swarm.metrics.snapshot()
        assert "scale.steps" in snapshot
        assert "scale.peers_peak" in snapshot
        assert snapshot["scale.completions"]["total"] > 0
        assert sink.matching("engine_start")
        finish = sink.matching("engine_finish")
        assert finish and finish[0]["layer"] == "scale"
        assert result.steps > 0


# ----------------------------------------------------------------------
# Backend cache keying
# ----------------------------------------------------------------------
class TestBackendKeying:
    def test_backends_tuple(self):
        assert BACKENDS == ("packet", "fluid", "hybrid")

    def test_packet_digest_is_byte_identical_to_pre_backend_era(self):
        spec = ScenarioSpec.create("figx", {"runs": 2}, backend="packet")
        got = cell_digest(spec, ("k", 10), 7, code="pinned")
        # The exact body the pre-backend cell_digest hashed: no
        # "backend" key.  Any change here silently invalidates (or
        # worse, aliases) every cached packet result — keep it frozen.
        legacy_body = canonical_json({
            "scenario": "figx",
            "params": {"runs": 2},
            "key": ["k", 10],
            "seed": 7,
            "code": "pinned",
        })
        expected = hashlib.sha256(legacy_body.encode("utf-8")).hexdigest()
        assert got == expected

    def test_nondefault_backend_digests_are_mutually_disjoint(self):
        specs = [
            ScenarioSpec.create("figx", {"runs": 2}, backend=b)
            for b in ("packet", "fluid", "hybrid")
        ]
        assert len({s.spec_hash() for s in specs}) == 3
        assert len({
            cell_digest(s, ("k",), 1, code="c") for s in specs
        }) == 3

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            context_from(backend="quantum")
        with pytest.raises(ValueError, match="unknown backend"):
            Runner(backend="quantum")

    def test_scenarios_declare_their_backends(self):
        scale = get_scenario("figx_scale")
        assert scale.backends == ("fluid", "packet")
        assert scale.resolve_backend(None) == "fluid"
        assert scale.resolve_backend("packet") == "packet"
        legacy = get_scenario("fig2a")
        assert legacy.backends == ("packet",)
        assert legacy.resolve_backend(None) == "packet"
        with pytest.raises(ValueError, match="fluid"):
            legacy.resolve_backend("fluid")


# ----------------------------------------------------------------------
# figx_scale through the runner
# ----------------------------------------------------------------------
FAST_SCALE = {
    "swarm_sizes": [30, 3_000],
    "mobile_fractions": [0.0, 0.2],
    "file_size_kib": 1_024,
}


class TestFigxScaleScenario:
    def test_serial_and_parallel_fluid_runs_are_bit_identical(self):
        serial = Runner(jobs=1).run("figx_scale", FAST_SCALE)
        parallel = Runner(jobs=4).run("figx_scale", FAST_SCALE)
        assert serial.spec.axis("backend") == "fluid"
        assert serial.values == parallel.values
        s = [(s.label, s.x, s.y) for s in serial.result.series]
        p = [(s.label, s.x, s.y) for s in parallel.result.series]
        assert json.dumps(s) == json.dumps(p)

    def test_mobile_fraction_hurts_and_wp2p_helps(self):
        run = Runner(jobs=2).run("figx_scale", FAST_SCALE)
        baseline, default, wp2p = run.result.series
        assert baseline.label.startswith("All-wired")
        for wired_t, default_t, wp2p_t in zip(baseline.y, default.y, wp2p.y):
            assert default_t > wired_t
            assert wired_t < wp2p_t < default_t

    def test_ambient_chaos_perturbs_fluid_cells(self):
        # The runner's --chaos preset must reach the fluid engine as
        # rate modifiers, exactly as it reaches packet-level swarms.
        over = {"swarm_sizes": [1_000], "mobile_fractions": [0.2]}
        clean = Runner(jobs=1).run("figx_scale", over)
        chaotic = Runner(jobs=1, chaos="churn",
                         chaos_intensity=1.5).run("figx_scale", over)
        key = (("default", 1_000, 0.2), 1_500)
        assert (chaotic.values[key]["completion"]
                > clean.values[key]["completion"])

    def test_packet_backend_caps_swarm_size(self):
        scn = get_scenario("figx_scale")
        p = scn.params({"swarm_sizes": [500]})
        with pytest.raises(ValueError, match="swarm_size"):
            scn.run_cell(("default", 500, 0.2), 1, p)

    def test_fluid_cells_land_at_backend_specific_digests(self, tmp_path):
        from repro.runner import ResultCache

        cache = ResultCache(tmp_path)
        first = Runner(jobs=1, cache=cache).run("figx_scale", FAST_SCALE)
        again = Runner(jobs=1, cache=cache).run("figx_scale", FAST_SCALE)
        assert again.stats.cache_hits == again.stats.total_cells
        assert again.values == first.values


# ----------------------------------------------------------------------
# Cross-validation gate
# ----------------------------------------------------------------------
class TestValidation:
    def test_row_relative_error_and_verdict(self):
        ok = ValidationRow("s", "completion_time", packet=100.0, fluid=110.0,
                           tolerance=0.15)
        assert ok.rel_error == pytest.approx(0.10)
        assert ok.ok
        miss = ValidationRow("s", "completion_time", packet=100.0, fluid=130.0,
                             tolerance=0.15)
        assert not miss.ok
        # Near-zero references switch to an absolute floor instead of an
        # infinite ratio (JSON has no Infinity): the reported error is
        # the absolute difference, and it still gates.
        degenerate = ValidationRow("s", "mean_goodput", packet=0.0, fluid=1.0,
                                   tolerance=0.15)
        assert degenerate.rel_error == pytest.approx(1.0)
        assert not degenerate.ok
        close = ValidationRow("s", "mean_goodput", packet=0.0, fluid=0.05,
                              tolerance=0.15)
        assert close.ok
        json.dumps(degenerate.to_jsonable())  # must stay serialisable

    def test_table_renders_with_custom_labels(self):
        report = ValidationReport(rows=[
            ValidationRow("s", "completion_time", 100.0, 105.0, 0.15),
        ])
        default = report.table()
        assert "packet" in default and "fluid" in default
        relabelled = report.table(labels=("reference", "hybrid"))
        assert "reference" in relabelled and "hybrid" in relabelled
        assert relabelled.splitlines()[-1].endswith("ok")

    def test_report_passes_only_when_every_row_does(self):
        good = ValidationRow("s", "m", 100.0, 105.0, 0.15)
        bad = ValidationRow("s", "m", 100.0, 150.0, 0.15)
        assert ValidationReport(rows=[good]).passed
        assert not ValidationReport(rows=[good, bad]).passed
        payload = ValidationReport(rows=[good, bad]).to_jsonable()
        assert payload["passed"] is False
        assert len(payload["rows"]) == 2

    def test_matched_scenario_backends_agree_within_tolerance(self):
        # One small matched swarm end-to-end: the real anchoring gate
        # (scripts/validate_scale.py runs the full standing set).
        ms = MatchedScenario(
            name="tiny", description="2 seeds + 4 wired leechers",
            seeds=2, wired=4, file_size=512 * 1024,
        )
        report = cross_validate(scenarios=[ms], seeds=(11,))
        assert report.passed, "\n" + report.table()
        assert {r.metric for r in report.rows} == {
            "completion_time", "mean_goodput"}

    def test_tolerance_gate_actually_gates(self):
        ms = MatchedScenario(
            name="tiny", description="gate check",
            seeds=2, wired=4, file_size=512 * 1024,
        )
        strict = cross_validate(scenarios=[ms], seeds=(11,), tolerance=1e-6)
        assert not strict.passed
