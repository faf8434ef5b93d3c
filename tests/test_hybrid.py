"""Tests for the hybrid multi-resolution backend (:mod:`repro.scale.hybrid`).

Covers the two warranty gates (`all-focal equivalence` against the pure
packet backend, `embedding agreement` against the pure-fluid class
prediction), the coupling facade's audit-cleanliness and chaos
exemption, and the ``figx_hybrid`` scenario through the runner.
"""

from __future__ import annotations

import json

import pytest

import repro.experiments  # noqa: F401  — registers figx_hybrid
from repro import audit
from repro.chaos.schedule import ChaosSchedule, PeerCrash
from repro.runner import Runner, get_scenario
from repro.scale import (
    EQUIVALENCE_TOLERANCE,
    FACADE_NAME,
    HYBRID_EMBEDDINGS,
    HybridSpec,
    HybridSwarm,
    MatchedScenario,
    hybrid_cross_validate,
    run_hybrid,
)

KIB = 1024

#: A deliberately small matched swarm so the equivalence tests stay fast;
#: the standing MATCHED_SCENARIOS set runs in scripts/validate_scale.py.
TINY = MatchedScenario(
    name="tiny",
    description="1 seed + 2 wired + 1 mobile leecher, 256 KiB file",
    seeds=1, wired=2, mobile=1, handoff_interval=40.0,
    file_size=256 * KIB,
)


def small_background_spec(**kw) -> HybridSpec:
    defaults = dict(
        focal_seeds=0, focal_wired=1, focal_mobile=1,
        background_seeds=200.0, background_wired=800.0,
        file_size=256 * KIB, handoff_interval=40.0, max_time=900.0,
    )
    defaults.update(kw)
    return HybridSpec(**defaults)


class TestHybridSpec:
    def test_rejects_empty_focal_set(self):
        with pytest.raises(ValueError, match="focal"):
            HybridSpec(focal_seeds=0)

    def test_rejects_negative_background(self):
        with pytest.raises(ValueError, match="background"):
            HybridSpec(background_wired=-1.0)

    def test_rejects_nonpositive_coupling_interval(self):
        with pytest.raises(ValueError, match="coupling_interval"):
            HybridSpec(coupling_interval=0.0)

    def test_no_background_means_no_fluid_params(self):
        spec = HybridSpec(focal_seeds=1, focal_wired=2)
        assert not spec.has_background
        assert spec.background_params() is None

    def test_background_classes_mirror_the_spec(self):
        spec = HybridSpec(
            background_seeds=10.0, background_wired=50.0,
            background_mobile=20.0, wp2p=True, handoff_interval=60.0,
        )
        params = spec.background_params()
        assert [c.name for c in params.classes] == [
            "bg_seeds", "bg_wired", "bg_mobile"]
        seeds, wired, mobile = params.classes
        assert seeds.seed and seeds.upload_rate == spec.seed_up_rate
        assert wired.download_rate == spec.wired_down_rate
        assert mobile.wp2p and mobile.wireless_shared
        assert mobile.selection == "inorder"


class TestAllFocalEquivalence:
    def test_zero_background_reproduces_the_packet_run_exactly(self):
        packet = TINY.packet_observation(11)
        hybrid = TINY.hybrid_observation(11)
        assert hybrid.completion_time == pytest.approx(
            packet.completion_time, abs=1e-9)
        assert hybrid.mean_goodput == pytest.approx(
            packet.mean_goodput, abs=1e-9)

    def test_equivalence_rows_gate_at_exactness(self):
        report = hybrid_cross_validate(
            seeds=(11,), equivalence=[TINY], embeddings=[])
        assert report.passed, "\n" + report.table(
            labels=("reference", "hybrid"))
        assert {r.scenario for r in report.rows} == {"focal:tiny"}
        assert all(r.tolerance == EQUIVALENCE_TOLERANCE for r in report.rows)


class TestEmbeddingGate:
    def test_focal_hosts_track_the_fluid_prediction(self):
        report = hybrid_cross_validate(
            seeds=(11,), equivalence=[], embeddings=[HYBRID_EMBEDDINGS[0]])
        assert report.passed, "\n" + report.table(
            labels=("reference", "hybrid"))

    def test_wp2p_focal_hosts_keep_their_edge_inside_the_background(self):
        default = HYBRID_EMBEDDINGS[0].hybrid_observation(11)
        wp2p = HYBRID_EMBEDDINGS[1].hybrid_observation(11)
        assert wp2p.completion_time < default.completion_time


class TestCouplingFacade:
    def test_facade_exists_only_with_a_background(self):
        pure = HybridSwarm(HybridSpec(focal_seeds=1, focal_wired=1))
        assert pure.facade is None and pure.fluid is None
        assert FACADE_NAME not in pure.scenario.peers

        coupled = HybridSwarm(small_background_spec(focal_seeds=1))
        assert coupled.facade is not None
        assert coupled.facade.name == FACADE_NAME
        assert coupled.facade.chaos_exempt

    def test_facade_is_exempt_from_wildcard_chaos_targets(self):
        swarm = HybridSwarm(small_background_spec(focal_seeds=1))
        controller = swarm.scenario.add_chaos(ChaosSchedule(events=(
            PeerCrash(start=5.0, target="*", downtime=10.0),
        )))
        for target in ("*", "wired"):
            names = {h.name for h in controller._resolve(target)}
            assert FACADE_NAME not in names
            assert "w0" in names
        # Exact-name targeting still reaches it.
        assert [h.name for h in controller._resolve(FACADE_NAME)] == [
            FACADE_NAME]

    def test_run_is_audit_clean_and_source_terms_flow(self):
        spec = small_background_spec()
        with audit.audited():
            result = run_hybrid(spec, seed=7)
        assert result.couplings > 0
        assert result.fluid_steps > 0
        # Focal leechers place demand on the background every coupling
        # step until they finish, so the mean must be positive.
        assert result.external_demand_mean > 0.0
        for fr in result.focal.values():
            assert fr.completion_time is not None
            assert fr.completion_time <= spec.max_time

    def test_background_is_a_real_piece_source(self):
        # No focal seed at all: every byte the focal leecher completes
        # must have come through the coupling facade, so a finite
        # completion time proves the boundary translation moves data,
        # not just bookkeeping.
        result = run_hybrid(small_background_spec(
            focal_wired=1, focal_mobile=0, handoff_interval=None,
        ), seed=11)
        completion = result.focal["w0"].completion_time
        assert completion is not None and completion < result.max_time
        assert result.utilization_mean > 0.0

    def test_result_is_json_serialisable(self):
        result = run_hybrid(small_background_spec(), seed=3)
        payload = json.dumps(result.to_jsonable())
        decoded = json.loads(payload)
        assert decoded["couplings"] == result.couplings
        assert set(decoded["focal"]) == {"w0", "m0"}
        assert decoded["background"] is not None


FAST_HYBRID = {
    "background_sizes": [500],
    "focal_mobile_fractions": [1.0],
    "focal_hosts": 2,
    "file_size_kib": 256,
    "max_time": 900.0,
}


class TestFigxHybridScenario:
    def test_runs_through_the_runner_on_the_hybrid_backend(self):
        run = Runner(jobs=1).run("figx_hybrid", FAST_HYBRID)
        assert run.spec.axis("backend") == "hybrid"
        assert run.stats.failed == 0
        for value in run.values.values():
            assert 0.0 < value["completion"] <= FAST_HYBRID["max_time"]
            assert value["couplings"] > 0

    def test_reruns_are_bit_identical(self):
        a = Runner(jobs=1).run("figx_hybrid", FAST_HYBRID)
        b = Runner(jobs=1).run("figx_hybrid", FAST_HYBRID)
        assert a.values == b.values

    def test_hybrid_cells_cache_and_replay(self, tmp_path):
        from repro.runner import ResultCache

        cache = ResultCache(tmp_path)
        first = Runner(jobs=1, cache=cache).run("figx_hybrid", FAST_HYBRID)
        again = Runner(jobs=1, cache=cache).run("figx_hybrid", FAST_HYBRID)
        assert again.stats.cache_hits == again.stats.total_cells
        assert again.values == first.values

    def test_packet_backend_is_refused(self):
        scn = get_scenario("figx_hybrid")
        assert scn.backends == ("hybrid",)
        assert scn.resolve_backend(None) == "hybrid"
        with pytest.raises(ValueError, match="hybrid"):
            scn.resolve_backend("packet")
