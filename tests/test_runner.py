"""Tests for the scenario registry and the parallel, cache-aware runner."""

from __future__ import annotations

import json

import pytest

import repro.experiments  # noqa: F401  — registers the figure scenarios
from repro.obs import tracing
from repro.obs.metrics import MetricsRegistry
from repro.runner import (
    ResultCache,
    Runner,
    Scenario,
    ScenarioSpec,
    UnknownScenarioError,
    code_version,
    collect,
    freeze_params,
    get_scenario,
    run_scenario,
    scenario,
    scenario_names,
)
from repro.runner.spec import cell_digest

# Tiny fig2a campaign: 2 BERs x 2 seeds x 2 modes = 8 cells, < 1 s total.
FAST_FIG2A = {"runs": 2, "duration": 2.0, "bers": [0.0, 1e-5]}


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_every_figure_is_registered(self):
        assert set(scenario_names()) >= {
            "fig2a", "fig2bc", "fig3a", "fig3b", "fig3c", "fig4a",
            "fig4bc", "fig8a", "fig8b", "fig8c", "fig9ab", "fig9c",
        }

    def test_lookup_returns_the_scenario(self):
        scn = get_scenario("fig2a")
        assert scn.name == "fig2a"
        assert scn.description

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(UnknownScenarioError) as exc:
            get_scenario("fig99")
        assert "fig99" in str(exc.value)
        assert "fig2a" in str(exc.value)  # the error lists what *is* known

    def test_unknown_override_key_fails_fast(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            get_scenario("fig2a").params({"durations": 5.0})

    def test_duplicate_registration_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            @scenario
            class Impostor(Scenario):
                name = "fig2a"

    def test_collect_orders_by_seed(self):
        values = {(("a",), 3): 30, (("a",), 1): 10, (("b",), 2): 99, (("a",), 2): 20}
        assert collect(values, ("a",)) == [10, 20, 30]


# ----------------------------------------------------------------------
# Spec hashing
# ----------------------------------------------------------------------
class TestSpec:
    def test_params_are_canonical(self):
        # Tuples and lists hash identically: both become JSON arrays.
        a = ScenarioSpec.create("x", {"bers": (0.0, 1e-5)})
        b = ScenarioSpec.create("x", {"bers": [0.0, 1e-5]})
        assert a == b
        assert a.spec_hash() == b.spec_hash()

    def test_spec_is_hashable(self):
        spec = ScenarioSpec.create("x", {"runs": 2}, seeds=(1, 2))
        assert spec in {spec}

    def test_different_params_different_digest(self):
        a = ScenarioSpec.create("x", {"runs": 2})
        b = ScenarioSpec.create("x", {"runs": 3})
        assert cell_digest(a, ("k",), 1) != cell_digest(b, ("k",), 1)

    def test_digest_depends_on_seed_and_key(self):
        spec = ScenarioSpec.create("x", {"runs": 2})
        assert cell_digest(spec, ("k",), 1) != cell_digest(spec, ("k",), 2)
        assert cell_digest(spec, ("k",), 1) != cell_digest(spec, ("j",), 1)

    def test_code_version_is_stable(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16

    def test_freeze_params_json_round_trip(self):
        frozen = freeze_params({"a": (1, 2), "b": {"c": 3.0}})
        assert frozen == {"a": [1, 2], "b": {"c": 3.0}}


# ----------------------------------------------------------------------
# Determinism: serial == parallel, bit for bit
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_serial_and_parallel_are_bit_identical(self):
        serial = Runner(jobs=1).run("fig2a", FAST_FIG2A)
        parallel = Runner(jobs=4).run("fig2a", FAST_FIG2A)
        assert serial.values == parallel.values
        s = [(s.label, s.x, s.y, s.y_err) for s in serial.result.series]
        p = [(s.label, s.x, s.y, s.y_err) for s in parallel.result.series]
        assert json.dumps(s) == json.dumps(p)

    def test_wrapper_matches_runner(self):
        direct = run_scenario("fig2a", {"runs": 2, "duration": 2.0, "bers": [0.0, 1e-5]})
        via_runner = Runner(jobs=2).run("fig2a", FAST_FIG2A).result
        assert [s.y for s in direct.series] == [s.y for s in via_runner.series]

    def test_cells_run_under_the_context_layered_over_the_ambient_one(self):
        from repro import audit
        from repro.context import current_context

        before = current_context()
        with audit.audited() as auditors:
            run = Runner(jobs=1, chaos="churn").run("fig2bc", {"duration": 5.0})
            # the runner's chaos axis was layered over the ambient audit
            # for each cell, then reset with its token
            assert current_context().chaos is None
        assert not run.failures
        assert len(auditors) == run.stats.executed == 2
        assert current_context() == before

    def test_trace_sinks_force_serial(self, tmp_path):
        # Global sinks live in this process; the runner must not fan out.
        lines = []
        with tracing.capture(path=str(tmp_path / "t.jsonl")):
            assert tracing.installed()
            run = Runner(jobs=4, progress=lines.append).run("fig2a", FAST_FIG2A)
        assert run.stats.executed == 8
        assert any("serial" in line for line in lines)


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
class TestCache:
    def test_cold_run_misses_then_populates(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run = Runner(cache=cache).run("fig2a", FAST_FIG2A)
        assert run.stats.cache_hits == 0
        assert run.stats.executed == run.stats.total_cells == 8
        assert len(cache) == 8

    def test_warm_rerun_executes_zero_simulations(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cold = Runner(cache=cache).run("fig2a", FAST_FIG2A)
        warm = Runner(cache=cache).run("fig2a", FAST_FIG2A)
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == warm.stats.total_cells
        # and the assembled result is bit-identical to the cold one
        assert warm.values == cold.values
        assert [s.y for s in warm.result.series] == [s.y for s in cold.result.series]

    def test_changed_params_invalidate(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        Runner(cache=cache).run("fig2a", FAST_FIG2A)
        changed = dict(FAST_FIG2A, duration=3.0)
        rerun = Runner(cache=cache).run("fig2a", changed)
        assert rerun.stats.cache_hits == 0
        assert rerun.stats.executed == 8

    def test_changed_code_version_invalidates(self, tmp_path):
        spec = ScenarioSpec.create("fig2a", freeze_params(FAST_FIG2A))
        assert (
            cell_digest(spec, ("uni", 0.0), 100, code="aaaa")
            != cell_digest(spec, ("uni", 0.0), 100, code="bbbb")
        )

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("ab" * 32, {"v": 1})
        with open(cache._path("ab" * 32), "w", encoding="utf-8") as handle:
            handle.write("not json{")
        hit, value = cache.get("ab" * 32)
        assert not hit and value is None

    def test_no_cache_runner_never_touches_disk(self, tmp_path):
        Runner(cache=None).run("fig2a", FAST_FIG2A)
        assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# Failure capture and degradation
# ----------------------------------------------------------------------
@scenario
class FlakyScenario(Scenario):
    """Seed 2 always dies; seed 3 fails once then succeeds."""

    name = "test-flaky"
    description = "test scenario: deterministic failures"
    defaults = {"seeds": [1, 2, 3]}

    def cells(self, p):
        for seed in p["seeds"]:
            yield ("v",), seed

    def run_cell(self, key, seed, p):
        if seed == 2:
            raise RuntimeError("seed 2 always dies")
        if seed == 3 and not getattr(self, "_seed3_failed", False):
            self._seed3_failed = True
            raise RuntimeError("seed 3 dies once")
        return seed * 10

    def assemble(self, p, values, failures):
        return {"values": collect(values, ("v",)), "failed": len(failures)}


class TestFailures:
    def test_dead_seed_is_reported_not_fatal(self):
        metrics = MetricsRegistry()
        run = Runner(metrics=metrics, retries=1).run("test-flaky")
        # seed 2 failed (after a retry), seeds 1 and 3 survived
        assert run.result == {"values": [10, 30], "failed": 1}
        assert [f.seed for f in run.failures] == [2]
        failure = run.failures[0]
        assert failure.attempts == 2
        assert "seed 2 always dies" in failure.error
        assert "seed 2 always dies" in failure.summary()
        # stats: retries counted for both the dead and the flaky seed
        assert run.stats.failed == 1
        assert run.stats.retries == 2
        assert run.stats.executed == 3
        assert metrics.counter("runner.failures").total == 1

    def test_default_is_no_retry(self):
        run = Runner().run("test-flaky", {"seeds": [2]})
        assert run.failures[0].attempts == 1
        assert run.stats.retries == 0

    def test_zero_retries_fails_immediately(self):
        run = Runner(retries=0).run("test-flaky", {"seeds": [2]})
        assert run.failures[0].attempts == 1

    def test_failed_cells_are_not_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        Runner(cache=cache).run("test-flaky", {"seeds": [1, 2]})
        assert len(cache) == 1  # only seed 1's value landed on disk

    def test_invalid_runner_args_rejected(self):
        with pytest.raises(ValueError):
            Runner(jobs=0)
        with pytest.raises(ValueError):
            Runner(retries=-1)


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
class TestObservability:
    def test_runner_metrics_and_progress(self):
        metrics = MetricsRegistry()
        lines = []
        run = Runner(metrics=metrics, progress=lines.append).run(
            "fig2a", FAST_FIG2A
        )
        assert metrics.counter("runner.cells").total == 8
        assert metrics.counter("runner.executed").total == 8
        assert metrics.counter("runner.cache_hits").total == 0
        assert metrics.histogram("runner.cell_seconds").snapshot()["count"] == 8
        assert len(run.stats.cell_seconds) == 8
        assert sum(1 for line in lines if "/8 cells" in line) == 8
        assert "8 cells: 8 executed" in run.stats.summary()

    def test_run_scenario_front_door(self):
        result = run_scenario("fig2bc", {"duration": 5.0})
        assert result.figure == "Figure 2(b, c)"
