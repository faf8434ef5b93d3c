"""Unit tests for the unified metrics layer (repro.obs.metrics)."""

from __future__ import annotations

import math

import pytest

from repro.obs.metrics import (
    Counter,
    EwmaRateMeter,
    Gauge,
    Histogram,
    MetricsRegistry,
    WindowRateMeter,
)


class FakeClock:
    """A manually advanced clock for driving metrics in unit tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        a = reg.counter("tcp.retransmissions")
        b = reg.counter("tcp.retransmissions")
        assert a is b
        assert len(reg) == 1

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_names_sorted_and_contains(self):
        reg = MetricsRegistry()
        reg.gauge("b")
        reg.counter("a")
        assert reg.names() == ["a", "b"]
        assert "a" in reg and "missing" not in reg
        assert reg.get("missing") is None

    def test_shared_clock(self):
        clock = FakeClock()
        reg = MetricsRegistry(clock=clock)
        counter = reg.counter("c", record_history=True)
        clock.now = 3.0
        counter.add(10)
        assert counter.history == [(3.0, 10)]

    def test_snapshot_and_rows(self):
        reg = MetricsRegistry()
        reg.counter("a").add(2)
        reg.gauge("g").set(7)
        snap = reg.snapshot()
        assert snap["a"] == {"total": 2.0}
        assert snap["g"]["value"] == 7
        rows = reg.rows()
        assert [(name, kind) for name, kind, _ in rows] == [
            ("a", "counter"), ("g", "gauge"),
        ]

    def test_all_factory_kinds(self):
        reg = MetricsRegistry()
        assert reg.histogram("h").kind == "histogram"
        assert reg.ewma("e").kind == "ewma"
        assert reg.window_rate("w").kind == "window_rate"
        assert reg.series("s").kind == "series"


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("queue")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value == 12
        assert g.updates == 3

    def test_history(self):
        clock = FakeClock()
        g = Gauge("cwnd", clock=clock, record_history=True)
        g.set(1)
        clock.now = 2.0
        g.set(4)
        assert g.history == [(0.0, 1), (2.0, 4)]


class TestHistogram:
    def test_percentiles_interpolated(self):
        h = Histogram("lat")
        for v in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]:
            h.observe(v)
        assert h.percentile(0) == 10
        assert h.percentile(100) == 100
        assert h.percentile(50) == 55  # midpoint of 50 and 60
        assert h.percentile(25) == pytest.approx(32.5)
        assert h.min == 10 and h.max == 100

    def test_mean_count_sum(self):
        h = Histogram()
        h.observe(1)
        h.observe(3)
        assert h.count == 2
        assert h.sum == 4
        assert h.mean == 2

    def test_empty_and_bad_percentile(self):
        h = Histogram("x")
        with pytest.raises(ValueError):
            h.percentile(50)
        h.observe(1)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_single_observation(self):
        h = Histogram()
        h.observe(42)
        assert h.percentile(73) == 42

    def test_lazy_resort_after_new_data(self):
        h = Histogram()
        h.observe(5)
        assert h.percentile(50) == 5
        h.observe(1)  # arrives after a sort; must re-sort lazily
        assert h.percentile(0) == 1

    def test_snapshot_empty(self):
        assert Histogram().snapshot() == {"count": 0}


class TestEwmaRateMeter:
    def test_converges_to_constant_rate(self):
        clock = FakeClock()
        m = EwmaRateMeter("rate", clock=clock, tau=5.0)
        # 100 units every second -> should approach 100/s.
        for step in range(1, 60):
            clock.now = float(step)
            m.add(100)
        assert m.rate() == pytest.approx(100.0, rel=0.05)
        assert m.total == 100 * 59

    def test_decays_when_idle(self):
        clock = FakeClock()
        m = EwmaRateMeter(clock=clock, tau=5.0)
        for step in range(1, 30):
            clock.now = float(step)
            m.add(100)
        busy = m.rate()
        clock.now += 5.0  # one time constant of idleness
        assert m.rate() == pytest.approx(busy * math.exp(-1.0), rel=0.01)
        clock.now += 100.0
        assert m.rate() < 1e-6

    def test_first_sample_establishes_baseline(self):
        clock = FakeClock()
        m = EwmaRateMeter(clock=clock)
        assert m.rate() == 0.0
        m.add(1000)  # no elapsed interval yet
        assert m.rate() == 0.0

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            EwmaRateMeter(tau=0)


class TestWindowRateMeter:
    def test_window_semantics(self):
        clock = FakeClock()
        m = WindowRateMeter(clock=clock, window=10.0)
        m.add(1000)
        clock.now = 5.0
        m.add(1000)
        clock.now = 10.0
        assert m.rate() == pytest.approx(200.0, rel=0.05)
        clock.now = 100.0
        assert m.rate() == 0.0
        assert m.total_bytes == 2000


class TestProbesCompatShims:
    """Instruments bound to a simulator's clock follow simulated time."""

    def test_probe_counter_tracks_sim_clock(self):
        from repro.obs.metrics import Counter
        from repro.sim import Simulator

        sim = Simulator()
        c = Counter("x", lambda: sim.now, record_history=True)
        sim.schedule(2.5, lambda: c.add(7))
        sim.run()
        assert c.history == [(2.5, 7.0)]
        assert c.name == "x"

    def test_sim_metrics_registry_shares_clock(self):
        from repro.sim import Simulator

        sim = Simulator()
        counter = sim.metrics.counter("events", record_history=True)
        sim.schedule(1.0, lambda: counter.add(1))
        sim.run()
        assert counter.history == [(1.0, 1.0)]
        assert sim.metrics.counter("events") is counter
