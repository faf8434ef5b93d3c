"""Smoke/shape tests for the experiment harness (fast variants).

The full campaigns with paper-shaped assertions live in ``benchmarks/``;
these tests check that every experiment runs end-to-end at reduced scale
and produces structurally sound results.
"""

from __future__ import annotations

import pytest

from repro.analysis import ExperimentResult, Series
from repro.experiments import (
    cluster_drops,
    drop_response_ratio,
    playability_run,
    run_transfer,
)
from repro.runner import run_scenario


class TestSeriesContainers:
    def test_series_length_check(self):
        with pytest.raises(ValueError):
            Series("x", [1, 2], [1])

    def test_y_at_and_peak(self):
        s = Series("s", [1, 2, 3], [5.0, 9.0, 7.0])
        assert s.y_at(2) == 9.0
        assert s.peak_x == 2
        assert s.mean_y() == pytest.approx(7.0)
        with pytest.raises(KeyError):
            s.y_at(99)

    def test_result_table_renders(self):
        r = ExperimentResult(
            figure="Fig X", title="T", x_label="x", y_label="y",
            series=[Series("a", [1, 2], [3.0, 4.0])],
            paper_expectation="up and to the right",
        )
        text = r.table()
        assert "Fig X" in text
        assert "paper:" in text
        assert "3.00" in text

    def test_result_get_unknown_label(self):
        r = ExperimentResult("F", "T", "x", "y")
        with pytest.raises(KeyError):
            r.get("nope")


class TestRawTransferHarness:
    def test_unidirectional_transfer_measures_down(self):
        stats = run_transfer(seed=1, ber=0.0, bidirectional=False, duration=10.0)
        assert stats.delivered_down > 0
        assert stats.delivered_up == 0
        assert stats.down_rate_kbps > 0

    def test_bidirectional_transfer_measures_both(self):
        stats = run_transfer(seed=1, ber=0.0, bidirectional=True, duration=10.0)
        assert stats.delivered_down > 0
        assert stats.delivered_up > 0

    def test_ber_reduces_throughput(self):
        clean = run_transfer(seed=2, ber=0.0, bidirectional=False, duration=15.0)
        lossy = run_transfer(seed=2, ber=2e-5, bidirectional=False, duration=15.0)
        assert lossy.down_rate_kbps < clean.down_rate_kbps


class TestFig2Helpers:
    def test_cluster_drops(self):
        assert cluster_drops([1.0, 1.1, 1.2, 5.0, 5.05, 9.0], min_gap=1.0) == [1.0, 5.0, 9.0]
        assert cluster_drops([]) == []

    def test_drop_response_ratio_empty(self):
        s = Series("s", [], [])
        assert drop_response_ratio(s, [1.0]) is None

    def test_fig2a_mini(self):
        result = run_scenario("fig2a", {"bers": [0.0, 2e-5], "runs": 1, "duration": 10.0})
        assert result.get("Uni-TCP").y_at(0.0) > result.get("Uni-TCP").y_at(2e-5)

    def test_fig2bc_mini(self):
        result = run_scenario("fig2bc", {"duration": 10.0})
        assert len(result.get("Uni-directional")) > 10
        assert result.parameters["bi_drop_times"]


class TestPlayabilityHarness:
    def test_playability_run_returns_full_curve(self):
        curve = playability_run(1, num_pieces=10)
        assert curve[0] == (0.0, 0.0)
        assert curve[-1] == (100.0, 100.0)

    def test_fig4bc_mini(self):
        result = run_scenario("fig4bc", {"num_pieces": 10, "runs": 2})
        series = result.series[0]
        assert series.y_at(0.0) == 0.0
        assert series.y_at(100.0) == 100.0

    def test_fig9ab_mini(self):
        result = run_scenario("fig9ab", {"num_pieces": 10, "runs": 2})
        assert set(result.labels()) == {"Default P2P", "wP2P"}
        # MF at least matches rarest-first mid-download on average
        assert result.get("wP2P").y_at(50.0) >= result.get("Default P2P").y_at(50.0) - 10


class TestFig8Mini:
    def test_fig8a_mini_runs(self):
        result = run_scenario("fig8a", {"bers": [1e-5], "runs": 1, "duration": 15.0})
        assert result.get("Default P2P").y[0] > 0
        assert result.get("wP2P").y[0] > 0


class TestFigXErasureMini:
    def test_packet_cell_variants_share_volume_fairness(self):
        from repro.experiments.figx_erasure import erasure_run

        rep = erasure_run(
            seed=1300, variant="replication", intensity=0.0,
            mobile_fraction=0.5, duration=240.0, horizon=120.0,
            source_kib=256,
        )
        coded = erasure_run(
            seed=1300, variant="coded", intensity=0.0,
            mobile_fraction=0.5, duration=240.0, horizon=120.0,
            source_kib=256,
        )
        for cell in (rep, coded):
            assert cell["survival"] == 1.0
            assert cell["completion"] is not None
            assert cell["faults"] == 0.0

    def test_fluid_sweep_gate_shape(self):
        result = run_scenario(
            "figx_erasure", {"runs": 1}, backend="fluid",
        )
        gate = result.parameters["gate"]
        assert gate["intensities"][0] == 0.0
        assert gate["advantage"][0] == 0.0
        advantage = gate["advantage"]
        assert all(b >= a for a, b in zip(advantage, advantage[1:]))
        assert gate["coded_at_gate"] >= gate["replication_at_gate"]
        assert len(result.series) == 3

    def test_unknown_variant_rejected(self):
        from repro.experiments.figx_erasure import erasure_run

        with pytest.raises(ValueError, match="variant"):
            erasure_run(
                seed=1, variant="parity", intensity=0.0,
                mobile_fraction=0.5, duration=10.0, horizon=10.0,
            )
