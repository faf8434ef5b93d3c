"""Figure 3 benchmarks: incentives, wireless contention, mobility (§3.3–3.4)."""

from __future__ import annotations

from repro.obs.metrics import mean

from conftest import run_figure


def test_fig3a_upload_cap_wired(benchmark):
    """Figure 3(a): on a wired link, more upload buys more download."""
    result = run_figure(benchmark, "fig3a", runs=3, duration=40.0)
    series = result.get("Wired")
    low = mean(y for x, y in zip(series.x, series.y) if x <= 30)
    high = mean(y for x, y in zip(series.x, series.y) if x >= 50)
    print(f"low-cap mean {low:.1f} KB/s, high-cap mean {high:.1f} KB/s")
    assert high > low


def test_fig3b_upload_cap_wireless(benchmark):
    """Figure 3(b): on a shared wireless channel the curve peaks early and
    then falls — uploads contend with downloads for airtime."""
    result = run_figure(benchmark, "fig3b", runs=3, duration=40.0)
    series = result.get("Wireless")
    peak_x = series.peak_x
    peak_y = max(series.y)
    print(f"peak at {peak_x:.0f}% cap")
    assert peak_x <= 60  # peak well below the wired case's 80-90%
    assert series.y_at(10.0) < peak_y  # rising edge exists
    assert series.y_at(90.0) < peak_y  # falling edge exists


def test_fig3c_incentives_and_mobility(benchmark):
    """Figure 3(c): uploading pays without mobility; with periodic IP
    changes the incentive mechanism is neutralised."""
    result = run_figure(benchmark, "fig3c", runs=1, duration=360.0)
    nm_up = result.get("No mobility, uploading").y[-1]
    nm_noup = result.get("No mobility, no uploading").y[-1]
    m_up = result.get("Mobility, uploading").y[-1]
    m_noup = result.get("Mobility, no uploading").y[-1]
    # incentives work when static
    assert nm_up > nm_noup
    # mobility erases the upload advantage (marginal difference)
    assert abs(m_up - m_noup) < (nm_up - nm_noup)
    # both mobility curves end below the best static curve
    assert m_up < nm_up
    assert m_noup < nm_up
