"""Figure 8 benchmarks: wP2P's AM, identity retention, and LIHD (§5.2.1–5.2.2)."""

from __future__ import annotations

from repro.obs.metrics import mean

from conftest import run_figure


def test_fig8a_age_based_manipulation(benchmark):
    """Figure 8(a): AM recovers download throughput under random losses.

    Our stack both piggybacks less exclusively (RFC 1122 delayed ACKs) and
    recovers losses more robustly (fast retransmit restarts the RTO timer)
    than the paper's era stacks, so AM's gain is within noise over the
    paper's 1e-6..1.5e-5 range and concentrates at the appended 3e-5 point
    where ACK losses genuinely bind; see EXPERIMENTS.md.
    """
    result = run_figure(benchmark, "fig8a", runs=6, duration=60.0)
    default = result.get("Default P2P")
    wp2p = result.get("wP2P")
    # at the highest swept BER (3e-5, where ACK losses bind), clearly ahead
    assert wp2p.y[-1] > default.y[-1] * 1.15
    # wP2P never materially worse anywhere
    for x in default.x:
        assert wp2p.y_at(x) > default.y_at(x) * 0.9
    # both decline with BER
    assert default.y[-1] < default.y[0]
    assert wp2p.y[-1] < wp2p.y[0]


def test_fig8b_identity_retention(benchmark):
    """Figure 8(b): identity retention keeps the mobile peer's credit
    across handoffs; the default client restarts as a stranger."""
    result = run_figure(benchmark, "fig8b", runs=2, duration=240.0)
    default = result.get("Default P2P")
    wp2p = result.get("wP2P")
    assert wp2p.y[-1] > default.y[-1]
    # the advantage holds over the back half of the run, not just at the end
    back_half = len(wp2p.y) // 2
    wins = sum(
        1 for d, w in zip(default.y[back_half:], wp2p.y[back_half:]) if w >= d
    )
    assert wins >= (len(wp2p.y) - back_half) * 0.7


def test_fig8c_lihd(benchmark):
    """Figure 8(c): LIHD finds the upload rate that maximises downloads;
    the uncapped default loses throughput to self-contention."""
    result = run_figure(benchmark, "fig8c", runs=3, duration=50.0)
    default = result.get("Default P2P")
    wp2p = result.get("wP2P")
    # wP2P at least matches the default at every bandwidth...
    for x in default.x:
        assert wp2p.y_at(x) >= default.y_at(x) * 0.9
    # ...and clearly wins where contention binds
    gains = [wp2p.y_at(x) / max(default.y_at(x), 1e-9) for x in default.x]
    assert max(gains) > 1.3
    # both series rise with bandwidth overall
    assert wp2p.y[-1] > wp2p.y[0]
    assert default.y[-1] > default.y[0]
