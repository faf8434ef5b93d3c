"""Figure 8 — wP2P evaluation: AM, identity retention, LIHD (§5.2.1–5.2.2).

* ``fig8a``: two wireless leeches holding complementary halves of a file
  exchange over bi-directional TCP at swept BER; one runs wP2P's
  Age-based Manipulation, the other is the default client.  Paper: wP2P
  ≈ 20 % more download throughput at every BER.
* ``fig8b``: downloaded size vs time in a busy swarm with IP changes every
  minute — identity retention (wP2P) vs fresh-peer-ID restarts (default).
  Paper: wP2P pulls far ahead (≈ 100 MB extra after 50 min).
* ``fig8c``: download throughput vs wireless channel bandwidth with LIHD
  (α = β = 10 KB/s) vs the default client's uncapped uploads.  Paper:
  wP2P wins increasingly with bandwidth, up to ≈ 70 %.

Each figure is a registered scenario; ``fig8a``/``fig8b``/``fig8c``
remain as serial front doors over the runner.
"""

from __future__ import annotations

import random as _random
from typing import List, Sequence, Tuple

from ..analysis import ExperimentResult, Series, average_runs, summarize
from ..bittorrent import ClientConfig
from ..bittorrent.swarm import SwarmScenario
from ..runner import Scenario, collect, scenario
from ..wp2p import WP2PClient, WP2PConfig
from .base import random_piece_subset

AM_BERS: Tuple[float, ...] = (1e-6, 5e-6, 1e-5, 1.5e-5, 3e-5)
"""The paper sweeps 1e-6..1.5e-5; we extend to 3e-5 because our TCP
(which, unlike the paper's era stacks, restarts the RTO timer on fast
retransmit) only becomes ACK-loss-bound at higher error rates — that is
where AM's ~20-60%% gain shows in this reproduction."""


def am_only_config(**overrides) -> WP2PConfig:
    """wP2P with only the AM component active (isolates §5.2.1)."""
    cfg = WP2PConfig(
        am_enabled=True,
        mobility_aware_fetching=False,
        identity_retention=False,
        role_reversal=False,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def ia_config(**overrides) -> WP2PConfig:
    """wP2P with the incentive-aware components (IR + RR), AM/MF off."""
    cfg = WP2PConfig(
        am_enabled=False,
        mobility_aware_fetching=False,
        identity_retention=True,
        role_reversal=True,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def _fig8a_run(seed: int, ber: float, duration: float) -> Tuple[float, float]:
    """One run: (default, wP2P) download rates in bytes/s.

    Replicates the paper's setup: a seed populates two wireless leeches
    with disjoint halves (modelled directly as complementary initial
    pieces, i.e. the state after the paper removes the seed); thereafter
    all transfer is leech<->leech over one bi-directional TCP connection.
    """
    sc = SwarmScenario(seed=seed, file_size=6 * 1024 * 1024, piece_length=65_536)
    n = sc.torrent.num_pieces
    even = [i for i in range(n) if i % 2 == 0]
    odd = [i for i in range(n) if i % 2 == 1]
    default = sc.add_wireless_peer(
        "default", rate=100_000, ber=ber, initial_pieces=even,
    )
    wp2p = sc.add_wireless_peer(
        "wp2p", rate=100_000, ber=ber, initial_pieces=odd,
        client_factory=WP2PClient, config=am_only_config(),
    )
    sc.start_all()
    warmup = 5.0
    sc.run(until=warmup)
    base_d = default.client.downloaded.total
    base_w = wp2p.client.downloaded.total
    sc.run(until=warmup + duration)
    return (
        (default.client.downloaded.total - base_d) / duration,
        (wp2p.client.downloaded.total - base_w) / duration,
    )


@scenario
class Fig8A(Scenario):
    """AM vs default: download throughput across BER (Figure 8(a))."""

    name = "fig8a"
    description = "Figure 8(a): age-based manipulation vs default over BER"
    defaults = {
        "bers": list(AM_BERS),
        "runs": 5,
        "duration": 60.0,
        "base_seed": 800,
    }

    def cells(self, p):
        for ber in p["bers"]:
            for r in range(p["runs"]):
                yield (ber,), p["base_seed"] + r

    def run_cell(self, key, seed, p):
        # One swarm produces both clients' rates: the A/B pair shares its
        # environment noise by construction.
        default_rate, wp2p_rate = _fig8a_run(seed, key[0], p["duration"])
        return {"default": default_rate, "wp2p": wp2p_rate}

    def assemble(self, p, values, failures):
        def sweep(which: str, label: str) -> Series:
            ys: List[float] = []
            errs: List[float] = []
            for ber in p["bers"]:
                vals = [pair[which] for pair in collect(values, (ber,))]
                ys.append(sum(vals) / len(vals) / 1000.0)
                errs.append(summarize([v / 1000.0 for v in vals]).ci95)
            return Series(label, list(p["bers"]), ys, y_err=errs)

        return ExperimentResult(
            figure="Figure 8(a)",
            title="Age-based manipulation under random wireless losses",
            x_label="Bit error rate",
            y_label="Throughput (KB/s)",
            series=[sweep("default", "Default P2P"), sweep("wp2p", "wP2P")],
            paper_expectation="wP2P outperforms the default client at all BERs (~20%)",
            parameters={"runs": p["runs"], "duration_s": p["duration"]},
        )


def _fig8b_swarm(seed: int, handoff_interval: float):
    """The busy-swarm testbed both mobile clients download from."""
    sc = SwarmScenario(
        seed=seed, file_size=64 * 1024 * 1024, piece_length=131_072,
        tracker_interval=60.0,
    )
    competitor_cfg = ClientConfig(
        unchoke_slots=2, optimistic_every=5, choke_interval=5.0,
        ledger_half_life=120.0,
    )
    for i in range(2):
        sc.add_wired_peer(f"s{i}", complete=True, up_rate=80_000, config=competitor_cfg)
    for i in range(6):
        sc.add_wired_peer(f"c{i}", up_rate=60_000, config=competitor_cfg)
    # The default client's task re-initiation (teardown, resume hash-check,
    # re-announce) costs real time; wP2P's role reversal skips all of it.
    default_cfg = ClientConfig(
        unchoke_slots=2, choke_interval=5.0, task_restart_delay=15.0
    )
    default = sc.add_wireless_peer("default", rate=400_000, config=default_cfg)
    wcfg = ia_config(unchoke_slots=2, choke_interval=5.0)
    wp2p = sc.add_wireless_peer(
        "wp2p", rate=400_000, config=wcfg, client_factory=WP2PClient
    )
    sc.add_mobility(default, interval=handoff_interval, downtime=1.0, jitter=5.0)
    sc.add_mobility(wp2p, interval=handoff_interval, downtime=1.0, jitter=5.0)
    return sc, default, wp2p


@scenario
class Fig8B(Scenario):
    """Identity retention under periodic IP changes (Figure 8(b))."""

    name = "fig8b"
    description = "Figure 8(b): identity retention vs restarts under mobility"
    defaults = {
        "duration": 300.0,
        "handoff_interval": 60.0,
        "sample_step": 20.0,
        "runs": 2,
        "base_seed": 850,
    }

    @staticmethod
    def _grid(p) -> List[float]:
        return [
            p["sample_step"] * i
            for i in range(int(p["duration"] / p["sample_step"]) + 1)
        ]

    def cells(self, p):
        for r in range(p["runs"]):
            yield ("run",), p["base_seed"] + r

    def run_cell(self, key, seed, p):
        grid = self._grid(p)
        sc, default, wp2p = _fig8b_swarm(seed, p["handoff_interval"])
        sc.start_all()
        sc.run(until=p["duration"])
        return {
            "default": [default.client.downloaded.value_at(t) / 1e6 for t in grid],
            "wp2p": [wp2p.client.downloaded.value_at(t) / 1e6 for t in grid],
        }

    def assemble(self, p, values, failures):
        grid = self._grid(p)
        pairs = collect(values, ("run",))
        return ExperimentResult(
            figure="Figure 8(b)",
            title="Identity retention: download progress under mobility",
            x_label="Downloading time (s)",
            y_label="Downloaded size (MB)",
            series=[
                Series("Default P2P", grid, average_runs([pair["default"] for pair in pairs])),
                Series("wP2P", grid, average_runs([pair["wp2p"] for pair in pairs])),
            ],
            paper_expectation=(
                "wP2P's curve grows faster throughout; the default client is "
                "reset to newcomer service after every IP change"
            ),
            parameters={
                "runs": p["runs"],
                "duration_s": p["duration"],
                "handoff_interval_s": p["handoff_interval"],
            },
        )


def _fig8c_run(seed: int, bandwidth: float, use_lihd: bool, duration: float) -> float:
    """One run: the mobile leech's download rate (bytes/s)."""
    sc = SwarmScenario(seed=seed, file_size=8 * 1024 * 1024, piece_length=65_536)
    n = sc.torrent.num_pieces

    rng = _random.Random(seed * 31 + 7)
    # Remote capacities comfortably exceed the swept channel rates, so the
    # mobile host's *channel* — and how its uploads contend on it — is the
    # binding resource across the whole sweep, as on the paper's testbed.
    competitor_cfg = ClientConfig(unchoke_slots=1, optimistic_every=3, choke_interval=5.0)
    sc.add_wired_peer("s0", complete=True, up_rate=150_000, config=competitor_cfg)
    for i in range(8):
        sc.add_wired_peer(
            f"c{i}",
            initial_pieces=random_piece_subset(rng, n, 0.5),
            up_rate=40_000.0 + 15_000.0 * i,
            config=competitor_cfg,
        )
    mine = random_piece_subset(rng, n, 0.4)
    if use_lihd:
        wcfg = WP2PConfig(
            am_enabled=False,
            mobility_aware_fetching=False,
            identity_retention=False,
            role_reversal=False,
            lihd_u_max=bandwidth,
            lihd_interval=5.0,
            unchoke_slots=6,
            choke_interval=5.0,
        )
        x = sc.add_wireless_peer(
            "x", rate=bandwidth, initial_pieces=mine, config=wcfg,
            client_factory=WP2PClient, ap_queue_packets=20,
        )
    else:
        cfg = ClientConfig(unchoke_slots=6, choke_interval=5.0, upload_limit=None)
        x = sc.add_wireless_peer(
            "x", rate=bandwidth, initial_pieces=mine, config=cfg,
            ap_queue_packets=20,
        )
    sc.start_all()
    warmup = 10.0
    sc.run(until=warmup)
    base = x.client.downloaded.total
    sc.run(until=warmup + duration)
    return (x.client.downloaded.total - base) / duration


@scenario
class Fig8C(Scenario):
    """LIHD upload-rate control vs uncapped default (Figure 8(c))."""

    name = "fig8c"
    description = "Figure 8(c): LIHD upload adaptation vs channel bandwidth"
    defaults = {
        "bandwidths": [50_000.0, 100_000.0, 150_000.0, 200_000.0],
        "runs": 3,
        "duration": 60.0,
        "base_seed": 900,
    }

    def cells(self, p):
        for variant in ("default", "lihd"):
            for bw in p["bandwidths"]:
                for r in range(p["runs"]):
                    yield (variant, bw), p["base_seed"] + r

    def run_cell(self, key, seed, p):
        variant, bw = key
        return _fig8c_run(seed, bw, use_lihd=(variant == "lihd"), duration=p["duration"])

    def assemble(self, p, values, failures):
        def sweep(variant: str, label: str) -> Series:
            ys: List[float] = []
            errs: List[float] = []
            for bw in p["bandwidths"]:
                vals = collect(values, (variant, bw))
                ys.append(sum(vals) / len(vals) / 1000.0)
                errs.append(summarize([v / 1000.0 for v in vals]).ci95)
            return Series(label, [bw / 1000 for bw in p["bandwidths"]], ys, y_err=errs)

        return ExperimentResult(
            figure="Figure 8(c)",
            title="LIHD upload-rate adaptation vs physical wireless bandwidth",
            x_label="Physical wireless bandwidth (KB/s)",
            y_label="Downloading throughput (KB/s)",
            series=[sweep("default", "Default P2P"), sweep("lihd", "wP2P")],
            paper_expectation=(
                "both rise with bandwidth initially; beyond a point the default "
                "client loses throughput to upload self-contention while wP2P "
                "keeps gaining (up to ~70% better at 200 KB/s)"
            ),
            parameters={"runs": p["runs"], "duration_s": p["duration"]},
        )
