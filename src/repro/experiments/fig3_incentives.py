"""Figure 3 — uploads-based incentives meet the wireless channel (§3.3–3.4).

* ``fig3a`` (wired): the measured peer's download rate is an increasing
  function of its upload-rate cap — tit-for-tat reciprocation, and wired
  up/down links don't share capacity.
* ``fig3b`` (wireless): the same sweep behind a shared half-duplex cell
  rises to a peak and then *falls* — uploads steal airtime from downloads.
* ``fig3c``: downloaded size vs time for {mobility, none} × {uploading,
  none}.  Without mobility, uploading buys a clearly better download rate;
  with mobility (periodic IP change, task re-init, fresh peer ID) the
  incentive mechanism is neutralised and both mobility curves sit low and
  close together.

Each figure is a registered :class:`~repro.runner.registry.Scenario`
whose cells are single seeded swarm simulations, so the runner can
parallelise and cache them; the ``fig3a``/``fig3b``/``fig3c`` functions
are the serial front doors.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from ..analysis import ExperimentResult, Series, average_runs, summarize
from ..bittorrent import ClientConfig
from ..bittorrent.swarm import SwarmScenario
from ..runner import Scenario, collect, scenario
from .base import random_piece_subset

UPLOAD_FRACTIONS: Tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def _incentive_swarm(
    seed: int,
    wireless: bool,
    upload_limit: Optional[float],
    duration: float,
    channel_rate: float,
    n_remote: int = 6,
    file_mb: float = 4.0,
) -> float:
    """One run: the measured peer's mean download rate (bytes/s).

    The swarm has no seed: every peer (including the measured one) starts
    with a random half of the pieces, so reciprocation — and therefore the
    upload cap — governs how fast the measured peer is served.
    """
    file_size = int(file_mb * 1024 * 1024)
    sc = SwarmScenario(seed=seed, file_size=file_size, piece_length=65_536)
    n_pieces = sc.torrent.num_pieces
    rng = random.Random(seed * 977 + 13)
    # Remote leeches compete hard for each other's single ranked unchoke
    # slot, so the measured peer's reciprocation rate decides how well it
    # is served — the tit-for-tat lever the sweep exercises.
    remote_config = ClientConfig(unchoke_slots=1, optimistic_every=3, choke_interval=5.0)
    for i in range(n_remote):
        # Heterogeneous uplinks: as the measured peer's cap grows it
        # out-reciprocates progressively more competitors, so the
        # tit-for-tat benefit rises gradually rather than as a step.
        sc.add_wired_peer(
            f"r{i}",
            initial_pieces=random_piece_subset(rng, n_pieces, 0.5),
            config=remote_config,
            up_rate=10_000.0 + 10_000.0 * i,
            down_rate=500_000,
        )
    # Wireless: serve many peers so the actual upload tracks the swept cap
    # (airtime contention is the effect under test).  Wired: fewer slots so
    # the per-slot rate is competitive (reciprocation is the effect).
    measured_config = ClientConfig(
        unchoke_slots=4 if wireless else 2,
        choke_interval=5.0,
        upload_limit=upload_limit,
    )
    mine = random_piece_subset(rng, n_pieces, 0.5)
    if wireless:
        x = sc.add_wireless_peer(
            "x", rate=channel_rate, initial_pieces=mine, config=measured_config,
            ap_queue_packets=20,
        )
    else:
        x = sc.add_wired_peer(
            "x",
            initial_pieces=mine,
            config=measured_config,
            down_rate=500_000,
            up_rate=48_000,
        )
    sc.start_all()
    warmup = 10.0
    sc.run(until=warmup)
    base = x.client.downloaded.total
    sc.run(until=warmup + duration)
    return (x.client.downloaded.total - base) / duration


class _UploadSweepScenario(Scenario):
    """Shared machinery for the fig3a/fig3b upload-cap sweeps."""

    wireless = False
    figure = ""
    title = ""
    x_label = ""
    paper_expectation = ""

    def cells(self, p):
        for frac in p["fractions"]:
            for r in range(p["runs"]):
                yield (frac,), p["base_seed"] + r

    def run_cell(self, key, seed, p):
        (frac,) = key
        return _incentive_swarm(
            seed,
            self.wireless,
            upload_limit=frac * p["reference_rate"],
            duration=p["duration"],
            channel_rate=p["channel_rate"],
        )

    def assemble(self, p, values, failures):
        label = "Wireless" if self.wireless else "Wired"
        ys: List[float] = []
        errs: List[float] = []
        for frac in p["fractions"]:
            vals = collect(values, (frac,))
            ys.append(sum(vals) / len(vals) / 1000.0)  # KB/s
            errs.append(summarize([v / 1000.0 for v in vals]).ci95)
        series = Series(label, [100 * f for f in p["fractions"]], ys, y_err=errs)
        parameters = {"runs": p["runs"], "duration_s": p["duration"]}
        if self.wireless:
            parameters["channel_Bps"] = p["channel_rate"]
        return ExperimentResult(
            figure=self.figure,
            title=self.title,
            x_label=self.x_label,
            y_label="Download throughput (KB/s)",
            series=[series],
            paper_expectation=self.paper_expectation,
            parameters=parameters,
        )


@scenario
class Fig3A(_UploadSweepScenario):
    """Download rate vs upload cap on a wired (cable) access link."""

    name = "fig3a"
    description = "Figure 3(a): download vs upload cap on a wired access link"
    wireless = False
    figure = "Figure 3(a)"
    title = "Impact of upload cap on downloads: wired"
    x_label = "Upload limit (% of uplink capacity)"
    paper_expectation = "download rate is an increasing function of the upload cap"
    defaults = {
        "fractions": list(UPLOAD_FRACTIONS),
        "runs": 3,
        "duration": 60.0,
        "base_seed": 300,
        "reference_rate": 48_000.0,  # 384 Kbps cable uplink
        "channel_rate": 0.0,
    }


@scenario
class Fig3B(_UploadSweepScenario):
    """Download rate vs upload cap behind a shared wireless channel."""

    name = "fig3b"
    description = "Figure 3(b): download vs upload cap behind a shared wireless cell"
    wireless = True
    figure = "Figure 3(b)"
    title = "Impact of upload cap on downloads: wireless"
    x_label = "Upload limit (% of channel capacity)"
    paper_expectation = (
        "rises with the cap initially, peaks well below the wired case's "
        "80–90%, then falls as uploads contend for the shared channel"
    )
    defaults = {
        "fractions": list(UPLOAD_FRACTIONS),
        "runs": 3,
        "duration": 60.0,
        "base_seed": 400,
        "reference_rate": 100_000.0,
        "channel_rate": 100_000.0,
    }


FIG3C_CASES: Tuple[Tuple[str, bool, float], ...] = (
    ("No mobility, uploading", False, 60_000.0),
    ("No mobility, no uploading", False, 0.0),
    ("Mobility, uploading", True, 60_000.0),
    ("Mobility, no uploading", True, 0.0),
)


@scenario
class Fig3C(Scenario):
    """Downloaded size vs time: {mobility, none} x {uploading, none}."""

    name = "fig3c"
    description = (
        "Figure 3(c): download progress under incentives x mobility"
    )
    defaults = {
        "duration": 420.0,
        "handoff_interval": 60.0,
        "sample_step": 20.0,
        "runs": 2,
        "base_seed": 500,
        "file_mb": 32.0,
    }

    @staticmethod
    def _grid(p) -> List[float]:
        return [
            p["sample_step"] * i
            for i in range(int(p["duration"] / p["sample_step"]) + 1)
        ]

    def cells(self, p):
        for label, _, _ in FIG3C_CASES:
            for r in range(p["runs"]):
                yield (label,), p["base_seed"] + r

    def run_cell(self, key, seed, p):
        (label,) = key
        mobile, upload_limit = next(
            (m, u) for case_label, m, u in FIG3C_CASES if case_label == label
        )
        return _fig3c_run(
            seed, mobile, upload_limit, p["duration"], self._grid(p),
            p["handoff_interval"], p["file_mb"],
        )

    def assemble(self, p, values, failures):
        grid = self._grid(p)
        series: List[Series] = []
        for label, _, _ in FIG3C_CASES:
            curves = collect(values, (label,))
            series.append(Series(label, grid, average_runs(curves)))
        return ExperimentResult(
            figure="Figure 3(c)",
            title="Impact of incentives and mobility on download progress",
            x_label="Time (s)",
            y_label="Downloaded size (MB)",
            series=series,
            paper_expectation=(
                "without mobility, uploading clearly beats not uploading; with "
                "mobility both curves drop below the no-mobility ones and the "
                "upload advantage becomes marginal (incentives neutralised)"
            ),
            parameters={
                "runs": p["runs"],
                "duration_s": p["duration"],
                "handoff_interval_s": p["handoff_interval"],
                "file_mb": p["file_mb"],
            },
        )


def _fig3c_run(
    seed: int,
    mobile: bool,
    upload_limit: Optional[float],
    duration: float,
    grid: Sequence[float],
    handoff_interval: float,
    file_mb: float,
) -> List[float]:
    file_size = int(file_mb * 1024 * 1024)
    sc = SwarmScenario(
        seed=seed, file_size=file_size, piece_length=131_072, tracker_interval=60.0
    )
    # A *slow* seed drip-feeds pieces into the swarm, so nearly everything
    # the measured peer needs lives at competing leeches — and leeches
    # serve by tit-for-tat, which is exactly the lever under test.  (Seeds
    # rank receivers by their download speed, not reciprocation, so a fat
    # seed would mask the incentive effect.)
    competitor_cfg = ClientConfig(
        unchoke_slots=2, optimistic_every=5, choke_interval=5.0
    )
    # The seed spreads its capacity across many slots so that no peer's
    # total is dominated by seed service (seeds rank receivers by speed,
    # not reciprocity, and would otherwise mask the tit-for-tat signal).
    seed_cfg = ClientConfig(unchoke_slots=5, optimistic_every=5, choke_interval=5.0)
    sc.add_wired_peer("seed0", complete=True, up_rate=60_000, config=seed_cfg)
    for i in range(10):
        sc.add_wired_peer(f"c{i}", up_rate=60_000, config=competitor_cfg)
    x_cfg = ClientConfig(
        unchoke_slots=2, choke_interval=5.0, upload_limit=upload_limit,
        task_restart_delay=2.0,
    )
    # Fast 802.11g-class cell: at BitTorrent rates the mobile host's own
    # uploads do not materially contend with its downloads (that effect is
    # Figure 3(b)'s subject); here the levers are incentives and mobility.
    x = sc.add_wireless_peer("x", rate=400_000, config=x_cfg)
    if mobile:
        sc.add_mobility(x, interval=handoff_interval, downtime=1.0)
    sc.start_all()
    sc.run(until=duration)
    counter = x.client.downloaded
    return [counter.value_at(t) / (1024 * 1024) for t in grid]
