"""The benchmark's four workloads, each a pure function of its seed.

Three are packet-level cells, run one at a time in this process:

* ``swarm_default`` -- the baseline packet cell of the scale sweep
  (``packet_cell(seed, 24, 0.2, wp2p=False)``): mostly wired peers, so
  the kernel, TCP, wired links and BitTorrent do the work.
* ``swarm_wp2p_mobile`` -- the same 24-peer geometry with 12 wireless
  peers running the full wP2P client (AM, LIHD, MA fetching, role
  reversal) on a lossy channel with periodic handoffs.
* ``cdn_multiswarm`` -- one multi-swarm CDN cell (Zipf demand, shared
  uplinks, an origin).

The fourth, ``campaign_cached``, is a closed-loop campaign: fluid
``figx_scale``, ``figx_hybrid`` and fluid ``figx_cdn`` run through
:class:`repro.runner.Runner` into an empty :class:`ResultCache` (cold
pass), then again from the cache (warm pass).

Every outcome carries a digest of the program's output so that two runs
of one seed can be compared bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.bittorrent import ClientConfig
from repro.bittorrent.swarm import SwarmScenario
from repro.cdn import CdnScenario
from repro.experiments.figx_cdn import FigXCdn
from repro.experiments.figx_scale import FigXScale
from repro.runner import ResultCache, Runner, get_scenario
from repro.wp2p import WP2PClient
from repro.wp2p.client import WP2PConfig

WORKLOADS = ("swarm_default", "swarm_wp2p_mobile", "cdn_multiswarm", "campaign_cached")

#: Swarm geometry shared by both swarm workloads (the scale sweep's
#: 24-peer packet cell: 5 wired seeds, 19 leechers).
SWARM_SIZE = 24
DEFAULT_MOBILE_PEERS = 4  # round(19 leechers * 0.2), as packet_cell counts
WP2P_MOBILE_PEERS = 12
WP2P_BER = 1e-5
WP2P_LIHD_U_MAX = 24_000.0  # bytes/s, the scale sweep's mobile uplink

CDN_MOBILE_FRACTION = 0.4

#: Host seconds after which one cell fails as hung (the slowest takes
#: about 25 s traced).
CELL_TIMEOUT_S = 90.0

#: Campaign specs: (scenario name, backend).
CAMPAIGN_SPECS = (
    ("figx_scale", "fluid"),
    ("figx_hybrid", "hybrid"),
    ("figx_cdn", "fluid"),
)


def digest(value: object) -> str:
    """SHA-256 of a JSON value in canonical form."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Outcome:
    """One operation's result: what it simulated and whether it was right."""

    events: int  # kernel events processed (0 for fluid-only work)
    cells: int
    sim: Dict[str, float]  # simulated outcomes, exact for a given seed
    digest: str
    problems: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# Packet workloads
# ----------------------------------------------------------------------
def _scale_params() -> Dict[str, object]:
    return dict(FigXScale.defaults)


def build_swarm(seed: int, mobile: int, wp2p: bool) -> SwarmScenario:
    """The scale sweep's 24-peer packet cell, started but not run.

    With ``wp2p=False`` and 4 mobile peers this is exactly
    ``packet_cell(seed, 24, 0.2, wp2p=False, FigXScale.defaults)``; with
    ``wp2p=True`` the mobile peers run the full wP2P client on a lossy
    channel.
    """
    p = _scale_params()
    seeds = int(p["seed_count"])
    wired = SWARM_SIZE - seeds - mobile
    sc = SwarmScenario(
        seed=seed,
        file_size=int(p["file_size_kib"]) * 1024,
        piece_length=int(p["piece_length"]),
        tracker_interval=60.0,
    )
    for i in range(seeds):
        sc.add_wired_peer(
            f"s{i}", complete=True,
            down_rate=1_000_000, up_rate=float(p["seed_up_rate"]),
        )
    for i in range(wired):
        sc.add_wired_peer(
            f"w{i}", down_rate=float(p["wired_down_rate"]),
            up_rate=float(p["wired_up_rate"]),
        )
    for i in range(mobile):
        if wp2p:
            handle = sc.add_wireless_peer(
                f"m{i}", rate=float(p["wireless_rate"]), ber=WP2P_BER,
                config=WP2PConfig(lihd_u_max=WP2P_LIHD_U_MAX),
                client_factory=WP2PClient,
            )
        else:
            handle = sc.add_wireless_peer(
                f"m{i}", rate=float(p["wireless_rate"]),
                config=ClientConfig(task_restart_delay=float(p["restart_delay"])),
            )
        sc.add_mobility(
            handle, interval=float(p["handoff_interval"]),
            downtime=float(p["handoff_downtime"]),
        )
    sc.start_all()
    return sc


def _no_tick(events: int) -> None:
    pass


def run_swarm(sc: SwarmScenario, tick: Callable[[int], None] = _no_tick) -> Outcome:
    """Run a built swarm until every leecher completes (or ``max_time``).

    The loop is ``SwarmScenario.run_until_complete``'s, with
    ``tick(events so far)`` called between its one-second steps; ``tick``
    must not touch the simulation.
    """
    leechers = [n for n, h in sc.peers.items() if not h.client.complete]
    sim = sc.sim
    deadline = sim.now + float(_scale_params()["max_time"])
    while sim.now < deadline:
        if all(sc.peers[n].client.complete for n in leechers):
            break
        sim.run(until=min(sim.now + 1.0, deadline))
        tick(sim.events_processed)
    clients = {n: sc.peers[n].client for n in leechers}
    times = {n: clients[n].completion_time for n in leechers}
    mobiles = [n for n in leechers if sc.peers[n].wireless]
    problems = []
    if any(t is None for t in times.values()):
        problems.append("a leecher was not complete by max_time")
    done = [n for n in leechers if times[n]]
    goodput = {n: clients[n].manager.bytes_completed / times[n] for n in done}
    uploaded = {n: h.client.uploaded.total for n, h in sc.peers.items()}
    sim = {
        "sim_goodput_Bps": _mean(list(goodput.values())),
        "sim_offload": sum(uploaded[n] for n in leechers) / sum(uploaded.values()),
        "sim_completion_s": _mean([times[n] for n in done]),
        "sim_mobile_completion_s": _mean([times[n] for n in done if n in mobiles]),
        "sim_mobile_goodput_Bps": _mean([goodput[n] for n in done if n in mobiles]),
    }
    value = {
        "per_peer": {
            n: [times[n], clients[n].manager.bytes_completed] for n in leechers
        },
        "events": sc.sim.events_processed,
    }
    return Outcome(
        events=sc.sim.events_processed, cells=1, sim=sim,
        digest=digest(value), problems=problems,
    )


def swarm_default(seed: int, tick: Callable[[int], None] = _no_tick) -> Outcome:
    return run_swarm(build_swarm(seed, DEFAULT_MOBILE_PEERS, wp2p=False), tick)


def swarm_wp2p_mobile(seed: int, tick: Callable[[int], None] = _no_tick) -> Outcome:
    return run_swarm(build_swarm(seed, WP2P_MOBILE_PEERS, wp2p=True), tick)


def _cdn_params() -> Dict[str, object]:
    return dict(FigXCdn.defaults)


def build_cdn(seed: int) -> CdnScenario:
    """``cdn_run``'s scenario for the default client at 40% mobile, unrun."""
    p = _cdn_params()
    return CdnScenario(
        seed=seed,
        catalog=p["catalog"],
        demand=p["demand"],
        origin=p["origin"],
        peers=int(p["peers"]),
        mobile_fraction=CDN_MOBILE_FRACTION,
        wp2p=False,
        horizon=float(p["duration"]),
        peer_up_rate=float(p["peer_up_rate"]),
        wireless_rate=float(p["wireless_rate"]),
        handoff_interval=float(p["handoff_interval"]),
        handoff_downtime=float(p["handoff_downtime"]),
        tracker_interval=float(p["tracker_interval"]),
    )


def cdn_multiswarm(seed: int, tick: Callable[[int], None] = _no_tick) -> Outcome:
    sc = build_cdn(seed)
    # Back-to-back runs compose, so one-second steps with tick() between
    # them simulate exactly what one run to the horizon does.
    step = 0
    while step < sc.horizon:
        step += 1
        sc.run(until=min(float(step), sc.horizon))
        tick(sc.sim.events_processed)
    value = sc.results()
    problems = []
    if not value["requests"] or not value["served"]:
        problems.append("the CDN served no requests")
    if not 0.0 < value["offload"] <= 1.0:
        problems.append(f"offload {value['offload']} outside (0, 1]")
    sim = {
        "sim_goodput_Bps": (value["origin_bytes"] + value["peer_bytes"]) / sc.horizon,
        "sim_offload": value["offload"],
        "sim_hit_latency_s": value["mean_latency"],
    }
    return Outcome(
        events=int(value["steps"]), cells=1, sim=sim,
        digest=digest(value), problems=problems,
    )


PACKET_RUNNERS = {
    "swarm_default": swarm_default,
    "swarm_wp2p_mobile": swarm_wp2p_mobile,
    "cdn_multiswarm": cdn_multiswarm,
}


def build_packet(name: str, seed: int) -> None:
    """Build a packet workload's scenario without running it (set-up)."""
    if name == "swarm_default":
        build_swarm(seed, DEFAULT_MOBILE_PEERS, wp2p=False)
    elif name == "swarm_wp2p_mobile":
        build_swarm(seed, WP2P_MOBILE_PEERS, wp2p=True)
    elif name == "cdn_multiswarm":
        build_cdn(seed)
    else:
        raise ValueError(f"not a packet workload: {name!r}")


# ----------------------------------------------------------------------
# Campaign workload
# ----------------------------------------------------------------------
class Campaign:
    """Cold and warm passes of the campaign specs over one cache directory.

    ``scratch`` is the directory the cache lives under; it must be inside
    the benchmark's checkout.  ``close()`` removes the cache.
    """

    def __init__(self, seed: int, jobs: int, scratch: str) -> None:
        self.seed = seed
        self.jobs = jobs
        os.makedirs(scratch, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="campaign-", dir=scratch)
        self.cache: Optional[ResultCache] = None

    def reset_cache(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root)
        self.cache = ResultCache(self.root)

    def run_pass(self, jobs: Optional[int] = None):
        """Run every spec once; return ``(outcome, runs)``."""
        assert self.cache is not None, "reset_cache() first"
        runs = []
        for name, backend in CAMPAIGN_SPECS:
            runner = Runner(
                jobs=self.jobs if jobs is None else jobs, cache=self.cache,
                retries=0, backend=backend, cell_timeout=CELL_TIMEOUT_S,
            )
            runs.append(runner.run(name, {"base_seed": self.seed}))
        return campaign_outcome(runs), runs

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def campaign_outcome(runs) -> Outcome:
    problems = []
    completions, goodputs, mobile_goodputs, offloads = [], [], [], []
    for run in runs:
        for failure in run.failures:
            problems.append(f"{run.spec.name}: {failure.summary()}")
        for (key, _seed), value in sorted(run.values.items(), key=repr):
            if "offload" in value:
                offloads.append(value["offload"])
                continue
            if value["completion"] is None:
                problems.append(f"{run.spec.name} {key}: not complete by max_time")
            else:
                completions.append(value["completion"])
            for cls in ("wired_goodput", "mobile_goodput"):
                if value[cls] is not None:
                    goodputs.append(value[cls])
            if value["mobile_goodput"] is not None:
                mobile_goodputs.append(value["mobile_goodput"])
    assembled = [
        {
            "spec": run.spec.spec_hash(),
            "result": dataclasses.asdict(run.result),
            "values": sorted(run.values.items(), key=repr),
        }
        for run in runs
    ]
    sim = {
        "sim_goodput_Bps": _mean(goodputs),
        "sim_offload": _mean(offloads),
        "sim_completion_s": _mean(completions),
        "sim_mobile_goodput_Bps": _mean(mobile_goodputs),
    }
    return Outcome(
        events=0,
        cells=sum(run.stats.total_cells for run in runs),
        sim=sim, digest=digest(assembled), problems=problems,
    )


def campaign_setup(jobs: int) -> None:
    """Set-up of the campaign: spec resolution plus a started worker pool."""
    for name, _backend in CAMPAIGN_SPECS:
        scn = get_scenario(name)
        list(scn.cells(scn.params({})))
    pool = pool_context().Pool(processes=jobs)
    try:
        pool.map(abs, range(jobs))
    finally:
        pool.close()
        pool.join()


def pool_context():
    """The start method the runner's pool uses: fork where available."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _mean(values: List[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None

