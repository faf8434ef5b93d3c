"""The always-on origin seeder and its placement/retention policies.

The origin is the CDN's infrastructure fallback: one well-provisioned
host that can seed any catalog asset, governed by a placement policy
deciding *which* assets it actively seeds:

* ``pin_top_k`` — the ``k`` most popular ranks are pinned (seeded from
  t=0, never evicted); other assets are activated on demand and the
  least-recently-requested unpinned one is evicted when the active set
  exceeds ``capacity``.
* ``lru_evict`` — nothing pinned: pure on-demand activation with LRU
  eviction at ``capacity``.
* ``replicate_on_miss`` — activate on first request, never evict
  (unbounded retention).

Activating a non-pinned asset pays ``activation_delay`` seconds (the
origin fetching from its backing store) before the seed joins the
swarm.  Every origin upload is metered, so scenarios can report the
*origin offload fraction* — the share of delivered bytes the peer swarm
absorbed instead of the origin.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Union

from ..bittorrent.client import BitTorrentClient, ClientConfig
from ..net import AddressAllocator, Host, Internet, attach_wired_host
from ..sim import Simulator
from ..tcp.stack import TCPStack
from .catalog import Catalog, _require_int, _require_number  # noqa: F401

POLICIES = ("pin_top_k", "lru_evict", "replicate_on_miss")

OriginSpec = Union[str, Mapping[str, object], None]

#: Origin per-asset listen ports start here (peer clients use the 6881+
#: range on their own hosts).
ORIGIN_BASE_PORT = 7000


def normalize_origin(spec: OriginSpec) -> Dict[str, object]:
    """Canonicalise and validate an origin spec (eager, at parse time).

    Accepted forms: a policy name string, or a mapping such as
    ``{"policy": "pin_top_k", "k": 2, "capacity": 4,
    "activation_delay": 3.0, "up_rate": 400000}``.
    """
    if spec is None:
        spec = {}
    if isinstance(spec, str):
        spec = {"policy": spec}
    if not isinstance(spec, Mapping):
        raise ValueError(f"origin spec must be a policy name or mapping, got {spec!r}")
    known = {"policy", "k", "capacity", "activation_delay", "up_rate"}
    unknown = set(spec) - known
    if unknown:
        raise ValueError(
            f"unknown origin keys {sorted(unknown)}; expected {sorted(known)}"
        )
    policy = spec.get("policy", "pin_top_k")
    if policy not in POLICIES:
        raise ValueError(
            f"unknown origin policy {policy!r}; choose from {', '.join(POLICIES)}"
        )
    out: Dict[str, object] = {"policy": policy}
    out["k"] = _require_int(spec.get("k", 1), "k", minimum=0)
    out["capacity"] = _require_int(spec.get("capacity", 4), "capacity", minimum=1)
    delay = _require_number(spec.get("activation_delay", 3.0), "activation_delay")
    if delay < 0:
        raise ValueError(f"activation_delay must be >= 0, got {delay}")
    out["activation_delay"] = delay
    up_rate = _require_number(spec.get("up_rate", 400_000.0), "up_rate")
    if up_rate <= 0:
        raise ValueError(f"up_rate must be > 0, got {up_rate}")
    out["up_rate"] = up_rate
    if out["policy"] == "pin_top_k" and int(out["k"]) > int(out["capacity"]):
        raise ValueError(
            f"pin_top_k needs k <= capacity (got k={out['k']}, "
            f"capacity={out['capacity']})"
        )
    return out


class Origin:
    """One origin host seeding a policy-chosen subset of the catalog."""

    def __init__(
        self,
        sim: Simulator,
        internet: Internet,
        alloc: AddressAllocator,
        catalog: Catalog,
        torrents: Mapping[int, object],  # rank -> Torrent
        spec: OriginSpec = None,
        name: str = "origin",
    ) -> None:
        self.sim = sim
        self.catalog = catalog
        self.torrents = dict(torrents)
        self.spec = normalize_origin(spec)
        self.policy: str = str(self.spec["policy"])
        self.capacity = int(self.spec["capacity"])  # type: ignore[arg-type]
        self.activation_delay = float(self.spec["activation_delay"])  # type: ignore[arg-type]
        self.host = Host(sim, name)
        TCPStack(sim, self.host)
        attach_wired_host(
            sim, self.host, internet, alloc.allocate(),
            down_rate=10_000_000.0, up_rate=float(self.spec["up_rate"]),  # type: ignore[arg-type]
        )
        #: rank -> seeding client (created once, restarted on re-activation)
        self.clients: Dict[int, BitTorrentClient] = {}
        #: ranks currently seeding (or scheduled to start)
        self.active: Dict[int, float] = {}  # rank -> last-touched time
        self.pinned: frozenset = frozenset()
        if self.policy == "pin_top_k":
            k = min(int(self.spec["k"]), len(catalog))  # type: ignore[arg-type]
            self.pinned = frozenset(range(1, k + 1))
        self.activations = 0
        self.evictions = 0

    def start(self) -> None:
        """Bring up the pinned working set (seeding from t=0)."""
        for rank in sorted(self.pinned):
            self._activate(rank, delay=0.0)

    # ------------------------------------------------------------------
    def on_request(self, rank: int, now: float) -> None:
        """A catalog request arrived: place/refresh this asset.

        Every policy activates on miss (a CDN must eventually serve what
        is asked of it); they differ in what they *retain*.
        """
        self.active[rank] = now  # LRU touch (insert or refresh)
        if rank not in self.clients or not self.clients[rank].started:
            self._activate(rank, delay=self.activation_delay)
        self._enforce_capacity()

    def _activate(self, rank: int, delay: float) -> None:
        client = self.clients.get(rank)
        if client is None:
            client = BitTorrentClient(
                self.sim, self.host, self.torrents[rank],
                complete=True,
                config=ClientConfig(
                    listen_port=ORIGIN_BASE_PORT + rank,
                    unchoke_slots=8,
                ),
                name=f"origin.r{rank}",
            )
            self.clients[rank] = client
        self.active.setdefault(rank, self.sim.now)
        self.activations += 1
        self.sim.metrics.counter("cdn.origin_activations").add()
        if self.sim.trace.enabled:
            self.sim.trace.event(
                "cdn", "origin_activate", rank=rank, delay=delay,
                policy=self.policy,
            )
        if delay > 0:
            self.sim.schedule(delay, client.start)
        else:
            client.start()

    def _enforce_capacity(self) -> None:
        if self.policy == "replicate_on_miss":
            return
        evictable = [r for r in self.active if r not in self.pinned]
        while len(self.active) > self.capacity and evictable:
            victim = min(evictable, key=lambda r: (self.active[r], r))
            evictable.remove(victim)
            self._evict(victim)

    def _evict(self, rank: int) -> None:
        self.active.pop(rank, None)
        client = self.clients.get(rank)
        if client is not None and client.started:
            client.stop()
        self.evictions += 1
        self.sim.metrics.counter("cdn.origin_evictions").add()
        if self.sim.trace.enabled:
            self.sim.trace.event(
                "cdn", "origin_evict", rank=rank, policy=self.policy
            )

    # ------------------------------------------------------------------
    def uploaded_bytes(self) -> float:
        """Total bytes the origin served, across all assets ever active."""
        return float(sum(c.uploaded.total for c in self.clients.values()))
