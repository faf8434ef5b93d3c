"""Shared experiment machinery.

Raw-TCP topologies and bulk-transfer apps for the transport-level figures
(Figure 2, Figure 8(a) uses BitTorrent), plus multi-run averaging helpers.

Scaling: every experiment accepts its paper parameters but defaults to
scaled-down values chosen so a full bench run finishes in seconds; the
scale factors are recorded in each result's ``parameters``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..net import (
    AddressAllocator,
    Host,
    Internet,
    WirelessChannel,
    attach_wired_host,
    attach_wireless_host,
)
from ..obs.tracing import JSONLSink, TraceSink
from ..sim import Simulator
from ..tcp import TCPConfig, TCPConnection, TCPStack


class Payload:
    """A generic application message for raw-TCP experiments."""

    __slots__ = ("wire_length",)

    def __init__(self, wire_length: int) -> None:
        self.wire_length = wire_length


class BulkSender:
    """Keeps a TCP connection's send buffer topped up (bulk transfer)."""

    def __init__(
        self,
        sim: Simulator,
        conn: TCPConnection,
        chunk: int = 1460,
        window: int = 64 * 1024,
        poll: float = 0.05,
    ) -> None:
        self.sim = sim
        self.conn = conn
        self.chunk = chunk
        self.window = window
        self.poll = poll
        self.running = False
        self.bytes_queued = 0

    def start(self) -> None:
        self.running = True
        self._pump()

    def stop(self) -> None:
        self.running = False

    def _pump(self) -> None:
        if not self.running or self.conn.closed:
            return
        if self.conn.established:
            while self.conn.send_buffer_bytes < self.window:
                self.conn.send_message(Payload(self.chunk))
                self.bytes_queued += self.chunk
        self.sim.schedule(self.poll, self._pump)


class WirelessPairTopology:
    """Fixed wired peer <-> Internet <-> wireless mobile peer.

    The canonical §3.2 setup: one fixed correspondent and one mobile host
    behind an emulated wireless leg.
    """

    def __init__(
        self,
        seed: int = 0,
        rate: float = 100_000.0,
        ber: float = 0.0,
        ap_queue_packets: int = 50,
        core_delay: float = 0.02,
        tcp_config: Optional[TCPConfig] = None,
        trace_path: Optional[str] = None,
    ) -> None:
        self.sim = Simulator(seed=seed)
        # Observability: ``trace_path`` attaches a JSONL sink to this
        # run's event bus, so a single topology can be traced without
        # installing global defaults (render with scripts/run_report.py).
        self.trace_sink: Optional[TraceSink] = None
        if trace_path is not None:
            self.trace_sink = self.sim.trace.attach(JSONLSink(trace_path))
        self.internet = Internet(self.sim, core_delay=core_delay)
        self.alloc = AddressAllocator()
        self.fixed = Host(self.sim, "fixed")
        self.mobile = Host(self.sim, "mobile")
        self.fixed_stack = TCPStack(self.sim, self.fixed, config=tcp_config)
        self.mobile_stack = TCPStack(self.sim, self.mobile, config=tcp_config)
        attach_wired_host(
            self.sim, self.fixed, self.internet, self.alloc.allocate(),
            down_rate=1_000_000, up_rate=1_000_000,
        )
        self.channel: WirelessChannel = attach_wireless_host(
            self.sim, self.mobile, self.internet, self.alloc.allocate(),
            rate=rate, ber=ber, ap_queue_packets=ap_queue_packets,
        )


@dataclass
class TransferStats:
    """Outcome of one raw-TCP transfer run."""

    delivered_down: int  # payload bytes delivered at the mobile host
    delivered_up: int  # payload bytes delivered at the fixed host
    duration: float

    @property
    def down_rate_kbps(self) -> float:
        """Download throughput at the mobile host, KB/s."""
        return self.delivered_down / self.duration / 1000.0


def run_transfer(
    seed: int,
    ber: float,
    bidirectional: bool,
    duration: float = 40.0,
    rate: float = 60_000.0,
    ap_queue_packets: int = 50,
    warmup: float = 2.0,
    trace_path: Optional[str] = None,
) -> TransferStats:
    """One fixed->mobile transfer (optionally with a reverse bulk stream
    on the *same* connection — true bi-directional TCP).

    ``trace_path`` records the run's structured event log as JSONL (see
    :mod:`repro.obs.tracing`)."""
    topo = WirelessPairTopology(
        seed=seed, rate=rate, ber=ber, ap_queue_packets=ap_queue_packets,
        trace_path=trace_path,
    )
    # try/finally so an exception mid-run still flushes and closes the
    # trace sink — a truncated-but-valid JSONL log beats a leaked handle.
    try:
        server_conns: List[TCPConnection] = []
        topo.mobile_stack.listen(6881, server_conns.append)
        conn = topo.fixed_stack.connect(topo.mobile.ip, 6881)
        down_sender = BulkSender(topo.sim, conn)
        topo.sim.schedule(0.1, down_sender.start)
        if bidirectional:
            def start_reverse() -> None:
                if server_conns:
                    BulkSender(topo.sim, server_conns[0]).start()
                else:
                    topo.sim.schedule(0.2, start_reverse)

            topo.sim.schedule(0.3, start_reverse)
        topo.sim.run(until=warmup)
        base_down = server_conns[0].stats.payload_bytes_delivered if server_conns else 0
        base_up = conn.stats.payload_bytes_delivered
        topo.sim.run(until=warmup + duration)
        delivered_down = (
            server_conns[0].stats.payload_bytes_delivered - base_down if server_conns else 0
        )
        delivered_up = conn.stats.payload_bytes_delivered - base_up
    finally:
        if topo.trace_sink is not None:
            topo.trace_sink.close()
    return TransferStats(delivered_down, delivered_up, duration)


def random_piece_subset(
    rng, num_pieces: int, fraction: float
) -> List[int]:
    """A random subset of piece indices covering ``fraction`` of the file."""
    count = max(1, int(round(num_pieces * fraction)))
    return sorted(rng.sample(range(num_pieces), min(count, num_pieces)))
