"""Bulk-transfer applications over the simulated TCP.

Used two ways: raw-TCP experiments (Figure 2) drive the wireless leg with
:class:`BulkSender`, and the seed-LIHD extension (paper §4.2 "future work")
models "other non-P2P applications on the mobile peer" with
:class:`ForegroundDownload` — e.g. a web download whose throughput a
seeding BitTorrent client must not destroy.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..net.host import Host
from ..obs.metrics import WindowRateMeter
from ..sim import Simulator
from ..tcp.connection import TCPConnection
from ..tcp.stack import TCPStack


class Payload:
    """A generic application message: just a length on the wire."""

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

    def start(self) -> "BulkSender":
        self.running = True
        self._pump()
        return self

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


class BulkServer:
    """Listens on a port and bulk-sends to every connection accepted."""

    def __init__(self, sim: Simulator, host: Host, port: int = 8080) -> None:
        self.sim = sim
        self.host = host
        self.port = port
        stack = host.transport
        self.stack: TCPStack = stack if isinstance(stack, TCPStack) else TCPStack(sim, host)
        self.senders: List[BulkSender] = []
        self.stack.listen(port, self._accept)

    def _accept(self, conn: TCPConnection) -> None:
        self.senders.append(BulkSender(self.sim, conn).start())

    def stop(self) -> None:
        for sender in self.senders:
            sender.stop()
        self.stack.unlisten(self.port)


class ForegroundDownload:
    """A non-P2P download running on (typically) a mobile host.

    Connects to a :class:`BulkServer` and measures its own goodput — the
    quantity a seeding P2P client's uploads must not trample (§3.3: "a
    mobile peer functioning as a seed can potentially impact its download
    rates for other non P2P applications").
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        server_ip: str,
        server_port: int = 8080,
        rate_window: float = 5.0,
    ) -> None:
        self.sim = sim
        self.host = host
        stack = host.transport
        self.stack: TCPStack = stack if isinstance(stack, TCPStack) else TCPStack(sim, host)
        self.meter = WindowRateMeter(clock=lambda: sim.now, window=rate_window)
        self.bytes_received = 0
        self.conn = self.stack.connect(server_ip, server_port)
        self.conn.on_message = self._on_message

    def _on_message(self, message: object) -> None:
        length = int(getattr(message, "wire_length", 0))
        self.bytes_received += length
        self.meter.add(length)

    def rate(self) -> float:
        """Current download rate in bytes/second."""
        return self.meter.rate()

    def stop(self) -> None:
        self.conn.abort("done")
