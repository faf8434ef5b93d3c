"""Per-host TCP stack: port demultiplexing, listeners, connection factory.

The stack registers itself as the host's transport handler.  Incoming
packets are demuxed on ``(local_port, remote_ip, remote_port)``; SYNs for a
listening port create passive connections and hand them to the listener's
accept callback *before* the handshake completes, so the application can
install its callbacks in time.

Mobility interaction: a connection is bound to the local IP it was created
with.  After a handoff the host sources packets from its new address, so
segments of old connections go out with a stale source and the replies are
unroutable — old connections starve and die by RTO, exactly the stranding
behaviour the paper measures at fixed peers (§3.5).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..net.host import Host
from ..net.packet import Packet
from ..sim import Simulator
from .connection import TCPConfig, TCPConnection
from .segment import ACK, RST, SYN, TCPSegment

AcceptCallback = Callable[[TCPConnection], None]

EPHEMERAL_BASE = 49152


class TCPStack:
    """Transport layer for one host."""

    def __init__(self, sim: Simulator, host: Host, config: Optional[TCPConfig] = None) -> None:
        self.sim = sim
        self.host = host
        self.config = config or TCPConfig()
        self._connections: Dict[Tuple[int, str, int], TCPConnection] = {}
        self._listeners: Dict[int, AcceptCallback] = {}
        self._next_ephemeral = EPHEMERAL_BASE
        self.rst_sent = 0
        self.segments_dropped = 0
        host.transport = self

    # ------------------------------------------------------------------
    # Application API
    # ------------------------------------------------------------------
    def listen(self, port: int, on_accept: AcceptCallback) -> None:
        """Accept incoming connections on ``port``.

        ``on_accept(conn)`` fires when a SYN arrives, before the handshake
        completes; install ``on_established`` / ``on_message`` there.
        """
        if port in self._listeners:
            raise ValueError(f"port {port} already listening")
        self._listeners[port] = on_accept

    def unlisten(self, port: int) -> None:
        self._listeners.pop(port, None)

    def connect(
        self,
        remote_ip: str,
        remote_port: int,
        local_port: Optional[int] = None,
    ) -> TCPConnection:
        """Active-open a connection from this host's current address."""
        local_ip = self.host.ip
        if local_ip is None:
            raise RuntimeError(f"host {self.host.name} has no address (down)")
        if local_port is None:
            local_port = self._allocate_port(remote_ip, remote_port)
        key = (local_port, remote_ip, remote_port)
        if key in self._connections:
            raise ValueError(f"connection {key} already exists")
        conn = TCPConnection(
            self.sim, self.host, local_ip, local_port, remote_ip, remote_port,
            config=self.config, unregister=self._unregister,
        )
        self._connections[key] = conn
        conn.connect()
        return conn

    def abort_all(self, reason: str = "aborted") -> int:
        """Hard-close every connection (e.g. application shutdown)."""
        conns = list(self._connections.values())
        for conn in conns:
            conn.abort(reason)
        return len(conns)

    def connection_count(self) -> int:
        return len(self._connections)

    # ------------------------------------------------------------------
    # Host transport-handler API
    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        segment = packet.payload
        if not isinstance(segment, TCPSegment):
            self.segments_dropped += 1
            return
        key = (segment.dst_port, packet.src, segment.src_port)
        conn = self._connections.get(key)
        if conn is not None:
            conn.receive_segment(segment)
            return
        if segment.has(SYN) and not segment.has(ACK):
            on_accept = self._listeners.get(segment.dst_port)
            if on_accept is not None:
                self._accept(packet, segment, on_accept)
                return
        self._reject(packet, segment)

    # ------------------------------------------------------------------
    def _accept(self, packet: Packet, syn: TCPSegment, on_accept: AcceptCallback) -> None:
        local_ip = self.host.ip
        if local_ip is None:
            return
        conn = TCPConnection(
            self.sim, self.host, local_ip, syn.dst_port, packet.src, syn.src_port,
            config=self.config, unregister=self._unregister,
        )
        self._connections[conn.key] = conn
        on_accept(conn)
        conn.open_passive(syn)

    def _reject(self, packet: Packet, segment: TCPSegment) -> None:
        """No matching connection: answer with RST (unless it was a RST)."""
        self.segments_dropped += 1
        if segment.has(RST) or self.host.ip is None:
            return
        self.rst_sent += 1
        rst = TCPSegment(
            segment.dst_port, segment.src_port,
            segment.ack if segment.ack is not None else 0,
            segment.end_seq, RST | ACK, 0, (), 0,
        )
        self.host.send(Packet(self.host.ip, packet.src, rst, created_at=self.sim.now))

    def _allocate_port(self, remote_ip: str, remote_port: int) -> int:
        for _ in range(65536 - EPHEMERAL_BASE):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral >= 65536:
                self._next_ephemeral = EPHEMERAL_BASE
            if (port, remote_ip, remote_port) not in self._connections:
                return port
        raise RuntimeError("ephemeral port space exhausted")

    def _unregister(self, conn: TCPConnection) -> None:
        existing = self._connections.get(conn.key)
        if existing is conn:
            del self._connections[conn.key]
