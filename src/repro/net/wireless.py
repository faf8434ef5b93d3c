"""The shared half-duplex wireless channel (WLAN access link).

This is the library's stand-in for the paper's "ns-2 based wireless
emulators": one 802.11-style cell joining a mobile host to the Internet
through an access point.  Three properties drive every wireless effect the
paper measures, and all three are modelled explicitly:

* **Shared medium** — uplink and downlink transmissions serialize on one
  channel, so uploads steal airtime from downloads (Figure 3(b)'s peak).
* **Random bit errors** — each transmission is lost with probability
  ``1 - (1 - BER)^(8 * size)``; long packets (data with piggybacked ACKs)
  die more often than 40-byte pure ACKs (§3.2).
* **Finite buffers** — the access point's downlink queue is drop-tail, so
  congestion shows up as timestamped buffer drops (Figure 2(b, c)).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from ..obs.metrics import TimeSeries
from ..sim import Simulator
from .internet import Internet
from .host import Host
from .packet import DropRecord, Packet, loss_probability
from .queues import DropTailQueue

UPLINK = "up"
DOWNLINK = "down"

MAC_OVERHEAD_BYTES = 34
"""Per-frame MAC/PHY overhead added to airtime (header + preamble equiv)."""


class WirelessChannel:
    """One wireless cell: station <-> AP <-> Internet core.

    Parameters
    ----------
    rate:
        Channel capacity in bytes/second (shared by both directions).
    ber:
        Bit error rate applied independently per transmitted frame.
    prop_delay:
        Air propagation delay (effectively zero indoors; kept configurable).
    ap_queue_packets / station_queue_packets:
        Drop-tail buffer sizes at the access point (downlink) and the
        station (uplink).
    mac_efficiency:
        Fraction of the nominal rate usable for frames, folding in
        contention/backoff overheads (0 < eff <= 1).
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        internet: Internet,
        rate: float = 100_000.0,
        ber: float = 0.0,
        prop_delay: float = 0.0005,
        ap_queue_packets: int = 50,
        station_queue_packets: int = 50,
        mac_efficiency: float = 1.0,
        name: Optional[str] = None,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if not 0.0 <= ber < 1.0:
            raise ValueError("ber must be in [0, 1)")
        if not 0.0 < mac_efficiency <= 1.0:
            raise ValueError("mac_efficiency must be in (0, 1]")
        self.sim = sim
        self.host = host
        self.internet = internet
        self.rate = rate
        self.ber = ber
        self.prop_delay = prop_delay
        self.mac_efficiency = mac_efficiency
        self.name = name or f"wlan.{host.name}"
        self._rng = sim.rng.stream(f"{self.name}.loss")

        self.uplink_queue = DropTailQueue(
            f"{self.name}.station", capacity_packets=station_queue_packets
        )
        self.downlink_queue = DropTailQueue(
            f"{self.name}.ap", capacity_packets=ap_queue_packets
        )
        self._busy = False
        # FIFO-by-arrival arbitration state: each direction keeps a deque
        # of monotonically increasing arrival ticket numbers, in lockstep
        # with its packet queue (enqueue appends, dequeue pops, flush
        # clears).  Comparing the two head tickets picks the head-of-line
        # frame that has waited longest — no per-packet dict churn.
        self._arrival_seq = 0
        self._up_order: Deque[int] = deque()
        self._down_order: Deque[int] = deque()
        self._tx_denom = rate * mac_efficiency
        self._baseline: Optional[Tuple[float, float, float]] = None

        # Instrumentation -------------------------------------------------
        self.client_tx_series = TimeSeries(f"{self.name}.client_tx")
        self.loss_records: List[DropRecord] = []
        self.bytes_up = 0
        self.bytes_down = 0
        self.frames_up = 0
        self.frames_down = 0
        self.frames_lost = 0
        self.airtime_busy = 0.0

        audit = sim.audit
        if audit is not None:
            audit.register_channel(self)
        host.interface.attach(self)

    # ------------------------------------------------------------------
    # Dynamic reconfiguration (the emulator knobs)
    # ------------------------------------------------------------------
    def set_ber(self, ber: float) -> None:
        if not 0.0 <= ber < 1.0:
            raise ValueError("ber must be in [0, 1)")
        self.ber = ber

    def set_rate(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self._tx_denom = rate * self.mac_efficiency

    # ------------------------------------------------------------------
    # Fault hooks (repro.chaos)
    # ------------------------------------------------------------------
    def apply_degradation(
        self,
        rate_factor: float = 1.0,
        ber: Optional[float] = None,
        extra_delay: float = 0.0,
    ) -> None:
        """Degrade the cell: capacity scaled by ``rate_factor``, bit error
        rate replaced by ``ber`` (when given), propagation delay inflated
        by ``extra_delay`` seconds.

        The pre-fault configuration is snapshotted on the first call and
        restored by :meth:`clear_degradation`; overlapping degradations
        do not compound — the last applied one wins.  Frames already in
        the air finish at the rate they started with.
        """
        if rate_factor <= 0:
            raise ValueError("rate_factor must be positive")
        if extra_delay < 0:
            raise ValueError("extra_delay must be non-negative")
        if self._baseline is None:
            self._baseline = (self.rate, self.ber, self.prop_delay)
        base_rate, base_ber, base_delay = self._baseline
        self.set_rate(base_rate * rate_factor)
        self.set_ber(base_ber if ber is None else ber)
        self.prop_delay = base_delay + extra_delay

    def clear_degradation(self) -> None:
        """Restore the pre-fault rate/BER/delay (no-op when clean)."""
        if self._baseline is None:
            return
        self.rate, self.ber, self.prop_delay = self._baseline
        self._tx_denom = self.rate * self.mac_efficiency
        self._baseline = None

    # ------------------------------------------------------------------
    # Host-side API (station transmits)
    # ------------------------------------------------------------------
    def send_from_host(self, packet: Packet) -> None:
        if self.uplink_queue.enqueue(packet, self.sim._now):
            self._arrival_seq += 1
            self._up_order.append(self._arrival_seq)
            if not self._busy:
                self._serve()
        # overflow drops are recorded by the queue itself

    def host_detached(self) -> None:
        """Interface went down: flush both buffers (frames in the air at the
        old address will be unroutable at the core anyway).

        The arrival tickets of the flushed packets go with them — the
        order deques mirror the queues entry-for-entry, so a flush that
        left tickets behind would skew arbitration for every later frame."""
        self.uplink_queue.clear()
        self.downlink_queue.clear()
        self._up_order.clear()
        self._down_order.clear()

    # ------------------------------------------------------------------
    # Core-side API (AP transmits)
    # ------------------------------------------------------------------
    def deliver_from_core(self, packet: Packet) -> None:
        if self.downlink_queue.enqueue(packet, self.sim._now):
            self._arrival_seq += 1
            self._down_order.append(self._arrival_seq)
            if not self._busy:
                self._serve()

    # ------------------------------------------------------------------
    # The shared medium
    # ------------------------------------------------------------------
    def _serve(self) -> None:
        """FIFO-by-arrival arbitration across the two directions.

        Approximates CSMA fairness: whichever end's head-of-line frame
        has waited longest (the smaller arrival ticket) transmits next.
        """
        up_order = self._up_order
        down_order = self._down_order
        if up_order:
            if down_order and down_order[0] < up_order[0]:
                down_order.popleft()
                queue, direction = self.downlink_queue, DOWNLINK
            else:
                up_order.popleft()
                queue, direction = self.uplink_queue, UPLINK
        elif down_order:
            down_order.popleft()
            queue, direction = self.downlink_queue, DOWNLINK
        else:
            self._busy = False
            return
        # Inlined queue.dequeue() — the ticket deques guarantee the queue
        # is non-empty here.
        fifo = queue._queue
        packet = fifo.popleft()
        size = packet.size_bytes
        queue._bytes -= size
        queue.dequeued += 1
        queue.bytes_dequeued += size
        self._busy = True
        tx_time = (size + MAC_OVERHEAD_BYTES) / self._tx_denom
        self.airtime_busy += tx_time
        sim = self.sim
        sim._push(sim._now + tx_time, self._tx_done, (packet, direction))

    def _tx_done(self, packet: Packet, direction: str) -> None:
        lost = self._rng.random() < loss_probability(self.ber, packet.size_bytes)
        if direction == UPLINK:
            self.frames_up += 1
            self.client_tx_series.record(self.sim._now, packet.size_bytes)
        else:
            self.frames_down += 1
        if lost:
            self.frames_lost += 1
            self.loss_records.append(
                DropRecord(self.sim.now, self.name, f"bit_error_{direction}", packet.size_bytes)
            )
        else:
            sim = self.sim
            if direction == UPLINK:
                self.bytes_up += packet.size_bytes
                sim._push(sim._now + self.prop_delay, self.internet.forward, (packet,))
            else:
                self.bytes_down += packet.size_bytes
                sim._push(sim._now + self.prop_delay, self.host.interface.receive, (packet,))
        self._serve()

    # ------------------------------------------------------------------
    # Instrumentation helpers
    # ------------------------------------------------------------------
    @property
    def buffer_drops(self) -> List[DropRecord]:
        """All drop-tail overflow events on this cell (AP + station)."""
        return sorted(
            self.downlink_queue.drops + self.uplink_queue.drops, key=lambda d: d.time
        )


def attach_wireless_host(
    sim: Simulator,
    host: Host,
    internet: Internet,
    ip: str,
    rate: float = 100_000.0,
    ber: float = 0.0,
    **kwargs: object,
) -> WirelessChannel:
    """Create a cell for ``host``, route ``ip`` to it, and bring it up."""
    channel = WirelessChannel(sim, host, internet, rate=rate, ber=ber, **kwargs)  # type: ignore[arg-type]
    internet.register(ip, channel)
    host.bring_up(ip)
    return channel
