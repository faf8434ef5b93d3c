"""Restartable timers and periodic tasks built on the kernel.

TCP retransmission timers, BitTorrent choker rounds, tracker re-announces and
mobility schedules all need "restart / cancel / fire periodically" semantics;
these helpers encapsulate the event-handle bookkeeping so protocol code stays
readable.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .events import Event
from .kernel import Simulator


class Timer:
    """A one-shot timer that can be (re)started and cancelled.

    The callback is invoked with no arguments when the timer expires.
    Restarting an armed timer cancels the previous deadline.
    """

    __slots__ = ("_sim", "_callback", "_event")

    def __init__(self, sim: Simulator, callback: Callable[[], Any]) -> None:
        self._sim = sim
        self._callback = callback
        self._event: Optional[Event] = None

    def start(self, delay: float) -> None:
        """Arm (or re-arm) the timer to fire ``delay`` seconds from now."""
        self.cancel()
        self._event = self._sim.schedule(delay, self._fire)

    def cancel(self) -> None:
        """Disarm the timer if armed."""
        if self._event is not None:
            self._sim.cancel(self._event)
            self._event = None

    @property
    def armed(self) -> bool:
        return self._event is not None and self._event.alive

    @property
    def expires_at(self) -> Optional[float]:
        """Absolute expiry time, or None when disarmed."""
        if self._event is not None and self._event.alive:
            return self._event.time
        return None

    def _fire(self) -> None:
        self._event = None
        self._callback()


class PeriodicTask:
    """Invoke a callback every ``interval`` seconds until stopped.

    The first invocation happens after ``first_delay`` (default: one full
    interval).  The callback may call :meth:`stop` to end the series.
    """

    __slots__ = ("_sim", "_interval", "_callback", "_event", "_running")

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], Any],
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._event: Optional[Event] = None
        self._running = False

    def start(self, first_delay: Optional[float] = None) -> "PeriodicTask":
        """Begin ticking; returns self for chaining."""
        if self._running:
            return self
        self._running = True
        delay = self._interval if first_delay is None else first_delay
        self._event = self._sim.schedule(delay, self._tick)
        return self

    def stop(self) -> None:
        """Stop ticking.  Safe to call from within the callback."""
        self._running = False
        if self._event is not None:
            self._sim.cancel(self._event)
            self._event = None

    @property
    def running(self) -> bool:
        return self._running

    @property
    def interval(self) -> float:
        return self._interval

    def _tick(self) -> None:
        self._event = None
        if not self._running:
            return
        self._callback()
        if self._running:
            self._event = self._sim.schedule(self._interval, self._tick)
