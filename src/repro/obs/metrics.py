"""Metric primitives and the :class:`MetricsRegistry`.

This module is the measurement half of the observability layer
(:mod:`repro.obs`).  It owns every metric type used across the library:

* :class:`Counter` — monotonically increasing totals, optionally with a
  ``(time, total)`` history for cumulative curves (Figure 3(c), 8(b));
* :class:`Gauge` — a last-value instrument for quantities that move both
  ways (congestion windows, queue depths, LIHD upload caps);
* :class:`Histogram` — value distributions with percentile queries
  (handler costs, piece completion times);
* :class:`EwmaRateMeter` — an exponentially-weighted moving-average rate
  estimator whose memory decays with a time constant ``tau``;
* :class:`WindowRateMeter` — the sliding-window byte-rate estimator real
  BitTorrent clients use for tit-for-tat ranking;
* :class:`TimeSeries` — append-only ``(time, value)`` samples.

All instruments are clock-agnostic: they take a ``clock`` callable
(usually ``lambda: sim.now``) instead of importing the simulation kernel,
so protocol code binds them to its simulator without an import cycle and
unit tests can drive them with plain floats.

:class:`MetricsRegistry` is the get-or-create front door: one registry
per :class:`~repro.sim.kernel.Simulator` (``sim.metrics``) names every
instrument of a run, and :mod:`repro.analysis.runreport` renders its
snapshot into per-layer report tables.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from typing import Callable, Deque, Dict, Iterable, Iterator, List, Optional, Tuple

Clock = Callable[[], float]


def _zero_clock() -> float:
    return 0.0


class Metric:
    """Base class for all instruments: a name plus a time source."""

    kind = "metric"

    def __init__(self, name: str = "", clock: Optional[Clock] = None) -> None:
        self.name = name
        self._clock = clock or _zero_clock

    @property
    def now(self) -> float:
        """Current time according to the metric's clock."""
        return self._clock()

    def snapshot(self) -> Dict[str, float]:
        """A JSON-friendly summary of the metric's current state."""
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing counter with optional history.

    With ``record_history=True`` every :meth:`add` appends
    ``(time, total)``, which lets experiments reconstruct cumulative
    curves (e.g. Figure 3(c)'s downloaded size vs time) and
    :meth:`value_at` answer "how much by time t?" queries.
    """

    kind = "counter"

    def __init__(
        self,
        name: str = "",
        clock: Optional[Clock] = None,
        record_history: bool = False,
    ) -> None:
        super().__init__(name, clock)
        self.total = 0.0
        self.history: List[Tuple[float, float]] = []
        self._record = record_history

    def add(self, amount: float = 1.0) -> None:
        """Increase the counter by ``amount`` (default 1)."""
        self.total += amount
        if self._record:
            self.history.append((self._clock(), self.total))

    def value_at(self, time: float) -> float:
        """Cumulative value at ``time`` (requires history recording)."""
        if not self._record:
            raise ValueError(f"counter {self.name!r} does not record history")
        idx = bisect_right(self.history, (time, float("inf")))
        return self.history[idx - 1][1] if idx else 0.0

    def reset(self) -> None:
        """Zero the counter and clear its history."""
        self.total = 0.0
        self.history.clear()

    def snapshot(self) -> Dict[str, float]:
        return {"total": self.total}


class Gauge(Metric):
    """A last-value instrument for quantities that rise *and* fall."""

    kind = "gauge"

    def __init__(
        self,
        name: str = "",
        clock: Optional[Clock] = None,
        record_history: bool = False,
    ) -> None:
        super().__init__(name, clock)
        self.value = 0.0
        self.updates = 0
        self.history: List[Tuple[float, float]] = []
        self._record = record_history

    def set(self, value: float) -> None:
        """Record the instrument's new current value."""
        self.value = value
        self.updates += 1
        if self._record:
            self.history.append((self._clock(), value))

    def inc(self, amount: float = 1.0) -> None:
        """Shift the gauge up by ``amount``."""
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        """Shift the gauge down by ``amount``."""
        self.set(self.value - amount)

    def snapshot(self) -> Dict[str, float]:
        return {"value": self.value, "updates": self.updates}


class Histogram(Metric):
    """A value distribution with percentile queries.

    Observations are kept exactly (this is a simulator — runs are short
    and deterministic), sorted lazily on the first percentile query after
    new data arrives.
    """

    kind = "histogram"

    def __init__(self, name: str = "", clock: Optional[Clock] = None) -> None:
        super().__init__(name, clock)
        self._values: List[float] = []
        self._sorted = True
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._values.append(value)
        self.sum += value
        self._sorted = False

    @property
    def count(self) -> int:
        """Number of observations recorded."""
        return len(self._values)

    @property
    def mean(self) -> float:
        """Arithmetic mean; 0.0 with no observations."""
        return self.sum / len(self._values) if self._values else 0.0

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._values.sort()
            self._sorted = True

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0–100), linearly interpolated.

        Raises :class:`ValueError` for an empty histogram or ``p``
        outside [0, 100].
        """
        if not self._values:
            raise ValueError(f"histogram {self.name!r} is empty")
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        self._ensure_sorted()
        values = self._values
        if len(values) == 1:
            return values[0]
        rank = (p / 100.0) * (len(values) - 1)
        lo = int(math.floor(rank))
        hi = int(math.ceil(rank))
        if lo == hi:
            return values[lo]
        frac = rank - lo
        return values[lo] * (1.0 - frac) + values[hi] * frac

    @property
    def min(self) -> float:
        """Smallest observation (ValueError when empty)."""
        return self.percentile(0.0)

    @property
    def max(self) -> float:
        """Largest observation (ValueError when empty)."""
        return self.percentile(100.0)

    def snapshot(self) -> Dict[str, float]:
        if not self._values:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "max": self.max,
        }


class EwmaRateMeter(Metric):
    """Exponentially-weighted moving-average rate estimator.

    The estimate's memory decays with time constant ``tau`` seconds: an
    instantaneous rate observed ``tau`` seconds ago contributes a factor
    ``1/e`` of what a fresh one does, and an idle meter decays toward
    zero instead of holding its last reading forever (the failure mode of
    naive sample-pair estimators).  BitTorrent-style rolling averages
    with a hard cutoff are :class:`WindowRateMeter`; this meter is the
    smooth variant used for report-friendly rates.
    """

    kind = "ewma"

    def __init__(
        self,
        name: str = "",
        clock: Optional[Clock] = None,
        tau: float = 10.0,
    ) -> None:
        if tau <= 0:
            raise ValueError("tau must be positive")
        super().__init__(name, clock)
        self.tau = tau
        self.total = 0.0
        self._rate = 0.0
        self._last: Optional[float] = None

    def add(self, amount: float) -> None:
        """Record ``amount`` units transferred now."""
        now = self._clock()
        self.total += amount
        if self._last is None:
            self._last = now
            # First sample: no elapsed interval to rate over yet.
            return
        dt = now - self._last
        self._last = now
        if dt <= 0:
            # Same-instant burst: fold into the estimate via a tiny dt so
            # coincident events still register.
            dt = 1e-9
        instantaneous = amount / dt
        weight = 1.0 - math.exp(-dt / self.tau)
        self._rate += weight * (instantaneous - self._rate)

    def rate(self) -> float:
        """Current decayed rate estimate, units/second."""
        if self._last is None:
            return 0.0
        idle = self._clock() - self._last
        if idle <= 0:
            return self._rate
        return self._rate * math.exp(-idle / self.tau)

    def snapshot(self) -> Dict[str, float]:
        return {"rate": self.rate(), "total": self.total}


class WindowRateMeter(Metric):
    """Sliding-window rate estimator (units/second).

    Mirrors the 20-second rolling average real BitTorrent clients use for
    tit-for-tat rate ranking; the window is configurable.  Young meters
    (observed for less than a full window) divide by the observed span so
    early readings are not artificially deflated.
    """

    kind = "window_rate"

    def __init__(
        self,
        name: str = "",
        clock: Optional[Clock] = None,
        window: float = 20.0,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        super().__init__(name, clock)
        self.window = window
        self._samples: Deque[Tuple[float, float]] = deque()
        self._window_bytes = 0.0
        self.total_bytes = 0.0

    def add(self, nbytes: float) -> None:
        """Record ``nbytes`` transferred now."""
        now = self._clock()
        self._samples.append((now, nbytes))
        self._window_bytes += nbytes
        self.total_bytes += nbytes
        self._expire(now)

    def rate(self) -> float:
        """Current rate over the sliding window, in units/second."""
        now = self._clock()
        self._expire(now)
        if not self._samples:
            return 0.0
        span = max(now - self._samples[0][0], 1e-9)
        if span < self.window:
            return self._window_bytes / min(max(span, 1e-9), self.window)
        return self._window_bytes / self.window

    def _expire(self, now: float) -> None:
        cutoff = now - self.window
        samples = self._samples
        while samples and samples[0][0] < cutoff:
            _, nbytes = samples.popleft()
            self._window_bytes -= nbytes
        if not samples:
            self._window_bytes = 0.0

    def snapshot(self) -> Dict[str, float]:
        return {"rate": self.rate(), "total": self.total_bytes}


class TimeSeries:
    """An append-only series of ``(time, value)`` samples."""

    kind = "series"

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, time: float, value: float) -> None:
        """Append one sample; times must be non-decreasing."""
        if self.times and time < self.times[-1]:
            raise ValueError("samples must be recorded in time order")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(zip(self.times, self.values))

    def last(self) -> Optional[Tuple[float, float]]:
        """The newest ``(time, value)`` sample, or ``None`` when empty."""
        if not self.times:
            return None
        return self.times[-1], self.values[-1]

    def window(self, start: float, end: float) -> "TimeSeries":
        """Samples with ``start <= time < end`` as a new series."""
        lo = bisect_left(self.times, start)
        hi = bisect_left(self.times, end)
        out = TimeSeries(self.name)
        out.times = self.times[lo:hi]
        out.values = self.values[lo:hi]
        return out

    def bucketed_counts(
        self, bucket: float, start: float = 0.0, end: Optional[float] = None
    ) -> List[Tuple[float, int]]:
        """Histogram of sample *counts* per time bucket.

        Used for "number of packets per interval" plots (Figure 2(b, c)).
        """
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        if end is None:
            end = self.times[-1] if self.times else start
        counts: List[Tuple[float, int]] = []
        t = start
        while t < end or (t == start and start == end):
            lo = bisect_left(self.times, t)
            hi = bisect_left(self.times, t + bucket)
            counts.append((t, hi - lo))
            t += bucket
            if t >= end:
                break
        return counts

    def snapshot(self) -> Dict[str, float]:
        last = self.last()
        return {"count": len(self), "last": last[1] if last else 0.0}


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; 0.0 for an empty iterable."""
    vals = list(values)
    return sum(vals) / len(vals) if vals else 0.0


class MetricsRegistry:
    """Get-or-create factory and index for a run's instruments.

    One registry hangs off every :class:`~repro.sim.kernel.Simulator` as
    ``sim.metrics``, sharing the simulator's virtual clock.  Components
    ask it for instruments by name; asking twice with the same name
    returns the *same* object, so producers and report code never need to
    hand references around:

    >>> reg = MetricsRegistry()
    >>> reg.counter("tcp.retransmissions").add()
    >>> reg.counter("tcp.retransmissions").total
    1.0

    Names are free-form but the convention is ``layer.metric`` (e.g.
    ``bittorrent.pieces_completed``) because
    :func:`repro.analysis.runreport.render_report` groups report tables
    by the dotted prefix.
    """

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self._clock = clock or _zero_clock
        self._metrics: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Factories (get-or-create)
    # ------------------------------------------------------------------
    def _get(self, name: str, kind: type, factory: Callable[[], object]):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    # Each factory checks the registry dict before falling back to
    # ``_get``: the get-or-create front door sits on per-event hot paths,
    # and the common "already registered" case must not pay a closure
    # allocation and a second dispatch per call.  Subclass instances (and
    # the mismatched-kind error) take the ``_get`` slow path.

    def counter(self, name: str, record_history: bool = False) -> Counter:
        """The counter called ``name``, created on first use."""
        metric = self._metrics.get(name)
        if metric is not None and metric.__class__ is Counter:
            return metric
        return self._get(
            name, Counter, lambda: Counter(name, self._clock, record_history)
        )

    def gauge(self, name: str, record_history: bool = False) -> Gauge:
        """The gauge called ``name``, created on first use."""
        metric = self._metrics.get(name)
        if metric is not None and metric.__class__ is Gauge:
            return metric
        return self._get(
            name, Gauge, lambda: Gauge(name, self._clock, record_history)
        )

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name``, created on first use."""
        metric = self._metrics.get(name)
        if metric is not None and metric.__class__ is Histogram:
            return metric
        return self._get(name, Histogram, lambda: Histogram(name, self._clock))

    def ewma(self, name: str, tau: float = 10.0) -> EwmaRateMeter:
        """The EWMA rate meter called ``name``, created on first use."""
        metric = self._metrics.get(name)
        if metric is not None and metric.__class__ is EwmaRateMeter:
            return metric
        return self._get(
            name, EwmaRateMeter, lambda: EwmaRateMeter(name, self._clock, tau)
        )

    def window_rate(self, name: str, window: float = 20.0) -> WindowRateMeter:
        """The sliding-window rate meter called ``name``."""
        metric = self._metrics.get(name)
        if metric is not None and metric.__class__ is WindowRateMeter:
            return metric
        return self._get(
            name,
            WindowRateMeter,
            lambda: WindowRateMeter(name, self._clock, window),
        )

    def series(self, name: str) -> TimeSeries:
        """The time series called ``name``, created on first use."""
        metric = self._metrics.get(name)
        if metric is not None and metric.__class__ is TimeSeries:
            return metric
        return self._get(name, TimeSeries, lambda: TimeSeries(name))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> List[str]:
        """All registered metric names, sorted."""
        return sorted(self._metrics)

    def get(self, name: str):
        """The instrument called ``name``, or ``None``."""
        return self._metrics.get(name)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``{name: metric.snapshot()}`` for every instrument, sorted."""
        return {
            name: self._metrics[name].snapshot() for name in sorted(self._metrics)
        }

    def rows(self) -> List[Tuple[str, str, Dict[str, float]]]:
        """``(name, kind, snapshot)`` rows for report rendering."""
        return [
            (name, self._metrics[name].kind, self._metrics[name].snapshot())
            for name in sorted(self._metrics)
        ]
