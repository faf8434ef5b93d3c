"""Per-layer attribution from outside the program: spans, events, counters.

A :class:`LayerTracer` patches the public entry points at each layer
boundary with in-memory spans, arms kernel profiling on every simulator
built while it is installed, and keeps the objects whose public counters
it reads afterwards.  Nothing under ``src/`` changes; the patches are
undone by :meth:`LayerTracer.uninstall`.

Spans nest on one stack.  Each kernel event is a span too: it opens
when the event queue hands the event to the kernel and closes when the
kernel's profiler hook reports the handler's duration, and it belongs to
the layer of the module that owns the handler (a timer's event belongs
to the timer's target).  A span's self time is its duration minus the
part its child spans cover, so the self times of all spans add up to the
traced wall time without double counting.  Spans are aggregated in
memory per ``(parent, name)`` pair, because a packet cell makes millions.

The patches must be installed before a scenario is built: hot paths
cache bound methods at construction (``Simulator._push``, netfilter
hooks, scheduled handlers).
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Module prefix -> layer, most specific first.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.net.wireless", "net.wireless"),
    ("repro.sim", "sim"),
    ("repro.tcp", "tcp"),
    ("repro.net", "net"),
    ("repro.bittorrent", "bittorrent"),
    ("repro.wp2p", "wp2p"),
    ("repro.cdn", "cdn"),
    ("repro.scale", "scale"),
    ("repro.runner", "runner"),
    ("repro.obs", "obs"),
    ("repro.audit", "audit"),
)

#: Time in this layer is not attributed to any of the program's layers.
OTHER = "other"


def layer_of_module(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return OTHER


class LayerTracer:
    """Spans at layer boundaries plus kernel-event attribution."""

    def __init__(self) -> None:
        self._patches: List[Tuple[type, str, object]] = []
        self._stack: List[list] = []
        #: (parent span name, span name) -> [calls, total s, self s]
        self.spans: Dict[Tuple[Optional[str], str], List[float]] = {}
        self.span_layer: Dict[str, str] = {}
        self.layer_self: Dict[str, float] = defaultdict(float)
        self.events = 0
        self.objects: Dict[str, list] = defaultdict(list)
        self.counts: Dict[str, int] = defaultdict(int)
        self._handlers: Dict[object, Tuple[str, str]] = {}

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> "LayerTracer":
        from repro.bittorrent.choker import ChokerDriver
        from repro.bittorrent.peer import PeerConnection
        from repro.bittorrent.piece_manager import PieceManager
        from repro.cdn.scenario import CdnScenario
        from repro.net.host import Host, Interface
        from repro.net.internet import Internet
        from repro.net.links import WiredAccessLink
        from repro.net.queues import DropTailQueue
        from repro.net.wireless import WirelessChannel
        from repro.runner import ResultCache, Runner
        from repro.scale.fluid import FluidSwarm
        from repro.sim import Simulator
        from repro.sim.events import CalendarEventQueue, Event, HeapEventQueue
        from repro.tcp.connection import TCPConnection
        from repro.tcp.stack import TCPStack
        from repro.wp2p.age_manipulation import AgeBasedManipulation

        for queue in (CalendarEventQueue, HeapEventQueue):
            self._span(queue, "push", "sim.queue_push", "sim")
            self._pop_span(queue, "sim.queue_pop")
        self._count(Event, "cancel", "sim.cancel")
        self._span(Simulator, "run", "sim.run", "sim")
        self._track(Simulator, after=self._arm_profiler)

        self._span(TCPStack, "receive", "tcp.demux", "tcp")
        self._span(TCPConnection, "receive_segment", "tcp.receive_segment", "tcp")
        self._span(TCPConnection, "send_message", "tcp.send_message", "tcp")
        self._track(TCPConnection)

        self._span(Host, "send", "net.host_send", "net")
        self._span(Interface, "receive", "net.interface_receive", "net")
        self._span(Internet, "forward", "net.forward", "net")
        self._span(WiredAccessLink, "send_from_host", "net.wired_up", "net")
        self._span(WiredAccessLink, "deliver_from_core", "net.wired_down", "net")
        self._track(Internet)
        self._track(DropTailQueue)

        self._span(WirelessChannel, "send_from_host",
                   "net.wireless.send_from_host", "net.wireless")
        self._span(WirelessChannel, "deliver_from_core",
                   "net.wireless.deliver_from_core", "net.wireless")
        self._track(WirelessChannel)

        self._span(PeerConnection, "_on_message", "bittorrent.message", "bittorrent")
        self._span(PieceManager, "next_request", "bittorrent.next_request", "bittorrent")
        self._span(PieceManager, "receive_block", "bittorrent.receive_block", "bittorrent")
        self._span(ChokerDriver, "run_round", "bittorrent.choke_round", "bittorrent")
        self._track(PieceManager)

        self._span(AgeBasedManipulation, "_ingress", "wp2p.am_ingress", "wp2p")
        self._span(AgeBasedManipulation, "_egress", "wp2p.am_egress", "wp2p")
        self._track(AgeBasedManipulation)

        self._span(CdnScenario, "_handle_request", "cdn.request", "cdn")
        self._track(CdnScenario)

        self._span(FluidSwarm, "advance", "scale.advance", "scale")
        self._track(FluidSwarm)

        self._span(Runner, "run", "runner.run", "runner")
        self._span(ResultCache, "get", "runner.cache_get", "runner")
        self._span(ResultCache, "put", "runner.cache_put", "runner")
        return self

    def uninstall(self) -> None:
        for cls, name, original in reversed(self._patches):
            setattr(cls, name, original)
        self._patches.clear()

    def __enter__(self) -> "LayerTracer":
        try:
            return self.install()
        except BaseException:
            self.uninstall()
            raise

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, cls: type, name: str, replacement: Callable) -> None:
        self._patches.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _close(self, name: str, frame: list, elapsed: float, layer: str) -> None:
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += elapsed
        key = (parent[0] if parent is not None else None, name)
        stats = self.spans.get(key)
        if stats is None:
            stats = self.spans[key] = [0, 0.0, 0.0]
        own = elapsed - frame[1]
        stats[0] += 1
        stats[1] += elapsed
        stats[2] += own
        self.layer_self[layer] += own

    def _span(self, cls: type, method: str, name: str, layer: str) -> None:
        fn = cls.__dict__[method]
        stack = self._stack
        close = self._close
        self.span_layer[name] = layer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                close(name, frame, elapsed, layer)

        self._patch(cls, method, wrapper)

    @contextmanager
    def span(self, name: str, layer: str = OTHER) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        frame = [name, 0.0]
        self._stack.append(frame)
        self.span_layer[name] = layer
        started = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - started
            self._stack.pop()
            self._close(name, frame, elapsed, layer)

    def _pop_span(self, cls: type, name: str) -> None:
        """The queue's pop: a ``sim`` span, then the popped event's frame."""
        fn = cls.__dict__["pop_due"]
        stack = self._stack
        close = self._close
        handler = self._handler
        self.span_layer[name] = "sim"

        @functools.wraps(fn)
        def pop_due(queue, until):
            frame = [name, 0.0]
            stack.append(frame)
            started = perf_counter()
            event = fn(queue, until)
            elapsed = perf_counter() - started
            stack.pop()
            close(name, frame, elapsed, "sim")
            if event is not None:
                layer, label = handler(event.callback)
                stack.append([label, 0.0, layer])
            return event

        self._patch(cls, "pop_due", pop_due)

    def _record_event(self, callback: Callable, elapsed: float) -> None:
        """Kernel profiler hook: close the event frame ``pop_due`` opened."""
        frame = self._stack.pop()
        self.events += 1
        self._close(frame[0], frame, elapsed, frame[2])

    def _handler(self, callback: Callable) -> Tuple[str, str]:
        owner = getattr(callback, "__self__", None)
        target = getattr(owner, "_callback", None) if owner is not None else None
        if target is not None and type(owner).__module__ == "repro.sim.timers":
            # A Timer/PeriodicTask event does its target's work.
            callback = target
            owner = getattr(callback, "__self__", None)
        func = getattr(callback, "__func__", callback)
        # Every patched method shares one wrapper code object, so the
        # name and the owner's class tell them apart.
        key = (getattr(func, "__code__", None), getattr(func, "__name__", None),
               type(owner))
        found = self._handlers.get(key)
        if found is None:
            if owner is not None:
                module = type(owner).__module__
                label = f"event:{type(owner).__name__}.{func.__name__}"
            else:
                module = getattr(func, "__module__", "") or ""
                label = f"event:{getattr(func, '__qualname__', repr(func))}"
            found = self._handlers[key] = (layer_of_module(module), label)
            self.span_layer[label] = found[0]
        return found

    def _arm_profiler(self, sim) -> None:
        profiler = sim.enable_profiling()
        # Instance attribute: the kernel looks ``record`` up per event.
        profiler.record = self._record_event

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def _count(self, cls: type, method: str, name: str) -> None:
        """Count calls that change state (an event not yet cancelled)."""
        fn = cls.__dict__[method]
        counts = self.counts

        def wrapper(obj, *args, **kwargs):
            if not getattr(obj, "cancelled", False):
                counts[name] += 1
            return fn(obj, *args, **kwargs)

        self._patch(cls, method, wrapper)

    def _track(self, cls: type, after: Optional[Callable] = None) -> None:
        """Keep every instance built while installed, for its counters."""
        init = cls.__dict__["__init__"]
        instances = self.objects[cls.__name__]

        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            instances.append(obj)
            if after is not None:
                after(obj)

        self._patch(cls, "__init__", __init__)

    def calls(self, name: str) -> int:
        return int(sum(s[0] for (_, n), s in self.spans.items() if n == name))

    def total(self, name: str) -> float:
        return sum(s[1] for (_, n), s in self.spans.items() if n == name)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: LayerTracer) -> Dict[str, float]:
    """Per-layer numbers from one traced operation (see ``PER_LAYER``).

    Times are self times in microseconds; a metric whose layer did no
    work reads 0.
    """
    objs = tracer.objects
    own = tracer.layer_self
    us = 1e6
    events = tracer.events

    def mean_us(name: str) -> float:
        return _ratio(tracer.total(name), tracer.calls(name)) * us

    conns = objs["TCPConnection"]
    segments = sum(c.stats.segments_sent for c in conns)
    retransmits = sum(c.stats.retransmissions for c in conns)
    duplicate = sum(c.rcv.duplicate_bytes for c in conns if c.rcv is not None)
    delivered = sum(c.stats.payload_bytes_delivered for c in conns)
    forwarded = sum(i.packets_forwarded for i in objs["Internet"])
    channels = objs["WirelessChannel"]
    frames = sum(c.frames_up + c.frames_down for c in channels)
    blocks = tracer.calls("bittorrent.receive_block")
    ams = objs["AgeBasedManipulation"]
    am_packets = tracer.calls("wp2p.am_ingress") + tracer.calls("wp2p.am_egress")
    cdns = objs["CdnScenario"]
    requests = sum(sc.metrics.snapshot()["requests"] for sc in cdns)
    steps = sum(f.steps for f in objs["FluidSwarm"])
    return {
        "sim.events": events,
        "sim.self_us_per_event": _ratio(own["sim"], events) * us,
        "sim.queue_push_us": mean_us("sim.queue_push"),
        "sim.queue_pop_us": mean_us("sim.queue_pop"),
        "sim.cancel_ratio": _ratio(tracer.counts["sim.cancel"],
                                   tracer.calls("sim.queue_push")),
        "tcp.self_us_per_segment": _ratio(own["tcp"], segments) * us,
        "tcp.segments": segments,
        "tcp.retransmit_ratio": _ratio(retransmits, segments),
        "tcp.duplicate_byte_ratio": _ratio(duplicate, delivered + duplicate),
        "net.self_us_per_packet": _ratio(own["net"], forwarded) * us,
        "net.packets_forwarded": forwarded,
        "net.queue_drops": sum(len(q.drops) for q in objs["DropTailQueue"]),
        "net.wireless.self_us_per_frame": _ratio(own["net.wireless"], frames) * us,
        "net.wireless.frames": frames,
        "net.wireless.loss_ratio": _ratio(
            sum(c.frames_lost for c in channels), frames),
        "bittorrent.self_us_per_event": _ratio(own["bittorrent"], events) * us,
        "bittorrent.next_request_us": mean_us("bittorrent.next_request"),
        "bittorrent.choke_round_us": mean_us("bittorrent.choke_round"),
        "bittorrent.blocks": blocks,
        "bittorrent.duplicate_block_ratio": _ratio(
            sum(m.duplicate_blocks for m in objs["PieceManager"]), blocks),
        "wp2p.self_us_per_packet": _ratio(own["wp2p"], am_packets) * us,
        "wp2p.acks_decoupled": sum(a.acks_decoupled for a in ams),
        "wp2p.dupack_drop_ratio": _ratio(
            sum(a.dupacks_dropped for a in ams), sum(a.dupacks_seen for a in ams)),
        "cdn.self_us_per_event": _ratio(own["cdn"], events) * us,
        "cdn.requests": requests,
        "cdn.local_hit_ratio": _ratio(
            sum(sc.metrics.local_hits.total for sc in cdns), requests),
        "cdn.origin_activations": sum(sc.origin.activations for sc in cdns),
        "scale.steps": steps,
        "scale.us_per_step": _ratio(own["scale"], steps) * us,
        "runner.cache_put_us": mean_us("runner.cache_put"),
        "obs.unattributed_ratio": _ratio(own[OTHER], sum(own.values())),
    }
