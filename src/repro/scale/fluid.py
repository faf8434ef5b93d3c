"""The deterministic mean-field fluid swarm engine.

:class:`FluidSwarm` integrates a population/fluid model of a BitTorrent
swarm with a mobile-host fraction (after the hybridised-swarm evaluation
of Violaris & Mavromoustakis, arXiv:1009.1708, and the analytical rate
models of Neely, arXiv:1202.4451): peer classes
(:class:`~repro.scale.model.PeerClass`) carry populations, mean download
progress, and duty-cycle availabilities, coupled through shared upload
capacity and piece availability:

* **supply** — seeds and complete classes upload at capacity; leechers
  contribute once they hold enough pieces to be useful (the
  ``warm_fraction`` ramp is the piece-availability coupling);
* **demand** — online leechers ask for their access capacity; on a
  shared wireless cell uploads steal download airtime (Figure 3(b)),
  which is why wP2P classes throttle uploads LIHD-style
  (``lihd_level * upload_rate``) while default mobile clients upload at
  will and pay for it;
* **mobility** — handoff cycles cost downtime plus a per-client recovery
  penalty (task restart for the default client, cheap re-announce for
  wP2P), folded into a per-class availability factor;
* **churn/chaos** — :mod:`repro.scale.chaosmap` windows scale the rates
  and move population between online and offline pools.

Everything is explicit-Euler with a fixed ``dt``, pure float arithmetic
over a handful of classes, so the cost is independent of swarm size —
a million-peer swarm integrates in the same milliseconds as a ten-peer
one — and results are bit-identical wherever they run.

Observability: the engine owns a
:class:`~repro.obs.metrics.MetricsRegistry` and a
:class:`~repro.obs.tracing.TraceBus` (both clocked on *model* time, and
the bus picks up globally installed sinks exactly like a packet-level
:class:`~repro.sim.kernel.Simulator`), emitting ``scale.*`` metrics and
``scale``-layer trace events.
"""

from __future__ import annotations

import time as _time
from typing import Dict, List, Optional, Sequence, Tuple

from ..chaos.schedule import ChaosSchedule
from ..obs import tracing
from ..obs.metrics import MetricsRegistry
from .chaosmap import CrashImpulse, RateWindow, class_matches, schedule_modifiers
from .model import (
    ClassResult,
    FluidParams,
    FluidResult,
    PeerClass,
    content_rate_factor,
    playability_surrogate,
)


class _ClassState:
    """Mutable integration state for one peer class."""

    __slots__ = (
        "cls", "online", "pools", "progress", "complete", "completion_time",
        "alive", "peak_online", "samples",
    )

    def __init__(self, cls: PeerClass) -> None:
        self.cls = cls
        self.online = float(cls.count)
        #: churned/crashed population pools: [amount, rejoin_rate] pairs.
        self.pools: List[List[float]] = []
        self.progress = 1.0 if cls.seed else 0.0
        self.complete = cls.seed
        self.completion_time: Optional[float] = 0.0 if cls.seed else None
        self.alive = float(cls.count)
        self.peak_online = float(cls.count)
        self.samples: List[Tuple[float, float]] = []

    @property
    def offline(self) -> float:
        return sum(amount for amount, _ in self.pools)


class FluidSwarm:
    """Mean-field swarm integrator (see module docstring).

    >>> params = FluidParams(file_size=1 << 22, piece_length=1 << 16,
    ...                      classes=(seed_cls, leech_cls))   # doctest: +SKIP
    >>> result = FluidSwarm(params).run()                     # doctest: +SKIP
    >>> result.classes["leech"].completion_time               # doctest: +SKIP
    """

    def __init__(
        self,
        params: FluidParams,
        chaos: Optional[ChaosSchedule] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.params = params
        self.t = 0.0
        self.steps = 0
        self.wall_seconds = 0.0
        self.metrics = (
            metrics if metrics is not None
            else MetricsRegistry(clock=lambda: self.t)
        )
        self.trace = tracing.TraceBus(clock=lambda: self.t)
        tracing.apply_defaults(self.trace)
        self.windows: Tuple[RateWindow, ...] = ()
        self.impulses: Tuple[CrashImpulse, ...] = ()
        if chaos is not None and not chaos.empty:
            self.windows, self.impulses = schedule_modifiers(chaos)
        self._states = [_ClassState(c) for c in params.classes]
        self._active_window_count = 0
        self._utilization_sum = 0.0
        self._utilization_steps = 0
        self._next_sample = 0.0
        self._next_impulse = 0
        #: Boundary source terms (B/s) injected by a co-simulation driver
        #: (the hybrid backend): extra upload capacity offered to, and
        #: extra download demand placed on, the background swarm.  Both
        #: default to 0.0, which leaves pure-fluid runs bit-identical.
        self.external_supply = 0.0
        self.external_demand = 0.0
        #: Boundary observables refreshed by every :meth:`_step`.
        self.last_supply = 0.0
        self.last_demand = 0.0
        self.last_utilization = 1.0

    # ------------------------------------------------------------------
    def run(self) -> FluidResult:
        """Integrate until every leecher class completes (or ``max_time``)."""
        params = self.params
        if self.trace.enabled:
            self.trace.event(
                "scale", "engine_start",
                classes=[s.cls.name for s in self._states],
                peers=params.total_peers,
                dt=params.dt,
                chaos_windows=len(self.windows),
            )
        self.advance(params.max_time, stop_when_finished=True)
        return self.finish()

    def advance(self, until: float, *, stop_when_finished: bool = False) -> None:
        """Integrate forward until model time reaches ``until``.

        Incremental driver used both by :meth:`run` and by co-simulation
        (the hybrid backend calls ``advance`` once per coupling interval,
        refreshing :attr:`external_supply`/:attr:`external_demand` between
        calls).  Sampling and crash-impulse cursors live on the instance,
        so successive calls continue exactly where the last one stopped.
        """
        params = self.params
        started = _time.perf_counter()
        while self.t < until:
            if stop_when_finished and self._finished():
                break
            # Crash impulses scheduled inside this step fire first.
            while (
                self._next_impulse < len(self.impulses)
                and self.impulses[self._next_impulse].t < self.t + params.dt
            ):
                self._fire_impulse(self.impulses[self._next_impulse])
                self._next_impulse += 1
            if self.t + 1e-12 >= self._next_sample:
                for state in self._states:
                    state.samples.append((self.t, state.progress))
                self._next_sample += params.sample_interval
            self._step(params.dt)
            self.t += params.dt
            self.steps += 1
        self.wall_seconds += _time.perf_counter() - started

    def finish(self) -> FluidResult:
        """Record tail samples and summary metrics, and build the result."""
        for state in self._states:
            state.samples.append((self.t, state.progress))
        self.metrics.counter("scale.steps").add(self.steps)
        self.metrics.gauge("scale.horizon").set(self.t)
        if self.trace.enabled:
            self.trace.event(
                "scale", "engine_finish",
                steps=self.steps, horizon=self.t,
                completed=[
                    s.cls.name for s in self._states if s.complete
                ],
            )
        return self._result()

    # ------------------------------------------------------------------
    def _finished(self) -> bool:
        return all(
            s.complete for s in self._states if not s.cls.seed
        ) and all(s.cls.arrival_rate == 0.0 for s in self._states)

    def availability_proxy(self) -> float:
        """Aggregate piece availability the background presents outward.

        1.0 while any seed/complete class is still alive (every piece is
        somewhere in the swarm); otherwise the best class-mean progress.
        """
        best = 0.0
        for state in self._states:
            if (state.cls.seed or state.complete) and state.alive > 0.0:
                return 1.0
            best = max(best, state.progress)
        return best

    def _fire_impulse(self, impulse: CrashImpulse) -> None:
        for state in self._states:
            if not class_matches(state.cls, impulse.target):
                continue
            # The impulse hits everything it can reach: the online mass
            # plus anything already parked in recovery pools from earlier
            # crashes — otherwise back-to-back impulses strand pool mass
            # (non-permanent) or leave it alive forever (permanent).
            amount = state.online + state.offline
            if amount <= 0.0:
                continue
            rate = (1.0 / impulse.downtime) if impulse.downtime > 0 else 0.0
            if impulse.permanent:
                state.online = 0.0
                state.pools = []
                state.alive -= amount
            elif rate > 0.0:
                state.online = 0.0
                state.pools = [[amount, rate]]
            else:
                # Zero-downtime transient crash: nothing moves; pools
                # keep recovering at their original rates.
                amount = state.online
                if amount <= 0.0:
                    continue
            self.metrics.counter("scale.crashes").add(amount)
            if self.trace.enabled:
                self.trace.event(
                    "scale", "crash_impulse",
                    target=state.cls.name, amount=amount,
                    permanent=impulse.permanent,
                )

    def _active_windows(self, cls: PeerClass) -> List[RateWindow]:
        t = self.t
        return [
            w for w in self.windows if w.active(t) and class_matches(cls, w.target)
        ]

    # ------------------------------------------------------------------
    def _step(self, dt: float) -> None:
        params = self.params
        file_size = float(params.file_size)
        warm = max(params.warm_fraction, 1.0 / max(params.num_pieces, 1))

        supply_total = 0.0
        demand_total = 0.0
        # Piece-holder mass for the coded-availability surrogate; only
        # tracked when a content mode is set (the default "" skips every
        # branch below, leaving pure-fluid runs bit-identical).
        content_on = params.content_mode != ""
        holder_online = 0.0
        holder_total = 0.0
        per_class: List[Tuple[_ClassState, float, float, float]] = []
        freeze_rejoin = any(
            w.freeze_rejoin for w in self.windows if w.active(self.t)
        )
        active_count = 0

        for state in self._states:
            cls = state.cls
            windows = self._active_windows(cls)
            active_count += len(windows)

            availability_factor = 1.0
            upload_factor = 1.0
            download_factor = 1.0
            efficiency_factor = 1.0
            departure_rate = params.departure_rate if not cls.seed else 0.0
            extra_handoff_rate = 0.0
            extra_handoff_downtime = 0.0
            churn_rejoin_rate = 0.0
            for w in windows:
                availability_factor *= w.availability_factor
                upload_factor *= w.upload_factor
                download_factor *= w.download_factor
                efficiency_factor *= w.efficiency_factor
                departure_rate += w.departure_rate
                extra_handoff_rate += w.extra_handoff_rate
                extra_handoff_downtime = max(
                    extra_handoff_downtime, w.extra_handoff_downtime
                )
                churn_rejoin_rate = max(churn_rejoin_rate, w.rejoin_rate)

            # Rejoins (stalled entirely while the tracker is dark).
            if not freeze_rejoin and state.pools:
                remaining: List[List[float]] = []
                for pool in state.pools:
                    amount, rate = pool
                    drained = amount * min(1.0, rate * dt)
                    state.online += drained
                    amount -= drained
                    if amount > 1e-9:
                        remaining.append([amount, rate])
                state.pools = remaining

            # Churn departures into a pool that rejoins at the window's rate.
            if departure_rate > 0.0 and state.online > 0.0:
                departed = state.online * min(1.0, departure_rate * dt)
                state.online -= departed
                if churn_rejoin_rate > 0.0:
                    state.pools.append([departed, churn_rejoin_rate])
                else:
                    state.alive -= departed  # aborted for good

            # Arrivals enter at zero progress, diluting the class mean.
            if cls.arrival_rate > 0.0:
                joined = cls.arrival_rate * dt
                old_alive = state.alive
                state.online += joined
                state.alive += joined
                if state.alive > 0.0 and not state.complete:
                    state.progress *= old_alive / state.alive

            state.peak_online = max(state.peak_online, state.online)

            # Duty-cycle availability: scheduled handoffs + storm pressure.
            availability = cls.availability()
            if extra_handoff_rate > 0.0:
                penalty = extra_handoff_rate * (
                    extra_handoff_downtime + cls.recovery_cost
                )
                availability *= max(0.0, 1.0 - penalty)
            availability *= availability_factor

            # Effective upload per online peer: wP2P throttles LIHD-style.
            u_cap = cls.upload_rate * upload_factor
            if cls.wp2p and not cls.seed:
                u_cap *= cls.lihd_level
            ramp = 1.0 if state.complete else min(1.0, state.progress / warm)
            u_used = u_cap * ramp
            supply_total += state.online * availability * u_used
            if content_on and (cls.seed or state.complete):
                # Custody holders: the online, duty-cycled fraction of
                # the piece-holding population is what keeps individual
                # coded indices reachable.
                holder_online += state.online * availability
                holder_total += state.online + state.offline

            # Download demand: shared wireless airtime charges for uploads.
            if state.complete:
                per_class.append((state, 0.0, availability, efficiency_factor))
                continue
            d_cap = cls.download_rate * download_factor
            if cls.wireless_shared:
                d_cap = max(0.0, d_cap - cls.upload_coupling * u_used)
            demand_total += state.online * availability * d_cap
            per_class.append((state, d_cap, availability, efficiency_factor))

        # Boundary flows from a co-simulation driver (zero for pure-fluid
        # runs, so adding them keeps results bit-identical).
        supply_total += self.external_supply
        demand_total += self.external_demand

        utilization = 0.0
        if demand_total > 0.0:
            utilization = min(1.0, supply_total / demand_total)
            self._utilization_sum += utilization
            self._utilization_steps += 1
        self.last_supply = supply_total
        self.last_demand = demand_total
        self.last_utilization = utilization if demand_total > 0.0 else 1.0

        if self._active_window_count != active_count and self.trace.enabled:
            self.trace.event(
                "scale", "chaos_windows_active", count=active_count,
            )
        self._active_window_count = active_count

        content_factor = 1.0
        if content_on:
            # No dedicated holder mass (all seeds gone): fall back to the
            # outward availability proxy so the swarm degrades, not NaNs.
            piece_availability = (
                holder_online / holder_total
                if holder_total > 0.0
                else self.availability_proxy()
            )
            content_factor = content_rate_factor(
                params.content_mode, piece_availability,
                params.code_k, params.code_n,
            )

        if self.t < params.startup_delay:
            return

        for state, d_cap, availability, efficiency_factor in per_class:
            if state.complete or d_cap <= 0.0:
                continue
            total_pop = state.online + state.offline
            if total_pop <= 0.0:
                continue
            rate = (
                d_cap * availability * utilization
                * params.efficiency * efficiency_factor * content_factor
            )
            # Class-mean progress: only the online fraction downloads.
            dp = rate * (state.online / total_pop) * dt / file_size
            if dp <= 0.0:
                continue
            new_progress = state.progress + dp
            if new_progress >= 1.0:
                overshoot = (1.0 - state.progress) / dp
                state.completion_time = self.t + overshoot * dt
                state.progress = 1.0
                state.complete = True
                self.metrics.counter("scale.completions").add(state.alive)
                if self.trace.enabled:
                    self.trace.event(
                        "scale", "class_complete",
                        peer_class=state.cls.name,
                        completed_at=state.completion_time,
                        peers=state.alive,
                    )
            else:
                state.progress = new_progress

    # ------------------------------------------------------------------
    def _result(self) -> FluidResult:
        params = self.params
        classes: Dict[str, ClassResult] = {}
        grid = [i / 50.0 for i in range(51)]  # downloaded fraction 0..1
        for state in self._states:
            cls = state.cls
            completion = state.completion_time
            goodput = 0.0
            if not cls.seed and completion:
                goodput = params.file_size / completion
            playability = [
                (100.0 * d,
                 100.0 * playability_surrogate(d, params.num_pieces, cls.selection))
                for d in grid
            ]
            classes[cls.name] = ClassResult(
                name=cls.name,
                completion_time=completion,
                mean_goodput=goodput,
                seed=cls.seed,
                progress=list(state.samples),
                playability=playability,
                final_progress=state.progress,
                peak_online=state.peak_online,
            )
        peak = max((s.peak_online for s in self._states), default=0.0)
        self.metrics.gauge("scale.peers_peak").set(peak)
        utilization_mean = (
            self._utilization_sum / self._utilization_steps
            if self._utilization_steps else 0.0
        )
        return FluidResult(
            classes=classes,
            steps=self.steps,
            horizon=self.t,
            peak_population=sum(s.alive for s in self._states),
            utilization_mean=utilization_mean,
        )


def run_fluid(
    params: FluidParams,
    chaos: Optional[ChaosSchedule] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> FluidResult:
    """Build a :class:`FluidSwarm` and run it to completion."""
    return FluidSwarm(params, chaos=chaos, metrics=metrics).run()
