"""The parallel, cache-aware experiment runner.

:class:`Runner` executes a scenario's independent cells — serially in
process for ``jobs=1``, or fanned out over a ``multiprocessing`` pool
for ``jobs=N`` — then hands the collected values to the scenario's
``assemble`` hook.  Around that core it provides:

* **Caching** — give the runner a :class:`~repro.runner.cache.ResultCache`
  and every cell is looked up by content digest before it is simulated;
  a warm cache re-run executes zero simulations.
* **Failure capture** — a cell that raises is recorded as a
  :class:`CellFailure` with its traceback; the campaign continues and
  ``assemble`` aggregates over the surviving seeds.  A dead seed is
  reported, never fatal.  Cells are not retried unless ``retries`` asks
  for it: a cell is a pure function of its inputs, so a retry that
  succeeds is evidence of nondeterminism, not a recovery.
* **Run axes** — the backend, auditing, chaos, strategy mix, content
  mode and CDN workload (:mod:`repro.runner.axes`) travel to every cell
  as one :class:`~repro.context.RunContext`, which the worker layers
  over the ambient context for exactly the duration of the cell.
* **Observability** — per-cell wall timing, cache hit/miss counters and
  retry counts flow into a :class:`~repro.obs.metrics.MetricsRegistry`
  (``runner.*`` metrics) and an optional progress callback.
* **Determinism** — values are canonicalised through JSON whether they
  came from a worker or the cache, and aggregation order is fixed by
  the cell enumeration, so ``jobs=1`` and ``jobs=N`` produce
  bit-identical results.

When global trace sinks are installed (``repro.obs.tracing.install`` /
the CLI's ``--trace``), the runner degrades to serial execution: sinks
live in this process, and simulators created inside pool workers would
escape capture.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing
import signal
import sys
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from ..context import RunContext, layered
from ..obs.metrics import MetricsRegistry
from ..obs import tracing
from .axes import axis_values, cacheable, context_from
from .cache import ResultCache
from .registry import Cell, CellKey, CellValues, Scenario, get_scenario
from .spec import ScenarioSpec, cell_digest, code_version

Progress = Callable[[str], None]


class CellTimeout(Exception):
    """A cell exceeded the runner's per-cell wall-clock budget."""


@contextmanager
def _cell_deadline(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`CellTimeout` if the block runs longer than ``seconds``.

    Implemented with ``SIGALRM``/``setitimer`` so it fires even when the
    cell is stuck inside a single long-running call (the deadlock case
    the timeout exists for).  Signals only work on the main thread of a
    process — which is exactly where cells run, both inline (``jobs=1``)
    and in pool workers — so on platforms without ``SIGALRM`` (Windows)
    or off the main thread the guard degrades to a no-op rather than
    failing the cell.
    """
    if (
        not seconds
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _expired(signum, frame):
        raise CellTimeout(f"cell exceeded {seconds:g}s wall-clock budget")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class CellFailure:
    """One cell that failed (after its retries, if any)."""

    key: CellKey
    seed: int
    error: str
    attempts: int

    def summary(self) -> str:
        last_line = self.error.strip().splitlines()[-1] if self.error else "?"
        return f"cell {self.key!r} seed {self.seed}: {last_line} ({self.attempts} attempts)"


@dataclass
class RunnerStats:
    """What one :meth:`Runner.run` actually did."""

    total_cells: int = 0
    executed: int = 0
    cache_hits: int = 0
    failed: int = 0
    retries: int = 0
    elapsed_s: float = 0.0
    cell_seconds: Dict[Cell, float] = field(default_factory=dict)

    def summary(self) -> str:
        return (
            f"{self.total_cells} cells: {self.executed} executed, "
            f"{self.cache_hits} cache hits, {self.failed} failed, "
            f"{self.retries} retries [{self.elapsed_s:.1f}s]"
        )


@dataclass
class ScenarioRun:
    """A completed scenario: the assembled result plus the raw material."""

    spec: ScenarioSpec
    result: object  # ExperimentResult
    values: CellValues
    failures: List[CellFailure]
    stats: RunnerStats


def _canonical_value(value: object) -> object:
    """Round-trip a cell value through JSON.

    Executed and cached values pass through the identical
    transformation, so a warm-cache run is bit-identical to a cold one.
    """
    return json.loads(json.dumps(value))


def _execute_cell(
    payload: Tuple[
        str, str, list, int, Mapping[str, object], int, Optional[float], RunContext
    ]
):
    """Worker entry point: run one cell under the run's context.

    Module-level (picklable) and self-bootstrapping: it imports the
    scenario's defining module first, so it works under both ``fork``
    and ``spawn`` start methods.  The payload's :class:`RunContext` is
    layered over the ambient one for exactly the duration of the cell,
    so every simulator and scenario the cell builds sees the run's axes
    (an audit violation surfaces as an ordinary cell failure carrying
    the ``AuditViolation`` traceback).  A failing cell is retried up to
    ``retries`` times, except that a :class:`CellTimeout` (the
    ``cell_timeout`` budget expiring) is terminal: a cell that ran out
    of wall clock once will again.
    """
    module_name, scenario_name, key_list, seed, params, retries, cell_timeout, context = payload
    importlib.import_module(module_name)
    run_cell = get_scenario(scenario_name).cell_runner(context)
    key = tuple(key_list)
    attempts = 0
    start = time.perf_counter()
    with layered(context):
        while True:
            attempts += 1
            try:
                with _cell_deadline(cell_timeout):
                    value = run_cell(key, seed, params)
            except CellTimeout:
                return (
                    key_list, seed, False, traceback.format_exc(),
                    time.perf_counter() - start, attempts,
                )
            except Exception:
                if attempts > retries:
                    return (
                        key_list, seed, False, traceback.format_exc(),
                        time.perf_counter() - start, attempts,
                    )
            else:
                return (
                    key_list, seed, True, _canonical_value(value),
                    time.perf_counter() - start, attempts,
                )


def _pool_context() -> multiprocessing.context.BaseContext:
    """``fork`` where available (fast, inherits registrations), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class Runner:
    """Parallel, cache-aware executor for registered scenarios.

    >>> runner = Runner(jobs=4, cache=ResultCache())    # doctest: +SKIP
    >>> run = runner.run("fig2a", {"runs": 2})          # doctest: +SKIP
    >>> print(run.result.table(), run.stats.summary())  # doctest: +SKIP

    ``jobs=1`` executes cells inline (no pool); ``jobs=N`` uses ``N``
    worker processes.  ``cache=None`` disables caching entirely.
    ``retries`` re-runs a failed cell that many times before recording
    it (default 0: fail loud).

    ``cell_timeout`` bounds each cell's wall-clock time: a cell that
    exceeds it becomes a :class:`CellFailure` (no retry) instead of
    hanging the campaign.

    Every other keyword is a run axis (:data:`repro.runner.axes.AXES`),
    validated here and applied around every cell: ``backend`` (default:
    each scenario's preferred one), ``audit`` (check invariants in
    every simulator; bypasses the cache), ``chaos`` with
    ``chaos_intensity``/``chaos_horizon`` (a :mod:`repro.chaos` preset),
    ``strategy`` or ``strategy_mix`` (a :mod:`repro.strategy` population
    mix), ``content`` (a :mod:`repro.coding` mode such as
    ``"group:4/6"``) and ``workload`` (a :mod:`repro.cdn`
    ``{"catalog", "demand", "origin"}`` mapping).  An axis set away from
    its default folds into the cell digests, so such runs cache
    disjointly from plain ones.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        retries: int = 0,
        progress: Optional[Progress] = None,
        metrics: Optional[MetricsRegistry] = None,
        cell_timeout: Optional[float] = None,
        **axes: object,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if cell_timeout is not None and cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive")
        self.jobs = jobs
        self.context = context_from(**axes)
        self.cache = cache if cacheable(self.context) else None
        self.retries = retries
        self.progress = progress
        self.cell_timeout = cell_timeout
        # `is not None`, not truthiness: an empty registry is falsy (len 0).
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry(clock=time.perf_counter)
        )

    # ------------------------------------------------------------------
    def run(
        self,
        name_or_scenario,
        overrides: Optional[Mapping[str, object]] = None,
    ) -> ScenarioRun:
        """Run one scenario end-to-end and assemble its result."""
        scn: Scenario = (
            name_or_scenario
            if isinstance(name_or_scenario, Scenario)
            else get_scenario(name_or_scenario)
        )
        params = scn.params(overrides)
        context = scn.resolve(self.context)
        cells: List[Cell] = [(tuple(key), seed) for key, seed in scn.cells(params)]
        spec = ScenarioSpec.create(
            scn.name, params,
            seeds=sorted({seed for _, seed in cells}),
            description=scn.description,
            **axis_values(context),
        )

        start = time.perf_counter()
        stats = RunnerStats(total_cells=len(cells))
        values: CellValues = {}
        failures: List[CellFailure] = []

        # Cache probe: anything already known is served without simulating.
        pending: List[Cell] = []
        code = code_version() if self.cache is not None else ""
        for cell in cells:
            if self.cache is not None:
                hit, value = self.cache.get(cell_digest(spec, cell[0], cell[1], code))
                if hit:
                    values[cell] = value
                    stats.cache_hits += 1
                    continue
            pending.append(cell)

        jobs = min(self.jobs, max(len(pending), 1))
        if jobs > 1 and tracing.installed():
            # Global trace sinks live in this process; simulators built in
            # pool workers would escape them.  Trace implies serial.
            self._emit_progress(
                f"[{scn.name}] trace sinks installed -> running serially"
            )
            jobs = 1

        module_name = type(scn).__module__
        payloads = [
            (
                module_name, scn.name, list(key), seed, params, self.retries,
                self.cell_timeout, context,
            )
            for key, seed in pending
        ]

        done = stats.cache_hits
        if payloads:
            if jobs == 1:
                outcomes = map(_execute_cell, payloads)
            else:
                pool = _pool_context().Pool(processes=jobs)
                outcomes = pool.imap_unordered(_execute_cell, payloads)
            try:
                for key_list, seed, ok, value, duration, attempts in outcomes:
                    cell = (tuple(key_list), seed)
                    stats.executed += 1
                    stats.retries += attempts - 1
                    stats.cell_seconds[cell] = duration
                    self.metrics.histogram("runner.cell_seconds").observe(duration)
                    if ok:
                        values[cell] = value
                        if self.cache is not None:
                            self.cache.put(
                                cell_digest(spec, cell[0], cell[1], code),
                                value,
                                meta={
                                    "scenario": scn.name,
                                    "seed": seed,
                                    "key": key_list,
                                    "seconds": duration,
                                },
                            )
                    else:
                        failure = CellFailure(cell[0], seed, value, attempts)
                        failures.append(failure)
                        stats.failed += 1
                        self._emit_progress(f"[{scn.name}] FAILED {failure.summary()}")
                    done += 1
                    self._emit_progress(
                        f"[{scn.name}] {done}/{stats.total_cells} cells "
                        f"({time.perf_counter() - start:.1f}s)"
                    )
            finally:
                if jobs > 1:
                    pool.close()
                    pool.join()

        stats.elapsed_s = time.perf_counter() - start
        self.metrics.counter("runner.cells").add(stats.total_cells)
        self.metrics.counter("runner.executed").add(stats.executed)
        self.metrics.counter("runner.cache_hits").add(stats.cache_hits)
        self.metrics.counter("runner.failures").add(stats.failed)
        self.metrics.counter("runner.retries").add(stats.retries)

        failures.sort(key=lambda f: (repr(f.key), f.seed))
        result = scn.assemble(params, values, failures)
        return ScenarioRun(
            spec=spec, result=result, values=values, failures=failures, stats=stats
        )

    # ------------------------------------------------------------------
    def _emit_progress(self, line: str) -> None:
        if self.progress is not None:
            self.progress(line)


def print_progress(line: str) -> None:
    """A ready-made progress callback: one line per event to stderr."""
    print(line, file=sys.stderr, flush=True)


def run_scenario(
    name: str,
    overrides: Optional[Mapping[str, object]] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[Progress] = None,
    cell_timeout: Optional[float] = None,
    **axes: object,
):
    """Run a registered scenario and return its ``ExperimentResult``.

    The convenience front door used by the tests, the benchmarks, and
    ``scripts/generate_experiments_md.py``; ``axes`` are the
    :class:`Runner`'s run-axis keywords.  For the failure list and
    runner statistics, use :class:`Runner` directly.
    """
    runner = Runner(
        jobs=jobs, cache=cache, progress=progress, cell_timeout=cell_timeout,
        **axes,
    )
    return runner.run(name, overrides).result
