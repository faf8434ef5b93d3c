"""Host-speed calibration: a stdlib-only loop sampled throughout a run.

The machines this benchmark runs on are shared, and their speed drifts
by a quarter or more over minutes as neighbours come and go.  Every
host-time end-to-end metric is therefore expressed in *reference
seconds*: the measured time scaled by how fast this loop ran next to
it, relative to ``REFERENCE_PER_S``.  The loop is a miniature
discrete-event simulation (slotted objects, a binary heap, a 64 Ki-entry
dict, float arithmetic) built from the standard library only, so no
change to the program can speed it up.  Samples are taken between
chunks of the measured work, and their time is excluded from it.
"""

from __future__ import annotations

import heapq
import random
from time import perf_counter
from typing import Callable, List, Optional, Tuple

#: Loop iterations per second on the reference host (an Intel Xeon
#: virtual machine in a quiet period).
REFERENCE_PER_S = 500_000.0
#: Iterations of one sample (about 20 ms on the reference host).
ITERATIONS = 10_000
#: Host seconds of work between two samples taken by :meth:`tick`.
INTERVAL_S = 0.25


class _Node:
    __slots__ = ("t", "key", "weight")

    def __init__(self, t: float, key: int, weight: float) -> None:
        self.t = t
        self.key = key
        self.weight = weight

    def step(self, table: dict) -> float:
        table[self.key] = table.get(self.key, 0.0) + self.weight
        return self.t + self.weight


def sample() -> float:
    """Calibration loop iterations per host second, measured now."""
    rng = random.Random(7)
    table: dict = {}
    heap: List[tuple] = []
    started = perf_counter()
    for seq in range(ITERATIONS):
        node = _Node(rng.random(), rng.randrange(65_536), 0.5)
        heapq.heappush(heap, (node.step(table), seq, node))
        if len(heap) > 512:
            heapq.heappop(heap)[2].step(table)
    return ITERATIONS / (perf_counter() - started)


def pool_sampler(pool, workers: int) -> Callable[[], float]:
    """A sampler for work spread over a pool: the mean of ``workers``
    samples taken at once in ``pool``'s processes."""
    def sampler() -> float:
        return sum(pool.map(_worker_sample, range(workers))) / workers
    return sampler


def _worker_sample(_index: int) -> float:
    return sample()


class Calibration:
    """Pairs chunks of measured work with calibration samples.

    Samples are taken before and after every chunk; a chunk's host speed
    is the mean of the samples on either side of it, so a slow spell on
    the shared host scales the work and its calibration alike.  Sampling
    time is excluded from the work.
    """

    def __init__(self, sampler: Callable[[], float] = sample) -> None:
        self.sampler = sampler
        self.samples: List[float] = []
        #: (work done, host seconds, host speed) per chunk
        self.chunks: List[Tuple[float, float, float]] = []
        self._open: Optional[Tuple[float, float, float]] = None

    def _sample(self, count: int) -> float:
        taken = [self.sampler() for _ in range(count)]
        self.samples.extend(taken)
        return sum(taken) / count

    def start(self, samples: int = 1) -> None:
        """Sample, then open a chunk."""
        before = self._sample(samples)
        self._open = (0.0, perf_counter(), before)

    def stop(self, work: float, samples: int = 1) -> None:
        """Close the open chunk at ``work`` done since :meth:`start`, then
        sample; the next chunk starts right after."""
        now = perf_counter()
        done, started, before = self._open
        after = self._sample(samples)
        speed = (before + after) / 2 / REFERENCE_PER_S
        self.chunks.append((work - done, now - started, speed))
        self._open = (work, perf_counter(), after)

    def tick(self, work: float) -> None:
        """Call between steps of an operation with the work done since
        :meth:`start`: closes a chunk every ``INTERVAL_S`` host seconds."""
        if perf_counter() - self._open[1] >= INTERVAL_S:
            self.stop(work)

    def reference_rate(self, first: int = 0) -> float:
        """Work per reference second over the chunks from ``first`` on."""
        chunks = self.chunks[first:]
        return sum(c[0] for c in chunks) / sum(c[1] * c[2] for c in chunks)

    def host_rate(self, first: int = 0) -> float:
        """Work per host second over the chunks from ``first`` on."""
        chunks = self.chunks[first:]
        return sum(c[0] for c in chunks) / sum(c[1] for c in chunks)

    def speeds(self) -> List[float]:
        return [c[2] for c in self.chunks]
