"""Seeded request-arrival processes: Zipf demand, flash crowds, cycles.

The demand side of the CDN tier.  A *demand spec* is plain data — a base
:class:`ZipfDemand` arrival process plus two composable modifiers that
are first-class scenario axes, not separate code paths:

* ``flash_crowd`` — a burst of requests for one asset at one moment (the
  release-day spike);
* ``daily_cycle`` — sinusoidal rate modulation (the diurnal load curve).

:func:`normalize_demand` validates eagerly so malformed Zipf or
flash-crowd parameters fail at parse time (the CLI turns the
:class:`ValueError` into a clean ``SystemExit``).  The *trace* a spec
produces — :func:`request_trace` — is a pure function of
``(spec, assets, peers, horizon, seed)``: the same seed yields the
byte-identical request sequence in every process, which is what keeps
``--jobs N`` bit-identical to serial and cached cells exact replays.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Union

from .catalog import _require_number

DemandSpec = Union[str, Mapping[str, object], None]

_DEFAULT_ALPHA = 1.0
_DEFAULT_RATE = 0.05  # requests/second across the whole peer population


@dataclass(frozen=True)
class Request:
    """One catalog request: at ``time``, peer ``peer`` wants rank ``rank``."""

    time: float
    peer: int
    rank: int


def zipf_weights(assets: int, alpha: float) -> List[float]:
    """Normalised Zipf(alpha) popularity over ranks ``1..assets``."""
    if assets < 1:
        raise ValueError("assets must be >= 1")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    raw = [rank ** -alpha for rank in range(1, assets + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def normalize_demand(spec: DemandSpec) -> Dict[str, object]:
    """Canonicalise and validate a demand spec (eager, at parse time).

    Accepted forms::

        "zipf:1.2"                  # alpha
        "zipf:1.2@0.1"              # alpha @ requests-per-second
        {"kind": "zipf", "alpha": 1.2, "rate": 0.1}
        {"kind": "zipf", "alpha": 1.0, "rate": 0.1,
         "flash_crowd": {"at": 60.0, "rank": 1, "size": 8, "width": 5.0},
         "daily_cycle": {"period": 600.0, "depth": 0.5, "phase": 0.0}}

    Raises :class:`ValueError` on anything malformed.
    """
    if spec is None:
        spec = {}
    if isinstance(spec, str):
        spec = _parse_demand_string(spec)
    if not isinstance(spec, Mapping):
        raise ValueError(f"demand spec must be a string or mapping, got {spec!r}")
    known = {"kind", "alpha", "rate", "flash_crowd", "daily_cycle"}
    unknown = set(spec) - known
    if unknown:
        raise ValueError(
            f"unknown demand keys {sorted(unknown)}; expected {sorted(known)}"
        )
    kind = spec.get("kind", "zipf")
    if kind != "zipf":
        raise ValueError(f"unknown demand kind {kind!r}; only 'zipf' exists")
    alpha = _require_number(spec.get("alpha", _DEFAULT_ALPHA), "alpha")
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    rate = _require_number(spec.get("rate", _DEFAULT_RATE), "rate")
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    out: Dict[str, object] = {"kind": "zipf", "alpha": alpha, "rate": rate}
    flash = spec.get("flash_crowd")
    if flash is not None:
        out["flash_crowd"] = _normalize_flash(flash)
    cycle = spec.get("daily_cycle")
    if cycle is not None:
        out["daily_cycle"] = _normalize_cycle(cycle)
    return out


def _normalize_flash(flash: object) -> Dict[str, object]:
    if not isinstance(flash, Mapping):
        raise ValueError(f"flash_crowd must be a mapping, got {flash!r}")
    known = {"at", "rank", "size", "width"}
    unknown = set(flash) - known
    if unknown:
        raise ValueError(
            f"unknown flash_crowd keys {sorted(unknown)}; expected {sorted(known)}"
        )
    at = _require_number(flash.get("at", 0.0), "flash_crowd.at")
    if at < 0:
        raise ValueError(f"flash_crowd.at must be >= 0, got {at}")
    rank = flash.get("rank", 1)
    if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
        raise ValueError(f"flash_crowd.rank must be an integer >= 1, got {rank!r}")
    size = flash.get("size", 1)
    if isinstance(size, bool) or not isinstance(size, int) or size < 1:
        raise ValueError(f"flash_crowd.size must be an integer >= 1, got {size!r}")
    width = _require_number(flash.get("width", 1.0), "flash_crowd.width")
    if width <= 0:
        raise ValueError(f"flash_crowd.width must be > 0, got {width}")
    return {"at": at, "rank": rank, "size": size, "width": width}


def _normalize_cycle(cycle: object) -> Dict[str, object]:
    if not isinstance(cycle, Mapping):
        raise ValueError(f"daily_cycle must be a mapping, got {cycle!r}")
    known = {"period", "depth", "phase"}
    unknown = set(cycle) - known
    if unknown:
        raise ValueError(
            f"unknown daily_cycle keys {sorted(unknown)}; expected {sorted(known)}"
        )
    period = _require_number(cycle.get("period", 600.0), "daily_cycle.period")
    if period <= 0:
        raise ValueError(f"daily_cycle.period must be > 0, got {period}")
    depth = _require_number(cycle.get("depth", 0.5), "daily_cycle.depth")
    if not 0.0 <= depth < 1.0:
        raise ValueError(f"daily_cycle.depth must be in [0, 1), got {depth}")
    phase = _require_number(cycle.get("phase", 0.0), "daily_cycle.phase")
    if phase < 0:
        raise ValueError(f"daily_cycle.phase must be >= 0, got {phase}")
    return {"period": period, "depth": depth, "phase": phase}


def _parse_demand_string(text: str) -> Dict[str, object]:
    """``"zipf:ALPHA"`` or ``"zipf:ALPHA@RATE"``."""
    text = text.strip()
    if not text:
        return {}
    kind, sep, rest = text.partition(":")
    if kind != "zipf":
        raise ValueError(
            f"unknown demand kind {kind!r}; expected 'zipf:ALPHA[@RATE]'"
        )
    out: Dict[str, object] = {"kind": "zipf"}
    if sep and rest:
        alpha_text, at, rate_text = rest.partition("@")
        try:
            out["alpha"] = float(alpha_text)
        except ValueError:
            raise ValueError(
                f"demand alpha must be a number, got {alpha_text!r}"
            ) from None
        if at:
            try:
                out["rate"] = float(rate_text)
            except ValueError:
                raise ValueError(
                    f"demand rate must be a number, got {rate_text!r}"
                ) from None
    return out


def cycle_factor(t: float, cycle: Optional[Mapping[str, object]]) -> float:
    """Relative arrival rate at time ``t`` under a daily cycle (1.0 peak).

    ``1 - depth`` at the trough, sinusoidal, peak at ``t = phase``.
    """
    if cycle is None:
        return 1.0
    period = float(cycle["period"])
    depth = float(cycle["depth"])
    phase = float(cycle.get("phase", 0.0))
    wave = 0.5 + 0.5 * math.cos(2.0 * math.pi * (t - phase) / period)
    return 1.0 - depth * (1.0 - wave)


def mean_cycle_factor(cycle: Optional[Mapping[str, object]]) -> float:
    """Time-averaged :func:`cycle_factor` (closed form: ``1 - depth/2``)."""
    if cycle is None:
        return 1.0
    return 1.0 - float(cycle["depth"]) / 2.0


class ZipfDemand:
    """The seeded arrival process a canonical demand spec describes.

    Base arrivals are Poisson at ``rate`` (thinned by the daily cycle),
    each marked with a Zipf(alpha)-drawn asset rank and a uniform peer;
    a flash crowd injects ``size`` extra requests for one rank spread
    over ``width`` seconds.  Everything is drawn from one
    ``random.Random(seed)``, so the trace is reproducible from the spec
    and seed alone.
    """

    def __init__(
        self, spec: DemandSpec, assets: int, peers: int, seed: int
    ) -> None:
        if peers < 1:
            raise ValueError("peers must be >= 1")
        self.spec = normalize_demand(spec)
        self.assets = int(assets)
        self.peers = int(peers)
        self.seed = int(seed)
        self.weights = zipf_weights(self.assets, float(self.spec["alpha"]))
        self._cumulative: List[float] = []
        acc = 0.0
        for w in self.weights:
            acc += w
            self._cumulative.append(acc)

    def trace(self, horizon: float) -> List[Request]:
        """The full request trace over ``[0, horizon)`` (time-sorted)."""
        if horizon <= 0:
            raise ValueError("horizon must be > 0")
        rng = random.Random(self.seed ^ 0x5EED_CD17)
        rate = float(self.spec["rate"])
        cycle = self.spec.get("daily_cycle")
        out: List[Request] = []
        t = 0.0
        while True:
            t += rng.expovariate(rate)
            if t >= horizon:
                break
            # Thinning: draw at peak rate, keep with the cycle's relative
            # rate — an exact (and seeded) nonhomogeneous Poisson sampler.
            if cycle is not None and rng.random() >= cycle_factor(t, cycle):
                continue
            rank = 1 + bisect_left(self._cumulative, rng.random())
            rank = min(rank, self.assets)
            out.append(Request(time=t, peer=rng.randrange(self.peers), rank=rank))
        flash = self.spec.get("flash_crowd")
        if flash is not None and float(flash["at"]) < horizon:
            at = float(flash["at"])
            width = float(flash["width"])
            size = int(flash["size"])
            rank = min(int(flash["rank"]), self.assets)
            for i in range(size):
                burst_t = at + width * i / size
                if burst_t >= horizon:
                    break
                out.append(
                    Request(time=burst_t, peer=rng.randrange(self.peers), rank=rank)
                )
        out.sort(key=lambda r: (r.time, r.peer, r.rank))
        return out
