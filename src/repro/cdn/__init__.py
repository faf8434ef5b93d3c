"""repro.cdn — a P2P CDN tier: catalogs, Zipf demand, origin policies.

Everything below this package is one torrent in one swarm.  The paper's
question — how mobile hosts degrade swarm economics and how wP2P repairs
them — becomes a *systems* question at CDN scale: a catalog of
hash-addressed assets (:mod:`repro.cdn.catalog`), a seeded Zipf
request-arrival process with flash-crowd and daily-cycle modifiers
(:mod:`repro.cdn.demand`), peers joining one swarm per requested asset
while all their connections share a single uplink
(:mod:`repro.cdn.scenario`), and an always-on origin seeder with
placement/retention policies (:mod:`repro.cdn.origin`).  The fluid
backend gets a per-asset-class surrogate (:mod:`repro.cdn.surrogate`)
so 10^4-asset catalogs integrate in microseconds.

The **workload** run axis (:mod:`repro.runner.axes`) is a canonical
``{"catalog": ..., "demand": ..., "origin": ...}`` mapping, validated
eagerly by :func:`normalize_workload`, set around every cell by
``Runner(workload=...)`` (the CLI's ``--catalog``/``--demand``), and
folded into spec hashes and cell digests **only when non-default** —
every pre-CDN digest stays byte-identical.  The run context's workload
beats a scenario's own catalog/demand/origin arguments::

    from repro.runner import run_context

    with run_context(workload={"catalog": "assets:16", "demand": "zipf:1.2"}):
        run_scenario(...)   # every CdnScenario serves this workload
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Union

from .catalog import (
    PACKET_CATALOG_LIMIT,
    Asset,
    Catalog,
    CatalogSpec,
    normalize_catalog,
)
from .demand import (
    DemandSpec,
    Request,
    ZipfDemand,
    normalize_demand,
    zipf_weights,
)
from .metrics import CdnMetrics
from .origin import POLICIES, Origin, OriginSpec, normalize_origin
from .scenario import CdnPeer, CdnScenario
from .surrogate import cdn_fluid_cell, rank_bands

__all__ = [
    "Asset",
    "Catalog",
    "CatalogSpec",
    "CdnMetrics",
    "CdnPeer",
    "CdnScenario",
    "DemandSpec",
    "Origin",
    "OriginSpec",
    "PACKET_CATALOG_LIMIT",
    "POLICIES",
    "Request",
    "WorkloadSpec",
    "ZipfDemand",
    "cdn_fluid_cell",
    "normalize_catalog",
    "normalize_demand",
    "normalize_origin",
    "normalize_workload",
    "rank_bands",
    "workload_is_default",
    "zipf_weights",
]

WorkloadSpec = Union[Mapping[str, object], None]

_WORKLOAD_KEYS = ("catalog", "demand", "origin")


def normalize_workload(spec: WorkloadSpec) -> Optional[Dict[str, object]]:
    """Canonicalise and validate a workload mapping (eager).

    A workload bundles up to three sub-specs —
    ``{"catalog": ..., "demand": ..., "origin": ...}`` — each accepted
    in its mapping or CLI-string form and normalised by its own layer.
    ``None`` and ``{}`` mean "no workload" (the default: scenarios use
    their own parameters) and return ``None``.

    Raises :class:`ValueError` on unknown keys or malformed sub-specs,
    so a bad ``--catalog``/``--demand`` fails at Runner construction,
    never inside a worker mid-campaign.
    """
    if spec is None:
        return None
    if not isinstance(spec, Mapping):
        raise ValueError(f"workload must be a mapping, got {spec!r}")
    unknown = set(spec) - set(_WORKLOAD_KEYS)
    if unknown:
        raise ValueError(
            f"unknown workload keys {sorted(unknown)}; "
            f"expected {sorted(_WORKLOAD_KEYS)}"
        )
    out: Dict[str, object] = {}
    if spec.get("catalog") is not None:
        out["catalog"] = normalize_catalog(spec["catalog"])  # type: ignore[arg-type]
    if spec.get("demand") is not None:
        out["demand"] = normalize_demand(spec["demand"])  # type: ignore[arg-type]
    if spec.get("origin") is not None:
        out["origin"] = normalize_origin(spec["origin"])  # type: ignore[arg-type]
    return out or None


def workload_is_default(workload: Optional[Mapping[str, object]]) -> bool:
    """True when the workload changes nothing (no ambient axes set)."""
    return workload is None or not dict(workload)
