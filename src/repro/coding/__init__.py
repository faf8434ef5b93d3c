"""repro.coding — erasure-coded content as a selectable protocol variant.

The paper's answer to piece starvation under mobile churn is MA
fetching, a piece-*selection* tweak.  This package adds the modern
availability answer instead: k-of-n erasure-coded piece groups
(PeerDAS-style), custody-style subset seeding, and sampling-based
availability estimation — selectable next to rarest-first/sequential/MA
through a ``content`` axis that threads the spec/runner/CLI stack just
like ``backend`` and ``strategies``.

Two ways to use it:

Explicitly, on one scenario::

    swarm = SwarmScenario(seed=7, content={"mode": "group", "k": 4, "n": 6})

Through the ``content`` axis of the run context (:mod:`repro.context`),
for code that builds scenarios internally — what the CLI's ``--content``
flag and ``Runner(content=...)`` set around every cell::

    from repro.runner import run_context

    with run_context(content="group:4/6"):
        run_scenario(...)       # every new SwarmScenario codes its content

A scenario's own ``content`` argument beats the context's.

Content is **replication by default** — the default codec keeps the
piece pipeline on its historical fast path and cell digests
byte-identical to the pre-codec era.
"""

from __future__ import annotations

from .codec import (
    DEFAULT_K,
    DEFAULT_N,
    MODES,
    ContentSpec,
    GroupCodec,
    ReplicationCodec,
    coded_file_size,
    content_is_default,
    content_label,
    custody_column,
    make_codec,
    normalize_content,
)
from .sampling import AvailabilitySampler

__all__ = [
    "AvailabilitySampler",
    "ContentSpec",
    "DEFAULT_K",
    "DEFAULT_N",
    "GroupCodec",
    "MODES",
    "ReplicationCodec",
    "coded_file_size",
    "content_is_default",
    "content_label",
    "custody_column",
    "make_codec",
    "normalize_content",
]
