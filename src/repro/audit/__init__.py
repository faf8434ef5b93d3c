"""repro.audit — runtime cross-layer invariant auditing.

The correctness analogue of :mod:`repro.obs`: where tracing *records*
what a simulation did, auditing *asserts* what must always hold while it
does it — byte conservation through every queue and link, token buckets
within ``[0, burst]``, a time-monotonic event queue, mutually consistent
piece/bitfield/ledger state, and legal wP2P state-machine transitions.
See :mod:`repro.audit.checkers` for the full catalogue of laws.

Two ways to use it:

Explicitly, on one simulator (attach **before** building the topology,
because components register themselves at construction)::

    from repro.audit import Auditor

    sim = Simulator(seed=1)
    auditor = Auditor().attach(sim)
    ...build and run...
    auditor.sweep()          # also runs automatically during run()

Around code that builds its simulators internally::

    from repro import audit

    with audit.audited() as auditors:   # every new Simulator gets an Auditor
        run_transfer(seed=3, ber=1e-5, bidirectional=True)

The block sets the ``audit`` field of the run context
(:mod:`repro.context`), exactly as the CLI's ``--audit`` flag and
``Runner(audit=True)`` do around every cell.  Auditing is **off by
default** and costs one ``is None`` check per event / per instrumented
constructor when off.  When on, a failed invariant raises
:class:`AuditViolation` at the exact simulated moment the inconsistency
is observed.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional

from ..context import RunContext, current_context, layered
from .auditor import AuditViolation, Auditor, Violation

__all__ = [
    "AuditViolation",
    "Auditor",
    "Violation",
    "apply_defaults",
    "audited",
]


def apply_defaults(sim) -> Optional[Auditor]:
    """Kernel hook: attach a fresh auditor to ``sim`` when the run
    context asks for auditing (each simulator gets its **own**)."""
    context = current_context()
    if context.audit is None:
        return None
    auditor = Auditor(**context.audit).attach(sim)
    if context.auditors is not None:
        context.auditors.append(auditor)
    return auditor


@contextmanager
def audited(**options) -> Iterator[List[Auditor]]:
    """Audit every simulator created inside the block.

    ``options`` are :class:`Auditor` arguments.  Yields the (live) list
    of created auditors, so callers running in collect mode
    (``raise_on_violation=False``) can inspect ``auditor.violations``
    afterwards.
    """
    auditors: List[Auditor] = []
    with layered(RunContext(audit=dict(options), auditors=auditors)):
        yield auditors
