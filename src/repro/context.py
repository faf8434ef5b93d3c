"""The run context: every run-wide axis value, held in one contextvar.

A run is a pure function of ``(code, seed, params, axes)``.  The axes —
simulation backend, invariant auditing, chaos preset, strategy mix,
content mode and CDN workload — are not scenario parameters: they
retarget *every* scenario a campaign builds, including scenarios that
experiment code constructs internally.  They reach those constructors
through one frozen :class:`RunContext` in one
:class:`contextvars.ContextVar`, which the read sites consult:

=============  ==============================================  ===========
field          read by                                         precedence
=============  ==============================================  ===========
``audit``      ``Simulator.__init__`` (an ``Auditor`` each)    ambient
``chaos``      ``repro.chaos.apply_defaults`` (swarm builds),  ambient
               the fluid/hybrid cells of ``figx_scale`` and
               ``figx_hybrid``
``strategies`` ``SwarmScenario.__init__``                      constructor
``content``    ``SwarmScenario.__init__``                      constructor
``workload``   ``CdnScenario.__init__``, ``cdn_fluid_cell``    ambient
``backend``    ``Scenario.cell_runner`` (cell entry point)      --
=============  ==============================================  ===========

"Ambient" means the context value beats a constructor argument;
"constructor" means an explicit constructor argument beats the context.

Values are canonical (normalised and validated) and ``None`` means "not
set".  Build contexts through :func:`repro.runner.run_context` or
:class:`repro.runner.Runner`, which normalise their keywords through the
axis table in :mod:`repro.runner.axes` (:func:`repro.audit.audited`
sets the ``audit`` field itself); this module only stores them.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, fields, replace
from typing import Iterator, List, Mapping, Optional


@dataclass(frozen=True)
class RunContext:
    """One value per run axis; ``None`` leaves an axis unset."""

    backend: Optional[str] = None
    audit: Optional[Mapping[str, object]] = None
    chaos: Optional[Mapping[str, object]] = None
    strategies: Optional[Mapping[str, object]] = None
    content: Optional[Mapping[str, object]] = None
    workload: Optional[Mapping[str, object]] = None
    #: Every auditor attached under this context is appended here, so
    #: :func:`repro.audit.audited` can hand them back.  Not an axis.
    auditors: Optional[List[object]] = field(default=None, compare=False, repr=False)

    def over(self, base: "RunContext") -> "RunContext":
        """``base`` with every field this context sets replaced."""
        return replace(base, **{
            f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) is not None
        })


_CURRENT: ContextVar[RunContext] = ContextVar("repro_run_context", default=RunContext())


def current_context() -> RunContext:
    """The context new scenarios and simulators are built under."""
    return _CURRENT.get()


@contextmanager
def layered(overlay: RunContext) -> Iterator[RunContext]:
    """Build everything inside the block under ``overlay`` layered over
    the current context; the previous context is restored on exit."""
    token = _CURRENT.set(overlay.over(_CURRENT.get()))
    try:
        yield _CURRENT.get()
    finally:
        _CURRENT.reset(token)
