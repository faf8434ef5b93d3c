"""repro.chaos — deterministic, schedule-driven fault injection.

The robustness analogue of :mod:`repro.audit`: where auditing asserts
that invariants *hold*, chaos deliberately breaks the environment —
peer crashes and Poisson churn, tracker outages, link blackouts and
quality ramps, forced IP-handoff storms, piece-corruption bursts — and
lets the protocols prove they degrade gracefully.  Every fault fires at
a schedule-fixed simulated time, with any randomness drawn from the
simulation's seeded RNG streams, so a chaos run is exactly as
reproducible (and cacheable) as a clean one.

Two ways to use it:

Explicitly, on one scenario::

    from repro.chaos import preset_schedule

    swarm = SwarmScenario(seed=7)
    ...build peers...
    swarm.add_chaos(preset_schedule("mixed", intensity=1.0, horizon=300.0))
    swarm.start_all()
    swarm.run(until=300.0)

Through the ``chaos`` axis of the run context (:mod:`repro.context`),
for code that builds its scenarios internally — what the CLI's
``--chaos`` flag and ``Runner(chaos=...)`` set around every cell::

    from repro.runner import run_context

    with run_context(chaos="blackout", chaos_intensity=2.0):
        run_scenario(...)        # every new SwarmScenario gets the schedule

Chaos is **off by default** and costs one ``is None`` check per scenario
constructed when off.
"""

from __future__ import annotations

from typing import Optional

from ..context import current_context
from .controller import ChaosController
from .presets import PRESET_NAMES, PRESETS, preset_schedule
from .recovery import OpenFault, Recovery, RecoveryTracker
from .schedule import (
    ChaosSchedule,
    CorruptionBurst,
    FaultEvent,
    HandoffStorm,
    LinkBlackout,
    LinkDegradation,
    PeerChurn,
    PeerCrash,
    TrackerOutage,
)

__all__ = [
    "ChaosController",
    "ChaosSchedule",
    "CorruptionBurst",
    "FaultEvent",
    "HandoffStorm",
    "LinkBlackout",
    "LinkDegradation",
    "OpenFault",
    "PRESET_NAMES",
    "PRESETS",
    "PeerChurn",
    "PeerCrash",
    "Recovery",
    "RecoveryTracker",
    "TrackerOutage",
    "apply_defaults",
    "preset_schedule",
]


def apply_defaults(scenario) -> Optional[ChaosController]:
    """Scenario hook: attach + arm a controller when the run context
    carries a chaos preset.

    Called by ``SwarmScenario.__init__``; the schedule is regenerated
    per scenario from the context's ``{preset, intensity, horizon}`` so
    each run draws its own seeded churn arrivals.
    """
    options = current_context().chaos
    if options is None:
        return None
    schedule = preset_schedule(
        str(options["preset"]),
        float(options["intensity"]),   # type: ignore[arg-type]
        float(options["horizon"]),     # type: ignore[arg-type]
    )
    return ChaosController(scenario, schedule).arm()
