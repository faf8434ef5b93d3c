"""repro.strategy — pluggable client strategies and strategy mixes.

The incentive layer made first-class: a
:class:`~repro.strategy.base.ClientStrategy` bundles a
:class:`~repro.strategy.base.ChokerPolicy` (the ranking/slot-allocation
half of choking — round scheduling stays in the shared
:class:`~repro.bittorrent.choker.ChokerDriver`), an optional piece
selector and client behaviour overrides under one registry-resolved
name.  Built-ins: ``reference`` (tit-for-tat), ``freerider``,
``tyrant`` (BitTyrant-style) and ``propshare`` (Nielson et al.'s
robust proportional-share choker).

Strategies reach a swarm three ways:

Explicitly, per peer::

    swarm.add_wired_peer("leech0", strategy="tyrant")

As a scenario-level mix (name → fraction, optionally per population)::

    swarm = SwarmScenario(seed=7, strategy_mix={"freerider": 0.25})

Through the ``strategies`` axis of the run context
(:mod:`repro.context`), for code that builds scenarios internally — what
the CLI's ``--strategy``/``--strategy-mix`` flags and
``Runner(strategy_mix=...)`` set around every cell::

    from repro.runner import run_context

    with run_context(strategy_mix={"mobile": {"freerider": 0.5}}):
        run_scenario(...)    # every new SwarmScenario draws from the mix

A scenario's own ``strategy_mix`` argument beats the context's.
Strategy assignment is deterministic (no RNG), off by default, and
costs one ``is None`` check per scenario when off.
"""

from __future__ import annotations

from .base import ChokerPolicy, ClientStrategy
from .mix import (
    DEFAULT_STRATEGY,
    POPULATIONS,
    Mix,
    MixAssigner,
    allocate_counts,
    mix_is_default,
    normalize_mix,
)
from .policies import (
    FreeriderPolicy,
    PropSharePolicy,
    ReferencePolicy,
    TyrantPolicy,
    contribution_rate,
)
from .registry import (
    UnknownStrategyError,
    get_strategy,
    register_strategy,
    resolve_strategy,
    strategy_names,
)

__all__ = [
    "ChokerPolicy",
    "ClientStrategy",
    "DEFAULT_STRATEGY",
    "FreeriderPolicy",
    "Mix",
    "MixAssigner",
    "POPULATIONS",
    "PropSharePolicy",
    "ReferencePolicy",
    "TyrantPolicy",
    "UnknownStrategyError",
    "allocate_counts",
    "contribution_rate",
    "get_strategy",
    "mix_is_default",
    "normalize_mix",
    "register_strategy",
    "resolve_strategy",
    "strategy_names",
]
