"""The run-axis table: one declarative record per run-wide axis.

A run axis retargets every scenario a campaign builds without being a
scenario parameter: the simulation backend, invariant auditing, a chaos
preset, a strategy mix, a content mode and a CDN workload.  Each is one
:class:`Axis` in :data:`AXES`, and everything that handles axes is one
loop over that table:

* :func:`context_from` turns ``Runner``/``run_scenario``/:func:`run_context`
  keywords into a :class:`~repro.context.RunContext` (normalising and
  validating eagerly, so a bad value fails before any cell runs);
* :meth:`~repro.runner.spec.ScenarioSpec.spec_hash` and
  :func:`~repro.runner.spec.cell_digest` fold in every axis set away
  from its default, under the axis name — ``fold="spec"`` axes into
  both, ``fold="cell"`` axes (chaos) into the cell digest only, and
  ``fold=None`` axes (auditing) into neither, which is why a run with
  such an axis set bypasses the result cache;
* the CLI registers every axis's flags and reads them back through
  :meth:`Axis.keywords_from_args`.

Default-valued axes fold nothing, so every digest computed before an
axis existed is unchanged; ``canonical_json`` sorts keys, so the fold is
independent of table order.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Mapping, Optional, Tuple

from ..context import RunContext, layered

#: The simulation backends a scenario can run on.  ``"packet"`` is the
#: packet-level discrete-event simulator (the ground truth); ``"fluid"``
#: is the :mod:`repro.scale` mean-field engine for very large swarms;
#: ``"hybrid"`` couples packet-level focal hosts to a fluid background
#: (:mod:`repro.scale.hybrid`).
BACKENDS: Tuple[str, ...] = ("packet", "fluid", "hybrid")

#: One CLI flag: ``parser.add_argument(*names, **options)``.
Flag = Tuple[Tuple[str, ...], Mapping[str, object]]


@dataclass(frozen=True)
class Axis:
    """One run-wide axis: its keywords, canonical form, digest fold and flags."""

    #: RunContext field and digest key.
    name: str
    #: The ``Runner``/``run_scenario``/``run_context`` keywords it owns.
    keywords: Tuple[str, ...]
    #: Raw value -> canonical value, or None when the value changes
    #: nothing.  Validates eagerly and accepts its own output.
    normalize: Callable[[object], object]
    #: ``"spec"``: folds into spec_hash and cell_digest; ``"cell"``: into
    #: cell_digest only; ``None``: into neither (and bypasses the cache).
    fold: Optional[str]
    flags: Tuple[Flag, ...]
    #: A canonical value that folds nothing even though it is set.
    default: object = None
    #: Keywords -> one raw value; absent for single-keyword axes.
    combine: Optional[Callable[..., object]] = None

    def value(self, keywords: Mapping[str, object]) -> object:
        """The canonical value of this axis's given keywords."""
        if self.combine is not None:
            raw = self.combine(**keywords)
        else:
            raw = keywords.get(self.keywords[0])
        return self.normalize(raw)

    def is_set(self, value: object) -> bool:
        """True when ``value`` changes results (so it must be folded)."""
        return value is not None and value != self.default

    def keywords_from_args(self, args, sets: Mapping[str, object]) -> Dict[str, object]:
        """This axis's keywords from parsed CLI flags.

        A flag whose destination is not one of the axis's keywords
        (``--catalog``, ``--demand``) spells one entry of the axis's
        mapping keyword and stands in for the scenario parameter of the
        same name, so giving it together with a ``--set`` of that
        parameter is a contradiction, not a precedence question.
        """
        found: Dict[str, object] = {}
        parts: Dict[str, object] = {}
        for names, options in self.flags:
            dest = names[0].lstrip("-").replace("-", "_")
            value = getattr(args, dest)
            if dest in self.keywords:
                found[dest] = value
            elif value is not None:
                if dest in sets:
                    raise SystemExit(
                        f"error: {names[0]} conflicts with --set {dest}=...; "
                        f"pass one or the other"
                    )
                parts[dest] = value
        if parts:
            found[self.keywords[0]] = parts
        return found


# ----------------------------------------------------------------------
# Normalisers (layer imports are deferred, so importing the runner does
# not import every layer a run might never use).
# ----------------------------------------------------------------------
def _backend(value: object) -> Optional[str]:
    if value is None:
        return None
    if value not in BACKENDS:
        raise ValueError(
            f"unknown backend {value!r}; choose from {', '.join(BACKENDS)}"
        )
    return str(value)


def _audit(value: object) -> Optional[Dict[str, object]]:
    if value is None or value is False:
        return None
    return {} if value is True else dict(value)  # type: ignore[call-overload]


def _chaos(value: object) -> Optional[Dict[str, object]]:
    if value is None:
        return None
    from ..chaos import preset_schedule

    options = {
        "preset": value["preset"],                    # type: ignore[index]
        "intensity": float(value["intensity"]),       # type: ignore[index]
        "horizon": float(value["horizon"]),           # type: ignore[index]
    }
    preset_schedule(str(options["preset"]), options["intensity"], options["horizon"])
    return options


def _chaos_keywords(
    chaos: Optional[str] = None,
    chaos_intensity: float = 1.0,
    chaos_horizon: float = 300.0,
) -> Optional[Dict[str, object]]:
    if chaos is None:
        return None
    return {"preset": chaos, "intensity": chaos_intensity, "horizon": chaos_horizon}


def _strategies(value: object) -> Optional[Dict[str, object]]:
    if value is None:
        return None
    from .. import strategy

    mix = strategy.normalize_mix(value)
    return None if strategy.mix_is_default(mix) else mix  # type: ignore[return-value]


def _strategy_keywords(strategy: Optional[str] = None, strategy_mix=None) -> object:
    if strategy is not None and strategy_mix is not None:
        raise ValueError("pass either strategy or strategy_mix, not both")
    return {"all": {strategy: 1.0}} if strategy is not None else strategy_mix


def _content(value: object) -> Optional[Dict[str, object]]:
    if value is None:
        return None
    from .. import coding

    content = coding.normalize_content(value)  # type: ignore[arg-type]
    return None if coding.content_is_default(content) else content


def _workload(value: object) -> Optional[Dict[str, object]]:
    if value is None:
        return None
    from .. import cdn

    workload = cdn.normalize_workload(value)  # type: ignore[arg-type]
    return None if cdn.workload_is_default(workload) else workload


def parse_strategy_mix(text: Optional[str]) -> Optional[Dict[str, object]]:
    """``--strategy-mix``: JSON, or ``[pop:]name=frac`` comma pairs.

    ``freerider=0.25`` targets the whole population;
    ``mobile:freerider=0.5,wired:tyrant=0.2`` targets populations.
    Names and fractions are validated by :mod:`repro.strategy`.
    """
    if text is None:
        return None
    try:
        parsed = json.loads(text)
    except json.JSONDecodeError:
        parsed = {}
        for part in text.split(","):
            key, sep, raw = part.strip().partition("=")
            if not sep or not key:
                raise SystemExit(
                    f"--strategy-mix expects JSON or name=frac pairs, got {part!r}"
                )
            try:
                fraction = float(raw)
            except ValueError:
                raise SystemExit(
                    f"--strategy-mix fraction must be a number, got {raw!r}"
                ) from None
            population, colon, name = key.partition(":")
            if colon:
                parsed.setdefault(population.strip(), {})[name.strip()] = fraction
            else:
                parsed[key.strip()] = fraction
    if not isinstance(parsed, dict):
        raise SystemExit("--strategy-mix must be a JSON object or name=frac pairs")
    return parsed


def _json_or_text(text: str) -> object:
    """A JSON value, else the text itself (``'zipf:1.1@0.2'``)."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


AXES: Tuple[Axis, ...] = (
    Axis(
        name="backend", keywords=("backend",), normalize=_backend, fold="spec",
        default="packet",
        flags=((("--backend",), dict(
            choices=list(BACKENDS), default=None,
            help="simulation tier: 'packet' (event-level ground truth), "
                 "'fluid' (repro.scale mean-field engine for very large "
                 "swarms), or 'hybrid' (packet-level focal hosts inside a "
                 "fluid background); default: the scenario's preferred "
                 "backend")),),
    ),
    Axis(
        name="audit", keywords=("audit",), normalize=_audit, fold=None,
        flags=((("--audit",), dict(
            action="store_true",
            help="check cross-layer invariants (repro.audit) in every "
                 "simulated cell; violations fail the cell and the run "
                 "exits non-zero (disables the cache)")),),
    ),
    Axis(
        name="chaos", keywords=("chaos", "chaos_intensity", "chaos_horizon"),
        normalize=_chaos, fold="cell", combine=_chaos_keywords,
        flags=(
            (("--chaos",), dict(
                metavar="PRESET", default=None,
                help="inject a deterministic fault schedule (repro.chaos "
                     "preset: churn|blackout|degrade|handoff-storm|"
                     "corruption|mixed) into every simulated cell")),
            (("--chaos-intensity",), dict(
                type=float, default=1.0, metavar="X",
                help="scale the chaos preset's fault pressure (0 disables; "
                     "default 1.0)")),
            (("--chaos-horizon",), dict(
                type=float, default=300.0, metavar="SECONDS",
                help="simulated window the chaos preset lays its faults over "
                     "(default 300)")),
        ),
    ),
    Axis(
        name="strategies", keywords=("strategy", "strategy_mix"),
        normalize=_strategies, fold="spec", combine=_strategy_keywords,
        flags=(
            (("--strategy",), dict(
                metavar="NAME", default=None,
                help="run the whole peer population under one "
                     "repro.strategy client strategy "
                     "(reference|freerider|tyrant|propshare)")),
            (("--strategy-mix",), dict(
                metavar="MIX", default=None, type=parse_strategy_mix,
                help="strategy mix for the peer population: JSON "
                     "('{\"freerider\": 0.25}') or comma pairs "
                     "('freerider=0.25' / 'mobile:tyrant=0.5'); unlisted "
                     "fraction runs reference")),
        ),
    ),
    Axis(
        name="content", keywords=("content",), normalize=_content, fold="spec",
        flags=((("--content",), dict(
            metavar="MODE", default=None,
            help="content mode (repro.coding): 'replication' (default "
                 "pipeline), 'group:K/N' k-of-n erasure coding (e.g. "
                 "group:4/6), or a JSON object")),),
    ),
    Axis(
        name="workload", keywords=("workload",), normalize=_workload,
        fold="spec",
        flags=(
            (("--catalog",), dict(
                metavar="SPEC", default=None, type=_json_or_text,
                help="CDN catalog (repro.cdn) every CDN scenario serves: an "
                     "asset count, 'assets:N,size_kib:S,piece_kib:P', or a "
                     "JSON object (figx_cdn)")),
            (("--demand",), dict(
                metavar="SPEC", default=None, type=_json_or_text,
                help="CDN request process (repro.cdn): 'zipf:ALPHA[@RATE]' "
                     "(e.g. zipf:1.1@0.2) or a JSON object with optional "
                     "flash_crowd/daily_cycle axes (figx_cdn)")),
        ),
    ),
)


def context_from(**keywords: object) -> RunContext:
    """A :class:`RunContext` from run-axis keywords (unset axes stay None).

    Raises :class:`TypeError` on a keyword no axis owns, and the owning
    layer's :class:`ValueError`/:class:`KeyError` on a malformed value.
    """
    values: Dict[str, object] = {}
    for axis in AXES:
        given = {k: keywords.pop(k) for k in axis.keywords if k in keywords}
        values[axis.name] = axis.value(given)
    if keywords:
        raise TypeError(f"unknown run-axis keyword(s): {', '.join(sorted(keywords))}")
    return RunContext(**values)


def axis_values(context: RunContext) -> Dict[str, object]:
    """Every axis's value in ``context``, keyed by axis name."""
    return {axis.name: getattr(context, axis.name) for axis in AXES}


def cacheable(context: RunContext) -> bool:
    """False when an axis that no digest records is set (auditing).

    Such a run must actually simulate: cached values were produced
    without it, and its own values would be cached under the plain
    run's address.
    """
    return not any(
        axis.is_set(getattr(context, axis.name)) for axis in AXES if axis.fold is None
    )


@contextmanager
def run_context(**keywords: object) -> Iterator[RunContext]:
    """Build every scenario inside the block under these run axes.

    Takes the ``Runner`` keywords (``chaos="churn"``,
    ``strategy_mix={...}``, ``content="group:4/6"``, ``workload={...}``)
    and layers them over the current context; axes not given keep
    their current values.
    """
    with layered(context_from(**keywords)) as context:
        yield context
