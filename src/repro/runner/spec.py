"""Typed, hashable scenario specifications and content hashing.

A :class:`ScenarioSpec` pins down *everything* that determines a
scenario's results: the scenario name, the full parameter set (defaults
merged with overrides, canonicalised to JSON so ``(0.0, 5e-6)`` and
``[0.0, 5e-6]`` are the same spec), the seeds its cells run under, and
the run axes (:mod:`repro.runner.axes`) set away from their defaults.
Two specs are equal exactly when they would produce identical results on
the same code, which makes the spec the natural cache key:
:func:`cell_digest` combines the spec identity with a cell's key/seed and
:func:`code_version` (a content hash over every ``repro`` source file) so
any code change invalidates previous results.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .axes import AXES


def canonical_json(value: object) -> str:
    """Canonical JSON text for ``value`` (sorted keys, no whitespace).

    Raises :class:`TypeError` when ``value`` contains anything JSON
    cannot represent — scenario parameters must be plain data so they
    can be hashed, cached, and shipped to worker processes.
    """
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise TypeError(
            f"scenario parameters must be JSON-serialisable: {exc}"
        ) from exc


def freeze_params(params: Mapping[str, object]) -> Dict[str, object]:
    """Canonicalise a parameter mapping through a JSON round-trip.

    Tuples become lists, dict keys become strings — the exact value a
    worker process (or a cache hit) would see, so a spec built from
    tuples and one built from lists are the same spec.
    """
    return json.loads(canonical_json(dict(params)))


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-specified experiment: name + canonical params + seeds + axes.

    Hashable and comparable by value; ``params_json`` (not the mapping
    itself) carries the parameter identity so the dataclass stays
    frozen/hashable while :attr:`params` offers the convenient dict view.

    ``axes_json`` carries every run axis (:mod:`repro.runner.axes`) set
    away from its default, as canonical JSON keyed by axis name; ``""``
    when none is.  Default-valued axes are left out, so a spec built
    before an axis existed keeps its hash and cell digests.
    """

    name: str
    params_json: str
    seeds: Tuple[int, ...] = ()
    description: str = field(default="", compare=False)
    axes_json: str = ""

    @classmethod
    def create(
        cls,
        name: str,
        params: Optional[Mapping[str, object]] = None,
        seeds: Sequence[int] = (),
        description: str = "",
        **axes: object,
    ) -> "ScenarioSpec":
        """Build a spec; ``axes`` are run-axis values keyed by axis name.

        The values must already be canonical, as a
        :class:`~repro.context.RunContext` holds them (build one with
        :func:`repro.runner.axes.context_from`, which validates).  Axes
        left at their default, and axes that fold into no digest
        (auditing), are not part of the spec.
        """
        folded: Dict[str, object] = {}
        for axis in AXES:
            value = axes.pop(axis.name, None)
            if axis.fold is not None and axis.is_set(value):
                folded[axis.name] = value
        if axes:
            raise TypeError(f"unknown run axes: {', '.join(sorted(axes))}")
        return cls(
            name=name,
            params_json=canonical_json(dict(params or {})),
            seeds=tuple(int(s) for s in seeds),
            description=description,
            axes_json=canonical_json(folded) if folded else "",
        )

    @property
    def params(self) -> Dict[str, object]:
        """The canonical parameter mapping (a fresh dict each call)."""
        return json.loads(self.params_json)

    @property
    def axes(self) -> Dict[str, object]:
        """The run axes set away from their defaults (a fresh dict)."""
        return json.loads(self.axes_json) if self.axes_json else {}

    def axis(self, name: str) -> object:
        """The value of run axis ``name`` (its default when unset)."""
        default = next(axis.default for axis in AXES if axis.name == name)
        return self.axes.get(name, default)

    def folded(self, scopes: Tuple[str, ...]) -> Dict[str, object]:
        """The set axes whose fold is one of ``scopes``, keyed by name."""
        axes = self.axes
        return {
            axis.name: axes[axis.name]
            for axis in AXES
            if axis.fold in scopes and axis.name in axes
        }

    def spec_hash(self) -> str:
        """Content hash of the spec itself (name + params + seeds + axes).

        Only ``fold="spec"`` axes take part: a chaos preset changes the
        cells' results (and their digests) but not which experiment the
        spec names.
        """
        body: Dict[str, object] = {
            "name": self.name, "params": self.params, "seeds": list(self.seeds)
        }
        body.update(self.folded(("spec",)))
        payload = canonical_json(body)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def __str__(self) -> str:
        return f"{self.name}[{self.spec_hash()[:12]}]"


_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Content hash over every ``repro`` source file (cached per process).

    Keys the result cache alongside the spec, so editing *any* library
    code invalidates previously cached cells — stale results can never
    masquerade as fresh ones after a refactor.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        digest = hashlib.sha256()
        for dirpath, dirnames, filenames in sorted(os.walk(root)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, root).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def cell_digest(
    spec: ScenarioSpec,
    key: Tuple[object, ...],
    seed: int,
    code: Optional[str] = None,
) -> str:
    """The content address of one (scenario, cell, seed) result.

    Every run axis the spec sets folds in under its name — ``fold="spec"``
    and ``fold="cell"`` axes alike — so runs that differ in any axis
    occupy disjoint cache addresses, while default-valued axes add
    nothing and every digest computed before an axis existed is
    unchanged.
    """
    body: Dict[str, object] = {
        "scenario": spec.name,
        "params": spec.params,
        "key": list(key),
        "seed": seed,
        "code": code if code is not None else code_version(),
    }
    body.update(spec.folded(("spec", "cell")))
    payload = canonical_json(body)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
