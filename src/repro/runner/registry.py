"""The scenario base class and the ``@scenario`` registry.

A *scenario* is one declarative experiment: a name, a description, a
defaults mapping, and three methods —

* :meth:`Scenario.cells` enumerates the independent simulation cells
  (``(key, seed)`` pairs) the experiment consists of;
* :meth:`Scenario.run_cell` runs exactly one cell (one seeded
  simulation) and returns a plain-data value;
* :meth:`Scenario.assemble` folds the per-cell values back into an
  :class:`~repro.analysis.series.ExperimentResult`.

Because every cell is self-contained (the sim kernel's ``RngRegistry``
derives all randomness from the cell's seed), the
:class:`~repro.runner.runner.Runner` can execute cells in any order, on
any number of worker processes, or serve them from cache — the assembled
result is identical.

``@scenario`` registers a :class:`Scenario` subclass under its ``name``;
``repro.experiments`` registers one scenario per paper figure at import
time, so ``import repro.experiments`` populates the registry.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Type

from ..context import RunContext
from .spec import freeze_params

CellKey = Tuple[object, ...]
Cell = Tuple[CellKey, int]
CellValues = Dict[Cell, object]


class UnknownScenarioError(KeyError):
    """Raised for a scenario name absent from the registry."""

    def __init__(self, name: str, known: Iterable[str]) -> None:
        known_names = ", ".join(sorted(known)) or "<none registered>"
        super().__init__(
            f"unknown scenario {name!r}; known scenarios: {known_names}"
        )
        self.name = name


class Scenario:
    """Base class for declarative experiments (see module docstring).

    Subclasses set :attr:`name`, :attr:`description`, and
    :attr:`defaults`, then implement :meth:`cells`, :meth:`run_cell`,
    and :meth:`assemble`.  Parameter overrides are validated against the
    defaults, so a typo'd key fails fast instead of silently running the
    default campaign.
    """

    name: str = ""
    description: str = ""
    defaults: Mapping[str, object] = {}
    #: Simulation backends this scenario supports, most-preferred first;
    #: the first entry is the default when the runner is not given one.
    #: Scenarios offering ``"fluid"`` implement :meth:`run_cell_fluid`.
    backends: Tuple[str, ...] = ("packet",)

    # ------------------------------------------------------------------
    # Parameters and run-context resolution
    # ------------------------------------------------------------------
    def params(self, overrides: Optional[Mapping[str, object]] = None) -> Dict[str, object]:
        """Defaults merged with ``overrides``, canonicalised to JSON types."""
        merged = dict(self.defaults)
        if overrides:
            unknown = sorted(set(overrides) - set(merged))
            if unknown:
                raise ValueError(
                    f"unknown parameter(s) {unknown} for scenario "
                    f"{self.name!r}; accepted: {sorted(merged)}"
                )
            merged.update(overrides)
        return freeze_params(merged)

    def resolve(self, context: RunContext) -> RunContext:
        """``context`` with its backend validated against :attr:`backends`,
        or set to this scenario's default (the first entry) when unset."""
        return replace(context, backend=self.resolve_backend(context.backend))

    def resolve_backend(self, backend: Optional[str]) -> str:
        """Validate ``backend`` against :attr:`backends` (None = default)."""
        if backend is None:
            return self.backends[0]
        if backend not in self.backends:
            raise ValueError(
                f"scenario {self.name!r} does not support backend "
                f"{backend!r} (supported: {', '.join(self.backends)})"
            )
        return backend

    # ------------------------------------------------------------------
    # The three hooks every scenario implements
    # ------------------------------------------------------------------
    def cells(self, params: Mapping[str, object]) -> Iterator[Cell]:
        """Yield every independent ``(key, seed)`` cell of the campaign."""
        raise NotImplementedError

    def run_cell(self, key: CellKey, seed: int, params: Mapping[str, object]) -> object:
        """Run one cell (one seeded simulation); return plain data."""
        raise NotImplementedError

    def run_cell_fluid(
        self, key: CellKey, seed: int, params: Mapping[str, object]
    ) -> object:
        """Run one cell on the mean-field fluid backend (:mod:`repro.scale`).

        Only scenarios listing ``"fluid"`` in :attr:`backends` implement
        this; the result must be plain data of the same shape
        :meth:`run_cell` returns so :meth:`assemble` works unchanged.
        """
        raise NotImplementedError(
            f"scenario {self.name!r} has no fluid backend "
            f"(supported: {', '.join(self.backends)})"
        )

    def run_cell_hybrid(
        self, key: CellKey, seed: int, params: Mapping[str, object]
    ) -> object:
        """Run one cell on the hybrid multi-resolution backend
        (:mod:`repro.scale.hybrid`: packet focal hosts in a fluid
        background).  Only scenarios listing ``"hybrid"`` in
        :attr:`backends` implement this."""
        raise NotImplementedError(
            f"scenario {self.name!r} has no hybrid backend "
            f"(supported: {', '.join(self.backends)})"
        )

    def cell_runner(self, context: RunContext):
        """The per-cell entry point for ``context.backend`` (see :meth:`resolve`)."""
        runners = {
            "packet": self.run_cell,
            "fluid": self.run_cell_fluid,
            "hybrid": self.run_cell_hybrid,
        }
        try:
            return runners[context.backend]  # type: ignore[index]
        except KeyError:
            raise ValueError(f"unknown backend {context.backend!r}") from None

    def assemble(
        self,
        params: Mapping[str, object],
        values: CellValues,
        failures: List["CellFailureLike"],
    ):
        """Fold per-cell values into an ``ExperimentResult``.

        ``values`` maps ``(key, seed)`` to the cell's value; cells that
        failed (after retry) are absent and listed in ``failures``, so
        implementations aggregate over whatever survived.
        """
        raise NotImplementedError


class CellFailureLike:
    """Protocol stand-in: anything with ``key``/``seed``/``error``."""

    key: CellKey
    seed: int
    error: str


_REGISTRY: Dict[str, Scenario] = {}


def scenario(cls: Type[Scenario]) -> Type[Scenario]:
    """Class decorator: instantiate and register a :class:`Scenario`.

    >>> @scenario
    ... class Demo(Scenario):
    ...     name = "demo"
    ...     ...

    Re-registering a name raises — two experiments silently shadowing
    each other is exactly the failure mode a registry exists to prevent.
    (Re-evaluating the *same* class, e.g. via ``importlib.reload``, is
    allowed.)
    """
    instance = cls()
    if not instance.name:
        raise ValueError(f"scenario class {cls.__name__} must set a name")
    existing = _REGISTRY.get(instance.name)
    if existing is not None and type(existing).__qualname__ != cls.__qualname__:
        raise ValueError(f"scenario {instance.name!r} is already registered")
    _REGISTRY[instance.name] = instance
    return cls


def get_scenario(name: str) -> Scenario:
    """The registered scenario called ``name``.

    Raises :class:`UnknownScenarioError` (listing known names) otherwise.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownScenarioError(name, _REGISTRY) from None


def scenario_names() -> List[str]:
    """All registered scenario names, sorted."""
    return sorted(_REGISTRY)


def collect(values: CellValues, key: CellKey) -> List[object]:
    """Values of every surviving cell with ``key``, in ascending seed order.

    The deterministic aggregation primitive: results arrive from workers
    in completion order, but assembly must not depend on it.
    """
    matching = [(seed, value) for (k, seed), value in values.items() if k == key]
    return [value for _, value in sorted(matching, key=lambda item: item[0])]
