"""Discrete-event simulation kernel: clock, events, timers, RNG."""

from .events import Event, EventQueue
from .kernel import SimulationError, Simulator
from .randomness import RngRegistry, derive_seed
from .timers import PeriodicTask, Timer

__all__ = [
    "Event",
    "EventQueue",
    "SimulationError",
    "Simulator",
    "RngRegistry",
    "derive_seed",
    "PeriodicTask",
    "Timer",
]
