"""Discrete-event simulation engine.

The engine is deliberately small: a binary-heap event queue keyed by
``(time_ps, sequence)`` so that simultaneous events fire in the order they
were scheduled, which makes every simulation in the library deterministic.
"""

from repro.sim.engine import EventHandle, Simulator
from repro.sim.timers import PeriodicTimer, Timeout
from repro.sim.trace import TraceRecorder, TraceRecord

__all__ = [
    "EventHandle",
    "Simulator",
    "PeriodicTimer",
    "Timeout",
    "TraceRecorder",
    "TraceRecord",
]
