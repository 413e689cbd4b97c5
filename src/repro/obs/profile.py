"""Sim-time profiling: wall-clock attribution per event-callback owner.

Answers "which component is the hot path" as a measurement instead of a
guess.  When profiling is enabled on a :class:`~repro.sim.Simulator`
(``sim.enable_profiling()``), the engine times every event callback and
attributes the wall-clock cost to the callback's *owner*:

* a bound method is attributed to its class (``PortScheduler._tick``),
* a plain function to its qualified name (``bench.<locals>.tick``).

Profiling is strictly opt-in — the engine's default run loop is
untouched; a profiled run uses a separate loop so the unprofiled hot
path pays nothing (see ``docs/PERFORMANCE.md``).  Timing callbacks does
not change their order or the simulation clock, so profiled runs produce
bit-identical results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable


def callback_owner(fn: Callable[..., Any]) -> str:
    """The attribution key for one event callback."""
    bound_self = getattr(fn, "__self__", None)
    if bound_self is not None:
        return f"{type(bound_self).__name__}.{fn.__name__}"
    return getattr(fn, "__qualname__", repr(fn))


@dataclass(frozen=True)
class ProfileRow:
    """Aggregate cost of one callback owner."""

    owner: str
    calls: int
    seconds: float

    @property
    def events_per_sec(self) -> float:
        return self.calls / self.seconds if self.seconds > 0 else 0.0


class SimProfiler:
    """Accumulates per-owner wall-clock cost; driven by the engine."""

    __slots__ = ("clock", "_table")

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: owner -> [calls, seconds]; a plain list so the engine's inner
        #: loop mutates in place without attribute churn.
        self._table: dict[str, list] = {}

    def record(self, fn: Callable[..., Any], seconds: float) -> None:
        owner = callback_owner(fn)
        cell = self._table.get(owner)
        if cell is None:
            self._table[owner] = [1, seconds]
        else:
            cell[0] += 1
            cell[1] += seconds

    def rows(self) -> list[ProfileRow]:
        """Owners sorted by cumulative wall time, hottest first."""
        return sorted(
            (
                ProfileRow(owner, cell[0], cell[1])
                for owner, cell in self._table.items()
            ),
            key=lambda row: row.seconds,
            reverse=True,
        )


@dataclass(frozen=True)
class ProfileReport:
    """A finished profile: rows plus run-level totals."""

    rows: tuple[ProfileRow, ...]

    @property
    def total_seconds(self) -> float:
        return sum(row.seconds for row in self.rows)

    @property
    def total_calls(self) -> int:
        return sum(row.calls for row in self.rows)

    def top(self, n: int) -> list[ProfileRow]:
        return list(self.rows[:n])

    def table(self, top_n: int = 15) -> str:
        """A fixed-width table of the ``top_n`` hottest owners."""
        total = self.total_seconds
        lines = [
            f"{'component':42s} {'calls':>10s} {'wall s':>9s} "
            f"{'share':>6s} {'events/s':>11s}"
        ]
        for row in self.top(top_n):
            share = row.seconds / total if total > 0 else 0.0
            lines.append(
                f"{row.owner:42.42s} {row.calls:>10,d} {row.seconds:>9.4f} "
                f"{share:>6.1%} {row.events_per_sec:>11,.0f}"
            )
        lines.append(
            f"{'TOTAL':42s} {self.total_calls:>10,d} {total:>9.4f} "
            f"{'100.0%':>6s}"
        )
        return "\n".join(lines)
