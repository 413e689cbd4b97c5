"""Campaign telemetry: live heartbeats from simulation workers.

:class:`~repro.parallel.CampaignRunner` workers are black boxes until a
task returns; this module opens them up.  The runner installs a *sink*
— a callable — in the process that executes a task: in a worker it
sends the beat up the worker's pipe, inline it is the campaign's
listener itself.  A running simulation then emits periodic
:class:`Heartbeat` snapshots — task id, sim-time progress, event count,
key counters — which the parent reads off the pipes and the campaign's
listener renders live.

Two invariants keep telemetry from perturbing science:

* **No extra simulation events.**  :func:`run_with_heartbeats` slices a
  ``run(until_ps=...)`` horizon into wall-side chunks; the engine's
  guarantee that running to ``t1`` then ``t2`` equals running straight
  to ``t2`` means the event stream is bit-identical with heartbeats on
  or off — which is also why ``workers=1`` and ``workers=N`` campaigns
  stay bit-identical when only one of them streams telemetry.
* **Never fail the simulation.**  A worker's sink drops a beat it
  cannot send (the runner went away); it never raises.  A send can
  block only if the runner stops reading for a pipe buffer's worth of
  beats — at ~9 beats a run, it does not.

The module-level sink is per-process state: each worker (and the
inline runner path) executes one task at a time, exactly like
``repro.parallel.report_events``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.sim.engine import Simulator

#: Default number of heartbeat slices per simulation run: enough to see
#: progress, few enough that pipe traffic stays negligible.
DEFAULT_SLICES = 8

Sink = Callable[["Heartbeat"], None]

_SINK: Optional[Sink] = None
_TASK_ID: int = -1


@dataclass(frozen=True)
class Heartbeat:
    """One telemetry snapshot from a running campaign task.

    Plain data (picklable) so it crosses the worker's pipe.
    """

    task_id: int
    pid: int
    sim_now_ps: int
    sim_until_ps: int
    events_executed: int
    wall_s: float
    counters: dict[str, Any] = field(default_factory=dict)
    final: bool = False

    @property
    def progress(self) -> float:
        """Fraction of the sim-time horizon completed, in [0, 1]."""
        if self.sim_until_ps <= 0:
            return 1.0 if self.final else 0.0
        return min(self.sim_now_ps / self.sim_until_ps, 1.0)

    def row(self) -> dict[str, Any]:
        """The beat as the JSON-safe row the campaign journal records and
        the daemon serves, stamped ``recv_unix`` as it is received."""
        return {
            "task_id": self.task_id,
            "pid": self.pid,
            "recv_unix": time.time(),
            "sim_now_ps": self.sim_now_ps,
            "sim_until_ps": self.sim_until_ps,
            "events_executed": self.events_executed,
            "wall_s": self.wall_s,
            "progress": self.progress,
            "final": self.final,
        }


# -- worker-side configuration --------------------------------------------------


def configure(sink: Optional[Sink]) -> None:
    """Install the process-wide heartbeat sink.  ``None`` disables
    emission — :func:`run_with_heartbeats` then runs the simulation in
    one slice with zero overhead."""
    global _SINK
    _SINK = sink


def set_task(task_id: Optional[int]) -> None:
    """Tag subsequent heartbeats with the running task's campaign index."""
    global _TASK_ID
    _TASK_ID = -1 if task_id is None else task_id


def active() -> bool:
    return _SINK is not None


def emit(heartbeat: Heartbeat) -> None:
    """Deliver one heartbeat to the sink, if there is one."""
    if _SINK is not None:
        _SINK(heartbeat)


# -- simulation driver -----------------------------------------------------------


def run_with_heartbeats(
    sim: Simulator,
    duration_ps: int,
    *,
    counters_fn: Optional[Callable[[], dict[str, Any]]] = None,
    n_slices: int = DEFAULT_SLICES,
) -> int:
    """Advance ``sim`` by ``duration_ps``, emitting heartbeats between
    slices.  Returns events executed.

    With no sink configured this is exactly one ``sim.run`` call; with a
    sink, the horizon is cut into ``n_slices`` equal slices and a
    heartbeat (including a ``counters_fn()`` snapshot) is emitted after
    each, plus a ``final=True`` heartbeat carrying the end-of-run
    snapshot.  Either way the simulation executes the same events in the
    same order.
    """
    until_ps = sim.now + duration_ps
    if _SINK is None:
        return sim.run(until_ps=until_ps)
    n_slices = max(n_slices, 1)
    start_wall = time.perf_counter()
    start_events = sim.events_executed
    pid = os.getpid()
    executed = 0
    for slice_index in range(n_slices):
        # Integer split with the exact horizon on the last slice.
        horizon = until_ps - (duration_ps * (n_slices - 1 - slice_index)) // n_slices
        executed += sim.run(until_ps=horizon)
        emit(
            Heartbeat(
                task_id=_TASK_ID,
                pid=pid,
                sim_now_ps=sim.now,
                sim_until_ps=until_ps,
                events_executed=sim.events_executed - start_events,
                wall_s=time.perf_counter() - start_wall,
                counters=counters_fn() if counters_fn is not None else {},
                final=False,
            )
        )
    emit(
        Heartbeat(
            task_id=_TASK_ID,
            pid=pid,
            sim_now_ps=sim.now,
            sim_until_ps=until_ps,
            events_executed=sim.events_executed - start_events,
            wall_s=time.perf_counter() - start_wall,
            counters=counters_fn() if counters_fn is not None else {},
            final=True,
        )
    )
    return executed
