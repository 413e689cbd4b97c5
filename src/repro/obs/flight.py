"""The flight recorder: a bounded ring of structured sim events.

A test platform is only as good as its ability to explain a bad run.
The :class:`FlightRecorder` keeps the last ``capacity`` *notable* events
of a simulation — queue drops, ECN marks, PFC PAUSE/RESUME, CC rate
transitions, timer churn, heap compactions — in a bounded
``collections.deque``, and dumps them as JSON when a run dies, so every
failed campaign shard ships a post-mortem instead of a bare traceback.

Design constraints (the PR 3 contract still holds):

* **Zero cost when off.**  Components carry a ``_flight`` attribute
  that defaults to ``None`` at class level; every hook lives inside an
  already-rare branch (the drop path, the mark path, a PAUSE
  transition), so an unattached simulation executes the same hot-path
  bytecode as before.  Attachment is explicit (:func:`attach` /
  :func:`attach_control_plane`) and a no-op when no recorder is
  installed.
* **Bounded.**  The ring holds ``capacity`` events; older events fall
  off the back.  ``events_recorded`` keeps the true total so a dump
  says how much history was shed.
* **Crash-safe.**  A recorder created with ``spool_path`` rewrites its
  ring to disk at most every ``spool_interval_s`` wall seconds (plus
  once at creation), so a worker that segfaults, is OOM-killed, or is
  terminated past its deadline still leaves its last spooled snapshot
  behind — the parent cannot ask a dead process to introspect itself.
* **Deterministic.**  Recording only *reads* model state; enabling the
  recorder never schedules events or perturbs a simulation (property
  tests hold runs event-identical with the recorder on).

Worker wiring mirrors :mod:`repro.obs.heartbeat`: a campaign worker
calls :func:`configure_autodump` once, at start-up;
:func:`begin_task` / :func:`end_task` bracket each task, installing a
per-task recorder that spools to
``<dir>/flight-task<index>.json``.  Successful tasks remove their spool
file; failed ones finalize it with the failure status.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from pathlib import Path
from typing import Any, Optional, Union

#: Default ring capacity: enough tail history to see the minutes before
#: a death without unbounded memory.
DEFAULT_CAPACITY = 4096

#: Default minimum wall-clock spacing between spool rewrites.
DEFAULT_SPOOL_INTERVAL_S = 0.25

#: Event categories the stock hooks emit (dumps may carry others).
CATEGORIES = ("queue", "switch", "pfc", "cc", "timer", "engine", "worker", "solver")

PathLike = Union[str, Path]


class FlightRecorder:
    """Bounded ring buffer of ``(seq, time_ps, wall_s, category, name,
    fields)`` events with optional crash-spooling to disk."""

    __slots__ = (
        "capacity",
        "meta",
        "events_recorded",
        "created_unix",
        "sim",
        "_ring",
        "_clock",
        "_t0",
        "_spool_path",
        "_spool_interval_s",
        "_last_spool",
    )

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        *,
        spool_path: Optional[PathLike] = None,
        spool_interval_s: float = DEFAULT_SPOOL_INTERVAL_S,
        meta: Optional[dict[str, Any]] = None,
        clock=time.perf_counter,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"flight recorder needs capacity >= 1, got {capacity}")
        self.capacity = capacity
        self.meta: dict[str, Any] = dict(meta or {})
        self.events_recorded = 0
        self.created_unix = time.time()
        #: Clock source for :meth:`note` — set by :func:`attach` so
        #: components without a simulator reference (queues) still stamp
        #: events with sim time.
        self.sim = None
        self._ring: deque[tuple] = deque(maxlen=capacity)
        self._clock = clock
        self._t0 = clock()
        self._spool_path = Path(spool_path) if spool_path is not None else None
        self._spool_interval_s = spool_interval_s
        self._last_spool = float("-inf")
        if self._spool_path is not None:
            # Spool immediately: even an instant death leaves evidence.
            self.spool()

    # -- recording -----------------------------------------------------------

    def record(self, time_ps: int, category: str, name: str, **fields: Any) -> None:
        """Append one event.  ``time_ps`` is sim time (or a step count
        for non-event-driven sources); ``fields`` must be JSON-safe."""
        self.events_recorded += 1
        wall = self._clock() - self._t0
        self._ring.append((self.events_recorded, time_ps, wall, category, name, fields))
        if self._spool_path is not None and wall - self._last_spool >= self._spool_interval_s:
            self.spool()

    def note(self, category: str, name: str, **fields: Any) -> None:
        """:meth:`record` stamped with the attached simulator's clock
        (``-1`` when no simulator is attached) — for components like
        queues that do not hold a simulator reference themselves."""
        sim = self.sim
        self.record(sim.now if sim is not None else -1, category, name, **fields)

    def __len__(self) -> int:
        return len(self._ring)

    # -- reading / serialization --------------------------------------------

    def events(self) -> list[dict[str, Any]]:
        """The ring's events, oldest first, as JSON-shaped dicts."""
        return [
            {
                "seq": seq,
                "time_ps": time_ps,
                "wall_s": wall_s,
                "category": category,
                "name": name,
                "fields": fields,
            }
            for seq, time_ps, wall_s, category, name, fields in self._ring
        ]

    def to_payload(
        self, *, status: str = "running", error: Optional[str] = None
    ) -> dict[str, Any]:
        """The dump document (see ``docs/OBSERVABILITY.md`` for schema)."""
        return {
            "schema": 1,
            "kind": "flight_recorder_dump",
            "status": status,
            "error": error,
            "pid": os.getpid(),
            "created_unix": self.created_unix,
            "capacity": self.capacity,
            "events_recorded": self.events_recorded,
            "events_dropped": self.events_recorded - len(self._ring),
            "meta": self.meta,
            "events": self.events(),
        }

    def dump(
        self,
        path: PathLike,
        *,
        status: str = "dumped",
        error: Optional[str] = None,
    ) -> Path:
        """Write the ring to ``path`` as compact JSON and return the path
        (unindented, a full ring writes in under a third of the time)."""
        path = Path(path)
        payload = self.to_payload(status=status, error=error)
        path.write_text(json.dumps(payload, default=str) + "\n")
        return path

    def spool(self) -> Optional[Path]:
        """Rewrite the spool file now (no-op without ``spool_path``)."""
        if self._spool_path is None:
            return None
        try:
            return self.dump(self._spool_path, status="running")
        except OSError:  # a torn-down results dir must never kill a task
            return None
        finally:
            # Stamped after the write: a spool that outlasts the interval
            # must not make the very next record() spool again.
            self._last_spool = self._clock() - self._t0

    def discard_spool(self) -> None:
        """Remove the spool file (a successful run needs no post-mortem)."""
        if self._spool_path is not None:
            try:
                self._spool_path.unlink()
            except OSError:
                pass


def load_dump(path: PathLike) -> dict[str, Any]:
    """Read one dump file back (schema-checked superficially)."""
    payload = json.loads(Path(path).read_text())
    if payload.get("kind") != "flight_recorder_dump":
        raise ValueError(f"{path} is not a flight-recorder dump")
    return payload


# -- process-wide installation (mirrors repro.obs.heartbeat) -------------------

_RECORDER: Optional[FlightRecorder] = None

#: Worker-side autodump settings installed by :func:`configure_autodump`:
#: ``{"dir": str, "spool_interval_s": float}`` or None when post-mortems
#: are not requested.
_AUTODUMP: Optional[dict[str, Any]] = None


def install(recorder: FlightRecorder) -> FlightRecorder:
    """Make ``recorder`` the process-wide current recorder."""
    global _RECORDER
    _RECORDER = recorder
    return recorder


def uninstall() -> None:
    global _RECORDER
    _RECORDER = None


def current() -> Optional[FlightRecorder]:
    """The installed recorder, or None (hooks and attach no-op on None)."""
    return _RECORDER


def configure_autodump(
    dump_dir: Optional[PathLike],
    *,
    spool_interval_s: float = DEFAULT_SPOOL_INTERVAL_S,
) -> None:
    """Arm (or with ``None`` disarm) per-task post-mortem recording for
    this process; a campaign worker does this once, at start-up."""
    global _AUTODUMP
    if dump_dir is None:
        _AUTODUMP = None
        return
    _AUTODUMP = {"dir": str(dump_dir), "spool_interval_s": spool_interval_s}


def task_dump_path(dump_dir: PathLike, task_index: int) -> Path:
    """Canonical per-task dump location inside a campaign results dir."""
    return Path(dump_dir) / f"flight-task{task_index:05d}.json"


def begin_task(task_index: int) -> Optional[FlightRecorder]:
    """Create, install, and spool a per-task recorder (None when
    autodump is not configured).  Called by the campaign runner around
    every task, worker-side and inline."""
    if _AUTODUMP is None:
        return None
    recorder = FlightRecorder(
        spool_path=task_dump_path(_AUTODUMP["dir"], task_index),
        spool_interval_s=_AUTODUMP["spool_interval_s"],
        meta={"task": task_index, "pid": os.getpid()},
    )
    install(recorder)
    recorder.record(0, "worker", "task_start", task=task_index)
    return recorder


def end_task(
    recorder: Optional[FlightRecorder], *, ok: bool, error: Optional[str] = None
) -> None:
    """Finalize a task's recorder: failures keep their dump (finalized
    with the failure status); successes remove the spool file."""
    if recorder is None:
        return
    uninstall()
    if ok:
        recorder.discard_spool()
        return
    recorder.record(0, "worker", "task_error", error=error)
    if recorder._spool_path is not None:
        try:
            recorder.dump(recorder._spool_path, status="exception", error=error)
        except OSError:
            pass


# -- attachment ----------------------------------------------------------------


def attach(
    *,
    sim=None,
    queues=(),
    switches=(),
    pfc=None,
    nic=None,
    solver=None,
    recorder: Optional[FlightRecorder] = None,
) -> Optional[FlightRecorder]:
    """Point components' ``_flight`` hooks at a recorder.

    Uses the installed recorder when ``recorder`` is None; returns the
    recorder used, or None (having touched nothing) when neither exists
    — so model code can call this unconditionally at zero cost.
    """
    target = recorder if recorder is not None else _RECORDER
    if target is None:
        return None
    if sim is not None:
        sim._flight = target
        if target.sim is None:
            target.sim = sim
    for queue in queues:
        queue._flight = target
    for switch in switches:
        switch._flight = target
        for port in switch.ports:
            port.queue._flight = target
            if not getattr(port.queue, "flight_label", ""):
                port.queue.flight_label = f"{switch.name}:p{port.index}"
    if pfc is not None:
        pfc._flight = target
    if nic is not None:
        nic._flight = target
    if solver is not None:
        solver._flight = target
    return target


def attach_control_plane(cp, recorder: Optional[FlightRecorder] = None):
    """One call hooks everything a deployed control plane owns: the
    engine, the fabric switch (and its queues), and the tester NIC.
    A no-op returning None when no recorder is installed."""
    target = recorder if recorder is not None else _RECORDER
    if target is None:
        return None
    switches = [cp.fabric] if cp.fabric is not None else []
    nic = cp.tester.nic if cp.tester is not None else None
    return attach(sim=cp.sim, switches=switches, nic=nic, recorder=target)
