"""Heap-based discrete-event simulator with deterministic tie-breaking.

Hot-path design (see ``docs/PERFORMANCE.md``):

* The common case — an event that is scheduled once and always fires —
  is stored on the heap as a plain tuple ``(time_ps, seq, fn, args)``.
  Tuples compare in C (the monotonically increasing ``seq`` guarantees
  the comparison never reaches ``fn``), so ``heappush``/``heappop``
  never call back into Python, and no per-event object is allocated.
* Events that may be cancelled or re-armed (timers, timeouts) get a
  lightweight :class:`EventHandle` and are stored as ``(time_ps, seq,
  handle, _HANDLE)``.  Cancellation is lazy — the entry is skipped when
  popped — and re-arming to a *later* deadline reuses the pending entry
  instead of pushing a new one, so restart-heavy timers keep O(1) live
  entries.
* Lazily-cancelled entries are counted, and when they outnumber half the
  heap the heap is compacted in place, bounding memory under timer
  churn at O(live events).

The two entry shapes are distinguished by an identity test on slot 3
(a fast event's args tuple vs. the ``_HANDLE`` marker), which is cheaper
than a ``len()`` call on the pop path.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim import backend as _backend

#: Compaction triggers when at least this many dead entries exist *and*
#: they make up at least half the heap.
COMPACT_MIN_DEAD = 64

#: Marker in slot 3 of a handle entry ``(time_ps, seq, handle, _HANDLE)``.
#: Fast entries carry their args tuple there, which is never this object,
#: so ``entry[3] is _HANDLE`` discriminates without a len() call.
_HANDLE = _backend.HANDLE

_heappush = heapq.heappush


class EventHandle:
    """A cancellable, re-armable scheduled callback.

    Created through :meth:`Simulator.schedule_handle` /
    :meth:`Simulator.after_handle`.  The fast-path
    :meth:`Simulator.schedule` family returns ``None`` and cannot be
    cancelled.

    ``time_ps`` is the time of the live heap entry; ``target_ps`` is the
    logical fire time.  When a handle is re-armed to a later deadline the
    heap entry stays put and ``target_ps`` moves — the engine re-pushes
    the entry when it pops early.  ``seq`` is the sequence number of the
    live heap entry, or ``-1`` when the handle is not pending.
    """

    __slots__ = ("_sim", "time_ps", "target_ps", "seq", "fn", "args", "cancelled")

    def __init__(
        self,
        sim: "Simulator",
        time_ps: int,
        seq: int,
        fn: Callable[..., None],
        args: tuple,
    ) -> None:
        self._sim = sim
        self.time_ps = time_ps
        self.target_ps = time_ps
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    @property
    def pending(self) -> bool:
        """True while the callback is still going to fire."""
        return self.seq != -1

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if self.seq != -1:
            self.seq = -1
            sim = self._sim
            sim.events_cancelled += 1
            if sim._flight is not None:
                sim._flight.record(
                    sim.now, "timer", "cancel", target_ps=self.target_ps
                )
            sim._note_dead()
        self.cancelled = True

    def rearm(self, time_ps: int) -> None:
        """Move the fire time to ``time_ps``; see :meth:`Simulator.rearm`."""
        self._sim.rearm(self, time_ps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.cancelled:
            state = "cancelled"
        elif self.seq == -1:
            state = "fired"
        else:
            state = "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<EventHandle t={self.target_ps}ps seq={self.seq} {name} {state}>"


class Simulator:
    """The event loop.

    All model components hold a reference to one :class:`Simulator` and talk
    to each other exclusively by scheduling callbacks on it.  Time is an
    integer number of picoseconds (see :mod:`repro.units`).

    The run loop is the C extension's when it is built, else Python's
    (see :mod:`repro.sim.backend`); both share this instance's state and
    produce bit-identical event streams.  ``backend`` is only a check:
    ``None`` or ``"auto"`` accept the loaded engine, and naming the
    other one raises :class:`~repro.errors.ConfigError`.
    """

    def __init__(self, backend: Optional[str] = None) -> None:
        self.now: int = 0
        self._heap: list[tuple] = []
        self._seq: int = 0
        self._running = False
        self._stopped = False
        self._events_executed: int = 0
        #: Handles explicitly cancelled via :meth:`EventHandle.cancel`.
        self.events_cancelled: int = 0
        #: Lazily-cancelled (or superseded) entries still on the heap.
        self._dead: int = 0
        #: Times the heap was compacted to reclaim dead entries.
        self.compactions: int = 0
        #: Opt-in wall-clock profiler (see :meth:`enable_profiling`).
        #: ``None`` keeps the default run loop completely untouched.
        self._profiler = None
        #: Opt-in flight recorder (see :mod:`repro.obs.flight`).  Only
        #: consulted on the rare paths — cancel, re-arm-earlier,
        #: compaction — never in the run loops.
        self._flight = None
        _backend.check(backend)
        _backend.attach(self)

    # -- scheduling ---------------------------------------------------------

    def schedule(self, time_ps: int, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run at absolute time ``time_ps``.

        Fast path: no handle is returned and the event cannot be
        cancelled.  Use :meth:`schedule_handle` for cancellable events.
        """
        if time_ps < self.now:
            raise SimulationError(
                f"cannot schedule event at {time_ps} ps; current time is {self.now} ps"
            )
        _heappush(self._heap, (time_ps, self._seq, fn, args))
        self._seq += 1

    #: Alias of :meth:`schedule` reading naturally at call sites.
    at = schedule

    def after(self, delay_ps: int, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay_ps`` from now."""
        if delay_ps < 0:
            raise SimulationError(f"negative delay: {delay_ps} ps")
        _heappush(self._heap, (self.now + delay_ps, self._seq, fn, args))
        self._seq += 1

    def call_now(self, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at the current time, after pending events
        that were already scheduled for this instant."""
        _heappush(self._heap, (self.now, self._seq, fn, args))
        self._seq += 1

    def schedule_handle(
        self, time_ps: int, fn: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at ``time_ps`` and return a cancellable
        :class:`EventHandle` (the old-style API)."""
        if time_ps < self.now:
            raise SimulationError(
                f"cannot schedule event at {time_ps} ps; current time is {self.now} ps"
            )
        handle = EventHandle(self, time_ps, self._seq, fn, args)
        _heappush(self._heap, (time_ps, self._seq, handle, _HANDLE))
        self._seq += 1
        return handle

    def after_handle(
        self, delay_ps: int, fn: Callable[..., None], *args: Any
    ) -> EventHandle:
        """:meth:`schedule_handle` at ``delay_ps`` from now."""
        if delay_ps < 0:
            raise SimulationError(f"negative delay: {delay_ps} ps")
        return self.schedule_handle(self.now + delay_ps, fn, *args)

    def rearm(self, handle: EventHandle, time_ps: int) -> None:
        """Move ``handle``'s fire time to ``time_ps``.

        * Pending and ``time_ps`` at or after the live heap entry: the
          entry is reused — only ``target_ps`` moves (no allocation, no
          dead entry).
        * Pending and earlier: the old entry is abandoned and a fresh one
          is pushed.
        * Not pending (fired or cancelled): the handle is revived with a
          fresh entry.
        """
        if time_ps < self.now:
            raise SimulationError(
                f"cannot re-arm event at {time_ps} ps; current time is {self.now} ps"
            )
        handle.cancelled = False
        handle.target_ps = time_ps
        if handle.seq != -1:
            if time_ps >= handle.time_ps:
                return
            # Earlier than the pending entry: that entry becomes dead.
            handle.seq = -1
            if self._flight is not None:
                self._flight.record(
                    self.now, "timer", "rearm_earlier",
                    old_ps=handle.time_ps, new_ps=time_ps,
                )
            self._note_dead()
        handle.seq = self._seq
        handle.time_ps = time_ps
        _heappush(self._heap, (time_ps, self._seq, handle, _HANDLE))
        self._seq += 1

    # -- dead-entry accounting ----------------------------------------------

    def _note_dead(self) -> None:
        self._dead += 1
        if self._dead >= COMPACT_MIN_DEAD and self._dead * 2 >= len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop lazily-cancelled entries and restore the heap invariant.

        In-place (slice assignment) so a ``run()`` in progress, which
        binds the heap list in a local, keeps seeing the same object.
        """
        heap = self._heap
        before = len(heap)
        heap[:] = [e for e in heap if e[3] is not _HANDLE or e[2].seq == e[1]]
        heapq.heapify(heap)
        self._dead = 0
        self.compactions += 1
        if self._flight is not None:
            self._flight.record(
                self.now, "engine", "compact",
                dropped=before - len(heap), live=len(heap),
            )

    # -- execution ----------------------------------------------------------

    def step(self) -> bool:
        """Execute the next pending event.  Returns False when none remain.

        One event of the run loop, so :meth:`run`
        semantics apply: reentrant use raises, and a leftover
        :meth:`stop` request from an earlier run is cleared.
        """
        return self.run(max_events=1) == 1

    def run(self, until_ps: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until_ps`` is reached, or
        ``max_events`` events have executed.  Returns events executed.

        When ``until_ps`` is given, the clock is advanced to exactly
        ``until_ps`` on return, and events scheduled later stay queued.

        The loop itself lives in :mod:`repro.sim.backend`; this method
        owns the reentrancy guard, the profiler dispatch hook, and the
        final clock advance.  The loop folds partial event counts into
        ``_events_executed`` even when a callback raises.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run())")
        if max_events is not None and max_events <= 0:
            return 0
        dispatch = None
        if self._profiler is not None:
            profiler = self._profiler
            clock = profiler.clock
            record = profiler.record

            def dispatch(fn: Callable[..., None], args: tuple) -> None:
                t0 = clock()
                fn(*args)
                record(fn, clock() - t0)

        self._running = True
        self._stopped = False
        try:
            executed = _backend.run_loop(self, until_ps, max_events, dispatch)
        finally:
            self._running = False
        if until_ps is not None and not self._stopped and self.now < until_ps:
            self.now = until_ps
        return executed

    def stop(self) -> None:
        """Stop a ``run()`` in progress after the current event returns."""
        self._stopped = True

    # -- profiling ----------------------------------------------------------

    def enable_profiling(self, profiler: Optional[Any] = None) -> Any:
        """Attach a wall-clock profiler to the run loop (opt-in).

        Subsequent :meth:`run` calls attribute each callback's wall time
        to its owner; read the result with :meth:`profile`.  Passing a
        profiler (an object with ``clock`` and ``record(fn, seconds)``)
        plugs it in; otherwise a fresh
        :class:`~repro.obs.profile.SimProfiler` is created.
        """
        if profiler is None:
            from repro.obs.profile import SimProfiler

            profiler = SimProfiler()
        self._profiler = profiler
        return profiler

    def profile(self) -> Any:
        """A :class:`~repro.obs.profile.ProfileReport` of the wall time
        attributed so far.  Raises unless :meth:`enable_profiling` was
        called."""
        if self._profiler is None:
            raise SimulationError(
                "profiling is not enabled; call enable_profiling() first"
            )
        from repro.obs.profile import ProfileReport

        return ProfileReport(rows=tuple(self._profiler.rows()))

    # -- introspection ------------------------------------------------------

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including lazily-cancelled ones)."""
        return len(self._heap)

    @property
    def live_events(self) -> int:
        """Queued events that will actually fire."""
        return len(self._heap) - self._dead

    @property
    def dead_entries(self) -> int:
        """Lazily-cancelled entries awaiting compaction."""
        return self._dead

    @property
    def events_executed(self) -> int:
        """Total events executed over the simulator's lifetime."""
        return self._events_executed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator now={self.now}ps pending={len(self._heap)} "
            f"dead={self._dead} executed={self._events_executed}>"
        )
