"""The run loop of :class:`repro.sim.engine.Simulator`: the C extension
when it is built, else Python.

The extension (:mod:`repro.sim._cengine`, ``make compiled``) is an
accelerator, not an option.  Whether it imports decides, once per
process, both the run loop and the datapath: ``repro.net.device.Port``
and ``repro.net.queue.DropTailQueue`` subclass its ``CPort`` and
``CQueue`` when it is loaded and stay pure Python when it is not.  This
module is the only one that imports it; everything else reads
:data:`CENGINE` and :data:`ENGINE`.

The engine is split into two halves:

* **The scheduling/handle API** (``Simulator.schedule`` / ``at`` /
  ``after`` / ``call_now`` / ``schedule_handle`` / ``rearm`` / ``step``)
  -- pure Python on either engine.  All authoritative state lives in
  plain attributes on the ``Simulator`` instance (``_heap``, ``_seq``,
  ``_dead``, ``now``, ``_stopped``), so the C loop and datapath read and
  write the *same* storage.
* **The run loop** -- :func:`run_loop` ``(sim, until_ps, max_events,
  dispatch)`` executes events until the queue drains, the horizon is
  reached, the budget is spent, or :meth:`Simulator.stop` is called.
  ``dispatch`` is ``None`` for the inline fast path, or a callable
  ``dispatch(fn, args)`` (the profiler hook) -- one loop serves both, so
  profiled and unprofiled runs cannot diverge.  The Python loop batches
  same-timestamp dispatch: once an event at time *t* has run, further
  entries at *t* are popped and dispatched without re-storing the clock
  or re-checking the horizon; the C loop mirrors it.

Both engines produce bit-identical event streams: same pop order, same
seq assignment, same clock stores.  ``tests/test_backend.py`` pins this
by running the same scenarios in a subprocess with the extension
blocked.

A backend *name* ("auto", "python", "compiled") is accepted in a few
places (``Simulator(backend=)``, ``ControlPlane(sim_backend=)``, sweep
campaigns and their spec) only as a check: ``None`` and ``"auto"``
accept whatever is loaded, and naming the engine that is not loaded
raises :class:`~repro.errors.ConfigError` -- it never falls back.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.errors import ConfigError

__all__ = [
    "CENGINE",
    "ENGINE",
    "HANDLE",
    "attach",
    "check",
    "compiled_available",
    "run_loop",
    "stamp",
]

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Marker in slot 3 of a handle entry ``(time_ps, seq, handle, HANDLE)``
#: (see :mod:`repro.sim.engine`).  Defined before the extension import
#: below: the extension reads it from this module while it initialises.
HANDLE = object()

try:
    from repro.sim import _cengine as CENGINE  # type: ignore[attr-defined]
except ImportError:
    CENGINE = None

#: The engine every simulator in this process runs on.
ENGINE = "python" if CENGINE is None else "compiled"

_NAMES = ("auto", "python", "compiled")


def compiled_available() -> bool:
    """True when the C extension is loaded (and therefore used)."""
    return CENGINE is not None


def check(name: Optional[str]) -> None:
    """Accept a backend name that agrees with the loaded engine.

    ``None`` and ``"auto"`` accept either engine; ``"python"`` or
    ``"compiled"`` must name :data:`ENGINE`.
    """
    if name is None or name == "auto" or name == ENGINE:
        return
    if name not in _NAMES:
        raise ConfigError(
            f"unknown sim backend {name!r}; expected one of {', '.join(_NAMES)}"
        )
    raise ConfigError(
        f"sim backend {name!r} requested, but this process runs the {ENGINE!r} "
        "engine (the C extension is used exactly when it is built: "
        "`make compiled` builds it, `make clean` removes it)"
    )


def stamp(name: Optional[str] = None) -> dict:
    """Provenance for manifests: what was asked for and what runs.
    Never raises, so manifest building cannot fail on a bad name."""
    return {"requested": "auto" if name is None else name, "name": ENGINE}


# -- the reference python loop ---------------------------------------------


def _python_run_loop(
    sim: Any,
    until_ps: Optional[int],
    max_events: Optional[int],
    dispatch: Optional[Callable[[Callable, tuple], None]],
) -> int:
    """Drain ``sim``'s heap: the merged drain/bounded/profiled loop.

    Entry shapes and lazy-cancel/re-arm semantics are documented in
    :mod:`repro.sim.engine`.  Batched same-timestamp dispatch: the inner
    loop keeps popping while the heap root carries the current
    timestamp, skipping the clock store and horizon compare that the
    outer loop pays once per distinct time.  Partial event counts are
    folded into ``sim._events_executed`` even when a callback raises,
    matching the historical ``run()`` contract.
    """
    executed = 0
    heap = sim._heap
    pop = _heappop
    push = _heappush
    marker = HANDLE
    inline = dispatch is None
    until = (1 << 62) if until_ps is None else until_ps
    limit = -1 if max_events is None else max_events
    # ``_stopped`` and ``executed`` only change as a result of
    # dispatching an event, and ``run()`` clears ``_stopped`` (and
    # rejects ``max_events <= 0``) before entering: the post-event check
    # inside the batch loop is sufficient, so the outer loop only has to
    # test the heap.
    try:
        while heap:
            entry = pop(heap)
            time_ps = entry[0]
            if time_ps > until:
                # Past the horizon: put the entry back (same seq, so
                # ordering is untouched) and stop.
                push(heap, entry)
                break
            sim.now = time_ps
            while True:
                args = entry[3]
                if args is not marker:
                    fn = entry[2]
                    if inline:
                        fn(*args)
                    else:
                        dispatch(fn, args)
                    executed += 1
                else:
                    handle = entry[2]
                    if handle.seq != entry[1]:
                        # Lazily cancelled/superseded: skip silently.
                        sim._dead -= 1
                    elif handle.target_ps > time_ps:
                        # Lazy re-arm: push the reused entry at its new
                        # time.
                        seq = sim._seq
                        sim._seq = seq + 1
                        handle.seq = seq
                        handle.time_ps = handle.target_ps
                        push(heap, (handle.target_ps, seq, handle, marker))
                    else:
                        handle.seq = -1
                        fn = handle.fn
                        hargs = handle.args
                        if inline:
                            fn(*hargs)
                        else:
                            dispatch(fn, hargs)
                        executed += 1
                if sim._stopped or executed == limit:
                    return executed
                # Same-timestamp batch: keep dispatching equal-time
                # entries (including ones the callback just scheduled —
                # they carry higher seqs, so pop order is unchanged)
                # without re-storing the clock or re-checking the
                # horizon.
                if not heap or heap[0][0] != time_ps:
                    break
                entry = pop(heap)
    finally:
        sim._events_executed += executed
    return executed


if CENGINE is None:
    run_loop = _python_run_loop

    def attach(sim: Any) -> None:
        """Nothing to install: the Python engine keeps the class methods."""

else:

    def run_loop(
        sim: Any,
        until_ps: Optional[int],
        max_events: Optional[int],
        dispatch: Optional[Callable[[Callable, tuple], None]],
    ) -> int:
        until = (1 << 62) if until_ps is None else until_ps
        limit = -1 if max_events is None else max_events
        return CENGINE.run_loop(sim, until, limit, dispatch)

    def attach(sim: Any) -> None:
        """Hang a ``SimRef`` off the simulator and bind ``stop`` to it.

        ``CPort`` pushes its heap entries and reads the clock through
        ``sim._cref`` (the C loop publishes each timestamp there), and
        the C ``stop()`` keeps a flag the loop checks per event instead
        of a dict lookup (it writes ``_stopped`` too, for Python
        readers).
        """
        ref = CENGINE.SimRef(sim)
        sim._cref = ref
        sim.stop = ref.stop
