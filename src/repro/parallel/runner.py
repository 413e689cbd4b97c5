"""The campaign runner: one worker process per slot, one pipe per worker.

Execution model
---------------

A *campaign* is an ordered list of independent tasks — one picklable
top-level function applied to per-task arguments.  The runner owns its
worker processes: each is a daemon :class:`multiprocessing.Process`
joined to the parent by one duplex :func:`multiprocessing.Pipe`.  A
worker imports the preload modules, arms flight-recorder autodump,
announces its pid, then loops *receive a task, run it, send the
outcome*; the heartbeats a task emits travel up the same pipe, so
whatever a worker sent before dying is read before its end-of-file.

The parent is one loop over :func:`multiprocessing.connection.wait`
that can never block forever: hand the next pending task to an idle
worker, read whatever arrived (heartbeat, outcome, or EOF), kill a
worker whose *own* deadline passed, start a fresh process where one
was lost.  A worker runs one task at a time, so a failure is charged
to exactly one task:

* a task raising inside the worker is an *application* error — it is
  reported as a structured :class:`TaskError` immediately (re-running a
  deterministic failure cannot help) and the worker is reused;
* a worker process dying (segfault, OOM-kill, ``os._exit``) costs the
  task it was running one attempt; that task is retried with
  exponential backoff on whichever worker is free;
* a task overrunning ``task_timeout_s`` has its worker killed — a hung
  simulation can hang neither the campaign nor the interpreter — and
  is retried the same way.

Retries are bounded by ``max_retries``; a task that exhausts them gets
a final structured error and the rest of the campaign completes anyway.

Determinism
-----------

Per-task seeds are spawned from the campaign seed and the task *index*
via :func:`numpy.random.SeedSequence` spawn keys, so a campaign's
results are a pure function of ``(seed, task list)`` — never of worker
count or completion order.  ``workers<=1`` executes inline in the
calling process (no subprocess, no pickling) and produces the same
values.
"""

from __future__ import annotations

import heapq
import importlib
import json
import math
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field, replace
from multiprocessing.connection import Connection, wait
from pathlib import Path
from traceback import format_exception_only
from typing import Any, Callable, Optional, Sequence, Union

import numpy as np

from repro.errors import CampaignError
from repro.obs import flight as _flight
from repro.obs import heartbeat as _heartbeat
from repro.obs.heartbeat import Heartbeat

#: Modules every worker imports before announcing itself, so its first
#: task finds them hot (on ``spawn`` platforms this is the bulk of task
#: latency; under ``fork`` the parent's imports are inherited and this
#: is free).
DEFAULT_PRELOAD = (
    "numpy",
    "repro.core.control_plane",
    "repro.core.tester",
    "repro.baselines.pswitch_tester",
    "repro.fluid.model",
    "repro.fluid.solver",
    "repro.workload",
)

#: Heartbeats read off the pipes are handed to the listener at most this
#: often (and all of them before :meth:`CampaignRunner.run` returns).
#: Each hand-over wakes whatever renders progress — under ``repro serve``
#: a long-polling client whose round trip competes with the workers for
#: CPU — and nobody reads progress faster than this.
_BEAT_FORWARD_INTERVAL_S = 0.1

#: How long a freshly started worker may take to announce itself (it
#: only has the preload imports to do) before the runner gives up on it.
_WORKER_START_TIMEOUT_S = 60.0


def derive_task_seed(campaign_seed: int, *spawn_key: int) -> int:
    """Deterministic 63-bit seed for one task of a campaign.

    Spawned from ``(campaign_seed, spawn_key)`` via ``SeedSequence`` so
    distinct tasks get statistically independent streams and the value
    depends only on the campaign seed and the task's position in the
    grid — never on scheduling.
    """
    sequence = np.random.SeedSequence(entropy=campaign_seed, spawn_key=spawn_key)
    return int(sequence.generate_state(1, np.uint64)[0] >> 1)


# -- worker side ---------------------------------------------------------------

#: Simulated-event count reported by the currently executing task (see
#: :func:`report_events`); module-level because each worker process (and
#: the inline path) runs one task at a time.
_TASK_EVENTS = 0


def report_events(n_events: int) -> None:
    """Called by a task function to attach a simulated-event count to its
    :class:`TaskResult` stats (e.g. ``report_events(sim.events_executed)``)."""
    global _TASK_EVENTS
    _TASK_EVENTS = int(n_events)


@dataclass(frozen=True)
class _TaskSpec:
    """One task, fully materialized (args include any derived seed)."""

    index: int
    args: tuple
    kwargs: dict[str, Any]


def _exception_error(exc: Exception, attempt: int) -> TaskError:
    """What a task raised, as the structured error its result carries."""
    message = "".join(format_exception_only(exc)).strip()
    return TaskError("exception", message, attempt)


def _execute_one(
    fn: Callable[..., Any], spec: _TaskSpec, attempt: int = 1
) -> TaskResult:
    """Run one task, catching application errors; shared by the worker
    loop and the inline (``workers<=1``) path.

    When flight-recorder autodump is armed for this process (campaigns
    with a results directory), the task runs bracketed by a per-task
    recorder: a raising task finalizes its dump with the error, a
    successful one removes its spool file, and a task that kills the
    process outright leaves the last spooled snapshot as its post-mortem.
    """
    global _TASK_EVENTS
    _TASK_EVENTS = 0
    _heartbeat.set_task(spec.index)
    recorder = _flight.begin_task(spec.index)
    start_unix = time.time()
    start = time.perf_counter()
    value = error = None
    try:
        value = fn(*spec.args, **spec.kwargs)
    except Exception as exc:
        error = _exception_error(exc, attempt)
    finally:
        _heartbeat.set_task(None)
    _flight.end_task(
        recorder, ok=error is None, error=error.message if error else None
    )
    return TaskResult(
        index=spec.index,
        value=value,
        error=error,
        wall_s=time.perf_counter() - start,
        events=_TASK_EVENTS,
        worker_pid=os.getpid(),
        attempts=attempt,
        start_unix=start_unix,
    )


def _worker_main(
    conn: Connection, preload: tuple[str, ...], autodump_dir: Optional[str]
) -> None:
    """Worker process entry point: warm up, announce, then serve tasks
    off the pipe one at a time until the runner goes away."""
    for name in preload:
        try:
            importlib.import_module(name)
        except ImportError:  # pragma: no cover - optional deps stay optional
            pass
    _flight.configure_autodump(autodump_dir)

    def send_beat(beat: Heartbeat) -> None:
        # Telemetry must never fail a simulation: a beat that cannot be
        # sent (runner gone, counters that do not pickle) is dropped.
        try:
            conn.send(beat)
        except Exception:
            pass

    conn.send(os.getpid())
    while True:
        try:
            fn, spec, attempt, want_beats = conn.recv()
        except (EOFError, OSError):
            return  # the runner closed its end
        _heartbeat.configure(send_beat if want_beats else None)
        result = _execute_one(fn, spec, attempt)
        try:
            conn.send(result)
        except OSError:
            return
        except Exception as exc:
            # The return value did not pickle (nothing was written): an
            # application error like any other, and the worker lives on.
            error = _exception_error(exc, attempt)
            conn.send(replace(result, value=None, error=error))


# -- result model --------------------------------------------------------------


@dataclass(frozen=True)
class TaskError:
    """Structured failure record for one task."""

    #: ``"exception"`` (task raised), ``"crash"`` (worker process died),
    #: or ``"timeout"`` (task exceeded its deadline).
    kind: str
    message: str
    attempts: int

    def __str__(self) -> str:
        return f"[{self.kind} after {self.attempts} attempt(s)] {self.message}"


@dataclass(frozen=True)
class TaskResult:
    """One task's outcome, in campaign (grid) order."""

    index: int
    value: Any
    error: Optional[TaskError]
    wall_s: float
    events: int
    worker_pid: int
    attempts: int
    #: Wall-clock start of the (final) execution; 0.0 when the task never
    #: reported back (terminal crash/timeout — ``worker_pid`` is then the
    #: last worker lost to it).
    start_unix: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class CampaignResult:
    """Ordered task results plus campaign-level statistics."""

    results: list[TaskResult]
    n_workers: int
    wall_s: float
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def errors(self) -> list[TaskResult]:
        return [result for result in self.results if not result.ok]

    def values(self, *, strict: bool = True) -> list[Any]:
        """Task return values in grid order.

        With ``strict`` (the default) a failed task raises
        :class:`CampaignError` naming every failure; otherwise failed
        slots hold ``None``.
        """
        if strict and not self.ok:
            lines = [
                f"  task {result.index}: {result.error}" for result in self.errors
            ]
            raise CampaignError(
                f"{len(self.errors)}/{len(self.results)} campaign task(s) "
                "failed:\n" + "\n".join(lines)
            )
        return [result.value for result in self.results]

    def stats(self) -> dict[str, Any]:
        """Aggregate wall-clock / event statistics for reports."""
        walls = [result.wall_s for result in self.results]
        total_wall = sum(walls)
        error_kinds = [result.error.kind for result in self.errors]
        return {
            "tasks": len(self.results),
            "failed": len(self.errors),
            "retries_total": sum(
                max(result.attempts - 1, 0) for result in self.results
            ),
            "timeouts": error_kinds.count("timeout"),
            "crashes": error_kinds.count("crash"),
            "task_exceptions": error_kinds.count("exception"),
            "workers": self.n_workers,
            "campaign_wall_s": self.wall_s,
            "task_wall_s_total": total_wall,
            "task_wall_s_max": max(walls, default=0.0),
            "task_wall_s_mean": total_wall / len(walls) if walls else 0.0,
            "events_total": sum(result.events for result in self.results),
            "distinct_workers": len(
                {result.worker_pid for result in self.results if result.ok}
            ),
            "tasks_per_sec": len(self.results) / self.wall_s if self.wall_s > 0 else 0.0,
        }


# -- the runner ----------------------------------------------------------------


@dataclass(eq=False)
class _Worker:
    """One worker process and the parent's end of its pipe."""

    process: multiprocessing.Process
    conn: Connection
    #: The task in flight (``None`` while idle) and when it is overdue.
    spec: Optional[_TaskSpec] = None
    deadline: float = math.inf

    def fileno(self) -> int:
        """Lets :func:`multiprocessing.connection.wait` take workers."""
        return self.conn.fileno()


class CampaignRunner:
    """Shards independent tasks across warm worker processes.

    ``workers=None`` uses every CPU; ``workers<=1`` runs inline (no
    subprocesses, timeouts not enforced).  Workers are started on
    demand and kept across :meth:`run` calls so they stay warm for
    multi-campaign sessions; call :meth:`close` (or use the runner as a
    context manager) to release them.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        task_timeout_s: Optional[float] = None,
        max_retries: int = 2,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        preload: tuple[str, ...] = DEFAULT_PRELOAD,
        results_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if workers is not None and workers < 0:
            raise CampaignError(f"workers must be >= 0, got {workers}")
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise CampaignError(f"task_timeout_s must be positive, got {task_timeout_s}")
        if max_retries < 0:
            raise CampaignError(f"max_retries must be >= 0, got {max_retries}")
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.task_timeout_s = task_timeout_s
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.preload = tuple(preload)
        #: Campaign artifact directory.  When set, every task records a
        #: flight-recorder ring spooled to ``<dir>/flight-task*.json``
        #: (kept on failure, removed on success) and :meth:`run` writes a
        #: ``campaign.json`` journal — the inputs of ``repro trace``.
        #: Created on first use, never at construction: merely building a
        #: runner (e.g. a daemon validating a request) must not litter
        #: directories.
        self.results_dir = Path(results_dir) if results_dir is not None else None
        #: Live workers, every one past its start-up announcement.
        self._pool: list[_Worker] = []

    # -- worker lifecycle ------------------------------------------------------

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def started(self) -> bool:
        """Whether live worker processes are currently attached."""
        return bool(self._pool)

    def start(self) -> "CampaignRunner":
        """Bring every worker up *now*.

        A cold :meth:`run` pays process start and the preload imports on
        its own wall clock.  A long-lived service (``repro serve``) calls
        ``start()`` once instead: every process exists and has finished
        its preload imports before this returns, so each campaign after
        it lands on hot workers.

        Idempotent; a no-op for ``workers <= 1`` (the inline path has
        nothing to warm).
        """
        if self.workers > 1:
            self._grow(self.workers)
        return self

    def close(self) -> None:
        """Stop every worker.  Outside :meth:`run` they are all idle,
        with nothing to flush, so they are simply killed."""
        for worker in list(self._pool):
            self._discard(worker)

    def _grow(self, size: int) -> None:
        """Bring the pool up to ``size`` ready workers.  All missing
        processes are started before any is waited for, so their preload
        imports overlap."""
        # Workers spool flight rings into the results directory, but only
        # while a task runs — and run() has created it by then.
        autodump_dir = str(self.results_dir) if self.results_dir is not None else None
        fresh = []
        for _ in range(size - len(self._pool)):
            conn, worker_conn = multiprocessing.Pipe()
            process = multiprocessing.Process(
                target=_worker_main,
                args=(worker_conn, self.preload, autodump_dir),
                daemon=True,
            )
            process.start()
            # The worker holds the only copy of its end from here on, so
            # its death reads as end-of-file on ours.
            worker_conn.close()
            fresh.append(_Worker(process, conn))
        self._pool.extend(fresh)
        for worker in fresh:
            try:
                if not worker.conn.poll(_WORKER_START_TIMEOUT_S):
                    raise EOFError
                worker.conn.recv()  # the pid announcement: preload is done
            except (EOFError, OSError):
                self._discard(worker)
                raise CampaignError(
                    f"worker process {worker.process.pid} failed to start"
                ) from None

    def _discard(self, worker: _Worker) -> None:
        """Remove a worker from the pool and make sure it is dead."""
        self._pool.remove(worker)
        worker.conn.close()
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join()

    # -- task normalization ----------------------------------------------------

    @staticmethod
    def _normalize(
        tasks: Sequence[Any],
        seed: Optional[int],
        seed_kwarg: str,
    ) -> list[_TaskSpec]:
        specs = []
        for index, task in enumerate(tasks):
            if isinstance(task, dict):
                args, kwargs = (), dict(task)
            elif isinstance(task, tuple):
                args, kwargs = task, {}
            else:
                args, kwargs = (task,), {}
            if seed is not None:
                kwargs[seed_kwarg] = derive_task_seed(seed, index)
            specs.append(_TaskSpec(index, args, kwargs))
        return specs

    # -- execution -------------------------------------------------------------

    def run(
        self,
        fn: Callable[..., Any],
        tasks: Sequence[Any],
        *,
        seed: Optional[int] = None,
        seed_kwarg: str = "seed",
        on_heartbeat: Optional[Callable[[Heartbeat], None]] = None,
    ) -> CampaignResult:
        """Apply ``fn`` to every task, sharded across the workers.

        ``fn`` must be a picklable top-level function.  Each element of
        ``tasks`` is a tuple (positional args), a dict (keyword args),
        or any other object (a single positional arg).  When ``seed`` is
        given, each task also receives ``seed_kwarg=<derived seed>``
        where the derived value depends only on ``(seed, task index)``.

        ``on_heartbeat`` receives :class:`~repro.obs.heartbeat.Heartbeat`
        snapshots streamed by tasks that call
        :func:`repro.obs.heartbeat.run_with_heartbeats` — live on the
        pooled path (coalesced: ``_BEAT_FORWARD_INTERVAL_S``), synchronously inline.
        Heartbeats only slice wall-clock execution, never the simulated
        timeline, so results are identical with or without a listener.
        """
        if not tasks:
            raise CampaignError("a campaign needs at least one task")
        specs = self._normalize(tasks, seed, seed_kwarg)
        created_unix = time.time()
        beats_log: list[dict[str, Any]] = []
        if self.results_dir is not None:
            # The journal and the flight spools land here: first use.
            self.results_dir.mkdir(parents=True, exist_ok=True)
            # Journal every heartbeat (receive-stamped) for the campaign
            # trace, forwarding to the caller's listener when present.
            user_cb = on_heartbeat

            def on_heartbeat(beat: Heartbeat) -> None:
                beats_log.append(beat.row())
                if user_cb is not None:
                    user_cb(beat)

        start = time.perf_counter()
        if self.workers <= 1:
            _heartbeat.configure(on_heartbeat)
            if self.results_dir is not None:
                _flight.configure_autodump(self.results_dir)
            try:
                results = [_execute_one(fn, spec) for spec in specs]
            finally:
                _heartbeat.configure(None)
                if self.results_dir is not None:
                    _flight.configure_autodump(None)
        else:
            # Even a single task goes to a worker: only there is its
            # deadline enforced, and only there can it die alone.
            results = self._run_pooled(fn, specs, on_heartbeat)
        result = CampaignResult(
            results=results,
            n_workers=max(self.workers, 1),
            wall_s=time.perf_counter() - start,
        )
        self._write_journal(result, beats_log, created_unix)
        return result

    def _preserve_flight_dump(self, task_index: int, kind: str, attempt: int) -> None:
        """Rename a dead worker's spooled ring so a retry of the same task
        (which spools to the canonical name) cannot overwrite the
        evidence.  Only crash/timeout need this: an exception's dump is
        finalized worker-side and exceptions are never retried."""
        if self.results_dir is None:
            return
        spool = _flight.task_dump_path(self.results_dir, task_index)
        preserved = spool.with_name(
            f"flight-task{task_index:05d}-a{attempt}-{kind}.json"
        )
        try:
            spool.replace(preserved)
        except OSError:  # no spool: the task died before it wrote one
            pass

    def _write_journal(
        self,
        result: CampaignResult,
        beats_log: list[dict[str, Any]],
        created_unix: float,
    ) -> None:
        """Persist the campaign journal ``repro trace`` merges."""
        if self.results_dir is None:
            return
        payload = {
            "schema": 1,
            "kind": "campaign_journal",
            "created_unix": created_unix,
            "wall_s": result.wall_s,
            "workers": result.n_workers,
            "stats": result.stats(),
            "tasks": [
                {
                    "index": task.index,
                    "ok": task.ok,
                    "start_unix": task.start_unix or None,
                    "wall_s": task.wall_s,
                    "pid": task.worker_pid,
                    "events": task.events,
                    "attempts": task.attempts,
                    "error": str(task.error) if task.error else None,
                    "error_kind": task.error.kind if task.error else None,
                }
                for task in result.results
            ],
            "heartbeats": beats_log,
        }
        (self.results_dir / "campaign.json").write_text(
            json.dumps(payload, indent=1, default=str) + "\n"
        )

    def _run_pooled(
        self,
        fn: Callable[..., Any],
        specs: list[_TaskSpec],
        on_heartbeat: Optional[Callable[[Heartbeat], None]],
    ) -> list[TaskResult]:
        final: dict[int, TaskResult] = {}
        attempts: dict[int, int] = {spec.index: 0 for spec in specs}
        pending = deque(specs)
        # Backoff queue of (due_monotonic, task index, spec) awaiting a
        # retry; a task is in it at most once, so the index breaks ties.
        retry_queue: list[tuple[float, int, _TaskSpec]] = []
        # Without a listener a worker gets no sink, and its simulation
        # runs as one slice.
        want_beats = on_heartbeat is not None
        held: list[Heartbeat] = []  # read off a pipe, not yet forwarded
        forward_due = 0.0

        def lose(worker: _Worker, kind: str) -> None:
            """Bury a dead (or overdue) worker.  The one task it was
            running, if any, is the only one charged: retried after a
            backoff, or failed for good."""
            self._discard(worker)
            spec = worker.spec
            if spec is None:
                return
            used = attempts[spec.index]
            # The worker's spooled flight ring is the post-mortem — keep
            # it out of a retry's way.
            self._preserve_flight_dump(spec.index, kind, used)
            if used <= self.max_retries:
                delay = min(
                    self.backoff_base_s * (2.0 ** (used - 1)), self.backoff_cap_s
                )
                heapq.heappush(
                    retry_queue, (time.monotonic() + delay, spec.index, spec)
                )
                return
            if kind == "timeout":
                message = f"task exceeded {self.task_timeout_s:.3f}s deadline"
            else:
                message = (
                    f"worker process {worker.process.pid} died "
                    f"(exit code {worker.process.exitcode})"
                )
            final[spec.index] = TaskResult(
                index=spec.index,
                value=None,
                error=TaskError(kind, message, used),
                wall_s=0.0,
                events=0,
                worker_pid=worker.process.pid,
                attempts=used,
            )

        try:
            while len(final) < len(specs):
                # Fill empty slots — first use, or a lost worker's — but
                # never beyond what the unfinished tasks can occupy.
                self._grow(min(self.workers, len(specs) - len(final)))
                now = time.monotonic()
                for worker in [w for w in self._pool if w.spec is None]:
                    if retry_queue and retry_queue[0][0] <= now:
                        spec = heapq.heappop(retry_queue)[2]
                    elif pending:
                        spec = pending.popleft()
                    else:
                        break
                    try:
                        worker.conn.send(
                            (fn, spec, attempts[spec.index] + 1, want_beats)
                        )
                    except OSError:
                        # Died while idle: it was running nothing, so
                        # nobody is charged.  Its end-of-file, read just
                        # below, buries it; the next pass fills the slot.
                        pending.appendleft(spec)
                        continue
                    attempts[spec.index] += 1
                    worker.spec = spec
                    if self.task_timeout_s is not None:
                        worker.deadline = now + self.task_timeout_s

                # Every unfinished task is now in flight (a worker will
                # speak or die), backing off (a due time), or waiting for
                # a busy worker — so this wait always ends.
                wakeup = min(worker.deadline for worker in self._pool)
                if retry_queue and any(w.spec is None for w in self._pool):
                    wakeup = min(wakeup, retry_queue[0][0])
                if held:
                    wakeup = min(wakeup, forward_due)
                timeout = None if wakeup == math.inf else max(wakeup - now, 0.0)
                for worker in wait(self._pool, timeout):
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        lose(worker, "crash")
                        continue
                    if isinstance(message, Heartbeat):
                        held.append(message)
                        continue
                    worker.spec, worker.deadline = None, math.inf
                    final[message.index] = message

                now = time.monotonic()
                for worker in [w for w in self._pool if w.deadline < now]:
                    lose(worker, "timeout")
                if held and (now >= forward_due or len(final) == len(specs)):
                    for beat in held:
                        on_heartbeat(beat)
                    held.clear()
                    forward_due = now + _BEAT_FORWARD_INTERVAL_S
        finally:
            # Tasks are still in flight only if something raised (a
            # listener, a failed start-up): those workers' pipes hold
            # messages nobody will read, so they cannot be reused.
            for worker in [w for w in self._pool if w.spec is not None]:
                self._discard(worker)
        return [final[spec.index] for spec in specs]
