"""The daemon's job queue: one warm pool, many queued campaigns.

Execution model: a single dispatcher thread drains a FIFO of validated
:class:`~repro.serve.spec.CampaignSpec` jobs onto ONE persistent
:class:`~repro.parallel.CampaignRunner` — the runner's process pool is
the parallelism; serializing campaigns onto it keeps worker memory
bounded and campaign results deterministic.  The pool is started warm
(:meth:`CampaignRunner.start`) before the first job, which is the whole
point of the daemon: pool construction is paid once per process
lifetime instead of once per ``repro sweep`` invocation.

Dedup happens at submit time, twice:

* **result cache** — a spec whose canonical config hash has a stored
  result completes instantly (``cached=True``, no workers touched);
* **in-flight coalescing** — a spec identical to a queued/running job
  attaches to that job instead of queuing a duplicate run.

All job state transitions go through one :class:`threading.Condition`,
so HTTP long-polls can wait on "something changed about job N" without
busy-looping.
"""

from __future__ import annotations

import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import ReproError
from repro.obs.heartbeat import Heartbeat
from repro.serve.cache import ResultCache
from repro.serve.spec import CampaignSpec

#: Job lifecycle states, in order.
STATES = ("queued", "running", "done", "failed")

#: Finished jobs the daemon keeps answering for; older ones are dropped
#: (their ids then read as unknown), so a long-lived daemon's job table
#: stays bounded.  Queued and running jobs are never dropped.
MAX_FINISHED_JOBS = 1024


@dataclass
class Job:
    """One submitted campaign and everything observable about it."""

    id: str
    spec: CampaignSpec
    config_hash: str
    state: str = "queued"
    cached: bool = False
    submitted_unix: float = field(default_factory=time.time)
    started_unix: Optional[float] = None
    finished_unix: Optional[float] = None
    result: Optional[dict[str, Any]] = None
    error: Optional[str] = None
    #: Heartbeat rows in arrival order; the long-poll's backing log.
    beats: list[dict[str, Any]] = field(default_factory=list)
    #: Task ids that have reported a final heartbeat.
    _tasks_done: set[int] = field(default_factory=set)

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed")

    def progress(self) -> float:
        """Fraction of the campaign's tasks completed, refined by the
        live progress of the in-flight ones (heartbeat-derived)."""
        if self.finished:
            return 1.0
        if self.state == "queued" or self.spec.n_tasks == 0:
            return 0.0
        live: dict[int, float] = {}
        for row in self.beats:
            live[row["task_id"]] = row["progress"]
        done = len(self._tasks_done)
        inflight = sum(
            fraction for task, fraction in live.items()
            if task not in self._tasks_done
        )
        return min((done + inflight) / self.spec.n_tasks, 1.0)

    def summary(self) -> dict[str, Any]:
        """The API's job-status document (sans result payload)."""
        return {
            "job_id": self.id,
            "kind": self.spec.kind,
            "description": self.spec.describe(),
            "config_hash": self.config_hash,
            "state": self.state,
            "cached": self.cached,
            "progress": self.progress(),
            "tasks": self.spec.n_tasks,
            "tasks_done": len(self._tasks_done),
            "submitted_unix": self.submitted_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "error": self.error,
        }


class JobQueue:
    """FIFO of campaign jobs drained by one dispatcher thread."""

    def __init__(
        self,
        runner: Any,
        cache: ResultCache,
        *,
        max_queued: int = 64,
        on_event: Optional[Callable[[str, Job], None]] = None,
    ) -> None:
        self.runner = runner
        self.cache = cache
        self.max_queued = max_queued
        #: Optional observer for metrics: called with ("accepted" |
        #: "started" | "finished" | "cache_hit" | "coalesced", job).
        self.on_event = on_event
        #: Live jobs plus the last :data:`MAX_FINISHED_JOBS` finished
        #: ones, in submission order (dict order backs the listing).
        self.jobs: dict[str, Job] = {}
        self._finished: deque[str] = deque()  # finish order, oldest first
        self._running = 0
        self._pending: list[str] = []
        self._active_by_hash: dict[str, str] = {}
        self._cond = threading.Condition()
        self._counter = 0
        self._closed = False
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
        )

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "JobQueue":
        """Warm the pool and start dispatching."""
        self.runner.start()
        self._thread.start()
        return self

    def close(self, *, timeout_s: float = 10.0) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._thread.join(timeout=timeout_s)
        self.runner.close()

    # -- submission ------------------------------------------------------------

    def submit(self, spec: CampaignSpec) -> Job:
        """Queue one campaign (or satisfy it from cache / coalesce it
        onto an identical in-flight job).  Raises :class:`ReproError`
        when the queue is full."""
        key = spec.config_hash
        with self._cond:
            if self._closed:
                raise ReproError("job queue is shutting down")
            # Identical spec already queued or running: share that job.
            active_id = self._active_by_hash.get(key)
            if active_id is not None:
                job = self.jobs[active_id]
                self._notify("coalesced", job)
                return job
            entry = self.cache.get(key)
            if entry is None and len(self._pending) >= self.max_queued:
                raise ReproError(
                    f"job queue is full ({self.max_queued} campaign(s) queued)"
                )
            self._counter += 1
            job = Job(id=f"job-{self._counter:06d}", spec=spec, config_hash=key)
            self.jobs[job.id] = job
            if entry is not None:
                job.cached = True
                job.state = "done"
                job.started_unix = job.finished_unix = time.time()
                job.result = entry["result"]
                self._retire(job)
                self._notify("cache_hit", job)
                self._cond.notify_all()
                return job
            self._pending.append(job.id)
            self._active_by_hash[key] = job.id
            self._notify("accepted", job)
            self._cond.notify_all()
            return job

    # -- observation -----------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        with self._cond:
            return self.jobs.get(job_id)

    def list_jobs(self) -> list[dict[str, Any]]:
        with self._cond:
            return [job.summary() for job in self.jobs.values()]

    def queue_depth(self) -> int:
        with self._cond:
            return len(self._pending)

    def running_count(self) -> int:
        with self._cond:
            return self._running

    def wait(
        self,
        job_id: str,
        *,
        beat_cursor: int = 0,
        timeout_s: float = 30.0,
    ) -> tuple[Optional[Job], int]:
        """Block until job ``job_id`` changes past ``beat_cursor`` (new
        heartbeats) or finishes, or the timeout lapses.  Returns the job
        and the new cursor — the long-poll primitive."""
        deadline = time.monotonic() + timeout_s
        with self._cond:
            while True:
                job = self.jobs.get(job_id)
                if job is None:
                    return None, beat_cursor
                if job.finished or len(job.beats) > beat_cursor:
                    return job, len(job.beats)
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._closed:
                    return job, beat_cursor
                self._cond.wait(timeout=min(remaining, 1.0))

    # -- dispatch --------------------------------------------------------------

    def _retire(self, job: Job) -> None:
        """Book a job that just finished (lock held): it stops counting
        as active and pushes the oldest finished job out of the table
        once more than :data:`MAX_FINISHED_JOBS` are retained."""
        self._active_by_hash.pop(job.config_hash, None)
        self._finished.append(job.id)
        while len(self._finished) > MAX_FINISHED_JOBS:
            del self.jobs[self._finished.popleft()]

    def _notify(self, event: str, job: Job) -> None:
        if self.on_event is not None:
            try:
                self.on_event(event, job)
            except Exception:  # pragma: no cover - observer must not kill us
                pass

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait(timeout=1.0)
                if self._closed:
                    return
                job = self.jobs[self._pending.pop(0)]
                job.state = "running"
                job.started_unix = time.time()
                self._running += 1
                self._notify("started", job)
                self._cond.notify_all()
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        def on_heartbeat(beat: Heartbeat) -> None:
            row = beat.row()
            with self._cond:
                job.beats.append(row)
                if beat.final and beat.task_id >= 0:
                    job._tasks_done.add(beat.task_id)
                self._cond.notify_all()

        try:
            result = job.spec.run(self.runner, on_heartbeat=on_heartbeat)
        except Exception as exc:
            state, result = "failed", None
            error = "".join(traceback.format_exception_only(exc)).strip()
        else:
            state, error = "done", None
            # Cache outside the lock (disk write), then publish; a
            # failed run is never cached.
            self.cache.put(
                job.config_hash,
                job.spec.config,
                result,
                seed=job.spec.config.get("seed"),
            )
        with self._cond:
            job.state, job.result, job.error = state, result, error
            job.finished_unix = time.time()
            self._running -= 1
            self._retire(job)
            self._notify("finished", job)
            self._cond.notify_all()
