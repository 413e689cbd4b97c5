"""Chrome/Perfetto trace-event timelines for campaigns and runs.

The :mod:`repro.obs` counters say *how much*; this module says *when*.
It serializes everything the platform already knows about a run's
schedule — campaign worker lifetimes and retries,
heartbeats, and :mod:`repro.obs.flight` post-mortems — into the Chrome
trace-event JSON format, so one ``repro trace <campaign_dir>`` produces
a file that drops straight into https://ui.perfetto.dev (or
``chrome://tracing``) as a zoomable campaign timeline.

Only the *array-of-objects* flavor is emitted::

    {"traceEvents": [...], "displayTimeUnit": "ms", ...}

with the event phases we need:

* ``"X"`` — complete span (``ts`` + ``dur``, both µs): task executions;
* ``"i"`` — instant: heartbeats, flight-recorder events, terminal task
  failures;
* ``"C"`` — counter: per-task simulated-event progress from heartbeats;
* ``"M"`` — metadata: human names for the pid/tid rows.

Timestamps are microseconds relative to the campaign's start (``t0``),
pids are real worker pids, and tids are campaign task indices — so one
Perfetto row per worker process, one track per task it ran.

:func:`validate_chrome_trace` is the schema gate used by the tests and
CI: it accepts exactly what this module promises to emit, so a payload
that validates is known to load in Perfetto.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional, Union

from repro.obs.flight import load_dump

PathLike = Union[str, Path]

#: Canonical journal filename inside a campaign results directory.
CAMPAIGN_JOURNAL = "campaign.json"

_VALID_PHASES = frozenset("BEXiICPONDMsftbne")


# -- event constructors --------------------------------------------------------


def complete_event(
    name: str,
    *,
    ts_us: float,
    dur_us: float,
    pid: int,
    tid: int,
    cat: str = "task",
    args: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """A ``ph="X"`` span: something that started and took time."""
    event = {
        "name": name,
        "ph": "X",
        "ts": ts_us,
        "dur": max(dur_us, 0.0),
        "pid": pid,
        "tid": tid,
        "cat": cat,
    }
    if args:
        event["args"] = args
    return event


def instant_event(
    name: str,
    *,
    ts_us: float,
    pid: int,
    tid: int,
    cat: str = "event",
    scope: str = "t",
    args: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """A ``ph="i"`` marker: something that happened at one moment."""
    event = {
        "name": name,
        "ph": "i",
        "ts": ts_us,
        "pid": pid,
        "tid": tid,
        "cat": cat,
        "s": scope,
    }
    if args:
        event["args"] = args
    return event


def counter_event(
    name: str,
    *,
    ts_us: float,
    pid: int,
    values: dict[str, float],
    tid: int = 0,
    cat: str = "counter",
) -> dict[str, Any]:
    """A ``ph="C"`` sample: series values plotted as a counter track."""
    return {
        "name": name,
        "ph": "C",
        "ts": ts_us,
        "pid": pid,
        "tid": tid,
        "cat": cat,
        "args": dict(values),
    }


def metadata_event(
    kind: str, *, pid: int, name: str, tid: int = 0
) -> dict[str, Any]:
    """A ``ph="M"`` row label (``process_name`` / ``thread_name``)."""
    return {
        "name": kind,
        "ph": "M",
        "ts": 0,
        "pid": pid,
        "tid": tid,
        "args": {"name": name},
    }


# -- validation ----------------------------------------------------------------


def validate_chrome_trace(payload: Any) -> None:
    """Raise :class:`ValueError` unless ``payload`` is a well-formed
    Chrome trace-event document of the shape this module emits."""
    if not isinstance(payload, dict):
        raise ValueError(f"trace payload must be an object, got {type(payload).__name__}")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace payload must carry a 'traceEvents' list")
    for position, event in enumerate(events):
        where = f"traceEvents[{position}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where} must be an object")
        phase = event.get("ph")
        if not isinstance(phase, str) or phase not in _VALID_PHASES:
            raise ValueError(f"{where} has invalid phase {phase!r}")
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise ValueError(f"{where} needs a non-empty string 'name'")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ValueError(f"{where} needs an integer '{key}'")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool):
            raise ValueError(f"{where} needs a numeric 'ts' (µs)")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or isinstance(dur, bool) or dur < 0:
                raise ValueError(f"{where} ('X') needs a numeric 'dur' >= 0")
        if phase == "C" and not isinstance(event.get("args"), dict):
            raise ValueError(f"{where} ('C') needs an 'args' value mapping")
        if phase == "M" and not isinstance(event.get("args", {}).get("name"), str):
            raise ValueError(f"{where} ('M') needs args.name")
        if "args" in event and not isinstance(event["args"], dict):
            raise ValueError(f"{where} 'args' must be an object")


# -- campaign merge ------------------------------------------------------------


def _flight_dump_events(
    dump: dict[str, Any], *, t0: float, pid: int, tid: int
) -> list[dict[str, Any]]:
    """Flight-recorder ring events as instants on the task's track."""
    base_us = (float(dump.get("created_unix", t0)) - t0) * 1e6
    events = []
    for entry in dump.get("events", ()):
        fields = dict(entry.get("fields") or {})
        fields["time_ps"] = entry.get("time_ps")
        events.append(
            instant_event(
                f"{entry.get('category', '?')}.{entry.get('name', '?')}",
                ts_us=base_us + float(entry.get("wall_s", 0.0)) * 1e6,
                pid=pid,
                tid=tid,
                cat=f"flight.{entry.get('category', 'event')}",
                args=fields,
            )
        )
    return events


def campaign_trace_events(results_dir: PathLike) -> list[dict[str, Any]]:
    """Merge a campaign results directory into one trace-event list.

    Reads the runner's ``campaign.json`` journal (task lifetimes,
    retries, heartbeats) plus every ``flight-task*.json`` post-mortem
    dump alongside it.  Raises :class:`FileNotFoundError` when neither
    exists — an empty directory is a usage error, not an empty trace.
    """
    results_dir = Path(results_dir)
    journal_path = results_dir / CAMPAIGN_JOURNAL
    dump_paths = sorted(results_dir.glob("flight-task*.json"))
    if not journal_path.exists() and not dump_paths:
        raise FileNotFoundError(
            f"{results_dir} holds neither {CAMPAIGN_JOURNAL} nor flight-task*.json "
            "dumps; was the campaign run with a results dir?"
        )

    journal: dict[str, Any] = {}
    if journal_path.exists():
        journal = json.loads(journal_path.read_text())

    dumps = []
    for dump_path in dump_paths:
        try:
            dumps.append(load_dump(dump_path))
        except (ValueError, json.JSONDecodeError):
            continue  # half-written spool from a freshly killed worker

    # t0: the earliest instant anything recorded, so all ts stay >= 0.
    starts = [
        task["start_unix"]
        for task in journal.get("tasks", ())
        if task.get("start_unix") is not None
    ]
    starts.extend(float(d["created_unix"]) for d in dumps if d.get("created_unix"))
    if journal.get("created_unix") is not None:
        starts.append(float(journal["created_unix"]))
    t0 = min(starts) if starts else 0.0

    events: list[dict[str, Any]] = []
    pids_named: set[int] = set()
    tracks_named: set[tuple[int, int]] = set()

    def name_track(pid: int, tid: int) -> None:
        if pid not in pids_named:
            pids_named.add(pid)
            label = "campaign" if pid == 0 else f"worker pid {pid}"
            events.append(metadata_event("process_name", pid=pid, name=label))
        if (pid, tid) not in tracks_named:
            tracks_named.add((pid, tid))
            events.append(
                metadata_event("thread_name", pid=pid, tid=tid, name=f"task {tid}")
            )

    for task in journal.get("tasks", ()):
        tid = int(task["index"])
        pid = int(task.get("pid") or 0)
        name_track(pid, tid)
        args = {
            "ok": task.get("ok"),
            "attempts": task.get("attempts"),
            "events": task.get("events"),
            "error": task.get("error"),
            "error_kind": task.get("error_kind"),
        }
        args = {key: value for key, value in args.items() if value is not None}
        if task.get("start_unix") is not None:
            events.append(
                complete_event(
                    f"task {tid}",
                    ts_us=(float(task["start_unix"]) - t0) * 1e6,
                    dur_us=float(task.get("wall_s") or 0.0) * 1e6,
                    pid=pid,
                    tid=tid,
                    cat="task" if task.get("ok") else "task.failed",
                    args=args,
                )
            )
        else:
            # Crashed/timed-out terminally: no measured execution window,
            # so mark the failure at the campaign end instead.
            events.append(
                instant_event(
                    f"task {tid} {task.get('error_kind') or 'failed'}",
                    ts_us=float(journal.get("wall_s") or 0.0) * 1e6,
                    pid=pid,
                    tid=tid,
                    cat="task.failed",
                    scope="g",
                    args=args,
                )
            )

    for beat in journal.get("heartbeats", ()):
        tid = int(beat.get("task_id", -1))
        if tid < 0:
            continue
        pid = int(beat.get("pid") or 0)
        name_track(pid, tid)
        ts_us = (float(beat.get("recv_unix", t0)) - t0) * 1e6
        events.append(
            instant_event(
                "heartbeat.final" if beat.get("final") else "heartbeat",
                ts_us=ts_us,
                pid=pid,
                tid=tid,
                cat="heartbeat",
                args={
                    "sim_now_ps": beat.get("sim_now_ps"),
                    "sim_until_ps": beat.get("sim_until_ps"),
                    "events_executed": beat.get("events_executed"),
                },
            )
        )
        events.append(
            counter_event(
                f"task {tid} events",
                ts_us=ts_us,
                pid=pid,
                tid=tid,
                values={"events_executed": float(beat.get("events_executed") or 0)},
            )
        )

    for dump in dumps:
        meta = dump.get("meta") or {}
        tid = int(meta.get("task", -1))
        pid = int(dump.get("pid") or 0)
        if tid < 0:
            tid = 0
        name_track(pid, tid)
        events.extend(_flight_dump_events(dump, t0=t0, pid=pid, tid=tid))
        if dump.get("status") not in (None, "running"):
            events.append(
                instant_event(
                    f"flight dump ({dump['status']})",
                    ts_us=(float(dump.get("created_unix", t0)) - t0) * 1e6,
                    pid=pid,
                    tid=tid,
                    cat="flight",
                    scope="p",
                    args={"error": dump.get("error"),
                          "events_recorded": dump.get("events_recorded")},
                )
            )

    events.sort(key=lambda event: (event["ph"] != "M", event.get("ts", 0)))
    return events


# -- writing -------------------------------------------------------------------


def build_chrome_trace(
    events: list[dict[str, Any]], *, metadata: Optional[dict[str, Any]] = None
) -> dict[str, Any]:
    """Wrap events in the trace-document envelope (and validate it)."""
    payload: dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if metadata:
        payload["otherData"] = metadata
    validate_chrome_trace(payload)
    return payload


def write_chrome_trace(
    path: PathLike,
    events: list[dict[str, Any]],
    *,
    metadata: Optional[dict[str, Any]] = None,
) -> Path:
    """Validate and write a trace document; returns the path."""
    path = Path(path)
    payload = build_chrome_trace(events, metadata=metadata)
    path.write_text(json.dumps(payload, indent=1, default=str) + "\n")
    return path
