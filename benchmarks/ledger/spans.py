"""In-memory span recorder for the traced phase.

Spans are recorded from the benchmark's side only, around calls into
public functions of ``repro``; nothing inside the program is touched.
They are kept in a list and written out once, at exit, as a Chrome
trace through :mod:`repro.obs.trace`.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Any, Iterator, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: Index of the span that was open when this one started.
    parent: Optional[int]
    #: Spans of one op share its id.
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullRecorder:
    """Stands in for :class:`SpanRecorder` when tracing is off."""

    def span(self, name: str) -> contextlib.AbstractContextManager:
        return contextlib.nullcontext()


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        #: Stamped on every span recorded until it is changed.
        self.op = 0
        # Both clocks read together, so stamps another process took with
        # ``time.time()`` can be placed on this recorder's timeline.
        self._perf0 = time.perf_counter()
        self._unix0 = time.time()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, 0.0, 0.0, parent, self.op))
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield index
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index].start = start
            self.spans[index].end = end

    def add_unix(
        self, name: str, start_unix: float, end_unix: float, parent: int
    ) -> None:
        """Record a child of ``parent`` from two ``time.time()`` stamps
        (the daemon's job-document stamps)."""
        shift = self._perf0 - self._unix0
        self.spans.append(
            Span(name, start_unix + shift, end_unix + shift, parent, self.op)
        )

    # -- reading -----------------------------------------------------------

    def children(self, index: int) -> list[Span]:
        return [span for span in self.spans if span.parent == index]

    def self_time(self, index: int) -> float:
        """The span's duration minus the part of its interval that its
        child spans cover (overlapping children are counted once)."""
        span = self.spans[index]
        covered = 0.0
        reach = span.start
        for child in sorted(self.children(index), key=lambda s: s.start):
            start = max(child.start, reach)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        return span.duration - covered

    def durations(self, name: str) -> list[float]:
        return [span.duration for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def find(self, name: str) -> list[int]:
        return [i for i, span in enumerate(self.spans) if span.name == name]

    def chrome_events(self, pid: int, label: str) -> list[dict[str, Any]]:
        """The spans as trace events: one row (tid) per op."""
        from repro.obs.trace import complete_event, metadata_event

        events = [metadata_event("process_name", pid=pid, name=label)]
        for index, span in enumerate(self.spans):
            events.append(
                complete_event(
                    span.name,
                    ts_us=(span.start - self._perf0) * 1e6,
                    dur_us=span.duration * 1e6,
                    pid=pid,
                    tid=span.op,
                    cat="ledger",
                    args={
                        "span": index,
                        "parent": -1 if span.parent is None else span.parent,
                        "self_us": self.self_time(index) * 1e6,
                    },
                )
            )
        return events
