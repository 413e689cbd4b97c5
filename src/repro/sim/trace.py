"""Structured trace recording.

This is the software analogue of Marlin's fine-grained logging path
(Section 5.1): components append timestamped records to a named channel,
and analysis code reads them back as columns.

Storage is columnar (see ``docs/PERFORMANCE.md``): each channel keeps one
``times`` list plus, per field key, a pair of parallel lists
``(record_indices, values)``.  The hot-path :meth:`TraceRecorder.log`
therefore allocates no per-record object and no per-record dict, and
:meth:`TraceRecorder.series` — the read pattern behind every figure —
is a direct column read.  The row-shaped view (:meth:`channel`)
materializes :class:`TraceRecord` objects on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class TraceRecord:
    """One timestamped observation on a channel (row view)."""

    time_ps: int
    channel: str
    fields: dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]


class _ChannelStore:
    """Columnar storage for one channel."""

    __slots__ = ("times", "columns")

    def __init__(self) -> None:
        self.times: list[int] = []
        #: key -> (record indices, values), parallel lists.
        self.columns: dict[str, tuple[list[int], list[Any]]] = {}


class TraceRecorder:
    """Append-only per-channel columnar store with a row-view read API."""

    __slots__ = ("_stores",)

    def __init__(self) -> None:
        self._stores: dict[str, _ChannelStore] = {}

    # -- hot path ------------------------------------------------------------

    def log(self, time_ps: int, channel: str, **fields: Any) -> None:
        """Append a record to ``channel``."""
        store = self._stores.get(channel)
        if store is None:
            store = self._stores[channel] = _ChannelStore()
        times = store.times
        index = len(times)
        times.append(time_ps)
        if fields:
            columns = store.columns
            for key, value in fields.items():
                column = columns.get(key)
                if column is None:
                    column = columns[key] = ([], [])
                column[0].append(index)
                column[1].append(value)

    # -- read API ------------------------------------------------------------

    def channel(self, channel: str) -> list[TraceRecord]:
        """All records logged on ``channel`` in time order (row view)."""
        store = self._stores.get(channel)
        if store is None:
            return []
        fields_per_record: list[dict[str, Any]] = [{} for _ in store.times]
        for key, (indices, values) in store.columns.items():
            for index, value in zip(indices, values):
                fields_per_record[index][key] = value
        return [
            TraceRecord(time_ps=t, channel=channel, fields=f)
            for t, f in zip(store.times, fields_per_record)
        ]

    def channels(self) -> list[str]:
        return sorted(self._stores)

    def series(self, channel: str, key: str) -> tuple[list[int], list[Any]]:
        """``(times_ps, values)`` for field ``key`` on ``channel``."""
        store = self._stores.get(channel)
        if store is None:
            return [], []
        column = store.columns.get(key)
        if column is None:
            return [], []
        times = store.times
        return [times[i] for i in column[0]], list(column[1])
