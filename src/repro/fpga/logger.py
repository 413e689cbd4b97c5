"""Fine-grained logging via QDMA (paper Section 5.1).

Each CC computation may log one 16-byte record plus a timestamp from the
322 MHz hardware clock.  Records are aggregated into 1,024-byte packets
before upload to the host, "with logging performance matching the host's
DPDK performance".

The model enforces the 16-byte record budget (values are encoded as
4-byte words, so at most four values per record), aggregates records into
upload batches, and mirrors everything into a
:class:`~repro.sim.trace.TraceRecorder` for analysis — this is what the
Figure 5 cwnd/alpha traces are read from.
"""

from __future__ import annotations

from typing import Any

from repro.errors import CCModuleError
from repro.sim.trace import TraceRecorder

#: Per-record payload budget (excluding the hardware timestamp).
RECORD_BYTES = 16
#: Each logged value occupies one 32-bit word.
VALUE_BYTES = 4
MAX_VALUES_PER_RECORD = RECORD_BYTES // VALUE_BYTES
#: Upload aggregation unit.
UPLOAD_PACKET_BYTES = 1024
RECORDS_PER_UPLOAD = UPLOAD_PACKET_BYTES // RECORD_BYTES


class QdmaLogger:
    """16 B record logger with 1,024 B upload aggregation.

    Upload accounting mirrors what the host's DPDK receive loop would
    see: ``uploads`` counts packets, ``upload_bytes`` counts payload
    bytes (full batches carry :data:`UPLOAD_PACKET_BYTES`; a flushed
    partial batch carries only its records).  Partial-batch state is
    exposed via :attr:`pending_records` / :attr:`pending_bytes` rather
    than being a private bare int.  ``flush()`` on an empty logger
    uploads nothing.
    """

    def __init__(self) -> None:
        self.trace = TraceRecorder()
        self.records_logged = 0
        self.uploads = 0
        self.upload_bytes = 0
        self._pending_records = 0

    @property
    def pending_records(self) -> int:
        """Records aggregated but not yet uploaded (the partial batch)."""
        return self._pending_records

    @property
    def pending_bytes(self) -> int:
        """Payload bytes sitting in the partial batch."""
        return self._pending_records * RECORD_BYTES

    def log(self, time_ps: int, channel: str, **values: Any) -> None:
        """Log one record; raises if it exceeds the 16-byte budget."""
        if len(values) > MAX_VALUES_PER_RECORD:
            raise CCModuleError(
                f"log record on {channel!r} has {len(values)} values; the "
                f"{RECORD_BYTES} B hardware record fits at most "
                f"{MAX_VALUES_PER_RECORD}"
            )
        self.trace.log(time_ps, channel, **values)
        self.records_logged += 1
        self._pending_records += 1
        if self._pending_records >= RECORDS_PER_UPLOAD:
            self._upload(self._pending_records)

    def flush(self) -> None:
        """Upload any partial batch (end of test); a no-op when empty."""
        if self._pending_records > 0:
            self._upload(self._pending_records)

    def _upload(self, n_records: int) -> None:
        self._pending_records = 0
        self.uploads += 1
        self.upload_bytes += n_records * RECORD_BYTES

    def series(self, channel: str, key: str) -> tuple[list[int], list[Any]]:
        """Convenience passthrough to the backing trace."""
        return self.trace.series(channel, key)
