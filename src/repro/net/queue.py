"""Queues: drop-tail and DCTCP-style ECN marking, and the tester's FIFO.

The ECN queue implements the marking scheme DCTCP and DCQCN assume: a
single threshold ``K`` on the instantaneous queue length; packets that
arrive when the backlog is at or above ``K`` get their ECN field rewritten
to CE (DCQCN's RED-like min/max marking can be approximated by this with
``K = Kmin``, which is how the NVIDIA parameter guide configures lossless
fabrics for testing).

:class:`Fifo` is the entry-counted FIFO of the tester itself: the
switch's per-port register queues (Section 4.2) and the FPGA's RX and
scheduling FIFOs (Sections 5.2-5.3).
"""

from __future__ import annotations

from collections import deque
from typing import Generic, Optional, TypeVar

from repro.net.packet import CE, ECT, Packet
from repro.sim.backend import CENGINE as _C

T = TypeVar("T")


class Fifo(Generic[T]):
    """A bounded FIFO of entries; pushing into a full one drops the entry
    and counts it in ``dropped``.

    On the switch a drop is the paper's *false packet loss* (a scheduled
    DATA packet never goes out); in an FPGA RX FIFO it is lost CC
    feedback.  ``max_depth`` is the deepest the FIFO has been."""

    __slots__ = ("capacity", "_queue", "dropped", "max_depth")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"fifo capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._queue: deque[T] = deque()
        self.dropped = 0
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def empty(self) -> bool:
        return not self._queue

    def push(self, item: T) -> bool:
        """Append ``item``; returns False (counting a drop) when full."""
        queue = self._queue
        depth = len(queue)
        if depth >= self.capacity:
            self.dropped += 1
            return False
        queue.append(item)
        if depth >= self.max_depth:
            self.max_depth = depth + 1
        return True

    def pop(self) -> Optional[T]:
        """Remove and return the head entry, or None when empty."""
        return self._queue.popleft() if self._queue else None

    def peek(self) -> Optional[T]:
        """The head entry without removing it."""
        return self._queue[0] if self._queue else None


class QueueStats:
    """Counters exposed by every queue (readable like hardware registers).

    The counters themselves live as plain attributes on the queue — the
    per-packet enqueue/dequeue path increments one attribute instead of
    going through an extra indirection — and this view exposes them
    under the stable ``queue.stats.name`` API."""

    __slots__ = ("_q",)

    def __init__(self, queue: "DropTailQueue") -> None:
        self._q = queue

    enqueued_packets = property(lambda s: s._q.enqueued_packets)
    enqueued_bytes = property(lambda s: s._q.enqueued_bytes)
    dequeued_packets = property(lambda s: s._q.dequeued_packets)
    dequeued_bytes = property(lambda s: s._q.dequeued_bytes)
    dropped_packets = property(lambda s: s._q.dropped_packets)
    dropped_bytes = property(lambda s: s._q.dropped_bytes)
    ecn_marked_packets = property(lambda s: s._q.ecn_marked_packets)
    max_backlog_bytes = property(lambda s: s._q.max_backlog_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(
            f"{name}={getattr(self, name)}"
            for name in (
                "enqueued_packets", "enqueued_bytes", "dequeued_packets",
                "dequeued_bytes", "dropped_packets", "dropped_bytes",
                "ecn_marked_packets", "max_backlog_bytes",
            )
        )
        return f"QueueStats({fields})"


class _PyDropTailQueue:
    """FIFO with a byte-capacity bound; arrivals beyond capacity are dropped."""

    __slots__ = (
        "capacity_bytes", "_queue", "backlog_bytes",
        "enqueued_packets", "enqueued_bytes",
        "dequeued_packets", "dequeued_bytes",
        "dropped_packets", "dropped_bytes",
        "ecn_marked_packets", "max_backlog_bytes",
        "stats", "ecn_threshold_bytes", "on_backlog_change",
        "_flight", "flight_label",
    )

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        #: Optional :class:`repro.obs.flight.FlightRecorder` (set by
        #: ``flight.attach``) and its human label; an unattached queue
        #: pays only the rare-branch ``is not None`` checks (same
        #: contract as ``on_backlog_change``).
        self._flight = None
        self.flight_label = ""
        self.capacity_bytes = capacity_bytes
        self._queue: deque[Packet] = deque()
        self.backlog_bytes = 0
        self.enqueued_packets = 0
        self.enqueued_bytes = 0
        self.dequeued_packets = 0
        self.dequeued_bytes = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0
        self.ecn_marked_packets = 0
        self.max_backlog_bytes = 0
        self.stats = QueueStats(self)
        #: CE-mark threshold; ``None`` disables marking.  Kept on the
        #: base class so ``enqueue`` tests one attribute instead of
        #: dispatching to a subclass hook per packet.
        self.ecn_threshold_bytes: Optional[int] = None
        #: Optional observer called with the new backlog after every
        #: enqueue/dequeue (used by the PFC controller).
        self.on_backlog_change = None

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def empty(self) -> bool:
        return not self._queue

    def enqueue(self, packet: Packet, through: bool = False) -> bool:
        """Append ``packet``; returns False (and counts a drop) when full.

        This is the one admission routine -- capacity drop, CE mark,
        enqueue counters, ``max_backlog_bytes``, flight notes and
        ``on_backlog_change`` -- for both ways into the queue.
        ``through=True`` is an idle port's cut-through (see
        ``Port.send``): the packet leaves at once, counted as
        :meth:`dequeue` would count it, and the FIFO never holds it."""
        size = packet.size_bytes
        backlog = self.backlog_bytes + size
        if backlog > self.capacity_bytes:
            self.dropped_packets += 1
            self.dropped_bytes += size
            if self._flight is not None:
                self._flight.note(
                    "queue", "drop",
                    queue=self.flight_label,
                    size_bytes=size,
                    backlog_bytes=self.backlog_bytes,
                    flow=packet.flow_id,
                )
            return False
        if not through:
            self._queue.append(packet)
        self.backlog_bytes = backlog
        threshold = self.ecn_threshold_bytes
        if threshold is not None and backlog >= threshold and packet.ecn == ECT:
            # Only an ECT -> CE transition marks (and counts).
            packet.ecn = CE
            self.ecn_marked_packets += 1
            if self._flight is not None:
                self._flight.note(
                    "queue", "ecn_mark",
                    queue=self.flight_label,
                    backlog_bytes=backlog,
                    flow=packet.flow_id,
                )
        self.enqueued_packets += 1
        self.enqueued_bytes += size
        if backlog > self.max_backlog_bytes:
            self.max_backlog_bytes = backlog
        observer = self.on_backlog_change
        if observer is not None:
            observer(backlog)
        if through:
            backlog -= size
            self.backlog_bytes = backlog
            self.dequeued_packets += 1
            self.dequeued_bytes += size
            if observer is not None:
                observer(backlog)
        return True

    def dequeue(self) -> Optional[Packet]:
        if not self._queue:
            return None
        packet = self._queue.popleft()
        backlog = self.backlog_bytes - packet.size_bytes
        self.backlog_bytes = backlog
        self.dequeued_packets += 1
        self.dequeued_bytes += packet.size_bytes
        if self.on_backlog_change is not None:
            self.on_backlog_change(backlog)
        return packet


if _C is not None:
    class DropTailQueue(_C.CQueue):
        """FIFO with a byte-capacity bound; arrivals beyond capacity are
        dropped.

        Compiled variant: the ring buffer, counters, ECN compare, and
        the rare-path hooks all live in the C extension's ``CQueue``
        with semantics identical to :class:`_PyDropTailQueue` (which is
        the class you get when the extension isn't built)."""

        __slots__ = ()

        def __init__(self, capacity_bytes: int) -> None:
            if capacity_bytes <= 0:
                raise ValueError(
                    f"capacity must be positive, got {capacity_bytes}"
                )
            _C.CQueue.__init__(self, capacity_bytes)
            self.stats = QueueStats(self)
else:  # pragma: no cover - exercised on builds without the extension
    DropTailQueue = _PyDropTailQueue


class EcnQueue(DropTailQueue):
    """Drop-tail queue that CE-marks arrivals when the backlog is >= K.

    Marking itself lives inline in :meth:`DropTailQueue.enqueue` (gated
    on ``ecn_threshold_bytes``); this subclass only validates and sets
    the threshold."""

    __slots__ = ()

    def __init__(self, capacity_bytes: int, ecn_threshold_bytes: int) -> None:
        super().__init__(capacity_bytes)
        if not 0 < ecn_threshold_bytes <= capacity_bytes:
            raise ValueError(
                "ecn_threshold_bytes must be in (0, capacity_bytes], got "
                f"{ecn_threshold_bytes} with capacity {capacity_bytes}"
            )
        self.ecn_threshold_bytes = ecn_threshold_bytes
