"""Devices and ports.

A :class:`Device` is anything with ports: a switch, a host, Marlin's
programmable switch, or the FPGA NIC.  A :class:`Port` owns an output queue
and a transmitter that serializes packets onto the attached link at the
port rate.  Reception is pushed to ``Device.receive(packet, port)`` once
the link's propagation delay and the device's ``rx_latency_ps`` have
elapsed.
"""

from __future__ import annotations

import itertools
from heapq import heappush as _heappush
from typing import Optional, TYPE_CHECKING

from repro.errors import ConfigError
from repro.net import datapath
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.sim.backend import CENGINE as _C
from repro.sim.engine import Simulator
from repro.units import RATE_100G

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.link import Link

_device_uid = itertools.count()


class _PyPort:
    """One device port: an output queue plus a rate-limited transmitter."""

    __slots__ = (
        "device", "index", "rate_bps", "queue", "link",
        "_busy", "_busy_until_ps", "paused", "pause_events",
        "tx_packets", "tx_bytes",
        "sim", "_heap", "_ser_ps", "_peer", "_peer_receive", "_to_peer_ps",
    )

    def __init__(
        self,
        device: "Device",
        index: int,
        *,
        rate_bps: int = RATE_100G,
        queue: Optional[DropTailQueue] = None,
    ) -> None:
        self.device = device
        self.index = index
        self.rate_bps = rate_bps
        self.queue = queue if queue is not None else DropTailQueue(capacity_bytes=2**20)
        self.link: Optional["Link"] = None
        #: True while a ``_transmit_next`` wakeup is scheduled (the
        #: transmit chain is live).  When the queue drains, the chain
        #: parks instead of scheduling an empty wakeup, and
        #: ``_busy_until_ps`` remembers until when the wire is occupied.
        self._busy = False
        self._busy_until_ps = 0
        #: PFC: while paused, the transmitter holds frames in its queue.
        self.paused = False
        self.pause_events = 0
        self.tx_packets = 0
        self.tx_bytes = 0
        #: Hot-path aliases: the simulator and its heap (ports never
        #: migrate between devices; the heap list is never replaced) and
        #: the shared per-rate serialization table (see
        #: :mod:`repro.net.datapath`).
        self.sim: Simulator = device.sim
        self._heap = device.sim._heap
        self._ser_ps = datapath.ser_table(rate_bps)
        #: The far end, its device's ``receive`` and the departure-to-
        #: ``receive`` offset; set by :class:`~repro.net.link.Link`.
        self._peer: Optional["Port"] = None
        self._peer_receive = None
        self._to_peer_ps = 0

    @property
    def name(self) -> str:
        return f"{self.device.name}.p{self.index}"

    # -- transmit path ------------------------------------------------------

    def send(self, packet: Packet) -> bool:
        """Enqueue ``packet`` for transmission; returns False if dropped.

        An idle port (no live chain, not paused, empty queue, wire free)
        cuts through: the frame goes on the wire here, with the queue's
        admission and the event :meth:`_transmit_next` would have
        pushed."""
        if self.link is None:
            raise ConfigError(f"port {self.name} is not connected to a link")
        queue = self.queue
        sim = self.sim
        now = sim.now
        if self._busy or self.paused or queue._queue or now < self._busy_until_ps:
            accepted = queue.enqueue(packet)
            if accepted and not self._busy and not self.paused:
                if now >= self._busy_until_ps:
                    self._transmit_next()
                else:
                    # The wire is still draining the previous frame (the
                    # chain parked on an empty queue): wake exactly when
                    # it frees instead of having polled at every frame end.
                    self._busy = True
                    sim.at(self._busy_until_ps, self._transmit_next)
            return accepted
        if not queue.enqueue(packet, True):
            return False
        size = packet.size_bytes
        depart_ps = now + self._ser_ps[size]
        self.tx_packets += 1
        self.tx_bytes += size
        self._busy_until_ps = depart_ps
        seq = sim._seq
        sim._seq = seq + 1
        _heappush(self._heap, (
            depart_ps + self._to_peer_ps, seq, self._peer_receive, (packet, self._peer)
        ))
        return True

    def pause(self) -> None:
        """PFC XOFF: stop dequeuing new frames (the one on the wire
        finishes).  Frames accumulate in the output queue meanwhile."""
        if not self.paused:
            self.paused = True
            self.pause_events += 1

    def resume(self) -> None:
        """PFC XON: resume transmission."""
        if not self.paused:
            return
        self.paused = False
        if not self._busy and not self.queue.empty:
            if self.sim.now >= self._busy_until_ps:
                self._transmit_next()
            else:
                self._busy = True
                self.sim.at(self._busy_until_ps, self._transmit_next)

    def _transmit_next(self) -> None:
        """Serialize the queue's head and push its arrival at the far
        end (``Device.receive`` at depart + propagation + the peer's
        ingress latency), then the chain's next wakeup if frames wait."""
        if self.paused:
            self._busy = False
            return
        queue = self.queue
        packet = queue.dequeue()
        if packet is None:
            self._busy = False
            return
        size = packet.size_bytes
        sim = self.sim
        depart_ps = sim.now + self._ser_ps[size]
        self.tx_packets += 1
        self.tx_bytes += size
        self._busy_until_ps = depart_ps
        heap = self._heap
        seq = sim._seq
        _heappush(heap, (
            depart_ps + self._to_peer_ps, seq, self._peer_receive, (packet, self._peer)
        ))
        if queue._queue:
            # More frames waiting: keep the transmit chain hot.
            self._busy = True
            _heappush(heap, (depart_ps, seq + 1, self._transmit_next, ()))
            sim._seq = seq + 2
        else:
            # Queue drained: park instead of scheduling a wakeup that
            # would usually find nothing to do.  ``send``/``resume``
            # restart the chain no earlier than ``_busy_until_ps``.
            self._busy = False
            sim._seq = seq + 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Port {self.name} rate={self.rate_bps}>"


if _C is not None:
    class Port(_C.CPort):
        """One device port: an output queue plus a rate-limited
        transmitter.

        Compiled variant: send/transmit and the PFC park logic live in
        the C extension's ``CPort``, scheduling follow-ups by pushing
        heap entries directly in C through the simulator's ``SimRef``
        (``sim._cref``).  Event streams and counters are
        bit-identical to :class:`_PyPort` (the class used when the
        extension isn't built)."""

        __slots__ = ()

        def __init__(
            self,
            device: "Device",
            index: int,
            *,
            rate_bps: int = RATE_100G,
            queue: Optional[DropTailQueue] = None,
        ) -> None:
            if queue is None:
                queue = DropTailQueue(capacity_bytes=2**20)
            sim = device.sim
            _C.CPort.__init__(
                self, device, index, rate_bps, queue, sim,
                datapath.ser_table(rate_bps), sim._cref,
            )

        @property
        def name(self) -> str:
            return f"{self.device.name}.p{self.index}"

        def __repr__(self) -> str:  # pragma: no cover - debugging aid
            return f"<Port {self.name} rate={self.rate_bps}>"
else:  # pragma: no cover - exercised on builds without the extension
    Port = _PyPort


class Device:
    """Base class for anything with ports.  Subclasses implement
    :meth:`receive` to process arriving packets."""

    #: Fixed ingress latency before :meth:`receive` sees a packet.  A
    #: :class:`~repro.net.link.Link` adds it to the arrival time, so it
    #: costs no event of its own; it must be set before links attach.
    rx_latency_ps: int = 0

    def __init__(self, sim: Simulator, name: Optional[str] = None) -> None:
        self.sim = sim
        self.uid = next(_device_uid)
        self.name = name if name is not None else f"dev{self.uid}"
        self.ports: list[Port] = []

    def add_port(
        self,
        *,
        rate_bps: int = RATE_100G,
        queue: Optional[DropTailQueue] = None,
    ) -> Port:
        port = Port(self, len(self.ports), rate_bps=rate_bps, queue=queue)
        self.ports.append(port)
        return port

    def receive(self, packet: Packet, port: Port) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} ports={len(self.ports)}>"
