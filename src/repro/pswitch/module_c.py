"""Module C: SCHE-driven DATA generation (paper Sections 4.1-4.2).

Each egress test port owns a register queue of DATA metadata.  A SCHE
packet arriving from the FPGA enqueues ``(flow, psn, addresses, ...)``
into the queue of the flow's designated port.  TEMP packets circulate at
line rate on a loopback port and are multicast to every test port; each
multicast copy attempts to dequeue from its port's queue — on success the
TEMP is rewritten into a DATA packet and transmitted, otherwise the
deparser discards it.

Simulating every TEMP copy would add millions of no-op events, so the
model applies the exact event-driven equivalence: a port with a non-empty
queue emits one DATA packet per TEMP arrival, and TEMP arrivals form a
fixed time grid with the DATA serialization interval as spacing.  The
grid (rather than a free-running pacer) preserves the real mechanism's
phase behaviour: a SCHE landing mid-interval waits for the next TEMP.

Queue overflow is the paper's *false packet loss*: the FPGA must pace
SCHE below the per-port DATA rate (Section 5.3) or metadata is lost here.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import RegisterQueueOverflow
from repro.net import int_telemetry
from repro.net.device import Port
from repro.net.packet import Packet
from repro.net.queue import Fifo
from repro.pswitch.packets import make_data
from repro.sim.engine import Simulator
from repro.units import serialization_time_ps


class DataGenerator:
    """Per-port register queues + TEMP-grid DATA emission.

    ``strict`` sets the overflow policy: ``True`` raises
    :class:`RegisterQueueOverflow`, ``False`` drops the SCHE and counts it
    (the hardware behaviour)."""

    def __init__(
        self,
        sim: Simulator,
        test_ports: list[Port],
        *,
        template_bytes: int,
        queue_capacity: int = 128,
        strict: bool = False,
        int_enabled: bool = False,
    ) -> None:
        if not test_ports:
            raise ValueError("DataGenerator needs at least one test port")
        self.sim = sim
        self.test_ports = test_ports
        self.template_bytes = template_bytes
        #: Generated DATA packets request in-band telemetry when set.
        self.int_enabled = int_enabled
        #: TEMP multicast spacing == DATA serialization interval.
        self.temp_interval_ps = serialization_time_ps(
            template_bytes, test_ports[0].rate_bps
        )
        self.strict = strict
        self.queues: list[Fifo[tuple]] = [Fifo(queue_capacity) for _ in test_ports]
        self._emit_pending = [False] * len(test_ports)
        #: Optional observer called as ``(port_index, data_packet)`` after
        #: each DATA emission (used by the measurement layer).
        self.on_generate: Optional[Callable[[int, Packet], None]] = None
        self.data_generated = 0
        self.sche_accepted = 0
        self.sche_dropped = 0
        #: Per-flow DATA packets generated (a control-plane readable register).
        self.flow_tx_packets: dict[int, int] = {}

    # -- SCHE ingress ---------------------------------------------------------

    def on_sche(self, sche: Packet) -> bool:
        """Enqueue SCHE metadata; returns False on register-queue overflow."""
        port_index = sche.meta["egress_port"]
        if not 0 <= port_index < len(self.test_ports):
            raise ValueError(f"SCHE targets nonexistent port {port_index}")
        entry = (
            sche.flow_id,
            sche.psn,
            sche.meta["src_addr"],
            sche.meta["dst_addr"],
            sche.meta["frame_bytes"],
            sche.meta["is_rtx"],
        )
        queue = self.queues[port_index]
        if not queue.push(entry):
            self.sche_dropped += 1
            if self.strict:
                raise RegisterQueueOverflow(
                    f"register queue overflow (capacity {queue.capacity}): "
                    "a scheduled DATA packet was silently lost"
                )
            return False
        self.sche_accepted += 1
        self._kick(port_index)
        return True

    # -- TEMP-grid emission -----------------------------------------------------

    def _next_opportunity(self, now_ps: int) -> int:
        """The next TEMP multicast arrival at or after ``now_ps``.

        TEMP packets cycle continuously, so opportunities lie on the grid
        ``k * temp_interval_ps``.
        """
        interval = self.temp_interval_ps
        return -(-now_ps // interval) * interval

    def _kick(self, port_index: int) -> None:
        if self._emit_pending[port_index] or self.queues[port_index].empty:
            return
        self._emit_pending[port_index] = True
        self.sim.at(self._next_opportunity(self.sim.now), self._emit, port_index)

    def _emit(self, port_index: int) -> None:
        self._emit_pending[port_index] = False
        queue = self.queues[port_index]
        entry = queue.pop()
        if entry is None:
            return
        now = self.sim.now
        flow_id, psn, src_addr, dst_addr, frame_bytes, is_rtx = entry
        data = make_data(
            flow_id,
            psn,
            src_addr=src_addr,
            dst_addr=dst_addr,
            frame_bytes=frame_bytes,
            tx_tstamp_ps=now,
            is_rtx=is_rtx,
            created_ps=now,
        )
        if self.int_enabled:
            int_telemetry.enable_int(data)
        self.test_ports[port_index].send(data)
        self.data_generated += 1
        self.flow_tx_packets[flow_id] = self.flow_tx_packets.get(flow_id, 0) + 1
        if self.on_generate is not None:
            self.on_generate(port_index, data)
        if not queue.empty:
            self._emit_pending[port_index] = True
            self.sim.at(now + self.temp_interval_ps, self._emit, port_index)
