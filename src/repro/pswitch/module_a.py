"""Module A: receiver logic (paper Section 4.1, steps 3-4).

Processes DATA packets arriving from the tested network and produces 64 B
ACK packets by truncation.  Two receiver behaviours are supported:

* **TCP mode** — cumulative ACKs with a bounded out-of-order buffer.
  (Plain cumulative ACKs need only one PSN register per flow and fit the
  switch; the reorder buffer corresponds to the paper's dashed Figure 2
  path where complex receiver logic runs on the FPGA.)  Out-of-order
  arrivals trigger duplicate ACKs, which window algorithms count.
* **RoCE mode** — go-back-N: in-order packets are ACKed, out-of-order
  packets are dropped and NACKed (once per gap), and CE-marked packets
  additionally trigger CNPs, rate-limited per flow (DCQCN's notification
  point).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.net.packet import Packet
from repro.pswitch.packets import make_ack, make_cnp
from repro.units import MICROSECOND


class ReceiverMode(enum.Enum):
    TCP = "tcp"
    ROCE = "roce"


@dataclass(slots=True)
class ReceiverFlowState:
    """Per-flow receiver registers."""

    expected_psn: int = 0
    #: Buffered out-of-order PSNs (TCP mode only); created on the first
    #: out-of-order arrival, since most flows never reorder.
    ooo: Optional[set[int]] = None
    #: Last CNP emission time (RoCE mode), ps.
    last_cnp_ps: int = -(1 << 62)
    #: Gap already NACKed (avoid NACK storms while the hole persists).
    nacked_expected: int = -1
    received_packets: int = 0
    received_bytes: int = 0


class ReceiverLogic:
    """Module A: DATA in, ACK/NACK/CNP out."""

    def __init__(
        self,
        mode: ReceiverMode = ReceiverMode.TCP,
        *,
        ooo_capacity: int = 4096,
        cnp_interval_ps: int = 50 * MICROSECOND,
    ) -> None:
        self.mode = mode
        self.ooo_capacity = ooo_capacity
        self.cnp_interval_ps = cnp_interval_ps
        self.flows: dict[int, ReceiverFlowState] = {}
        self.data_received = 0
        self.acks_generated = 0
        self.nacks_generated = 0
        self.cnps_generated = 0
        self.ooo_dropped = 0

    def flow_state(self, flow_id: int) -> ReceiverFlowState:
        state = self.flows.get(flow_id)
        if state is None:
            state = ReceiverFlowState()
            self.flows[flow_id] = state
        return state

    def forget_flow(self, flow_id: int) -> None:
        """Release receiver registers for a completed flow."""
        self.flows.pop(flow_id, None)

    def on_data(self, data: Packet, now_ps: int) -> list[Packet]:
        """Process one DATA packet; returns the response packets."""
        self.data_received += 1
        state = self.flow_state(data.flow_id)
        state.received_packets += 1
        state.received_bytes += data.size_bytes
        if self.mode is ReceiverMode.TCP:
            return self._on_data_tcp(data, state, now_ps)
        return self._on_data_roce(data, state, now_ps)

    # -- TCP: cumulative ACK + reorder buffer ---------------------------------

    def _on_data_tcp(
        self, data: Packet, state: ReceiverFlowState, now_ps: int
    ) -> list[Packet]:
        if data.psn == state.expected_psn:
            state.expected_psn += 1
            while state.ooo and state.expected_psn in state.ooo:
                state.ooo.discard(state.expected_psn)
                state.expected_psn += 1
            state.nacked_expected = -1
        elif data.psn > state.expected_psn:
            if state.ooo is None:
                state.ooo = set()
            if len(state.ooo) < self.ooo_capacity:
                state.ooo.add(data.psn)
            else:
                self.ooo_dropped += 1
        # psn < expected: a retransmitted duplicate — re-ACK cumulatively.
        ack = make_ack(data, state.expected_psn, created_ps=now_ps)
        self.acks_generated += 1
        return [ack]

    # -- RoCE: go-back-N + CNP -------------------------------------------------

    def _on_data_roce(
        self, data: Packet, state: ReceiverFlowState, now_ps: int
    ) -> list[Packet]:
        responses: list[Packet] = []
        if data.ce_marked and now_ps - state.last_cnp_ps >= self.cnp_interval_ps:
            state.last_cnp_ps = now_ps
            responses.append(make_cnp(data, created_ps=now_ps))
            self.cnps_generated += 1
        if data.psn == state.expected_psn:
            state.expected_psn += 1
            state.nacked_expected = -1
            responses.append(make_ack(data, state.expected_psn, created_ps=now_ps))
            self.acks_generated += 1
        elif data.psn > state.expected_psn:
            self.ooo_dropped += 1
            if state.nacked_expected != state.expected_psn:
                state.nacked_expected = state.expected_psn
                responses.append(
                    make_ack(data, state.expected_psn, nack=True, created_ps=now_ps)
                )
                self.nacks_generated += 1
        else:
            # Duplicate of an already-delivered packet: re-ACK.
            responses.append(make_ack(data, state.expected_psn, created_ps=now_ps))
            self.acks_generated += 1
        return responses
