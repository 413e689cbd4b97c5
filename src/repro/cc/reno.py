"""Window-based TCP Reno (NewReno-style recovery), as a Marlin CC module.

This is the simplest of the three algorithms the paper implements on the
FPGA (Table 4: 156 LoC, 2 clock cycles).  The fast path is pure adds,
compares, and shifts, so it fits the 2-cycle budget; there is no slow path.

State machine (matching the Figure 5 narrative):

* slow start — ``cwnd`` grows by one packet per new ACK until ``ssthresh``;
* congestion avoidance — ``cwnd`` grows by ``1/cwnd`` per new ACK;
* three duplicate ACKs — fast retransmit of ``una`` and fast recovery:
  ``ssthresh = cwnd / 2``, ``cwnd = ssthresh + 3``, window inflation per
  extra dupack, deflation to ``ssthresh`` on the ACK that covers the
  recovery point (NewReno partial-ACK retransmissions in between);
* retransmission timeout — ``ssthresh = cwnd / 2``, ``cwnd = 1``,
  go-back-N from ``una``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.cc.base import (
    CCAlgorithm,
    CCMode,
    EventType,
    IntrinsicInput,
    IntrinsicOutput,
    OpCounts,
    Param,
    TIMER_RTO,
)
from repro.units import MICROSECOND

#: Duplicate-ACK threshold for fast retransmit.
DUP_ACK_THRESHOLD = 3


@dataclass
class RenoState:
    """Customized variable block for Reno (fits the 64 B budget:
    4 x 32-bit + 2 x 8-bit fields)."""

    ssthresh: float
    dup_acks: int = 0
    in_recovery: bool = False
    #: PSN that must be cumulatively ACKed to exit fast recovery.
    recovery_end: int = 0
    #: Highest cumulative ACK seen (detects duplicates).
    last_ack: int = 0
    #: Exponential RTO backoff multiplier.
    rto_backoff: int = 1


class Reno(CCAlgorithm):
    """TCP Reno with NewReno partial-ACK handling."""

    name = "reno"
    mode = CCMode.WINDOW
    # Fast path critical chain: compares to classify the ACK, one add to
    # grow the window, shifts for the halving.
    ops = OpCounts(add_sub=3, compare=4, shift=1)
    lines_of_code = 156

    params = {
        "initial_cwnd": Param(float, 1.0, "[1, inf)"),
        "initial_ssthresh": Param(float, 64.0, "(0, inf)"),
        "rto_ps": Param(int, 200 * MICROSECOND, "(0, inf)"),
        "max_cwnd": Param(float, 1 << 20, "[1, inf)"),
    }

    # -- state --------------------------------------------------------------

    def initial_cust(self) -> RenoState:
        return RenoState(ssthresh=self.initial_ssthresh)

    def initial_cwnd_or_rate(self, link_rate_bps: int) -> float:
        return self.initial_cwnd

    def on_flow_start(self, cust: Any, slow: Any, now_ps: int) -> IntrinsicOutput:
        return IntrinsicOutput(rst_timers=[(TIMER_RTO, self.rto_ps)])

    # -- fast path ----------------------------------------------------------

    def on_event(self, intr: IntrinsicInput, cust: RenoState, slow: Any) -> IntrinsicOutput:
        if intr.evt_type == EventType.TIMEOUT and intr.timer_id == TIMER_RTO:
            return self._on_timeout(intr, cust)
        if intr.evt_type == EventType.RX:
            return self._on_ack(intr, cust)
        return IntrinsicOutput()

    def _on_ack(self, intr: IntrinsicInput, cust: RenoState) -> IntrinsicOutput:
        out = IntrinsicOutput()
        cwnd = intr.cwnd_or_rate
        if intr.psn > cust.last_ack:
            # New data acknowledged.
            acked = intr.psn - cust.last_ack
            cust.last_ack = intr.psn
            cust.dup_acks = 0
            cust.rto_backoff = 1
            if cust.in_recovery:
                if intr.psn >= cust.recovery_end:
                    # Full ACK: recovery complete, deflate to ssthresh.
                    cust.in_recovery = False
                    cwnd = cust.ssthresh
                else:
                    # Partial ACK: retransmit the next hole, keep cwnd.
                    out.rtx_psn = intr.psn
            else:
                cwnd = self._grow(cwnd, acked, cust)
            out.rst_timers.append((TIMER_RTO, self.rto_ps))
        elif intr.flags.nack or intr.psn == cust.last_ack:
            # Duplicate ACK.
            cust.dup_acks += 1
            if cust.dup_acks == DUP_ACK_THRESHOLD and not cust.in_recovery:
                cust.ssthresh = max(cwnd / 2.0, 2.0)
                cust.in_recovery = True
                cust.recovery_end = intr.nxt
                cwnd = cust.ssthresh + DUP_ACK_THRESHOLD
                out.rtx_psn = intr.una
            elif cust.in_recovery:
                # Window inflation: one packet left the network.
                cwnd = min(cwnd + 1.0, self.max_cwnd)
        out.cwnd_or_rate = cwnd
        return out

    def _grow(self, cwnd: float, acked: int, cust: RenoState) -> float:
        if cwnd < cust.ssthresh:
            # Slow start: exponential growth, capped at ssthresh boundary.
            cwnd = min(cwnd + acked, self.max_cwnd)
        else:
            # Congestion avoidance: ~1 packet per RTT.
            cwnd = min(cwnd + acked / cwnd, self.max_cwnd)
        return cwnd

    def _on_timeout(self, intr: IntrinsicInput, cust: RenoState) -> IntrinsicOutput:
        cust.ssthresh = max(intr.cwnd_or_rate / 2.0, 2.0)
        cust.dup_acks = 0
        cust.in_recovery = False
        cust.rto_backoff = min(cust.rto_backoff * 2, 64)
        return IntrinsicOutput(
            cwnd_or_rate=1.0,
            rewind_to_una=True,
            rst_timers=[(TIMER_RTO, self.rto_ps * cust.rto_backoff)],
        )
