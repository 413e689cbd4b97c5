"""Per-flow sender state held in the FPGA's BRAMs.

One :class:`FlowState` aggregates the three ownership domains of
Section 5.1: intrinsic transport state (``una``/``nxt``, owned by the
framework/scheduler), the CC module's 64 B customized block (``cust``),
and the slow-path block (``slow``).  It is the flow's only record on the
NIC: its RMW window, slow-path occupancy and timers are fields too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.sim.engine import EventHandle
from repro.units import SECOND, wire_bits

#: Timer slots per flow: ``TIMER_RTO``, ``TIMER_ALG_A``, ``TIMER_ALG_B``.
N_TIMERS = 3


@dataclass(slots=True)
class FlowState:
    """Sender-side state for one test flow."""

    flow_id: int
    #: Switch test port (and scheduler) this flow is pinned to.
    port_index: int
    src_addr: int
    dst_addr: int
    #: Flow length in packets; every DATA carries one PSN.
    size_packets: int
    frame_bytes: int
    #: Congestion window (packets) or rate (bps), per algorithm mode.
    cwnd_or_rate: float
    #: PSN of the next unacknowledged packet (Table 3 ``una``).
    una: int = 0
    #: PSN of the next packet to be sent (Table 3 ``nxt``).
    nxt: int = 0
    #: True while a scheduling event for this flow is in the scheduling
    #: FIFO (the Section 5.2 uniqueness invariant).
    scheduled: bool = False
    started: bool = False
    finished: bool = False
    start_ps: int = -1
    finish_ps: int = -1
    #: Rate-pacing: earliest time the next packet may be scheduled.
    next_send_ps: int = 0
    #: Bytes sent since the last BYTE_COUNTER event (DCQCN's B counter).
    counter_bytes: int = 0
    data_sent: int = 0
    rtx_sent: int = 0
    #: CC module customized variables (algorithm-defined dataclass).
    cust: Any = None
    #: Slow-path variables (algorithm-defined dataclass or None).
    slow: Any = None
    #: Precomputed pacing numerator: ``wire_bits(frame_bytes) * SECOND``,
    #: so the scheduler's per-emit gap is one division,
    #: ``pace_num / rate_bps`` (see repro.net.datapath for the scheme).
    pace_num: int = 0
    #: Completion time (ps) of the in-flight CC-module RMW (0: none yet).
    rmw_end_ps: int = 0
    #: Completion time (ps) of the last slow-path run (-1: none yet).
    slow_end_ps: int = -1
    #: Event Generator handles by timer id; ``None`` until the first arm.
    timers: Optional[list[Optional[EventHandle]]] = None

    def __post_init__(self) -> None:
        self.pace_num = wire_bits(self.frame_bytes) * SECOND

    @property
    def fct_ps(self) -> int:
        """Flow completion time, or -1 while incomplete."""
        if self.finish_ps < 0 or self.start_ps < 0:
            return -1
        return self.finish_ps - self.start_ps

    @property
    def complete(self) -> bool:
        return self.una >= self.size_packets

    def sendable_window(self) -> bool:
        """Window-mode eligibility: data left and window open."""
        return self.nxt < self.size_packets and self.nxt < self.una + max(
            int(self.cwnd_or_rate), 1
        )

    def sendable_rate(self) -> bool:
        """Rate-mode eligibility ignoring pacing time (data left)."""
        return self.nxt < self.size_packets
