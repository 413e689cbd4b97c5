"""HPCC (High Precision Congestion Control) as a Marlin CC module.

HPCC (Li et al., SIGCOMM '19) is the canonical INT-based algorithm the
paper's introduction motivates: switches attach per-hop telemetry
(queue length, cumulative TX bytes, timestamp, capacity) to packets and
the sender computes each link's *inflight utilization*

    u_i = qlen_i / (B_i * T)  +  txRate_i / B_i

driving the window multiplicatively toward ``eta`` (95%) utilization,
with an additive term for fairness and a reference window ``Wc``
updated once per RTT.

Testing HPCC is exactly the scenario Marlin's R2 targets: the module
consumes the INT records that the switch stamps and the ACK/INFO path
echoes (enable with ``TestConfig(int_enabled=True)``).

Hardware-cost caveat (Section 8 analysis): the fast path performs two
32-bit divisions, so it needs ~55 cycles — more than the 27-cycle
per-packet budget at MTU 1024.  The frequency-control validator flags
this and prescribes the paper's remedy: reduce per-flow PPS and use
multiple flows per port (the integration tests run HPCC at 4 flows per
port, which spaces same-flow feedback safely).
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
from repro.units import BITS_PER_BYTE, MICROSECOND, SECOND


@dataclass
class HpccState:
    """Customized variable block for HPCC."""

    #: EWMA of the max-link inflight utilization.
    u: float = 0.0
    #: Reference window (packets), updated once per RTT.
    wc: float = 0.0
    inc_stage: int = 0
    #: ACKs up to this PSN belong to the current update round.
    last_update_seq: int = 0
    last_ack: int = 0
    #: Previous INT snapshot, per hop: (tstamp_ps, tx_bytes, queue_bytes).
    prev_int: tuple = ()


class Hpcc(CCAlgorithm):
    """HPCC sender logic over Marlin's INT path."""

    name = "hpcc"
    mode = CCMode.WINDOW
    # Fast path: per-link txRate and utilization divisions dominate.
    ops = OpCounts(add_sub=6, compare=4, mul32=2, div32=2)
    lines_of_code = 230

    params = {
        "eta": Param(float, 0.95, "(0, 1]"),
        "max_inc_stage": Param(int, 5, "[0, inf)"),
        "w_ai_packets": Param(float, 0.5, "(0, inf)"),
        "base_rtt_ps": Param(int, 6 * MICROSECOND, "(0, inf)"),
        "mss_bytes": Param(int, 1024, "(0, inf)"),
        "initial_window": Param(float, 64.0, "[1, inf)"),
        "rto_ps": Param(int, 400 * MICROSECOND, "(0, inf)"),
    }

    # -- state --------------------------------------------------------------

    def initial_cust(self) -> HpccState:
        return HpccState(wc=self.initial_window)

    def initial_cwnd_or_rate(self, link_rate_bps: int) -> float:
        return self.initial_window

    def on_flow_start(self, cust: Any, slow: Any, now_ps: int) -> IntrinsicOutput:
        return IntrinsicOutput(rst_timers=[(TIMER_RTO, self.rto_ps)])

    # -- fast path ----------------------------------------------------------

    def on_event(self, intr: IntrinsicInput, cust: HpccState, slow: Any) -> IntrinsicOutput:
        if intr.evt_type == EventType.TIMEOUT and intr.timer_id == TIMER_RTO:
            cust.u = 1.0
            cust.inc_stage = 0
            return IntrinsicOutput(
                cwnd_or_rate=1.0,
                rewind_to_una=True,
                rst_timers=[(TIMER_RTO, self.rto_ps)],
            )
        if intr.evt_type != EventType.RX:
            return IntrinsicOutput()
        if intr.flags.nack:
            return IntrinsicOutput(rewind_to_una=True)
        if intr.psn <= cust.last_ack:
            return IntrinsicOutput()

        update_wc = intr.psn > cust.last_update_seq
        cust.last_ack = intr.psn
        if intr.int_path:
            self._measure_inflight(intr.int_path, cust)
        window = self._compute_window(cust, update_wc)
        if update_wc:
            cust.last_update_seq = intr.nxt
        return IntrinsicOutput(
            cwnd_or_rate=window, rst_timers=[(TIMER_RTO, self.rto_ps)]
        )

    # -- HPCC internals -----------------------------------------------------

    def _measure_inflight(self, path: tuple, cust: HpccState) -> None:
        """Update the utilization EWMA from consecutive INT snapshots."""
        t_window = self.base_rtt_ps
        u_max = 0.0
        tau_ps = t_window
        prev = cust.prev_int
        for index, record in enumerate(path):
            if index < len(prev):
                prev_ts, prev_tx, prev_qlen = prev[index]
                dt = record.tstamp_ps - prev_ts
                if dt <= 0:
                    continue
                tx_rate_bps = (
                    (record.tx_bytes - prev_tx) * BITS_PER_BYTE * SECOND / dt
                )
                qlen = min(record.queue_bytes, prev_qlen)
                u_link = (
                    qlen * BITS_PER_BYTE / (record.link_rate_bps * t_window / SECOND)
                    + tx_rate_bps / record.link_rate_bps
                )
                if u_link > u_max:
                    u_max = u_link
                    tau_ps = dt
        cust.prev_int = tuple(
            (r.tstamp_ps, r.tx_bytes, r.queue_bytes) for r in path
        )
        if u_max <= 0.0:
            return
        tau = min(tau_ps, t_window)
        weight = tau / t_window
        cust.u = (1.0 - weight) * cust.u + weight * u_max

    def _compute_window(self, cust: HpccState, update_wc: bool) -> float:
        if cust.u >= self.eta or cust.inc_stage >= self.max_inc_stage:
            window = cust.wc / max(cust.u / self.eta, 1e-3) + self.w_ai_packets
            if update_wc:
                cust.inc_stage = 0
                cust.wc = window
        else:
            window = cust.wc + self.w_ai_packets
            if update_wc:
                cust.inc_stage += 1
                cust.wc = window
        return max(window, 1.0)
