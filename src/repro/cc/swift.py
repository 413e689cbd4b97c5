"""Swift (delay-based datacenter CC) as a Marlin CC module.

Swift (Kumar et al., SIGCOMM '20, cited by the paper) drives the
congestion window from the measured RTT against a *target delay* with
flow-aware scaling: below target, additive increase; above target, a
multiplicative decrease proportional to the overshoot, applied at most
once per RTT.  The flow-scaling term raises the target for small
windows (fs_alpha / sqrt(cwnd)), letting many small flows coexist.

Delay-based algorithms are the paper's second argument for the FPGA
(Section 2.1): host stacks add latency jitter that corrupts exactly the
RTT signal Swift consumes, while the FPGA's fixed-cycle path keeps the
``prb-rtt`` field clean.
"""

from __future__ import annotations

import math
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


@dataclass
class SwiftState:
    """Customized variable block for Swift."""

    last_ack: int = 0
    #: Only one multiplicative decrease per RTT.
    decrease_seq: int = -1


class Swift(CCAlgorithm):
    """Swift sender logic on the probed-RTT path."""

    name = "swift"
    mode = CCMode.WINDOW
    # Fast path: target computation (one sqrt via LUT-friendly reciprocal
    # iteration, priced as a 16-bit divide), compares, adds.
    ops = OpCounts(add_sub=5, compare=4, mul32=2, div16=1)
    lines_of_code = 160

    params = {
        "base_target_ps": Param(int, 12 * MICROSECOND, "(0, inf)"),
        "fs_alpha_ps": Param(float, 30.0 * MICROSECOND, "[0, inf)"),
        "ai": Param(float, 1.0, "(0, inf)"),
        "beta": Param(float, 0.8, "(0, 1]"),
        "max_mdf": Param(float, 0.5, "(0, 1)"),
        "initial_cwnd": Param(float, 16.0, "[1, inf)"),
        "max_cwnd": Param(float, 1 << 20, "[1, inf)"),
        "rto_ps": Param(int, 400 * MICROSECOND, "(0, inf)"),
    }

    def initial_cust(self) -> SwiftState:
        return SwiftState()

    def initial_cwnd_or_rate(self, link_rate_bps: int) -> float:
        return self.initial_cwnd

    def on_flow_start(self, cust: Any, slow: Any, now_ps: int) -> IntrinsicOutput:
        return IntrinsicOutput(rst_timers=[(TIMER_RTO, self.rto_ps)])

    def target_delay_ps(self, cwnd: float) -> float:
        """Base target plus the flow-scaling term (higher for small cwnd)."""
        return self.base_target_ps + self.fs_alpha_ps / math.sqrt(max(cwnd, 1.0))

    def on_event(self, intr: IntrinsicInput, cust: SwiftState, slow: Any) -> IntrinsicOutput:
        if intr.evt_type == EventType.TIMEOUT and intr.timer_id == TIMER_RTO:
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
        acked = intr.psn - cust.last_ack
        cust.last_ack = intr.psn
        out = IntrinsicOutput(rst_timers=[(TIMER_RTO, self.rto_ps)])
        if intr.prb_rtt < 0:
            return out

        cwnd = intr.cwnd_or_rate
        target = self.target_delay_ps(cwnd)
        if intr.prb_rtt < target:
            cwnd = min(cwnd + self.ai * acked / max(cwnd, 1.0), self.max_cwnd)
        elif intr.psn > cust.decrease_seq:
            overshoot = (intr.prb_rtt - target) / intr.prb_rtt
            factor = max(1.0 - self.beta * overshoot, 1.0 - self.max_mdf)
            cwnd = max(cwnd * factor, 1.0)
            cust.decrease_seq = intr.nxt
        out.cwnd_or_rate = cwnd
        return out
