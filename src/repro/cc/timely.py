"""TIMELY (RTT-gradient rate control) as a Marlin CC module.

TIMELY (Mittal et al., SIGCOMM '15) is the paper's canonical example of a
delay-based algorithm that benefits from the FPGA's low, stable processing
latency (Section 2.1, reason 2 for choosing an FPGA over a host) and whose
EWMA arithmetic suits the Slow Path (Section 5.4 mentions Timely
alongside DCTCP).  The RTT-gradient EWMA here runs on the fast path with
the probed RTT (``prb-rtt``) that Table 3 exposes.

Rate update per completion event with measured RTT:

* ``rtt < t_low``    — additive increase (no congestion);
* ``rtt > t_high``   — multiplicative decrease proportional to overshoot;
* otherwise, gradient-based: increase when the normalized gradient is
  non-positive (HAI after several consecutive steps), decrease
  proportionally to a positive gradient.
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
)
from repro.errors import ConfigError
from repro.units import GBPS, MBPS, MICROSECOND


@dataclass
class TimelyState:
    """Customized variable block for TIMELY."""

    prev_rtt_ps: int = -1
    #: EWMA of RTT differences, picoseconds.
    rtt_diff_ps: float = 0.0
    #: Consecutive gradient-increase steps (enables HAI).
    increase_streak: int = 0


class Timely(CCAlgorithm):
    """TIMELY reaction logic."""

    name = "timely"
    mode = CCMode.RATE
    # Critical chain: the gradient EWMA and proportional decrease — two
    # multiplications and one division by min-RTT (16-bit after scaling).
    ops = OpCounts(add_sub=5, compare=4, mul32=2, div16=1)
    lines_of_code = 140

    params = {
        "t_low_ps": Param(int, 10 * MICROSECOND, "(0, inf)"),
        "t_high_ps": Param(int, 100 * MICROSECOND, "(0, inf)"),
        "min_rtt_ps": Param(int, 6 * MICROSECOND, "(0, inf)"),
        "ewma_alpha": Param(float, 0.125, "(0, 1]"),
        "beta": Param(float, 0.8, "(0, 1]"),
        "delta_bps": Param(float, 1 * GBPS, "(0, inf)"),
        "hai_threshold": Param(int, 5, "[1, inf)"),
        "min_rate_floor_bps": Param(float, 100 * MBPS, "(0, inf)"),
    }
    #: Line rate of the port, learned from the first flow's initial rate.
    _link_rate_bps: float = 100 * GBPS

    def __init__(self, **params: Any) -> None:
        super().__init__(**params)
        if self.t_low_ps >= self.t_high_ps:
            raise ConfigError(
                f"'timely' rejects parameters {params!r}: "
                f"t_low_ps={self.t_low_ps} must be below t_high_ps={self.t_high_ps}"
            )

    def initial_cust(self) -> TimelyState:
        return TimelyState()

    def initial_cwnd_or_rate(self, link_rate_bps: int) -> float:
        self._link_rate_bps = float(link_rate_bps)
        return float(link_rate_bps) / 10.0

    def min_rate_bps(self, link_rate_bps: int) -> float:
        return self.min_rate_floor_bps

    def on_event(
        self, intr: IntrinsicInput, cust: TimelyState, slow: Any
    ) -> IntrinsicOutput:
        if intr.evt_type != EventType.RX or intr.prb_rtt < 0:
            if intr.evt_type == EventType.RX and intr.flags.nack:
                return IntrinsicOutput(rewind_to_una=True)
            return IntrinsicOutput()

        rtt = intr.prb_rtt
        rate = intr.cwnd_or_rate
        if cust.prev_rtt_ps >= 0:
            new_diff = rtt - cust.prev_rtt_ps
            cust.rtt_diff_ps = (
                (1.0 - self.ewma_alpha) * cust.rtt_diff_ps + self.ewma_alpha * new_diff
            )
        cust.prev_rtt_ps = rtt
        gradient = cust.rtt_diff_ps / self.min_rtt_ps

        if rtt < self.t_low_ps:
            cust.increase_streak = 0
            rate += self.delta_bps
        elif rtt > self.t_high_ps:
            cust.increase_streak = 0
            rate *= 1.0 - self.beta * (1.0 - self.t_high_ps / rtt)
        elif gradient <= 0:
            cust.increase_streak += 1
            n = 5 if cust.increase_streak >= self.hai_threshold else 1
            rate += n * self.delta_bps
        else:
            cust.increase_streak = 0
            rate *= 1.0 - self.beta * min(gradient, 1.0)

        rate = min(max(rate, self.min_rate_floor_bps), self._link_rate_bps)
        return IntrinsicOutput(cwnd_or_rate=rate)
