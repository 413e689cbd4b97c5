"""Rate-based DCQCN (the reaction-point side), as a Marlin CC module.

DCQCN (Zhu et al., SIGCOMM '15) is the RoCEv2 congestion control the paper
tests against ConnectX NICs.  The switch marks ECN; the notification point
(receiver) converts marks into CNPs; the reaction point (sender, this
module) cuts its rate multiplicatively on CNPs and recovers through the
byte-counter / timer state machine:

* on CNP:  ``Rt = Rc``; ``Rc *= (1 - alpha/2)``; ``alpha = (1-g)*alpha + g``;
  both recovery counters reset;
* alpha timer (no CNP for ``alpha_timer_ps``): ``alpha *= (1 - g)``;
* rate timer / byte counter events drive increase stages:
  fast recovery (``Rc = (Rt + Rc)/2``) for the first F events, then
  additive (``Rt += Rai``), then hyper (``Rt += Rhai``) increase.

Parameters default to the values in the DCQCN paper with the
byte-counter/timer settings NVIDIA's parameter guide recommends scaling
for 100 Gbps ports.  Table 4 reports 98 LoC and 6 clock cycles for the
fast path (two 32-bit multiplications plus adds).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.cc.base import (
    CCAlgorithm,
    CCMode,
    EventType,
    IntrinsicInput,
    IntrinsicOutput,
    OpCounts,
    Param,
    TIMER_ALG_A,
    TIMER_ALG_B,
)
from repro.units import GBPS, MBPS, MICROSECOND


@dataclass
class DcqcnState:
    """Customized variable block for DCQCN."""

    #: Target rate Rt (bps).
    target_rate: float = 0.0
    #: Congestion estimate.
    alpha: float = 1.0
    #: Byte-counter expirations since the last CNP.
    bc_count: int = 0
    #: Rate-timer expirations since the last CNP.
    t_count: int = 0
    #: Whether any CNP has been seen (before that, stay at line rate).
    cut_seen: bool = False


class Dcqcn(CCAlgorithm):
    """DCQCN reaction point."""

    name = "dcqcn"
    mode = CCMode.RATE
    # Fast path critical chain: the CNP rate cut — two 32-bit
    # multiplications (rate * (1 - alpha/2) and the alpha EWMA) plus the
    # surrounding adds and compares.
    ops = OpCounts(add_sub=4, compare=4, mul32=2)
    lines_of_code = 98

    params = {
        "g": Param(float, 1.0 / 256.0, "(0, 1]"),
        "initial_alpha": Param(float, 1.0, "[0, 1]"),
        "alpha_timer_ps": Param(int, 55 * MICROSECOND, "(0, inf)"),
        "rate_timer_ps": Param(int, 55 * MICROSECOND, "(0, inf)"),
        "byte_counter": Param(int, 10 * 1024 * 1024, "(0, inf)"),
        "fast_recovery_threshold": Param(int, 5, "[1, inf)"),
        "rate_ai_bps": Param(float, 1 * GBPS, "(0, inf)"),
        "rate_hai_bps": Param(float, 5 * GBPS, "(0, inf)"),
        "min_rate_floor_bps": Param(float, 100 * MBPS, "(0, inf)"),
    }
    #: Line rate of the port, learned from the first flow's initial rate.
    _link_rate_bps: float = 100 * GBPS

    # -- state --------------------------------------------------------------

    def initial_cust(self) -> DcqcnState:
        return DcqcnState(alpha=self.initial_alpha)

    def initial_cwnd_or_rate(self, link_rate_bps: int) -> float:
        self._link_rate_bps = float(link_rate_bps)
        return float(link_rate_bps)

    def min_rate_bps(self, link_rate_bps: int) -> float:
        return self.min_rate_floor_bps

    def byte_counter_bytes(self) -> Optional[int]:
        return self.byte_counter

    def on_flow_start(self, cust: DcqcnState, slow: Any, now_ps: int) -> IntrinsicOutput:
        # Rate/alpha timers only start running once congestion is seen.
        return IntrinsicOutput()

    # -- fast path ----------------------------------------------------------

    def on_event(
        self, intr: IntrinsicInput, cust: DcqcnState, slow: Any
    ) -> IntrinsicOutput:
        if intr.evt_type == EventType.RX:
            if intr.flags.cnp:
                return self._on_cnp(intr, cust)
            if intr.flags.nack:
                # RoCE go-back-N: rewind, no rate change (loss is not a
                # DCQCN congestion signal; CNPs are).
                return IntrinsicOutput(rewind_to_una=True)
            return IntrinsicOutput()
        if intr.evt_type == EventType.TIMEOUT:
            if intr.timer_id == TIMER_ALG_A:
                return self._on_alpha_timer(intr, cust)
            if intr.timer_id == TIMER_ALG_B:
                cust.t_count += 1
                out = self._increase(intr, cust)
                out.rst_timers.append((TIMER_ALG_B, self.rate_timer_ps))
                return out
            return IntrinsicOutput()
        if intr.evt_type == EventType.BYTE_COUNTER:
            cust.bc_count += 1
            return self._increase(intr, cust)
        return IntrinsicOutput()

    def _on_cnp(self, intr: IntrinsicInput, cust: DcqcnState) -> IntrinsicOutput:
        rate = intr.cwnd_or_rate
        cust.target_rate = rate
        rate = max(rate * (1.0 - cust.alpha / 2.0), self.min_rate_floor_bps)
        cust.alpha = (1.0 - self.g) * cust.alpha + self.g
        cust.bc_count = 0
        cust.t_count = 0
        cust.cut_seen = True
        return IntrinsicOutput(
            cwnd_or_rate=rate,
            rst_timers=[
                (TIMER_ALG_A, self.alpha_timer_ps),
                (TIMER_ALG_B, self.rate_timer_ps),
            ],
        )

    def _on_alpha_timer(self, intr: IntrinsicInput, cust: DcqcnState) -> IntrinsicOutput:
        cust.alpha = (1.0 - self.g) * cust.alpha
        out = IntrinsicOutput()
        if cust.alpha > 1e-4:
            out.rst_timers.append((TIMER_ALG_A, self.alpha_timer_ps))
        return out

    def _increase(self, intr: IntrinsicInput, cust: DcqcnState) -> IntrinsicOutput:
        if not cust.cut_seen:
            # Still at line rate; nothing to recover.
            return IntrinsicOutput()
        rate = intr.cwnd_or_rate
        f = self.fast_recovery_threshold
        if cust.bc_count >= f and cust.t_count >= f:
            cust.target_rate += self.rate_hai_bps  # hyper increase
        elif cust.bc_count >= f or cust.t_count >= f:
            cust.target_rate += self.rate_ai_bps  # additive increase
        # else: fast recovery — target unchanged, rate converges toward it.
        cust.target_rate = min(cust.target_rate, self._link_rate_bps)
        rate = min((cust.target_rate + rate) / 2.0, self._link_rate_bps)
        return IntrinsicOutput(cwnd_or_rate=rate)
