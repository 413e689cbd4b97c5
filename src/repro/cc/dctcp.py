"""DCTCP as a Marlin CC module, with the Slow-Path alpha update.

DCTCP extends Reno with an ECN-fraction estimator: the receiver echoes CE
marks, the sender counts the fraction ``F`` of marked packets per window,
and maintains ``alpha = (1 - g) * alpha + g * F``.  On the first ECN echo
of a window the sender cuts ``cwnd`` by ``alpha / 2`` (Congestion Window
Reduced state) instead of Reno's half.

The paper uses DCTCP as the showcase for the Slow Path (Section 5.4): the
per-window alpha update needs a division, so the fast path only tallies
``acked`` / ``marked`` counters and emits a slow-path event once per
window, letting the division run with hundreds of cycles of budget and
32-bit precision.  Table 4 reports 175 LoC, 24 cycles (one 16-bit division
plus two 32-bit multiplications on the critical path).

BRAM ownership (Section 5.1): ``alpha`` lives in the slow-path block —
written only by the slow path, read-only to the fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.cc.base import (
    CCMode,
    EventType,
    IntrinsicInput,
    IntrinsicOutput,
    OpCounts,
    Param,
)
from repro.cc.reno import Reno, RenoState


#: Fixed-point scale of the fast-path alpha (16-bit, Section 5.4: without
#: the Slow Path, division and alpha precision are limited to 16 bits).
ALPHA16_SCALE = 1 << 16


@dataclass
class DctcpState(RenoState):
    """Fast-path (customized) state: Reno fields plus window mark tallies."""

    #: Packets cumulatively ACKed / ECN-marked in the current window.
    acked_cnt: int = 0
    marked_cnt: int = 0
    #: PSN at which the current observation window ends.
    window_end: int = 0
    #: PSN until which further ECN echoes are ignored (one cut per window).
    cwr_end: int = -1
    #: 16-bit fixed-point alpha, used only when the Slow Path is disabled
    #: (the fast path then owns alpha at reduced precision).
    alpha_q16: int = ALPHA16_SCALE


@dataclass
class DctcpSlowState:
    """Slow-path state: written only by the slow path."""

    alpha: float = 1.0


@dataclass(frozen=True)
class AlphaUpdateEvent:
    """Slow-path event emitted once per window (Table 3 ``slwpth-evt``)."""

    acked: int
    marked: int


class Dctcp(Reno):
    """DCTCP: Reno loss behaviour + proportional ECN response."""

    name = "dctcp"
    mode = CCMode.WINDOW
    # Critical chain: the alpha-scaled window cut — one 16-bit division
    # (fast-path fallback precision), two 32-bit multiplications, plus the
    # Reno-style compares/adds around it.
    ops = OpCounts(add_sub=4, compare=3, shift=1, mul32=2, div16=1)
    lines_of_code = 175

    params = {
        **Reno.params,
        "g": Param(float, 1.0 / 16.0, "(0, 1]"),
        "initial_alpha": Param(float, 1.0, "[0, 1]"),
        "use_slow_path": Param(bool, True),
    }

    # -- state --------------------------------------------------------------

    def initial_cust(self) -> DctcpState:
        return DctcpState(
            ssthresh=self.initial_ssthresh,
            alpha_q16=int(self.initial_alpha * ALPHA16_SCALE),
        )

    def initial_slow(self) -> Optional[DctcpSlowState]:
        if not self.use_slow_path:
            return None  # alpha lives on the fast path at 16-bit precision
        return DctcpSlowState(alpha=self.initial_alpha)

    def effective_alpha(self, cust: DctcpState, slow: Optional[DctcpSlowState]) -> float:
        """Alpha as the window cut sees it: 32-bit from the Slow Path, or
        16-bit fixed point when computed inline (Section 5.4)."""
        if self.use_slow_path and slow is not None:
            return slow.alpha
        return cust.alpha_q16 / ALPHA16_SCALE

    # -- fast path ----------------------------------------------------------

    def on_event(
        self, intr: IntrinsicInput, cust: DctcpState, slow: DctcpSlowState
    ) -> IntrinsicOutput:
        if intr.evt_type != EventType.RX:
            return super().on_event(intr, cust, slow)

        advanced = intr.psn > cust.last_ack
        acked_now = intr.psn - cust.last_ack if advanced else 0
        out = super().on_event(intr, cust, slow)
        cwnd = out.cwnd_or_rate if out.cwnd_or_rate is not None else intr.cwnd_or_rate

        if advanced:
            cust.acked_cnt += acked_now
            if intr.flags.ecn:
                cust.marked_cnt += acked_now

        # ECN response: one multiplicative cut per window of data.
        if intr.flags.ecn and advanced and intr.psn > cust.cwr_end:
            cwnd = max(cwnd * (1.0 - self.effective_alpha(cust, slow) / 2.0), 1.0)
            cust.ssthresh = cwnd
            cust.cwr_end = intr.nxt
            out.cwnd_or_rate = cwnd

        # End of observation window: update alpha — via the Slow Path
        # (32-bit precision) or inline with 16-bit arithmetic (§5.4).
        if advanced and intr.psn >= cust.window_end:
            if cust.acked_cnt > 0:
                if self.use_slow_path:
                    out.slow_path_events.append(
                        AlphaUpdateEvent(acked=cust.acked_cnt, marked=cust.marked_cnt)
                    )
                else:
                    self._update_alpha16(cust)
            cust.acked_cnt = 0
            cust.marked_cnt = 0
            cust.window_end = intr.nxt

        out.cwnd_or_rate = cwnd if out.cwnd_or_rate is None else out.cwnd_or_rate
        return out

    def _update_alpha16(self, cust: DctcpState) -> None:
        """Fast-path alpha EWMA in 16-bit fixed point.

        The division is 16-bit (``F`` quantized to 1/65536) and the EWMA
        increment ``g * F`` truncates below one quantum — tiny marking
        fractions are lost, the imprecision the Slow Path removes.
        """
        fraction_q16 = cust.marked_cnt * ALPHA16_SCALE // cust.acked_cnt
        g_q16 = int(self.g * ALPHA16_SCALE)
        decayed = cust.alpha_q16 - (cust.alpha_q16 * g_q16) // ALPHA16_SCALE
        cust.alpha_q16 = decayed + (g_q16 * fraction_q16) // ALPHA16_SCALE

    # -- slow path ----------------------------------------------------------

    def slow_path(
        self, event: Any, cust: DctcpState, slow: DctcpSlowState
    ) -> Optional[float]:
        if isinstance(event, AlphaUpdateEvent) and event.acked > 0:
            fraction = event.marked / event.acked
            slow.alpha = (1.0 - self.g) * slow.alpha + self.g * fraction
        return None
