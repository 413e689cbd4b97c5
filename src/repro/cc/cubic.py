"""TCP Cubic as a Marlin CC module, with a lookup-table cube root.

The paper's Discussion (Section 8) notes that Cubic's cube root is the
expensive operation: "after optimizing the cubic root calculation using
lookup tables, Cubic still requires around 100 clock cycles" — so Cubic
flows must run at reduced per-flow PPS, using multiple flows to reach line
rate.  We reproduce both facts: the cube root here *is* a lookup table
(:func:`lut_cbrt`), and the op-cost model prices it at ~90 cycles so the
frequency-control analysis (Section 5.3) flags the reduced per-flow rate.

Window evolution follows RFC 8312: after a loss event at window ``w_max``,
``cwnd(t) = C * (t - K)^3 + w_max`` with ``K = cbrt(w_max * beta / C)``
(where ``beta`` is the multiplicative *decrease* amount, 0.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.cc.base import (
    CCMode,
    EventType,
    IntrinsicInput,
    IntrinsicOutput,
    OpCounts,
    Param,
)
from repro.cc.reno import DUP_ACK_THRESHOLD, Reno, RenoState
from repro.units import SECOND

#: Entries per octave in the cube-root table (matches a BRAM-friendly size).
_LUT_BITS = 9
_LUT_SIZE = 1 << _LUT_BITS

# cbrt(m) for m in [1, 8): table index i maps to m = 1 + 7 * i / SIZE.
_CBRT_TABLE = tuple(
    (1.0 + 7.0 * i / _LUT_SIZE) ** (1.0 / 3.0) for i in range(_LUT_SIZE + 1)
)


def lut_cbrt(x: float) -> float:
    """Cube root via range reduction + table lookup.

    Reduces ``x`` to ``m * 8**e`` with ``m`` in [1, 8), looks up
    ``cbrt(m)`` in a 512-entry table (linear interpolation between
    entries), and rescales by ``2**e``.  Worst-case relative error is
    below 1e-5, far tighter than Cubic needs.
    """
    if x < 0:
        raise ValueError(f"lut_cbrt requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    e = 0
    m = x
    while m >= 8.0:
        m /= 8.0
        e += 1
    while m < 1.0:
        m *= 8.0
        e -= 1
    position = (m - 1.0) / 7.0 * _LUT_SIZE
    index = int(position)
    frac = position - index
    low = _CBRT_TABLE[index]
    high = _CBRT_TABLE[min(index + 1, _LUT_SIZE)]
    return (low + (high - low) * frac) * (2.0 ** e)


@dataclass
class CubicState(RenoState):
    """Reno recovery fields plus the cubic epoch."""

    w_max: float = 0.0
    #: Time of the last window-reduction event, ps (-1: no epoch yet).
    epoch_start: int = -1
    #: K, in seconds (float), computed at epoch start.
    k_seconds: float = 0.0


class Cubic(Reno):
    """TCP Cubic (RFC 8312) with LUT cube root."""

    name = "cubic"
    mode = CCMode.WINDOW
    # The cube root dominates the critical path (Section 8: ~100 cycles).
    ops = OpCounts(add_sub=4, compare=4, mul32=3, cube_root_lut=1)
    lines_of_code = 210

    params = {
        **Reno.params,
        "c": Param(float, 0.4, "(0, inf)"),
        "beta": Param(float, 0.3, "(0, 1)"),
    }

    def initial_cust(self) -> CubicState:
        return CubicState(ssthresh=self.initial_ssthresh)

    def on_event(
        self, intr: IntrinsicInput, cust: CubicState, slow: Any
    ) -> IntrinsicOutput:
        out = super().on_event(intr, cust, slow)
        cwnd = out.cwnd_or_rate if out.cwnd_or_rate is not None else intr.cwnd_or_rate

        entered_recovery = (
            cust.in_recovery
            and cust.dup_acks == DUP_ACK_THRESHOLD
            and intr.evt_type == EventType.RX
        )
        timed_out = intr.evt_type == EventType.TIMEOUT
        if entered_recovery or timed_out:
            # Start a new cubic epoch at the pre-cut window.
            cust.w_max = max(intr.cwnd_or_rate, 1.0)
            cust.epoch_start = intr.tstamp
            cust.k_seconds = lut_cbrt(cust.w_max * self.beta / self.c)
            if entered_recovery:
                cut = max(cust.w_max * (1.0 - self.beta), 2.0)
                cust.ssthresh = cut
                out.cwnd_or_rate = cut + DUP_ACK_THRESHOLD
            return out

        is_new_ack = (
            intr.evt_type == EventType.RX
            and not cust.in_recovery
            and out.cwnd_or_rate is not None
            and cust.epoch_start >= 0
            and cwnd >= cust.ssthresh
        )
        if is_new_ack:
            # Replace Reno's linear growth with the cubic target.
            t = (intr.tstamp - cust.epoch_start) / SECOND
            offset = t - cust.k_seconds
            target = self.c * offset * offset * offset + cust.w_max
            if target > cwnd:
                cwnd = min(cwnd + (target - cwnd) / cwnd, self.max_cwnd)
            else:
                cwnd = min(cwnd + 0.01 / cwnd, self.max_cwnd)
            out.cwnd_or_rate = cwnd
        return out
