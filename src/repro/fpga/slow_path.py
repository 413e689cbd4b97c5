"""The Slow Path (paper Section 5.4).

Time-consuming CC logic that only runs once per RTT (DCTCP's alpha
division, Timely's gradient bookkeeping) is moved off the fast path.  The
fast path emits slow-path events; this executor processes them with a
configurable latency budget of hundreds of clock cycles and applies the
results to the flow's slow-path variable block — which the fast path
reads but never writes (simple dual-port BRAM ownership).

The executor also audits the paper's premise: slow-path events for one
flow should arrive at most once per RTT.  If a new event for a flow
lands while its previous one is still executing, the overrun is counted.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.cc.base import CCAlgorithm
from repro.fpga.clock import cycles_to_ps
from repro.fpga.flow import FlowState
from repro.sim.engine import Simulator

#: Default slow-path execution budget: "hundreds of clock cycles" per
#: microsecond-scale RTT (Section 5.4).
DEFAULT_SLOW_PATH_CYCLES = 200


class SlowPathExecutor:
    """Deferred executor for per-RTT CC computation."""

    def __init__(
        self,
        sim: Simulator,
        *,
        cycles: int = DEFAULT_SLOW_PATH_CYCLES,
        on_rate_update: Optional[Callable[[FlowState, float], None]] = None,
    ) -> None:
        self.sim = sim
        self.latency_ps = cycles_to_ps(cycles)
        #: Callback ``(flow, new_cwnd_or_rate)`` when a slow-path run
        #: returns a window/rate update.
        self.on_rate_update = on_rate_update
        self.events_processed = 0
        self.overruns = 0

    def submit(self, algorithm: CCAlgorithm, flow: FlowState, event: Any) -> None:
        """Queue one slow-path event for ``flow``."""
        now = self.sim.now
        if now < flow.slow_end_ps:
            self.overruns += 1
        flow.slow_end_ps = max(now, flow.slow_end_ps) + self.latency_ps
        self.sim.at(flow.slow_end_ps, self._execute, algorithm, flow, event)

    def _execute(self, algorithm: CCAlgorithm, flow: FlowState, event: Any) -> None:
        result = algorithm.slow_path(event, flow.cust, flow.slow)
        self.events_processed += 1
        if result is not None and self.on_rate_update is not None:
            self.on_rate_update(flow, result)
