"""The timeout event generator (paper Figure 4).

Maintains per-flow, per-timer-ID one-shot timers and feeds TIMEOUT events
into the CC algorithm module.  Timer 0 is the retransmission timeout;
algorithms may define more (DCQCN arms an alpha timer and a rate timer).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.timers import Timeout


class EventGenerator:
    """Per-(flow, timer) timeout management.

    Timers are indexed by flow, then timer ID, so releasing a finished
    flow touches only that flow's timers, however many are armed.
    """

    def __init__(
        self, sim: Simulator, on_timeout: Callable[[int, int], None]
    ) -> None:
        self.sim = sim
        self.on_timeout = on_timeout
        self._timers: dict[int, dict[int, Timeout]] = {}
        self.timeouts_fired = 0

    def arm(self, flow_id: int, timer_id: int, duration_ps: int) -> None:
        """(Re)arm a timer; restarting an armed timer extends its deadline."""
        flow_timers = self._timers.get(flow_id)
        if flow_timers is None:
            flow_timers = self._timers[flow_id] = {}
        timer = flow_timers.get(timer_id)
        if timer is None:
            timer = Timeout(self.sim, duration_ps, self._make_callback(flow_id, timer_id))
            flow_timers[timer_id] = timer
        timer.restart(duration_ps)

    def _timer(self, flow_id: int, timer_id: int) -> Optional[Timeout]:
        flow_timers = self._timers.get(flow_id)
        return None if flow_timers is None else flow_timers.get(timer_id)

    def cancel(self, flow_id: int, timer_id: int) -> None:
        timer = self._timer(flow_id, timer_id)
        if timer is not None:
            timer.cancel()

    def armed(self, flow_id: int, timer_id: int) -> bool:
        timer = self._timer(flow_id, timer_id)
        return timer is not None and timer.armed

    def forget_flow(self, flow_id: int) -> None:
        """Cancel and release all timers of a finished flow."""
        for timer in self._timers.pop(flow_id, {}).values():
            timer.cancel()

    def _make_callback(self, flow_id: int, timer_id: int) -> Callable[[], None]:
        def fire() -> None:
            self.timeouts_fired += 1
            self.on_timeout(flow_id, timer_id)

        return fire
