"""Line-rate flow scheduling with rescheduling events (paper Section 5.2).

One :class:`PortScheduler` exists per switch test port (Section 5.3,
egress direction).  Each owns:

* a **scheduling FIFO** holding at most one event per flow — the
  uniqueness invariant: a flow in the FIFO is *active*; a flow without an
  event is reactivated by the CC module when its next INFO arrives;
* a **priority FIFO** for retransmissions and timeout-driven sends;
* a **TX timer**: at most one event is serviced per TX period, keeping
  the per-port SCHE rate at or below the switch's per-port DATA rate so
  the register queues never overflow.

Servicing an event re-evaluates eligibility against the congestion window
or pacing rate *in the scheduler* (not the CC module — the separation the
paper argues for at the end of Section 5.2), emits a SCHE packet when
eligible, and re-inserts a *rescheduling event* so active flows cycle
round-robin, which is what makes single-port bandwidth sharing fair
(Figure 6).

The service loop is event-driven and wakes only when a tick can change
something, which is the hardware's free-running timer minus the ticks
that would swamp a discrete-event simulator:

* while both FIFOs are empty the timer does not tick at all;
* when a tick leaves a single flow in the scheduling FIFO, the priority
  FIFO empty and that flow's pacing gate (``next_send_ps``: rate pacing,
  or the ``min_flow_spacing_ps`` PPS cap) shut at the next tick, the
  timer *sleeps* to the first tick on its grid at or after the gate
  opens.  Every tick slept through is one a polling timer would have
  spent recycling the flow unsent, so ``skipped_pacing`` still counts
  it; ``ticks`` counts the wake-ups that actually run.  New work
  (:meth:`PortScheduler.enqueue_flow`, :meth:`PortScheduler.enqueue_rtx`)
  or the sleeping flow turning ineligible (:meth:`PortScheduler.recheck`)
  re-arms the wake to the first grid tick after *now*: the tick at which
  a polling timer would next have looked.

Emission times are therefore those of a timer polling every period.  The
one place the two can part is a tie: work arriving at the very
picosecond of a grid tick is served as if that tick had already run,
which is how a polling timer orders it against anything scheduled less
than a TX period earlier (packet arrivals, RX drains, same-instant flow
starts) but not against an older event (a timer, a ``start_at_ps``)
landing exactly on the grid.

A FIFO holding two or more flows keeps polling every period: the sleep
would have to replay the round-robin rotation of gated flows, and no
measured workload puts several paced flows on one port.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cc.base import CCMode
from repro.fpga.flow import FlowState
from repro.net.queue import Fifo
from repro.sim.engine import EventHandle, Simulator

#: The rescheduling loop latency (Section 5.2: "this entire loop only
#: takes six clock cycles").  Must be below the TX period; validated by
#: the NIC at construction.
RESCHEDULE_LOOP_CYCLES = 6


class PortScheduler:
    """Scheduler + scheduling FIFO + TX timer for one test port."""

    def __init__(
        self,
        sim: Simulator,
        port_index: int,
        tx_interval_ps: int,
        mode: CCMode,
        emit_sche: Callable[[FlowState, int, bool], None],
        *,
        on_bytes_sent: Optional[Callable[[FlowState], None]] = None,
        fifo_capacity: int = 1 << 16,
        phase_ps: int = 0,
        min_flow_spacing_ps: int = 0,
    ) -> None:
        if tx_interval_ps <= 0:
            raise ValueError(f"tx_interval must be positive, got {tx_interval_ps}")
        self.sim = sim
        self.port_index = port_index
        self.tx_interval_ps = tx_interval_ps
        self.mode = mode
        self.emit_sche = emit_sche
        self.on_bytes_sent = on_bytes_sent
        #: Section 8 PPS reduction: minimum spacing between packets of the
        #: SAME flow, for CC modules whose RMW latency exceeds the
        #: per-packet budget (0 disables; rate mode paces anyway).
        self.min_flow_spacing_ps = min_flow_spacing_ps
        self.sched_fifo: Fifo[FlowState] = Fifo(fifo_capacity)
        self.prio_fifo: Fifo[tuple[FlowState, int]] = Fifo(fifo_capacity)
        #: Whether a pacing gate can hold a flow back at all.
        self._paced = mode is CCMode.RATE or min_flow_spacing_ps > 0
        self._next_tick_ps = phase_ps
        self._tick_pending = False
        #: First grid tick slept through, or -1 while the timer polls.
        self._sleep_from_ps = -1
        #: The re-armable wake-up of a sleep (created by the first one).
        self._wake: Optional[EventHandle] = None
        #: Wake-ups executed.
        self.ticks = 0
        self.sche_emitted = 0
        self.rtx_emitted = 0
        #: TX periods a shut pacing gate kept unsent, slept ones included.
        self.skipped_pacing = 0
        self.descheduled = 0

    # -- event insertion -------------------------------------------------------

    def enqueue_flow(self, flow: FlowState) -> None:
        """Add a scheduling event for ``flow`` (idempotent: the FIFO keeps
        at most one event per flow)."""
        if flow.scheduled or flow.finished:
            return
        flow.scheduled = True
        self.sched_fifo.push(flow)
        self._kick()

    def enqueue_rtx(self, flow: FlowState, psn: int) -> None:
        """Add a high-priority retransmission event."""
        self.prio_fifo.push((flow, psn))
        self._kick()

    def recheck(self, flow: FlowState) -> None:
        """``flow``'s state changed outside the scheduler (it finished,
        or its window shrank).  If the timer sleeps on it and it is no
        longer eligible, wake at the next grid tick, where a polling timer
        would deschedule it."""
        if (
            self._sleep_from_ps >= 0
            and self.sched_fifo.peek() is flow
            and not self._eligible(flow)
        ):
            self._wake_by(self._grid_tick_after(self.sim.now))

    # -- service loop ------------------------------------------------------------

    def _eligible(self, flow: FlowState) -> bool:
        if flow.finished:
            return False
        if self.mode is CCMode.WINDOW:
            return flow.sendable_window()
        return flow.sendable_rate()

    def _grid_tick_after(self, time_ps: int) -> int:
        """The first tick of the sleeping timer's grid after ``time_ps``."""
        start = self._sleep_from_ps
        if time_ps < start:
            return start
        tx = self.tx_interval_ps
        return start + ((time_ps - start) // tx + 1) * tx

    def _sleep(self, from_ps: int, gate_ps: int) -> None:
        """Skip the ticks from ``from_ps`` on; wake on the first tick of
        that grid at or after ``gate_ps``."""
        self._tick_pending = True
        self._sleep_from_ps = from_ps
        wake_ps = self._grid_tick_after(gate_ps - 1)
        if self._wake is None:
            self._wake = self.sim.schedule_handle(wake_ps, self._tick)
        else:
            self._wake.rearm(wake_ps)

    def _wake_by(self, time_ps: int) -> None:
        """Move a sleep's wake-up to ``time_ps`` unless it is due sooner
        (a wake due at this very instant has not run yet)."""
        if time_ps < self._wake.target_ps:
            self._wake.rearm(time_ps)

    def _kick(self) -> None:
        if self._tick_pending:
            if self._sleep_from_ps >= 0:
                # New work mid-sleep: serve it at the tick a polling timer
                # would next have run.
                self._wake_by(self._grid_tick_after(self.sim.now))
            return
        if self.sched_fifo.empty and self.prio_fifo.empty:
            return
        self._tick_pending = True
        self.sim.at(max(self.sim.now, self._next_tick_ps), self._tick)

    def _tick(self) -> None:
        now = self.sim.now
        if self._sleep_from_ps >= 0:
            # Every grid tick slept through found the pacing gate shut.
            self.skipped_pacing += (now - self._sleep_from_ps) // self.tx_interval_ps
            self._sleep_from_ps = -1
        self._tick_pending = False
        self._next_tick_ps = now + self.tx_interval_ps
        self.ticks += 1

        rtx = self.prio_fifo.pop()
        if rtx is not None:
            flow, psn = rtx
            if not flow.finished:
                self.emit_sche(flow, psn, True)
                flow.rtx_sent += 1
                self.rtx_emitted += 1
        else:
            flow = self.sched_fifo.pop()
            if flow is None:
                return
            if self.mode is CCMode.WINDOW:
                self._service_window(flow)
            else:
                self._service_rate(flow)

        sched_fifo = self.sched_fifo
        if (
            self._paced
            and not self._tick_pending
            and self.prio_fifo.empty
            and len(sched_fifo) == 1
        ):
            flow = sched_fifo.peek()
            start = self._next_tick_ps
            if flow.next_send_ps > start and self._eligible(flow):
                # The lone flow's gate is still shut at the next tick:
                # sleep through the ticks that would only recycle it.
                self._sleep(start, flow.next_send_ps)
                return
        self._kick()

    def _service_window(self, flow: FlowState) -> None:
        if flow.finished or not flow.sendable_window():
            # Window closed or all data sent: the flow goes inactive; the
            # next INFO that opens the window re-adds its event.
            flow.scheduled = False
            self.descheduled += 1
            return
        if self.min_flow_spacing_ps > 0 and self.sim.now < flow.next_send_ps:
            # Per-flow PPS cap (Section 8): recycle without sending.
            self.skipped_pacing += 1
            self.sched_fifo.push(flow)
            return
        if self.min_flow_spacing_ps > 0:
            flow.next_send_ps = self.sim.now + self.min_flow_spacing_ps
        self._emit(flow)
        self.sched_fifo.push(flow)  # rescheduling event

    def _service_rate(self, flow: FlowState) -> None:
        if flow.finished or not flow.sendable_rate():
            flow.scheduled = False
            self.descheduled += 1
            return
        if self.sim.now < flow.next_send_ps:
            # Pacing gate not yet open: recycle the event without sending.
            self.skipped_pacing += 1
            self.sched_fifo.push(flow)
            return
        pacing_ps = int(flow.pace_num / flow.cwnd_or_rate)
        flow.next_send_ps = max(flow.next_send_ps, self.sim.now) + pacing_ps
        self._emit(flow)
        self.sched_fifo.push(flow)

    def _emit(self, flow: FlowState) -> None:
        psn = flow.nxt
        flow.nxt += 1
        flow.data_sent += 1
        self.sche_emitted += 1
        self.emit_sche(flow, psn, False)
        if self.on_bytes_sent is not None:
            flow.counter_bytes += flow.frame_bytes
            self.on_bytes_sent(flow)
