"""The assembled FPGA NIC (paper Section 5, Figure 4).

Datapath for one INFO packet (Step A of Figure 4):

1. the packet arrives on the 100 Gbps port and is parsed into a
   reception event;
2. the event joins the RX FIFO matching the switch test port it arrived
   on; an RX timer drains each FIFO at the per-port DATA rate
   (Section 5.3, ingress direction);
3. the framework advances ``una`` and detects flow completion;
4. the CC algorithm module runs under the Table 3 contract, charging its
   HLS cycle cost against the flow's BRAM record (its ``FlowState``);
5. outputs are applied: window/rate update (clamped), retransmissions to
   the priority FIFO, go-back-N rewinds, timer arms (the Event Generator),
   slow-path events, log records;
6. if the flow has become sendable and lacks a scheduling event, one is
   enqueued — reactivating the flow (Section 5.2).

Per-port schedulers emit SCHE packets (Step B/C); the shared egress port
acts as the MUX and enforces the 64 B line rate.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from repro.cc.base import (
    CCAlgorithm,
    CCMode,
    EventType,
    Flags,
    NO_FLAGS,
    TIMER_RTO,
    IntrinsicInput,
    IntrinsicOutput,
)
from repro.errors import CCModuleError, ConfigError, SimulationError
from repro.fpga.cc_module import CCModuleRuntime
from repro.fpga.clock import cycles_to_ps
from repro.fpga.flow import N_TIMERS, FlowState
from repro.fpga.logger import QdmaLogger
from repro.fpga.parser import InfoParser, ReceptionEvent
from repro.fpga.scheduler import PortScheduler, RESCHEDULE_LOOP_CYCLES
from repro.fpga.slow_path import SlowPathExecutor
from repro.fpga.timers import FrequencyControl
from repro.net.device import Device, Port
from repro.net.packet import Packet
from repro.net.queue import Fifo
from repro.pswitch.module_a import ReceiverLogic, ReceiverMode
from repro.pswitch.packets import PTYPE_RDATA, make_sche
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an fpga<->core cycle)
    from repro.core.config import TestConfig


#: RX FIFO depth per test port (reception events).
RX_FIFO_CAPACITY = 8192
#: Cap on retained RTT samples (oldest dropped beyond this).
RTT_SAMPLE_CAPACITY = 100_000


class FpgaNic(Device):
    """FPGA-NIC half of the tester."""

    #: Optional :class:`repro.obs.flight.FlightRecorder`; tested only on
    #: actual CC rate/window transitions.
    _flight = None

    def __init__(
        self,
        sim: Simulator,
        algorithm: CCAlgorithm,
        config: TestConfig,
        *,
        n_test_ports: int,
        receiver_mode: ReceiverMode,
        name: str = "fpga-nic",
    ) -> None:
        """Deploy ``config``; ``n_test_ports`` and ``receiver_mode`` are
        the values the control plane resolved from it."""
        super().__init__(sim, name)
        self.config = config
        self.n_test_ports = n_test_ports
        self.algorithm = algorithm
        self.port: Port = self.add_port(rate_bps=config.port_rate_bps)
        #: Second port + receiver logic for the Figure 2 dashed path, fed
        #: by truncated DATA (RDATA).
        self.receiver_port: Optional[Port] = None
        self.fpga_receiver: Optional[ReceiverLogic] = None
        if config.receiver_logic_on_fpga:
            self.receiver_port = self.add_port(rate_bps=config.port_rate_bps)
            self.fpga_receiver = ReceiverLogic(
                receiver_mode, cnp_interval_ps=config.cnp_interval_ps
            )

        self.frequency = FrequencyControl(
            config.template_bytes, n_test_ports, config.port_rate_bps
        )
        self.cc_runtime = CCModuleRuntime(algorithm, strict_bram=config.strict)
        #: Section 5.3 safety analysis for this algorithm/MTU combination.
        self.frequency_warnings = self.frequency.validate(self.cc_runtime.cycles)
        if cycles_to_ps(RESCHEDULE_LOOP_CYCLES) > self.frequency.tx_interval_ps:
            raise ConfigError(
                "rescheduling loop latency exceeds the TX period; the "
                "scheduling FIFO cannot sustain line rate"
            )

        self.parser = InfoParser()
        self.rx_fifos: list[Fifo[ReceptionEvent]] = [
            Fifo(RX_FIFO_CAPACITY) for _ in range(n_test_ports)
        ]
        self._drain_pending = [False] * n_test_ports
        self._next_drain_ps = [0] * n_test_ports

        tx_interval = self.frequency.tx_interval_ps
        # Section 8: CC modules whose RMW latency exceeds the per-packet
        # budget get a per-flow PPS cap; multiple flows still fill the port.
        reduction = self.frequency.pps_reduction_factor(self.cc_runtime.cycles)
        min_spacing = reduction * tx_interval if reduction > 1 else 0
        self.per_flow_pps_reduction = reduction
        self.schedulers: list[PortScheduler] = [
            PortScheduler(
                sim,
                i,
                tx_interval,
                algorithm.mode,
                self._emit_sche,
                on_bytes_sent=self._on_bytes_sent,
                phase_ps=i * tx_interval // max(n_test_ports, 1),
                min_flow_spacing_ps=min_spacing,
            )
            for i in range(n_test_ports)
        ]

        self.logger = QdmaLogger()
        self.slow_path = SlowPathExecutor(sim, on_rate_update=self._on_slow_rate_update)
        self._byte_threshold = algorithm.byte_counter_bytes()

        self.flows: dict[int, FlowState] = {}
        self.completed_flows: list[FlowState] = []
        self.completion_callbacks: list[Callable[[FlowState], None]] = []
        self._next_flow_id = 1

        self.infos_processed = 0
        self.infos_for_unknown_flows = 0
        self.timeouts_fired = 0
        self.rmw_stalls = 0
        #: Hot-path aliases of per-packet config flags (the config is
        #: frozen after deploy; reading ``self.config.x`` per INFO costs
        #: two attribute lookups each).
        self._rx_bypass = config.disable_rx_timer
        self._sample_rtt = config.sample_rtt
        self._trace_cc = config.trace_cc
        self._rx_interval_ps = self.frequency.rx_interval_ps
        #: (flow_id, rtt_ps) samples when ``sample_rtt`` is enabled.
        self.rtt_samples: deque[tuple[int, int]] = deque(maxlen=RTT_SAMPLE_CAPACITY)

    # -- flow management --------------------------------------------------------

    def start_flow(
        self,
        *,
        port_index: int,
        src_addr: int,
        dst_addr: int,
        size_packets: int,
        flow_id: Optional[int] = None,
        start_at_ps: Optional[int] = None,
    ) -> FlowState:
        """Create a flow and schedule its first transmission."""
        if not 0 <= port_index < self.n_test_ports:
            raise ConfigError(
                f"port_index {port_index} out of range [0, {self.n_test_ports})"
            )
        if size_packets <= 0:
            raise ConfigError(f"flow size must be positive, got {size_packets}")
        if flow_id is None:
            flow_id = self._next_flow_id
        if flow_id in self.flows:
            raise ConfigError(f"flow id {flow_id} already exists")
        self._next_flow_id = max(self._next_flow_id, flow_id + 1)
        flow = FlowState(
            flow_id=flow_id,
            port_index=port_index,
            src_addr=src_addr,
            dst_addr=dst_addr,
            size_packets=size_packets,
            frame_bytes=self.config.template_bytes,
            cwnd_or_rate=self.algorithm.initial_cwnd_or_rate(self.config.port_rate_bps),
            cust=self.algorithm.initial_cust(),
            slow=self.algorithm.initial_slow(),
        )
        self.flows[flow_id] = flow
        when = self.sim.now if start_at_ps is None else start_at_ps
        self.sim.at(when, self._activate_flow, flow)
        return flow

    def _activate_flow(self, flow: FlowState) -> None:
        if flow.started or flow.finished:
            return
        flow.started = True
        flow.start_ps = self.sim.now
        flow.next_send_ps = self.sim.now
        out = self.algorithm.on_flow_start(flow.cust, flow.slow, self.sim.now)
        self._apply_output(flow, out)
        self.schedulers[flow.port_index].enqueue_flow(flow)

    def stop_flow(self, flow_id: int) -> None:
        """Terminate a flow from the control plane (no FCT is recorded;
        the paper's congestion test terminates long-lived flows this way)."""
        flow = self.flows.get(flow_id)
        if flow is None or flow.finished:
            return
        flow.finished = True
        self._forget_timers(flow)
        self.schedulers[flow.port_index].recheck(flow)

    def on_complete(self, callback: Callable[[FlowState], None]) -> None:
        """Register a flow-completion callback (closed-loop workloads)."""
        self.completion_callbacks.append(callback)

    def flow(self, flow_id: int) -> FlowState:
        try:
            return self.flows[flow_id]
        except KeyError:
            raise ConfigError(f"unknown flow id {flow_id}") from None

    # -- INFO ingress ------------------------------------------------------------

    def receive(self, packet: Packet, port: Port) -> None:
        if packet.ptype == PTYPE_RDATA:
            self._receive_rdata(packet)
            return
        event = self.parser.parse(packet, self.sim.now)
        if event is None:
            return
        if self._rx_bypass:
            # Ablation: no frequency control on the ingress path.
            self._process_reception(event)
            return
        index = min(event.rx_port, len(self.rx_fifos) - 1)
        if self.rx_fifos[index].push(event):
            self._kick_drain(index)

    def _receive_rdata(self, rdata: Packet) -> None:
        """FPGA-hosted receiver logic (Figure 2 dashed path): process a
        truncated DATA packet, return responses via the receiver port."""
        if self.fpga_receiver is None or self.receiver_port is None:
            return
        rx_port = rdata.meta.get("rx_port", 0)
        for response in self.fpga_receiver.on_data(rdata, self.sim.now):
            # Tell the switch which test port the response leaves from.
            response.meta["egress_port"] = rx_port
            self.receiver_port.send(response)

    def _kick_drain(self, index: int) -> None:
        if self._drain_pending[index] or self.rx_fifos[index].empty:
            return
        when = self._next_drain_ps[index]
        if self.sim.now >= when:
            # The RX timer slot is already free: drain at once.
            self._drain(index)
            return
        self._drain_pending[index] = True
        self.sim.at(when, self._drain, index)

    def _drain(self, index: int) -> None:
        self._drain_pending[index] = False
        fifo = self.rx_fifos[index]
        now = self.sim.now
        head = fifo.peek()
        if head is not None:
            # Atomicity: if the head event's flow still has an RMW in
            # flight, the pipeline stalls until it completes (Section 5.3's
            # "packets will have to wait ... causing a drop in throughput";
            # frequency control exists to make this never happen).
            head_flow = self.flows.get(head.flow_id)
            busy_until = 0 if head_flow is None else head_flow.rmw_end_ps
            if busy_until > now:
                self.rmw_stalls += 1
                self._drain_pending[index] = True
                self.sim.at(busy_until, self._drain, index)
                return
        next_ps = now + self._rx_interval_ps
        self._next_drain_ps[index] = next_ps
        event = fifo.pop()
        if event is not None:
            self._process_reception(event)
        if fifo._queue:
            # Inlined ``_kick_drain``: the next slot is always in the
            # future here, so no ``max(now, ...)`` is needed.
            self._drain_pending[index] = True
            self.sim.at(next_ps, self._drain, index)

    # -- CC event processing --------------------------------------------------------

    def _process_reception(self, event: ReceptionEvent) -> None:
        flow = self.flows.get(event.flow_id)
        if flow is None or flow.finished or not flow.started:
            self.infos_for_unknown_flows += 1
            return
        self.infos_processed += 1
        if self._sample_rtt and event.prb_rtt_ps >= 0:
            self.rtt_samples.append((flow.flow_id, event.prb_rtt_ps))
        if event.flags.ack and event.psn > flow.una:
            flow.una = min(event.psn, flow.size_packets)
        if flow.complete:
            self._finish_flow(flow)
            return
        self._invoke(
            flow, EventType.RX, event.psn, event.flags, event.prb_rtt_ps,
            int_path=event.int_path,
        )
        self._maybe_activate(flow)

    def _on_timeout(self, flow: FlowState, timer_id: int) -> None:
        busy_until = flow.rmw_end_ps
        if busy_until > self.sim.now:
            # Atomicity, as in ``_drain``: the expiry waits out the RMW in
            # flight on this flow's BRAM record.  A re-arm by the CC in
            # the meantime moves this same handle, superseding the wait.
            self.rmw_stalls += 1
            self.sim.rearm(flow.timers[timer_id], busy_until)
            return
        self.timeouts_fired += 1
        if flow.finished or not flow.started:
            return
        self._invoke(flow, EventType.TIMEOUT, timer_id=timer_id)
        self._maybe_activate(flow)

    def _on_slow_rate_update(self, flow: FlowState, value: float) -> None:
        if not flow.finished:
            flow.cwnd_or_rate = self._clamp(value)
            self.schedulers[flow.port_index].recheck(flow)

    def _on_bytes_sent(self, flow: FlowState) -> None:
        threshold = self._byte_threshold
        if threshold is None or flow.counter_bytes < threshold or flow.finished:
            return
        busy_until = flow.rmw_end_ps
        if busy_until > self.sim.now:
            # Waits out the flow's RMW in flight, as a timer expiry does.
            self.rmw_stalls += 1
            self.sim.at(busy_until, self._on_bytes_sent, flow)
            return
        flow.counter_bytes -= threshold
        self._invoke(flow, EventType.BYTE_COUNTER)

    def _invoke(
        self,
        flow: FlowState,
        evt_type: EventType,
        psn: int = -1,
        flags: Flags = NO_FLAGS,
        prb_rtt: int = -1,
        *,
        timer_id: int = TIMER_RTO,
        int_path: tuple = (),
    ) -> None:
        """The one entry into the CC module: run one fast-path invocation
        on ``flow``'s current state and apply its outputs."""
        intr = IntrinsicInput(
            evt_type=evt_type,
            psn=psn,
            cwnd_or_rate=flow.cwnd_or_rate,
            una=flow.una,
            nxt=flow.nxt,
            flags=flags,
            prb_rtt=prb_rtt,
            tstamp=self.sim.now,
            timer_id=timer_id,
            int_path=int_path,
        )
        self._apply_output(flow, self.cc_runtime.invoke(flow, intr))

    def _apply_output(self, flow: FlowState, out: IntrinsicOutput) -> None:
        if out.cwnd_or_rate is not None:
            previous = flow.cwnd_or_rate
            flow.cwnd_or_rate = self._clamp(out.cwnd_or_rate)
            if self._flight is not None and flow.cwnd_or_rate != previous:
                self._flight.record(
                    self.sim.now, "cc", "rate_update",
                    flow=flow.flow_id,
                    cwnd_or_rate=flow.cwnd_or_rate,
                    previous=previous,
                )
            if self._trace_cc:
                self.logger.log(
                    self.sim.now,
                    f"flow{flow.flow_id}",
                    cwnd_or_rate=flow.cwnd_or_rate,
                )
        if out.rewind_to_una:
            flow.nxt = flow.una
        if out.rtx_psn >= 0:
            self.schedulers[flow.port_index].enqueue_rtx(flow, out.rtx_psn)
        for timer_id, duration_ps in out.rst_timers:
            self.arm_timer(flow, timer_id, duration_ps)
        for timer_id in out.stop_timers:
            self.cancel_timer(flow, timer_id)
        for slow_event in out.slow_path_events:
            self.slow_path.submit(self.algorithm, flow, slow_event)
            if self._trace_cc and flow.slow is not None:
                self._trace_slow_later(flow)
        for record in out.log_content:
            self.logger.log(self.sim.now, f"flow{flow.flow_id}.user", **record)

    # -- Event Generator (Figure 4): per-flow one-shot timers -------------------

    def arm_timer(self, flow: FlowState, timer_id: int, duration_ps: int) -> None:
        """(Re)arm one of the flow's timers to fire ``duration_ps`` from now;
        restarting an armed timer moves its deadline."""
        if duration_ps <= 0:
            raise SimulationError(f"timer duration must be positive, got {duration_ps}")
        if not 0 <= timer_id < N_TIMERS:
            raise CCModuleError(f"timer id {timer_id} is not 0, 1 or 2")
        if flow.timers is None:
            flow.timers = [None] * N_TIMERS
        handle = flow.timers[timer_id]
        when = self.sim.now + duration_ps
        if handle is None:
            flow.timers[timer_id] = self.sim.schedule_handle(
                when, self._on_timeout, flow, timer_id
            )
        else:
            self.sim.rearm(handle, when)

    def cancel_timer(self, flow: FlowState, timer_id: int) -> None:
        """Disarm one of the flow's timers (a no-op if it is not armed)."""
        if not 0 <= timer_id < N_TIMERS:
            raise CCModuleError(f"timer id {timer_id} is not 0, 1 or 2")
        if flow.timers is not None and flow.timers[timer_id] is not None:
            flow.timers[timer_id].cancel()

    def _forget_timers(self, flow: FlowState) -> None:
        """Cancel and release all timers of a finished or stopped flow."""
        if flow.timers is not None:
            for handle in flow.timers:
                if handle is not None:
                    handle.cancel()
            flow.timers = None

    def _trace_slow_later(self, flow: FlowState) -> None:
        def log_slow() -> None:
            alpha = getattr(flow.slow, "alpha", None)
            if alpha is not None:
                self.logger.log(self.sim.now, f"flow{flow.flow_id}.slow", alpha=alpha)

        self.sim.after(self.slow_path.latency_ps, log_slow)

    def _clamp(self, value: float) -> float:
        if self.algorithm.mode is CCMode.WINDOW:
            return max(value, 1.0)
        floor = self.algorithm.min_rate_bps(self.config.port_rate_bps)
        return min(max(value, floor), float(self.config.port_rate_bps))

    def _maybe_activate(self, flow: FlowState) -> None:
        if flow.finished:
            return
        scheduler = self.schedulers[flow.port_index]
        if flow.scheduled:
            scheduler.recheck(flow)
            return
        sendable = (
            flow.sendable_window()
            if self.algorithm.mode is CCMode.WINDOW
            else flow.sendable_rate()
        )
        if sendable:
            scheduler.enqueue_flow(flow)

    def _finish_flow(self, flow: FlowState) -> None:
        flow.finished = True
        flow.finish_ps = self.sim.now
        self._forget_timers(flow)
        self.schedulers[flow.port_index].recheck(flow)
        self.completed_flows.append(flow)
        for callback in self.completion_callbacks:
            callback(flow)

    # -- SCHE egress ----------------------------------------------------------------

    def _emit_sche(self, flow: FlowState, psn: int, is_rtx: bool) -> None:
        sche = make_sche(
            flow.flow_id,
            psn,
            flow.port_index,
            src_addr=flow.src_addr,
            dst_addr=flow.dst_addr,
            frame_bytes=flow.frame_bytes,
            is_rtx=is_rtx,
            created_ps=self.sim.now,
        )
        self.port.send(sche)

    # -- control-plane readable state -------------------------------------------------

    def read_counters(self) -> dict[str, int]:
        return {
            "infos_processed": self.infos_processed,
            "infos_unknown_flow": self.infos_for_unknown_flows,
            "rx_fifo_drops": sum(f.dropped for f in self.rx_fifos),
            "rmw_conflicts": self.cc_runtime.conflicts,
            "rmw_stalls": self.rmw_stalls,
            "timeouts_fired": self.timeouts_fired,
            "slow_path_events": self.slow_path.events_processed,
            "slow_path_overruns": self.slow_path.overruns,
            "sche_emitted": sum(s.sche_emitted for s in self.schedulers),
            "rtx_emitted": sum(s.rtx_emitted for s in self.schedulers),
            "flows_completed": len(self.completed_flows),
        }
