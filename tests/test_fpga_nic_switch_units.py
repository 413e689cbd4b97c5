"""Unit tests of the assembled FPGA NIC and Marlin switch devices, plus
the event generator and slow-path executor."""

import gc
import time
from dataclasses import dataclass, field

import pytest

from repro.cc import Cubic, Dcqcn, Dctcp, Reno
from repro.cc.base import EventType, IntrinsicOutput
from repro.cc.dctcp import AlphaUpdateEvent
from repro.core.config import TestConfig
from repro.core.tester import MarlinTester
from repro.errors import CCModuleError, ConfigError, SimulationError
from repro.fpga.clock import cycles_to_ps
from repro.fpga.flow import FlowState
from repro.fpga.nic import FpgaNic
from repro.fpga.slow_path import SlowPathExecutor
from repro.net.link import Link
from repro.net.device import Device
from repro.pswitch.module_a import ReceiverMode
from repro.pswitch.packets import PTYPE_SCHE, make_data, make_info, make_ack, make_sche
from repro.pswitch.port_allocation import allocate_ports
from repro.pswitch.switch import MarlinSwitch
from repro.sim import Simulator
from repro.units import MICROSECOND, MS, US, serialization_time_ps, wire_bits


@dataclass
class TimerLog:
    #: ``(timer_id, fire_ps)`` of every TIMEOUT this flow's CC saw.
    fired: list = field(default_factory=list)


class TimerProbe(Reno):
    """Arms nothing itself and logs each TIMEOUT in the flow's own
    customized block, so the log says which flow fired."""

    name = "test-timer-probe"

    def initial_cust(self):
        return TimerLog()

    def on_flow_start(self, cust, slow, now_ps):
        return IntrinsicOutput()

    def on_event(self, intr, cust, slow):
        if intr.evt_type == EventType.TIMEOUT:
            cust.fired.append((intr.timer_id, intr.tstamp))
        return IntrinsicOutput()


def two_port_nic(sim, algorithm):
    """A 2-port NIC deployed from a default ``TestConfig``."""
    return FpgaNic(
        sim, algorithm, TestConfig(n_test_ports=2),
        n_test_ports=2, receiver_mode=ReceiverMode.TCP,
    )


def timer_nic(n_flows=1):
    """A NIC running ``TimerProbe`` with ``n_flows`` flows started at 0."""
    sim = Simulator()
    nic = two_port_nic(sim, TimerProbe())
    Link(nic.port, Sink(sim, "sink").add_port(), delay_ps=0)
    flows = [
        nic.start_flow(port_index=0, src_addr=1, dst_addr=2, size_packets=10)
        for _ in range(n_flows)
    ]
    return sim, nic, flows


class TestEventGenerator:
    """Figure 4's Event Generator: the NIC's per-flow timers, held on the
    flow record and fed to the CC module as TIMEOUT events."""

    def test_fires_and_dispatches(self):
        sim, nic, (flow,) = timer_nic()
        nic.arm_timer(flow, 0, 500)
        sim.run(until_ps=1000)
        assert flow.cust.fired == [(0, 500)]
        assert nic.read_counters()["timeouts_fired"] == 1

    def test_rearm_extends(self):
        sim, nic, (flow,) = timer_nic()
        nic.arm_timer(flow, 0, 500)
        sim.at(300, nic.arm_timer, flow, 0, 500)
        sim.run(until_ps=2000)
        assert flow.cust.fired == [(0, 800)]

    def test_cancel(self):
        sim, nic, (flow,) = timer_nic()
        nic.arm_timer(flow, 0, 500)
        nic.cancel_timer(flow, 0)
        sim.run(until_ps=2000)
        assert flow.cust.fired == []
        assert nic.timeouts_fired == 0

    def test_per_timer_independence(self):
        sim, nic, (flow,) = timer_nic()
        # Spaced by one RMW so the second expiry need not wait out the first.
        second = 100 + nic.cc_runtime.rmw_duration_ps
        nic.arm_timer(flow, 0, 100)
        nic.arm_timer(flow, 1, second)
        sim.run(until_ps=second + 100)
        assert flow.cust.fired == [(0, 100), (1, second)]

    def test_expiry_waits_out_the_rmw_window(self):
        """Section 5.3 atomicity: a timer that expires while the flow's
        RMW is in flight reaches the CC when it completes, not inside it."""
        sim, nic, (flow,) = timer_nic()
        nic.arm_timer(flow, 0, 100)
        nic.arm_timer(flow, 1, 200)
        sim.run(until_ps=100 + 2 * nic.cc_runtime.rmw_duration_ps)
        rmw_end = 100 + nic.cc_runtime.rmw_duration_ps
        assert flow.cust.fired == [(0, 100), (1, rmw_end)]
        counters = nic.read_counters()
        assert counters["rmw_conflicts"] == 0
        assert counters["rmw_stalls"] == 1
        assert counters["timeouts_fired"] == 2

    def test_byte_counter_waits_out_the_rmw_window(self):
        """A byte-counter event follows the same rule as a timer expiry."""

        class ByteCounterProbe(TimerProbe):
            def byte_counter_bytes(self):
                return 1

        sim = Simulator()
        nic = two_port_nic(sim, ByteCounterProbe())
        # Not started before the check, so it sends nothing by itself.
        flow = nic.start_flow(
            port_index=0, src_addr=1, dst_addr=2, size_packets=10, start_at_ps=MS
        )
        flow.counter_bytes = 1
        flow.rmw_end_ps = 500  # an RMW in flight until 500 ps
        nic._on_bytes_sent(flow)
        assert flow.counter_bytes == 1 and nic.rmw_stalls == 1
        sim.run(until_ps=1000)
        assert flow.counter_bytes == 0
        assert flow.rmw_end_ps == 500 + nic.cc_runtime.rmw_duration_ps
        assert nic.cc_runtime.conflicts == 0

    def test_bad_timer_rejected(self):
        sim, nic, (flow,) = timer_nic()
        with pytest.raises(SimulationError):
            nic.arm_timer(flow, 0, 0)
        with pytest.raises(CCModuleError):
            nic.arm_timer(flow, 3, 100)
        with pytest.raises(CCModuleError):
            nic.cancel_timer(flow, -1)

    def test_forget_flow(self):
        sim, nic, (first, second) = timer_nic(2)
        nic.arm_timer(first, 0, 100)
        nic.arm_timer(second, 0, 100)
        nic.stop_flow(first.flow_id)
        assert first.timers is None
        sim.run(until_ps=300)
        assert first.cust.fired == []
        assert second.cust.fired == [(0, 100)]

    def test_forget_flow_cost_does_not_grow_with_armed_timers(self):
        """Teardown touches only the finished flow's timers: its per-call
        cost at 65,536 flows x 3 timers stays within 3x of the cost at
        1,000 flows (a scan of every armed timer made it ~78x)."""

        def per_call_s(n_flows: int) -> float:
            sim, nic, flows = timer_nic(n_flows)
            for flow in flows:
                for timer_id in range(3):
                    nic.arm_timer(flow, timer_id, 1_000_000 + timer_id)
            # 4 x 100 releases: 1,200 dead entries stay under the
            # compaction trigger (half the heap) even at 1,000 flows.
            # The collector is paused so the 200k-object heap of the
            # large case does not bill its sweeps to the releases.
            chunks = []
            gc.collect()
            gc.disable()
            try:
                for first in range(0, 400, 100):
                    start = time.perf_counter()
                    for flow in flows[first:first + 100]:
                        nic.stop_flow(flow.flow_id)
                    chunks.append((time.perf_counter() - start) / 100)
            finally:
                gc.enable()
            assert flows[0].timers is None and flows[400].timers[2].pending
            return min(chunks)

        small = per_call_s(1_000)
        large = per_call_s(65_536)
        assert large <= 3 * small, (small, large)


def slow_flow(alg, flow_id=1):
    """A flow record holding ``alg``'s initial CC state."""
    return FlowState(
        flow_id=flow_id, port_index=0, src_addr=1, dst_addr=2,
        size_packets=10, frame_bytes=1024, cwnd_or_rate=1.0,
        cust=alg.initial_cust(), slow=alg.initial_slow(),
    )


class TestSlowPathExecutor:
    def test_executes_with_latency(self):
        sim = Simulator()
        executor = SlowPathExecutor(sim, cycles=100)
        alg = Dctcp()
        flow = slow_flow(alg)
        executor.submit(alg, flow, AlphaUpdateEvent(acked=10, marked=10))
        assert flow.slow.alpha == 1.0  # not yet
        sim.run()
        assert flow.slow.alpha < 1.0 or flow.slow.alpha == pytest.approx(1.0)
        assert executor.events_processed == 1
        assert sim.now == executor.latency_ps

    def test_overrun_detection(self):
        sim = Simulator()
        executor = SlowPathExecutor(sim, cycles=1000)
        alg = Dctcp()
        flow = slow_flow(alg)
        executor.submit(alg, flow, AlphaUpdateEvent(acked=1, marked=0))
        executor.submit(alg, flow, AlphaUpdateEvent(acked=1, marked=0))
        assert executor.overruns == 1

    def test_distinct_flows_no_overrun(self):
        sim = Simulator()
        executor = SlowPathExecutor(sim, cycles=1000)
        alg = Dctcp()
        executor.submit(alg, slow_flow(alg, 1), AlphaUpdateEvent(acked=1, marked=0))
        executor.submit(alg, slow_flow(alg, 2), AlphaUpdateEvent(acked=1, marked=0))
        assert executor.overruns == 0

    def test_rate_update_callback(self):
        sim = Simulator()
        seen = []

        class SlowCC(Reno):
            name = "test-slowcc"

            def slow_path(self, event, cust, slow):
                return 42.0

        executor = SlowPathExecutor(
            sim, cycles=10, on_rate_update=lambda f, v: seen.append((f.flow_id, v))
        )
        alg = SlowCC()
        executor.submit(alg, slow_flow(alg, 3), "ev")
        sim.run()
        assert seen == [(3, 42.0)]


class Sink(Device):
    def __init__(self, sim, name=None):
        super().__init__(sim, name)
        self.received = []

    def receive(self, packet, port):
        self.received.append((self.sim.now, packet))


class TestFpgaNicUnit:
    def build(self, algorithm=None):
        sim = Simulator()
        nic = two_port_nic(sim, algorithm if algorithm is not None else Reno())
        sink = Sink(sim, "sink")
        Link(nic.port, sink.add_port(), delay_ps=0)
        return sim, nic, sink

    def test_start_flow_emits_sche(self):
        sim, nic, sink = self.build()
        nic.start_flow(port_index=0, src_addr=1, dst_addr=2, size_packets=10)
        sim.run(until_ps=50 * US)  # below the RTO
        sches = [p for _, p in sink.received if p.ptype == PTYPE_SCHE]
        assert len(sches) == 1  # initial cwnd 1: exactly one packet in flight
        assert sches[0].psn == 0
        assert sches[0].meta["egress_port"] == 0

    def test_info_advances_flow(self):
        sim, nic, sink = self.build()
        flow = nic.start_flow(port_index=0, src_addr=1, dst_addr=2, size_packets=10)
        sim.run(until_ps=1 * US)
        data = make_data(flow.flow_id, 0, src_addr=1, dst_addr=2, frame_bytes=1024, tx_tstamp_ps=0)
        ack = make_ack(data, 1)
        info = make_info(ack, 0)
        nic.receive(info, nic.port)
        sim.run(until_ps=50 * US)  # below the RTO
        assert flow.una == 1
        assert flow.cwnd_or_rate == 2.0  # slow-start growth

    def test_completion_callback_and_fct(self):
        sim, nic, sink = self.build()
        done = []
        nic.on_complete(done.append)
        flow = nic.start_flow(port_index=0, src_addr=1, dst_addr=2, size_packets=3)
        sim.run(until_ps=1 * US)
        data = make_data(flow.flow_id, 2, src_addr=1, dst_addr=2, frame_bytes=1024, tx_tstamp_ps=0)
        info = make_info(make_ack(data, 3), 0)
        nic.receive(info, nic.port)
        sim.run(until_ps=1 * MS)
        assert done and done[0].flow_id == flow.flow_id
        assert flow.finished and flow.fct_ps >= 0
        assert nic.read_counters()["flows_completed"] == 1

    def test_unknown_flow_info_counted(self):
        sim, nic, sink = self.build()
        data = make_data(99, 0, src_addr=1, dst_addr=2, frame_bytes=1024, tx_tstamp_ps=0)
        info = make_info(make_ack(data, 1), 0)
        nic.receive(info, nic.port)
        sim.run(until_ps=1 * MS)
        assert nic.read_counters()["infos_unknown_flow"] == 1

    def test_bad_port_index_rejected(self):
        sim, nic, sink = self.build()
        with pytest.raises(ConfigError):
            nic.start_flow(port_index=5, src_addr=1, dst_addr=2, size_packets=1)

    def test_bad_size_rejected(self):
        sim, nic, sink = self.build()
        with pytest.raises(ConfigError):
            nic.start_flow(port_index=0, src_addr=1, dst_addr=2, size_packets=0)

    def test_duplicate_flow_id_rejected(self):
        sim, nic, sink = self.build()
        nic.start_flow(port_index=0, src_addr=1, dst_addr=2, size_packets=1, flow_id=7)
        with pytest.raises(ConfigError):
            nic.start_flow(port_index=0, src_addr=1, dst_addr=2, size_packets=1, flow_id=7)

    def test_rto_fires_without_feedback(self):
        sim, nic, sink = self.build(algorithm=Reno(rto_ps=100 * US))
        flow = nic.start_flow(port_index=0, src_addr=1, dst_addr=2, size_packets=10)
        sim.run(until_ps=1 * MS)
        assert nic.read_counters()["timeouts_fired"] >= 1
        assert flow.cwnd_or_rate == 1.0

    def test_delayed_start(self):
        sim, nic, sink = self.build()
        flow = nic.start_flow(
            port_index=0, src_addr=1, dst_addr=2, size_packets=5, start_at_ps=500 * US
        )
        sim.run(until_ps=100 * US)
        assert not flow.started
        sim.run(until_ps=600 * US)
        assert flow.started
        assert flow.start_ps == 500 * US

    @staticmethod
    def info_acking(flow, psn):
        data = make_data(
            flow.flow_id, psn - 1, src_addr=1, dst_addr=2, frame_bytes=1024, tx_tstamp_ps=0
        )
        return make_info(make_ack(data, psn), 0)

    def started(self):
        sim, nic, sink = self.build()
        flow = nic.start_flow(port_index=0, src_addr=1, dst_addr=2, size_packets=10)
        sim.run(until_ps=1 * US)
        return sim, nic, flow

    def test_free_rx_slot_drains_inline(self):
        sim, nic, flow = self.started()
        nic.receive(self.info_acking(flow, 1), nic.port)
        # Processed inside receive: no event between arrival and drain.
        assert nic.infos_processed == 1
        assert flow.una == 1

    def test_busy_rx_slot_defers_to_next_slot(self):
        sim, nic, flow = self.started()
        now = sim.now
        nic.receive(self.info_acking(flow, 1), nic.port)
        nic.receive(self.info_acking(flow, 2), nic.port)
        assert nic.infos_processed == 1
        interval = nic.frequency.rx_interval_ps
        sim.run(until_ps=now + interval - 1)
        assert nic.infos_processed == 1
        sim.run(until_ps=now + interval)
        assert nic.infos_processed == 2
        assert flow.una == 2

    def test_busy_rmw_stalls_drain(self):
        sim, nic, flow = self.started()
        now = sim.now
        flow.rmw_end_ps = now + 5000  # an RMW in flight until now + 5 ns
        nic.receive(self.info_acking(flow, 1), nic.port)
        assert nic.infos_processed == 0
        assert nic.rmw_stalls == 1
        sim.run(until_ps=now + 4999)
        assert nic.infos_processed == 0
        sim.run(until_ps=now + 5000)
        assert nic.infos_processed == 1

    def test_frequency_warnings_for_slow_cc(self):
        sim, nic, sink = self.build(algorithm=Cubic())
        assert nic.frequency_warnings  # ~100 cycles > 27-cycle budget


class Shrinker(Cubic):
    """CUBIC's cycle cost, so the NIC paces it under the per-flow PPS cap,
    with a 100-packet window that only the ACK of PSN 2 changes: it
    collapses the window to one packet, directly or through the slow
    path.  No timers, no retransmissions."""

    name = "test-shrinker"

    def __init__(self, via_slow_path=False):
        super().__init__()
        self.via_slow_path = via_slow_path

    def initial_cwnd_or_rate(self, link_rate_bps):
        return 100.0

    def on_flow_start(self, cust, slow, now_ps):
        return IntrinsicOutput()

    def on_event(self, intr, cust, slow):
        if intr.evt_type != EventType.RX or intr.psn != 2:
            return IntrinsicOutput()
        if self.via_slow_path:
            return IntrinsicOutput(slow_path_events=["shrink"])
        return IntrinsicOutput(cwnd_or_rate=1.0)

    def slow_path(self, event, cust, slow):
        return 1.0


class TestNicWakesSleepingScheduler:
    """The NIC tells a scheduler sleeping through a shut pacing gate when
    its flow turns ineligible, so the flow is descheduled at the tick a
    polling timer would have found it on.  The emission times are
    literals recorded from a timer that polled every period."""

    def build(self, algorithm):
        sim = Simulator()
        nic = two_port_nic(sim, algorithm)
        nic.slow_path.latency_ps = cycles_to_ps(10)
        sink = Sink(sim, "sink")
        Link(nic.port, sink.add_port(), delay_ps=0)
        return sim, nic, sink

    @staticmethod
    def sche_times(sink, flow):
        return [
            t for t, p in sink.received
            if p.ptype == PTYPE_SCHE and p.flow_id == flow.flow_id
        ]

    def rate_flow_sleeping(self):
        """A DCQCN flow paced to one SCHE per four TX periods."""
        sim, nic, sink = self.build(Dcqcn())
        flow = nic.start_flow(port_index=0, src_addr=1, dst_addr=2, size_packets=100)
        sim.run(until_ps=0)
        tx = nic.frequency.tx_interval_ps
        flow.cwnd_or_rate = wire_bits(1024) * 1e12 / (4 * tx)
        return sim, nic, sink, flow, tx

    def test_stop_mid_sleep(self):
        sim, nic, sink, flow, tx = self.rate_flow_sleeping()
        sim.at(6 * tx + tx // 2, nic.stop_flow, flow.flow_id)
        other = nic.start_flow(
            port_index=0, src_addr=1, dst_addr=2, size_packets=3,
            start_at_ps=7 * tx + tx // 2,
        )
        sim.run(until_ps=20 * tx)
        assert self.sche_times(sink, flow) == [6720, 90240, 424320]
        assert self.sche_times(sink, other) == [674880, 758400, 841920]

    def test_completion_mid_sleep(self):
        sim, nic, sink, flow, tx = self.rate_flow_sleeping()
        # An ACK past nxt (the receiver already held the rest) completes
        # the flow while the scheduler sleeps on it.
        info = TestFpgaNicUnit.info_acking(flow, 100)
        sim.at(6 * tx + tx // 2, nic.receive, info, nic.port)
        other = nic.start_flow(
            port_index=0, src_addr=1, dst_addr=2, size_packets=3,
            start_at_ps=7 * tx + tx // 2,
        )
        sim.run(until_ps=20 * tx)
        assert flow.finished
        assert self.sche_times(sink, flow) == [6720, 90240, 424320]
        assert self.sche_times(sink, other) == [674880, 758400, 841920]

    @pytest.mark.parametrize("via_slow_path", [False, True])
    def test_window_shrink_mid_sleep(self, via_slow_path):
        sim, nic, sink = self.build(Shrinker(via_slow_path))
        assert nic.schedulers[0].min_flow_spacing_ps > 0
        flow = nic.start_flow(port_index=0, src_addr=1, dst_addr=2, size_packets=100)
        tx = nic.frequency.tx_interval_ps
        info = TestFpgaNicUnit.info_acking
        # SCHEs leave at 0, 4, 8 tx; the window shrinks just after the
        # third and reopens after the shrinking ACK's RMW, before the gate.
        shrink_at = 8 * tx + 5_000
        if via_slow_path:
            shrink_at -= nic.slow_path.latency_ps
        sim.at(shrink_at, nic.receive, info(flow, 2), nic.port)
        sim.at(11 * tx + 3 * tx // 4, nic.receive, info(flow, 3), nic.port)
        sim.run(until_ps=20 * tx)
        assert self.sche_times(sink, flow) == [6720, 340800, 674880, 1071600]


def two_port_switch(sim, receiver_logic_on_fpga=False):
    """A 2-port TCP-mode switch deployed from a ``TestConfig``."""
    config = TestConfig(n_test_ports=2, receiver_logic_on_fpga=receiver_logic_on_fpga)
    allocation = allocate_ports(
        config.template_bytes,
        requested_test_ports=2,
        receiver_logic_on_fpga=receiver_logic_on_fpga,
    )
    return MarlinSwitch(
        sim, config, allocation=allocation, receiver_mode=ReceiverMode.TCP
    )


class TestMarlinSwitchUnit:
    def build(self):
        sim = Simulator()
        switch = two_port_switch(sim)
        fpga_sink = Sink(sim, "fpga")
        Link(switch.fpga_port, fpga_sink.add_port(), delay_ps=0)
        net_sinks = []
        for port in switch.test_ports:
            sink = Sink(sim, f"net{port.index}")
            Link(port, sink.add_port(), delay_ps=0)
            net_sinks.append(sink)
        return sim, switch, fpga_sink, net_sinks

    def test_sche_in_data_out(self):
        sim, switch, fpga_sink, net_sinks = self.build()
        sche = make_sche(1, 0, 1, src_addr=10, dst_addr=20, frame_bytes=1024)
        switch.receive(sche, switch.fpga_port)
        sim.run(until_ps=1 * MS)
        datas = [p for _, p in net_sinks[1].received if p.ptype == "DATA"]
        assert len(datas) == 1
        assert datas[0].src == 10 and datas[0].dst == 20

    def test_sche_on_wrong_port_rejected(self):
        sim, switch, fpga_sink, net_sinks = self.build()
        sche = make_sche(1, 0, 0, src_addr=1, dst_addr=2, frame_bytes=1024)
        with pytest.raises(ConfigError):
            switch.receive(sche, switch.test_ports[0])

    def test_data_in_ack_out_same_port(self):
        sim, switch, fpga_sink, net_sinks = self.build()
        data = make_data(1, 0, src_addr=10, dst_addr=20, frame_bytes=1024, tx_tstamp_ps=0)
        switch.receive(data, switch.test_ports[1])
        sim.run(until_ps=1 * MS)
        acks = [p for _, p in net_sinks[1].received if p.ptype == "ACK"]
        assert len(acks) == 1
        assert acks[0].psn == 1

    def test_ack_in_info_out_fpga_port(self):
        sim, switch, fpga_sink, net_sinks = self.build()
        data = make_data(1, 0, src_addr=10, dst_addr=20, frame_bytes=1024, tx_tstamp_ps=5)
        ack = make_ack(data, 1)
        switch.receive(ack, switch.test_ports[0])
        sim.run(until_ps=1 * MS)
        infos = [p for _, p in fpga_sink.received if p.ptype == "INFO"]
        assert len(infos) == 1
        assert infos[0].meta["rx_port"] == 0
        assert switch.read_counters()["infos_generated"] == 1

    def test_pipeline_latency_applied(self):
        """Every ingress path reaches its handler ``pipeline_latency_ps``
        after the packet arrives, exactly once per hop; the link carries
        the latency, so a packet sent by a peer port is the probe."""
        sim = Simulator()
        switch = two_port_switch(sim, receiver_logic_on_fpga=True)
        delay = 1_000
        peers = {}
        for port in (switch.fpga_port, switch.receiver_port, *switch.test_ports):
            peers[port.index] = Sink(sim, f"peer{port.index}").add_port()
            Link(peers[port.index], port, delay_ps=delay)
        calls = []
        for name in ("_handle_sche", "_handle_data", "_handle_ack", "_handle_fpga_response"):
            def spy(*args, _name=name, _handler=getattr(switch, name)):
                calls.append((_name, sim.now))
                _handler(*args)

            setattr(switch, name, spy)

        data = make_data(1, 0, src_addr=10, dst_addr=20, frame_bytes=1024, tx_tstamp_ps=0)
        response = make_ack(data, 1)
        response.meta["egress_port"] = 0
        probes = [
            (
                switch.fpga_port,
                make_sche(1, 0, 1, src_addr=10, dst_addr=20, frame_bytes=1024),
                "_handle_sche",
            ),
            (switch.test_ports[0], data, "_handle_data"),
            (switch.test_ports[1], make_ack(data, 1), "_handle_ack"),
            (switch.receiver_port, response, "_handle_fpga_response"),
        ]
        expected = []
        for port, packet, handler in probes:
            peer = peers[port.index]
            arrival = serialization_time_ps(packet.size_bytes, peer.rate_bps) + delay
            expected.append((handler, arrival + switch.config.pipeline_latency_ps))
            peer.send(packet)
        sim.run(until_ps=1 * MS)
        assert sorted(calls) == sorted(expected)

    def test_counters(self):
        sim, switch, fpga_sink, net_sinks = self.build()
        sche = make_sche(1, 0, 0, src_addr=10, dst_addr=20, frame_bytes=1024)
        switch.receive(sche, switch.fpga_port)
        sim.run(until_ps=1 * MS)
        counters = switch.read_counters()
        assert counters["sche_accepted"] == 1
        assert counters["data_generated"] == 1

    def test_unknown_ptype_counted(self):
        sim, switch, fpga_sink, net_sinks = self.build()
        from repro.net.packet import Packet

        switch.receive(Packet("WEIRD", 1, 2, 64), switch.test_ports[0])
        assert switch.unknown_packets == 1

    def test_allocation_uses_paper_optimum(self):
        switch = MarlinTester(Simulator(), TestConfig(template_bytes=1024)).switch
        assert switch.n_test_ports == 12
        assert switch.allocation.data_throughput_bps == 1_200_000_000_000


class TestDeployedConfig:
    """The tester, switch and NIC share one ``TestConfig``: every field
    that configures a device shows in the built switch / NIC state, and
    the values derived from it are resolved once for both devices."""

    @staticmethod
    def deploy(**fields):
        return MarlinTester(Simulator(), TestConfig(**fields))

    def test_one_config_object(self):
        tester = self.deploy()
        assert tester.switch.config is tester.config
        assert tester.nic.config is tester.config

    def test_queue_capacity(self):
        tester = self.deploy(n_test_ports=2, queue_capacity=7)
        assert [q.capacity for q in tester.switch.data_generator.queues] == [7, 7]

    def test_pipeline_latency(self):
        tester = self.deploy(pipeline_latency_ps=123_000)
        assert tester.switch.rx_latency_ps == 123_000

    def test_cnp_interval_on_both_receivers(self):
        tester = self.deploy(
            cc_algorithm="dcqcn",
            cnp_interval_ps=7 * MICROSECOND,
            receiver_logic_on_fpga=True,
        )
        assert tester.switch.receiver.cnp_interval_ps == 7 * MICROSECOND
        assert tester.nic.fpga_receiver.cnp_interval_ps == 7 * MICROSECOND

    @pytest.mark.parametrize("strict", [False, True])
    def test_strict_reaches_queues_and_cc_runtime(self, strict):
        tester = self.deploy(strict=strict, n_test_ports=2, queue_capacity=7)
        assert tester.switch.data_generator.strict is strict
        assert [q.capacity for q in tester.switch.data_generator.queues] == [7, 7]
        assert tester.nic.cc_runtime.strict_bram is strict

    @pytest.mark.parametrize(
        "algorithm,receiver_mode,expected",
        [
            ("dctcp", "auto", ReceiverMode.TCP),
            ("dcqcn", "auto", ReceiverMode.ROCE),
            ("dctcp", "roce", ReceiverMode.ROCE),
            ("dcqcn", "tcp", ReceiverMode.TCP),
        ],
    )
    def test_receiver_mode_on_both_receivers(self, algorithm, receiver_mode, expected):
        tester = self.deploy(
            cc_algorithm=algorithm,
            receiver_mode=receiver_mode,
            receiver_logic_on_fpga=True,
        )
        assert tester.switch.receiver.mode is expected
        assert tester.nic.fpga_receiver.mode is expected

    def test_port_count_resolved_for_both_devices(self):
        tester = self.deploy(template_bytes=1024)  # n_test_ports=None: optimum
        assert tester.config.n_test_ports is None
        assert tester.switch.n_test_ports == tester.nic.n_test_ports == 12
        assert len(tester.nic.schedulers) == len(tester.nic.rx_fifos) == 12
        with pytest.raises(ConfigError, match=r"\[0, 12\)"):
            tester.nic.start_flow(port_index=12, src_addr=1, dst_addr=2, size_packets=1)

    def test_flags_and_template(self):
        tester = self.deploy(
            template_bytes=1024,
            int_enabled=True,
            trace_cc=True,
            disable_rx_timer=True,
            sample_rtt=True,
        )
        assert tester.switch.data_generator.template_bytes == 1024
        assert tester.switch.data_generator.int_enabled is True
        assert tester.nic.frequency.template_bytes == 1024
        nic = tester.nic
        assert (nic._trace_cc, nic._rx_bypass, nic._sample_rtt) == (True, True, True)
