"""Modules A (receiver logic), B (INFO generator), C (DATA generator)."""

import pytest

from repro.net.device import Device
from repro.net.link import Link
from repro.errors import RegisterQueueOverflow
from repro.net.packet import CE, ECT
from repro.pswitch.module_a import ReceiverLogic, ReceiverMode
from repro.pswitch.module_c import DataGenerator
from repro.pswitch.packets import (
    PTYPE_ACK,
    PTYPE_DATA,
    PTYPE_INFO,
    make_ack,
    make_data,
    make_info,
    make_sche,
)
from repro.sim import Simulator
from repro.units import MICROSECOND, serialization_time_ps, RATE_100G


def data_packet(psn, flow=1, ce=False, t=0):
    p = make_data(
        flow, psn, src_addr=10, dst_addr=20, frame_bytes=1024, tx_tstamp_ps=t
    )
    if ce:
        p.mark_ce()
    return p


class TestReceiverTcp:
    def make(self):
        return ReceiverLogic(ReceiverMode.TCP, ooo_capacity=4)

    def test_in_order_cumulative_acks(self):
        recv = self.make()
        acks = [recv.on_data(data_packet(psn), 0)[0] for psn in range(3)]
        assert [a.psn for a in acks] == [1, 2, 3]
        assert all(a.ptype == PTYPE_ACK for a in acks)
        assert all(a.size_bytes == 64 for a in acks)

    def test_ack_swaps_addresses(self):
        recv = self.make()
        ack = recv.on_data(data_packet(0), 0)[0]
        assert ack.src == 20 and ack.dst == 10

    def test_out_of_order_generates_dupack(self):
        recv = self.make()
        recv.on_data(data_packet(0), 0)
        dup = recv.on_data(data_packet(2), 0)[0]
        assert dup.psn == 1  # still expecting 1

    def test_hole_fill_jumps_cumulative_ack(self):
        recv = self.make()
        recv.on_data(data_packet(0), 0)
        recv.on_data(data_packet(2), 0)
        recv.on_data(data_packet(3), 0)
        ack = recv.on_data(data_packet(1), 0)[0]
        assert ack.psn == 4  # 1 fills the hole; 2,3 were buffered

    def test_ooo_buffer_bounded(self):
        recv = self.make()
        for psn in range(2, 10):
            recv.on_data(data_packet(psn), 0)
        assert recv.ooo_dropped == 4  # capacity 4

    def test_ecn_echo(self):
        recv = self.make()
        ack = recv.on_data(data_packet(0, ce=True), 0)[0]
        assert ack.ecn_echo

    def test_duplicate_retx_reacked(self):
        recv = self.make()
        recv.on_data(data_packet(0), 0)
        ack = recv.on_data(data_packet(0), 0)[0]
        assert ack.psn == 1

    def test_ack_echoes_tx_timestamp(self):
        recv = self.make()
        ack = recv.on_data(data_packet(0, t=777), 0)[0]
        assert ack.meta["echo_tstamp_ps"] == 777

    def test_forget_flow_releases_state(self):
        recv = self.make()
        recv.on_data(data_packet(0), 0)
        recv.forget_flow(1)
        assert 1 not in recv.flows


class TestReceiverRoce:
    def make(self, cnp_interval=50 * MICROSECOND):
        return ReceiverLogic(ReceiverMode.ROCE, cnp_interval_ps=cnp_interval)

    def test_in_order_acks(self):
        recv = self.make()
        responses = recv.on_data(data_packet(0), 0)
        assert len(responses) == 1
        assert responses[0].psn == 1

    def test_out_of_order_nacks_once(self):
        recv = self.make()
        recv.on_data(data_packet(0), 0)
        first = recv.on_data(data_packet(3), 0)
        second = recv.on_data(data_packet(4), 0)
        assert first[0].meta["nack"] and first[0].psn == 1
        assert second == []  # gap already NACKed
        assert recv.nacks_generated == 1

    def test_ooo_packets_dropped(self):
        recv = self.make()
        recv.on_data(data_packet(0), 0)
        recv.on_data(data_packet(3), 0)
        assert recv.ooo_dropped == 1
        # Retransmission restarts from the gap: go-back-N.
        ack = recv.on_data(data_packet(1), 0)[0]
        assert ack.psn == 2

    def test_cnp_on_ce_mark(self):
        recv = self.make()
        responses = recv.on_data(data_packet(0, ce=True), 0)
        cnps = [r for r in responses if r.meta.get("cnp")]
        assert len(cnps) == 1
        assert recv.cnps_generated == 1

    def test_cnp_rate_limited(self):
        recv = self.make(cnp_interval=100)
        recv.on_data(data_packet(0, ce=True), 0)
        r2 = recv.on_data(data_packet(1, ce=True), 50)
        assert not any(r.meta.get("cnp") for r in r2)
        r3 = recv.on_data(data_packet(2, ce=True), 150)
        assert any(r.meta.get("cnp") for r in r3)

    def test_duplicate_reacked(self):
        recv = self.make()
        recv.on_data(data_packet(0), 0)
        responses = recv.on_data(data_packet(0), 0)
        assert responses[0].psn == 1 and not responses[0].meta["nack"]


class TestModuleB:
    """Module B is the ACK -> INFO rewrite; the switch counts each one as
    ``infos_generated`` (see ``TestMarlinSwitchUnit``)."""

    def test_transform_preserves_fields(self):
        data = data_packet(4, ce=True, t=500)
        ack = make_ack(data, 5, created_ps=600)
        info = make_info(ack, 7, created_ps=700)
        assert info.ptype == PTYPE_INFO
        assert info.size_bytes == 64
        assert info.flow_id == 1
        assert info.psn == 5
        assert info.ecn_echo
        assert info.meta["rx_port"] == 7
        assert info.meta["echo_tstamp_ps"] == 500
        assert info.created_ps == 700


class Collector(Device):
    def __init__(self, sim, name=None):
        super().__init__(sim, name)
        self.received = []

    def receive(self, packet, port):
        self.received.append((self.sim.now, packet))


class TestDataGenerator:
    def build(self, n_ports=2, queue_capacity=4, strict=False):
        sim = Simulator()
        source = Collector(sim, "marlin")
        sinks = []
        ports = []
        for i in range(n_ports):
            port = source.add_port(rate_bps=RATE_100G)
            sink = Collector(sim, f"sink{i}")
            Link(port, sink.add_port(), delay_ps=0)
            ports.append(port)
            sinks.append(sink)
        gen = DataGenerator(
            sim, ports, template_bytes=1024, queue_capacity=queue_capacity,
            strict=strict,
        )
        return sim, gen, sinks

    def sche(self, psn, port=0, flow=1):
        return make_sche(
            flow, psn, port, src_addr=10, dst_addr=20, frame_bytes=1024
        )

    def test_sche_produces_data(self):
        sim, gen, sinks = self.build()
        gen.on_sche(self.sche(0))
        sim.run()
        assert len(sinks[0].received) == 1
        _, packet = sinks[0].received[0]
        assert packet.ptype == PTYPE_DATA
        assert packet.psn == 0
        assert packet.src == 10 and packet.dst == 20
        assert packet.size_bytes == 1024
        assert packet.ecn == ECT

    def test_generation_respects_temp_grid(self):
        """DATA emission happens on the TEMP multicast grid: one packet per
        template interval per port."""
        sim, gen, sinks = self.build()
        for psn in range(3):
            gen.on_sche(self.sche(psn))
        sim.run()
        interval = gen.temp_interval_ps
        start_times = [t - serialization_time_ps(1024, RATE_100G)
                       for t, _ in sinks[0].received]
        assert all(t % interval == 0 for t in start_times)
        diffs = [b - a for a, b in zip(start_times, start_times[1:])]
        assert all(d >= interval for d in diffs)

    def test_ports_generate_independently(self):
        sim, gen, sinks = self.build()
        gen.on_sche(self.sche(0, port=0))
        gen.on_sche(self.sche(0, port=1, flow=2))
        sim.run()
        assert len(sinks[0].received) == 1
        assert len(sinks[1].received) == 1

    def test_queue_overflow_is_false_packet_loss(self):
        sim, gen, sinks = self.build(queue_capacity=2)
        for psn in range(5):
            gen.on_sche(self.sche(psn))
        # Three SCHE beyond capacity arrive before any TEMP dequeue... the
        # first enqueue triggers a generation at t=0 grid point, but all
        # five arrive at t=0, so capacity 2 drops three.
        assert gen.sche_dropped == 3
        sim.run()
        assert len(sinks[0].received) == 2

    def test_strict_overflow_raises(self):
        sim, gen, sinks = self.build(queue_capacity=1, strict=True)
        assert gen.on_sche(self.sche(0))
        with pytest.raises(RegisterQueueOverflow):
            gen.on_sche(self.sche(1))

    def test_per_flow_counters(self):
        sim, gen, sinks = self.build()
        gen.on_sche(self.sche(0, flow=7))
        gen.on_sche(self.sche(1, flow=7))
        sim.run()
        assert gen.flow_tx_packets[7] == 2

    def test_invalid_port_rejected(self):
        sim, gen, sinks = self.build()
        with pytest.raises(ValueError):
            gen.on_sche(self.sche(0, port=9))

    def test_rtx_flag_propagates(self):
        sim, gen, sinks = self.build()
        gen.on_sche(
            make_sche(1, 5, 0, src_addr=1, dst_addr=2, frame_bytes=1024, is_rtx=True)
        )
        sim.run()
        assert sinks[0].received[0][1].meta["is_rtx"]
