"""PFC: pause/resume mechanics, losslessness, and head-of-line blocking."""

import pytest

from repro import ControlPlane, TestConfig
from repro.errors import ConfigError
from repro.net.device import Device
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.pfc import PfcController, enable_pfc
from repro.net.switch import NetworkSwitch
from repro.sim import Simulator
from repro.units import GBPS, MS, US


class Sink(Device):
    def __init__(self, sim, name=None):
        super().__init__(sim, name)
        self.received = []

    def receive(self, packet, port):
        self.received.append(packet)


class TestPortPause:
    def test_pause_holds_frames(self):
        sim = Simulator()
        a, b = Sink(sim, "a"), Sink(sim, "b")
        pa = a.add_port()
        Link(pa, b.add_port(), delay_ps=0)
        pa.pause()
        pa.send(Packet("DATA", 1, 2, 64))
        sim.run(until_ps=1 * US)
        assert b.received == []
        pa.resume()
        sim.run(until_ps=2 * US)
        assert len(b.received) == 1

    def test_in_flight_frame_completes(self):
        sim = Simulator()
        a, b = Sink(sim, "a"), Sink(sim, "b")
        pa = a.add_port()
        Link(pa, b.add_port(), delay_ps=0)
        pa.send(Packet("DATA", 1, 2, 1024))
        pa.send(Packet("DATA", 1, 2, 1024))
        sim.at(10, pa.pause)  # mid-first-frame
        sim.run(until_ps=1 * US)
        assert len(b.received) == 1  # first finished, second held

    def test_pause_idempotent(self):
        sim = Simulator()
        a, b = Sink(sim, "a"), Sink(sim, "b")
        pa = a.add_port()
        Link(pa, b.add_port())
        pa.pause()
        pa.pause()
        assert pa.pause_events == 1
        pa.resume()
        pa.resume()
        assert not pa.paused


class TestControllerWatermarks:
    def build(self):
        sim = Simulator()
        switch = NetworkSwitch(sim, "sw")
        up = Sink(sim, "up")
        down = Sink(sim, "down")
        up_port = up.add_port()
        Link(
            up_port,
            switch.add_ecn_port(capacity_bytes=2**20, ecn_threshold_bytes=83_000),
            delay_ps=100,
        )
        egress = switch.add_ecn_port(
            rate_bps=1 * GBPS, capacity_bytes=2**20, ecn_threshold_bytes=83_000
        )
        Link(egress, down.add_port(rate_bps=1 * GBPS), delay_ps=100)
        switch.set_route(2, egress)
        controller = PfcController(switch, xoff_bytes=10_000, xon_bytes=5_000)
        return sim, switch, up, up_port, controller

    def test_xoff_pauses_upstream(self):
        sim, switch, up, up_port, controller = self.build()
        # Blast enough to cross XOFF on the slow egress.
        for psn in range(30):
            up_port.send(Packet("DATA", 1, 2, 1024, flow_id=1, psn=psn))
        sim.run(until_ps=50 * US)
        assert controller.pause_frames_sent > 0
        assert up_port.pause_events > 0

    def test_xon_resumes_and_drains(self):
        sim, switch, up, up_port, controller = self.build()
        for psn in range(30):
            up_port.send(Packet("DATA", 1, 2, 1024, flow_id=1, psn=psn))
        sim.run(until_ps=2 * MS)
        assert controller.resume_frames_sent > 0
        assert not controller.currently_pausing
        assert not up_port.paused

    def test_watermark_validation(self):
        sim = Simulator()
        switch = NetworkSwitch(sim)
        with pytest.raises(ConfigError):
            PfcController(switch, xoff_bytes=100, xon_bytes=100)


class TestLosslessness:
    def incast(self, *, pfc: bool, queue_capacity=128 * 1024):
        """3-to-1 DCQCN incast into a switch with SMALL buffers.

        With PFC, XOFF at 40 kB leaves ~88 kB of headroom — enough to
        absorb the PAUSE flight time (1 us links: ~14 kB in flight per
        sender) from all three senders, the standard headroom sizing.
        """
        cp = ControlPlane()
        tester = cp.deploy(TestConfig(cc_algorithm="dcqcn", n_test_ports=4))
        cp.wire_loopback_fabric(
            queue_capacity_bytes=queue_capacity,
            ecn_threshold_bytes=20_000,
        )
        assert cp.fabric is not None
        if pfc:
            enable_pfc(cp.fabric, xoff_bytes=40_000, xon_bytes=20_000)
        cp.start_flows(size_packets=3000, pattern="fan_in")
        cp.run(duration_ps=20 * MS)
        drops = sum(p.queue.stats.dropped_packets for p in cp.fabric.ports)
        return cp, tester, drops

    def test_small_buffers_drop_without_pfc(self):
        cp, tester, drops = self.incast(pfc=False)
        assert drops > 0  # the burst overruns 64 kB buffers

    def test_pfc_makes_fabric_lossless(self):
        cp, tester, drops = self.incast(pfc=True)
        assert drops == 0
        assert len(tester.fct) == 3  # flows still complete


class TestHeadOfLineBlocking:
    def test_victim_flow_stalls_behind_paused_link(self):
        """The PFC pathology: a flow to an UNcongested destination slows
        because its ingress link is paused for someone else's congestion."""
        def victim_progress(pfc: bool) -> int:
            cp = ControlPlane()
            tester = cp.deploy(TestConfig(cc_algorithm="dcqcn", n_test_ports=5))
            cp.wire_loopback_fabric(
                queue_capacity_bytes=64 * 1024, ecn_threshold_bytes=60_000
            )
            if pfc:
                enable_pfc(cp.fabric, xoff_bytes=40_000, xon_bytes=20_000)
            # Congestion: ports 0-2 -> port 3 (with a high ECN threshold
            # the queue rides near XOFF, keeping PAUSE asserted often).
            for src in range(3):
                tester.start_flow(
                    port_index=src, dst_port_index=3, size_packets=10**9
                )
            # Victim: port 4 -> port 0's address, no congestion of its own.
            victim = tester.start_flow(
                port_index=4, dst_port_index=0, size_packets=10**9
            )
            # 10 ms reaches the steady-state ratio; at 5 ms the margin
            # sits within the noise of same-timestamp tie-breaking.
            cp.run(duration_ps=10 * MS)
            return victim.una

        with_pfc = victim_progress(True)
        without = victim_progress(False)
        assert with_pfc < 0.8 * without  # HOL blocking bites

    def test_dcqcn_keeps_pfc_quiet_with_proper_ecn(self):
        """The intended deployment: ECN threshold well below XOFF means
        DCQCN reacts first and PAUSE rarely (or never) fires."""
        cp = ControlPlane()
        tester = cp.deploy(TestConfig(cc_algorithm="dcqcn", n_test_ports=4))
        cp.wire_loopback_fabric(
            queue_capacity_bytes=4 * 2**20, ecn_threshold_bytes=84_000
        )
        controller = enable_pfc(
            cp.fabric, xoff_bytes=1 * 2**20, xon_bytes=512 * 1024
        )
        cp.start_flows(size_packets=10**9, pattern="fan_in")
        cp.run(duration_ps=8 * MS)
        assert controller.pause_frames_sent == 0  # CNPs did the job
