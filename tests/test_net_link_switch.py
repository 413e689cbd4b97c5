"""Links, ports, devices, the network switch, and the n-cast-1 topology."""

import pytest

from repro.errors import ConfigError
from repro.net import (
    Host,
    Link,
    NetworkSwitch,
    Packet,
    Topology,
    n_cast_1,
)
from repro.net.device import Device, Port
from repro.sim import Simulator
from repro.units import GBPS, MICROSECOND, RATE_100G, serialization_time_ps


class Sink(Device):
    """Collects everything it receives."""

    def __init__(self, sim, name=None):
        super().__init__(sim, name)
        self.received = []

    def receive(self, packet, port):
        self.received.append((self.sim.now, packet))


def wire_pair(sim, rate=RATE_100G, delay=1000):
    a, b = Sink(sim, "a"), Sink(sim, "b")
    pa = a.add_port(rate_bps=rate)
    pb = b.add_port(rate_bps=rate)
    Link(pa, pb, delay_ps=delay)
    return a, b, pa, pb


class TestLink:
    def test_delivery_timing(self):
        sim = Simulator()
        a, b, pa, pb = wire_pair(sim, delay=1000)
        packet = Packet("DATA", 1, 2, 64)
        pa.send(packet)
        sim.run()
        t, received = b.received[0]
        # serialization (6720 ps at 100G for 64 B) + 1000 ps propagation.
        assert t == serialization_time_ps(64, RATE_100G) + 1000
        assert received is packet

    def test_back_to_back_serialization(self):
        sim = Simulator()
        a, b, pa, pb = wire_pair(sim, delay=0)
        for _ in range(3):
            pa.send(Packet("DATA", 1, 2, 64))
        sim.run()
        times = [t for t, _ in b.received]
        step = serialization_time_ps(64, RATE_100G)
        assert times == [step, 2 * step, 3 * step]

    def test_full_duplex(self):
        sim = Simulator()
        a, b, pa, pb = wire_pair(sim)
        pa.send(Packet("DATA", 1, 2, 64))
        pb.send(Packet("DATA", 2, 1, 64))
        sim.run()
        assert len(a.received) == 1
        assert len(b.received) == 1

    def test_port_single_link(self):
        sim = Simulator()
        a, b, pa, pb = wire_pair(sim)
        c = Sink(sim, "c")
        pc = c.add_port()
        with pytest.raises(ConfigError):
            Link(pa, pc)

    def test_send_unconnected_port_fails(self):
        sim = Simulator()
        d = Sink(sim)
        p = d.add_port()
        with pytest.raises(ConfigError):
            p.send(Packet("DATA", 1, 2, 64))

    def test_negative_delay_rejected(self):
        sim = Simulator()
        a = Sink(sim)
        b = Sink(sim)
        with pytest.raises(ConfigError):
            Link(a.add_port(), b.add_port(), delay_ps=-1)

    def test_rate_limits_throughput(self):
        sim = Simulator()
        a, b, pa, pb = wire_pair(sim, rate=10 * GBPS, delay=0)
        n = 100
        for _ in range(n):
            pa.send(Packet("DATA", 1, 2, 1024))
        sim.run()
        elapsed = sim.now
        bits = n * (1024 + 20) * 8
        assert bits / (elapsed / 1e12) == pytest.approx(10e9, rel=0.01)

    def test_port_counters(self):
        sim = Simulator()
        a, b, pa, pb = wire_pair(sim)
        pa.send(Packet("DATA", 1, 2, 500))
        sim.run()
        assert pa.tx_packets == 1 and pa.tx_bytes == 500
        assert pb.rx_packets == 1 and pb.rx_bytes == 500


class TestNetworkSwitch:
    def build(self):
        sim = Simulator()
        switch = NetworkSwitch(sim, "sw")
        left = Sink(sim, "left")
        right = Sink(sim, "right")
        lp = left.add_port()
        rp = right.add_port()
        sp0 = switch.add_ecn_port()
        sp1 = switch.add_ecn_port()
        Link(lp, sp0, delay_ps=0)
        Link(rp, sp1, delay_ps=0)
        switch.set_route(2, sp1)
        return sim, switch, left, right, lp

    def test_forwards_by_destination(self):
        sim, switch, left, right, lp = self.build()
        lp.send(Packet("DATA", 1, 2, 64))
        sim.run()
        assert len(right.received) == 1
        assert switch.forwarded_packets == 1

    def test_drops_unrouted(self):
        sim, switch, left, right, lp = self.build()
        lp.send(Packet("DATA", 1, 99, 64))
        sim.run()
        assert right.received == []
        assert switch.dropped_no_route == 1

    def test_packet_filter_can_drop(self):
        sim, switch, left, right, lp = self.build()
        switch.packet_filter = lambda packet, port: packet.psn != 1
        for psn in range(3):
            lp.send(Packet("DATA", 1, 2, 64, psn=psn))
        sim.run()
        assert sorted(p.psn for _, p in right.received) == [0, 2]

    def test_route_must_belong_to_switch(self):
        sim = Simulator()
        switch = NetworkSwitch(sim)
        other = Sink(sim)
        port = other.add_port()
        with pytest.raises(ConfigError):
            switch.set_route(1, port)

    def test_route_for(self):
        sim = Simulator()
        switch = NetworkSwitch(sim)
        p = switch.add_ecn_port()
        switch.set_route(5, p)
        assert switch.route_for(5) is p
        assert switch.route_for(6) is None


class TestTopologyBuilders:
    def test_topology_duplicate_names_rejected(self):
        sim = Simulator()
        topo = Topology(sim)
        topo.add_device(Sink(sim, "x"))
        with pytest.raises(ConfigError):
            topo.add_device(Sink(sim, "x"))

    def test_address_allocation_monotonic(self):
        topo = Topology(Simulator())
        assert topo.allocate_address() == 1
        assert topo.allocate_address() == 2

    def test_n_cast_1_shape(self):
        sim = Simulator()
        topo, senders, receiver, sw_a, sw_b = n_cast_1(sim, 3)
        assert len(senders) == 3
        assert receiver.address not in [h.address for h in senders]
        # The A-side trunk must route the receiver's address.
        assert sw_a.route_for(receiver.address) is not None

    def test_n_cast_1_end_to_end_delivery(self):
        sim = Simulator()
        topo, senders, receiver, _, _ = n_cast_1(sim, 2, delay_ps=100)
        got = []

        class Agent:
            def on_receive(self, packet):
                got.append(packet)

        receiver.attach(Agent())
        senders[0].send(Packet("DATA", senders[0].address, receiver.address, 200))
        sim.run()
        assert len(got) == 1


class TestHost:
    def test_agent_receives(self):
        sim = Simulator()
        a = Host(sim, 1)
        b = Host(sim, 2)
        Link(a.port, b.port, delay_ps=0)
        got = []

        class Agent:
            def on_receive(self, packet):
                got.append(packet)

        b.attach(Agent())
        a.send(Packet("DATA", 1, 2, 64))
        sim.run()
        assert len(got) == 1

    def test_no_agent_is_silent(self):
        sim = Simulator()
        a = Host(sim, 1)
        b = Host(sim, 2)
        Link(a.port, b.port)
        a.send(Packet("DATA", 1, 2, 64))
        sim.run()  # should not raise
