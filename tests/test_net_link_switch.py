"""Links, ports, devices, the network switch, and the topology container."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.net import (
    Host,
    Link,
    NetworkSwitch,
    Packet,
    Topology,
    build_fabric,
)
from repro.net.device import Device, Port
from repro.net.packet import ECT
from repro.net.queue import EcnQueue
from repro.obs.flight import FlightRecorder, attach
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
        packet = Packet("DATA", 1, 2, 500)
        pa.send(packet)
        sim.run()
        assert pa.tx_packets == 1 and pa.tx_bytes == 500
        # What arrived is what the receiving device got: one 500 B
        # packet, after serialization plus the 1000 ps propagation.
        assert b.received == [(serialization_time_ps(500, RATE_100G) + 1000, packet)]
        assert a.received == []


class _QueueThenDrain(Port):
    """The reference port: every frame goes into the queue and leaves
    through ``_transmit_next`` (``Port.send`` without its idle
    cut-through)."""

    __slots__ = ()

    def send(self, packet):
        accepted = self.queue.enqueue(packet)
        if accepted and not self._busy and not self.paused:
            if self.sim.now >= self._busy_until_ps:
                self._transmit_next()
            else:
                self._busy = True
                self.sim.at(self._busy_until_ps, self._transmit_next)
        return accepted


_SENDS = st.lists(
    st.tuples(st.integers(0, 6 * MICROSECOND), st.integers(64, 3200)),
    min_size=1, max_size=24,
)
_PAUSES = st.lists(
    st.tuples(st.integers(0, 6 * MICROSECOND), st.integers(0, 3 * MICROSECOND)),
    max_size=3,
)


class TestIdlePathIsBusyPath:
    """``Port.send`` puts a frame on the wire itself when the port is
    idle; everything observable must equal enqueue-then-dequeue."""

    @staticmethod
    def run(port_class, capacity, threshold, sends, pauses):
        sim = Simulator()
        a, b = Sink(sim, "a"), Sink(sim, "b")
        queue = EcnQueue(capacity, threshold)
        queue.flight_label = "a:p0"
        port = port_class(a, 0, rate_bps=10 * GBPS, queue=queue)
        a.ports.append(port)
        Link(port, b.add_port(), delay_ps=1000)
        recorder = FlightRecorder(clock=lambda: 0.0)
        attach(sim=sim, queues=[queue], recorder=recorder)
        backlogs = []
        queue.on_backlog_change = lambda backlog: backlogs.append((sim.now, backlog))
        accepted = []
        packets = []
        for i, (time_ps, size) in enumerate(sends):
            packet = Packet("DATA", 1, 2, size, flow_id=i, ecn=ECT)
            packets.append(packet)
            sim.at(time_ps, lambda p=packet: accepted.append(port.send(p)))
        for start_ps, length_ps in pauses:
            sim.at(start_ps, port.pause)
            sim.at(start_ps + length_ps, port.resume)
        sim.run()
        stats = queue.stats
        return {
            "stats": [getattr(stats, name) for name in (
                "enqueued_packets", "enqueued_bytes", "dequeued_packets",
                "dequeued_bytes", "dropped_packets", "dropped_bytes",
                "ecn_marked_packets", "max_backlog_bytes",
            )],
            "tx": (port.tx_packets, port.tx_bytes, port.pause_events),
            "accepted": accepted,
            "ce": [p.ce_marked for p in packets],
            "backlogs": backlogs,
            "flight": [
                (e["time_ps"], e["category"], e["name"], e["fields"])
                for e in recorder.events()
            ],
            "arrivals": [(t, p.flow_id) for t, p in b.received],
            "events": sim.events_executed,
        }

    @given(
        capacity=st.integers(100, 3000),
        threshold_frac=st.floats(0.0, 1.0),
        sends=_SENDS,
        pauses=_PAUSES,
    )
    @example(  # an idle drop, an idle CE mark, then a queue under PAUSE
        capacity=1000, threshold_frac=0.05,
        sends=[(0, 1500), (0, 500), (100, 400), (2000, 600), (2000, 64)],
        pauses=[(1000, 3000)],
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_enqueue_then_dequeue(self, capacity, threshold_frac, sends, pauses):
        # Thresholds at or below one frame mark even an idle port's
        # frame; sizes above the capacity are dropped at an idle port.
        threshold = max(1, round(threshold_frac * capacity))
        got = self.run(Port, capacity, threshold, sends, pauses)
        want = self.run(_QueueThenDrain, capacity, threshold, sends, pauses)
        assert got == want

    def test_idle_send_pushes_one_entry(self):
        sim = Simulator()
        a, b, pa, pb = wire_pair(sim, delay=1000)
        packet = Packet("DATA", 1, 2, 500)
        pa.send(packet)
        # The arrival itself, calling the receiving device directly.
        assert sim.pending_events == 1
        ((time_ps, _, fn, args),) = sim._heap
        assert time_ps == serialization_time_ps(500, RATE_100G) + 1000
        assert (fn, args) == (b.receive, (packet, pb))
        assert pa.queue.stats.dequeued_packets == 1 and len(pa.queue) == 0


class TestNetworkSwitch:
    def build(self):
        sim = Simulator()
        switch = NetworkSwitch(sim, "sw")
        left = Sink(sim, "left")
        right = Sink(sim, "right")
        lp = left.add_port()
        rp = right.add_port()
        sp0 = switch.add_ecn_port(capacity_bytes=2**20, ecn_threshold_bytes=84_000)
        sp1 = switch.add_ecn_port(capacity_bytes=2**20, ecn_threshold_bytes=84_000)
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
        p = switch.add_ecn_port(capacity_bytes=2**20, ecn_threshold_bytes=84_000)
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

    def test_one_leaf_end_to_end_delivery(self):
        """Two senders and a receiver on the one-leaf fabric (Figure 9's
        2-cast-1 shape)."""
        sim = Simulator()
        fabric = build_fabric(sim)
        *senders, receiver = hosts = [Host(sim) for _ in range(3)]
        for host in hosts:
            host.address = fabric.attach(0, host.port)
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
