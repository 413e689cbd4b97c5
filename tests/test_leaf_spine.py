"""The fabric: leaf-spine wiring, ECMP hashing, endpoints, and
tester-over-fabric runs."""

import pytest

from repro import ControlPlane, TestConfig
from repro.baselines.pswitch_tester import PswitchTester
from repro.core.tester import MarlinTester
from repro.errors import ConfigError
from repro.measure.fairness import jain_index
from repro.net.fabric import build_fabric, wire_tester
from repro.net.host import Host
from repro.net.packet import Packet
from repro.net.switch import NetworkSwitch
from repro.net.device import Device
from repro.net.link import Link
from repro.net.topology import DEFAULT_LINK_DELAY_PS
from repro.sim import Simulator
from repro.units import GBPS, MS, US


class Sink(Device):
    def __init__(self, sim, name=None):
        super().__init__(sim, name)
        self.received = []

    def receive(self, packet, port):
        self.received.append(packet)


def ecn_port(switch):
    return switch.add_ecn_port(capacity_bytes=2**20, ecn_threshold_bytes=84_000)


class TestEcmpRouting:
    def build(self, n_paths=4):
        sim = Simulator()
        switch = NetworkSwitch(sim, "sw")
        ingress = Sink(sim, "in")
        Link(ingress.add_port(), ecn_port(switch), delay_ps=0)
        sinks = []
        group = []
        for i in range(n_paths):
            port = ecn_port(switch)
            sink = Sink(sim, f"path{i}")
            Link(port, sink.add_port(), delay_ps=0)
            group.append(port)
            sinks.append(sink)
        switch.set_ecmp_route(9, group)
        return sim, switch, sinks

    def test_flow_sticks_to_one_path(self):
        sim, switch, sinks = self.build()
        for psn in range(20):
            switch.receive(Packet("DATA", 1, 9, 64, flow_id=77, psn=psn), None)
        sim.run()
        used = [i for i, sink in enumerate(sinks) if sink.received]
        assert len(used) == 1
        assert len(sinks[used[0]].received) == 20

    def test_many_flows_spread_over_paths(self):
        sim, switch, sinks = self.build(n_paths=4)
        for flow in range(64):
            switch.receive(Packet("DATA", 1, 9, 64, flow_id=flow, psn=0), None)
        sim.run()
        counts = [len(sink.received) for sink in sinks]
        assert all(count > 0 for count in counts)  # every path used
        assert max(counts) <= 3 * min(counts) + 4  # roughly balanced

    def test_hash_deterministic(self):
        sim1, switch1, sinks1 = self.build()
        sim2, switch2, sinks2 = self.build()
        for switch, sim in ((switch1, sim1), (switch2, sim2)):
            switch.receive(Packet("DATA", 5, 9, 64, flow_id=123, psn=0), None)
            sim.run()
        path1 = [i for i, s in enumerate(sinks1) if s.received]
        path2 = [i for i, s in enumerate(sinks2) if s.received]
        assert path1 == path2

    def test_empty_group_rejected(self):
        switch = NetworkSwitch(Simulator())
        with pytest.raises(ConfigError):
            switch.set_ecmp_route(1, [])

    def test_foreign_port_rejected(self):
        sim = Simulator()
        switch = NetworkSwitch(sim)
        other = Sink(sim)
        with pytest.raises(ConfigError):
            switch.set_ecmp_route(1, [other.add_port()])


class TestFabricConstruction:
    def test_mesh_shape(self):
        fabric = build_fabric(Simulator(), 3, 2)
        assert fabric.n_leaves == 3 and fabric.n_spines == 2
        for leaf, uplinks in zip(fabric.leaves, fabric.uplinks):
            assert leaf.ports == uplinks  # one uplink per spine
        for spine, downlinks in zip(fabric.spines, fabric.downlinks):
            assert spine.ports == downlinks  # one downlink per leaf
        for i, uplinks in enumerate(fabric.uplinks):
            for j, port in enumerate(uplinks):
                assert port.link.peer(port) is fabric.downlinks[j][i]

    def test_attach_installs_routes(self):
        sim = Simulator()
        fabric = build_fabric(sim, 2, 2)
        host = Sink(sim, "h")
        address = fabric.attach(0, host.add_port())
        assert fabric.leaf_of(address) == 0
        leaf_port = fabric.endpoints[address][1]
        # Owning leaf routes directly; spines route down to leaf 0; the
        # other leaf hashes over its uplinks.
        assert fabric.leaves[0].route_for(address) is leaf_port
        for spine, downlinks in zip(fabric.spines, fabric.downlinks):
            assert spine.route_for(address) is downlinks[0]
        assert fabric.leaves[1]._ecmp[address] == fabric.uplinks[1]

    def test_validation(self):
        with pytest.raises(ConfigError):
            build_fabric(Simulator(), 0, 1)
        with pytest.raises(ConfigError):
            build_fabric(Simulator(), 1, -1)
        fabric = build_fabric(Simulator(), 1, 1)
        with pytest.raises(ConfigError):
            fabric.leaf_of(999)
        host = Sink(fabric.topology.sim, "h")
        with pytest.raises(ConfigError):
            fabric.attach(5, host.add_port())

    def test_more_than_one_leaf_needs_spines(self):
        with pytest.raises(ConfigError):
            build_fabric(Simulator(), 2, 0)

    def test_one_leaf_is_the_loopback_fabric(self):
        """``wire_loopback_fabric`` and a hand loop of ``attach`` over the
        test ports give the same addresses, routes and queues."""
        config = TestConfig(n_test_ports=4)
        cp = ControlPlane()
        tester = cp.deploy(config)
        switch = cp.wire_loopback_fabric(ecn_threshold_bytes=40_000)

        sim = Simulator()
        other = MarlinTester(sim, config)
        fabric = build_fabric(sim, ecn_threshold_bytes=40_000)
        for index, port in enumerate(other.test_ports):
            other.assign_port_address(index, fabric.attach(0, port))

        assert tester.port_addresses == other.port_addresses == {0: 1, 1: 2, 2: 3, 3: 4}
        assert fabric.n_spines == 0 and not fabric.leaves[0]._ecmp
        for index in range(4):
            address = tester.port_address(index)
            for sw, ports in (
                (switch, tester.test_ports), (fabric.leaves[0], other.test_ports)
            ):
                leaf_port = sw.route_for(address)
                assert leaf_port is sw.ports[index]
                assert leaf_port.link.peer(leaf_port) is ports[index]
                assert leaf_port.link.delay_ps == DEFAULT_LINK_DELAY_PS
                assert leaf_port.queue.ecn_threshold_bytes == 40_000
                assert leaf_port.queue.capacity_bytes == 2**22

    def test_host_and_pswitch_port_attach_like_a_test_port(self):
        sim = Simulator()
        tester = MarlinTester(sim, TestConfig(n_test_ports=2))
        ccless = PswitchTester(sim, 1, port_rate_bps=40 * GBPS)
        host = Host(sim, rate_bps=25 * GBPS)
        fabric = build_fabric(sim, ecn_threshold_bytes=10_000, queue_capacity_bytes=2**20)
        endpoints = [tester.test_ports[0], ccless.ports[0], host.port]
        addresses = [fabric.attach(0, port) for port in endpoints]
        host.address = addresses[2]
        assert addresses == [1, 2, 3]
        for address, port in zip(addresses, endpoints):
            leaf, leaf_port = fabric.endpoints[address]
            assert leaf == 0 and fabric.leaves[0].route_for(address) is leaf_port
            assert leaf_port.link.peer(leaf_port) is port
            assert leaf_port.rate_bps == port.rate_bps
            assert leaf_port.queue.ecn_threshold_bytes == 10_000
            assert leaf_port.queue.capacity_bytes == 2**20
        # The host is reachable by its address like any endpoint.
        got = []
        host.attach(type("Agent", (), {"on_receive": lambda self, p: got.append(p)})())
        ccless.add_stream(0, src_addr=addresses[1], dst_addr=host.address, rate_bps=GBPS)
        ccless.start_all()
        sim.run(until_ps=20 * US)
        assert got and all(p.dst == host.address for p in got)


class TestTesterOverFabric:
    def deploy(self, n_ports=4, n_leaves=2, n_spines=2, alg="dcqcn", **fabric):
        sim = Simulator()
        tester = MarlinTester(
            sim, TestConfig(cc_algorithm=alg, n_test_ports=n_ports)
        )
        return sim, tester, wire_tester(sim, tester, n_leaves, n_spines, **fabric)

    def test_cross_leaf_flow_completes(self):
        sim, tester, fabric = self.deploy()
        # Port 0 on leaf 0 -> port 1 on leaf 1: crosses the spine mesh.
        flow = tester.start_flow(port_index=0, dst_port_index=1, size_packets=2000)
        sim.run(until_ps=5 * MS)
        assert flow.finished
        assert sum(fabric.spine_load()) > 0

    def test_same_leaf_flow_stays_local(self):
        sim, tester, fabric = self.deploy(n_ports=4, n_leaves=2)
        # Ports 0 and 2 both land on leaf 0 (round-robin).
        flow = tester.start_flow(port_index=0, dst_port_index=2, size_packets=500)
        sim.run(until_ps=3 * MS)
        assert flow.finished
        assert sum(fabric.spine_load()) == 0

    def test_cross_leaf_incast_converges(self):
        """3 senders on leaf 0 incast one receiver on leaf 1: congestion
        forms at leaf 1's endpoint port; CC shares it fairly."""
        sim, tester, fabric = self.deploy(n_ports=8, n_leaves=2, alg="dcqcn")
        # Even ports -> leaf 0, odd -> leaf 1.
        sampler = tester.enable_rate_sampling(period_ps=500 * US)
        for src in (0, 2, 4):
            tester.start_flow(port_index=src, dst_port_index=1, size_packets=10**9)
        sim.run(until_ps=8 * MS)
        rates = [
            r for n, r in sampler.samples[-1].rates_bps.items()
            if n.startswith("flow")
        ]
        assert len(rates) == 3
        assert jain_index(rates) > 0.9
        assert sum(rates) >= 0.8 * 100 * GBPS

    def test_receiver_leaf_port_marks_at_the_fabric_threshold(self):
        """The fabric's ECN threshold holds on the leaf->endpoint egress,
        the incast bottleneck, not only on the spine mesh.  Two 40-packet
        flows (one cross-leaf, one local) into port 1 queue about 40 kB
        there: above a 10 kB threshold, below the 84 kB default."""
        sim, tester, fabric = self.deploy(n_ports=4, ecn_threshold_bytes=10_000)
        for src in (0, 3):  # port 0 on leaf 0, port 3 on leaf 1
            tester.start_flow(port_index=src, dst_port_index=1, size_packets=40)
        sim.run(until_ps=1 * MS)
        _, receiver_port = fabric.endpoints[tester.port_address(1)]
        assert receiver_port.queue.ecn_threshold_bytes == 10_000
        assert receiver_port.queue.stats.max_backlog_bytes < 84_000
        assert receiver_port.queue.stats.ecn_marked_packets > 0

    def test_spines_share_multi_flow_load(self):
        """Many cross-leaf flows spread across both spines via ECMP."""
        sim, tester, fabric = self.deploy(n_ports=4, n_leaves=2, n_spines=2)
        for i in range(8):
            tester.start_flow(
                port_index=0 if i % 2 == 0 else 2,  # leaf 0 sources
                dst_port_index=1 if i % 2 == 0 else 3,  # leaf 1 sinks
                size_packets=300,
            )
        sim.run(until_ps=10 * MS)
        load = fabric.spine_load()
        assert all(count > 0 for count in load)
