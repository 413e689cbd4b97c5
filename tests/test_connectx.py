"""The ConnectX-style host DCQCN stack (Figure 9 baseline)."""

import numpy as np
import pytest

from repro.net.fabric import build_fabric
from repro.net.host import Host
from repro.net.link import Link
from repro.reference.connectx import (
    ALPHA_SCALE,
    ConnectXAgent,
    ConnectXFctHarness,
    DcqcnRpParams,
)
from repro.sim import Simulator
from repro.units import GBPS, MS, US
from repro.workload import FixedSize, websearch


def one_leaf_hosts(sim, n_senders):
    """n sender hosts and one receiver on the one-leaf fabric."""
    fabric = build_fabric(sim)
    hosts = [Host(sim) for _ in range(n_senders + 1)]
    for host in hosts:
        host.address = fabric.attach(0, host.port)
    return hosts[:-1], hosts[-1]


def wire_hosts():
    sim = Simulator()
    a = Host(sim, 1)
    b = Host(sim, 2)
    Link(a.port, b.port, delay_ps=1 * US)
    return sim, ConnectXAgent(a), ConnectXAgent(b)


class TestSingleQp:
    def test_flow_completes(self):
        sim, sender, receiver = wire_hosts()
        qp = sender.create_qp(2)
        done = []
        sender.on_qp_complete = done.append
        qp.start_flow(100)
        sim.run(until_ps=10 * MS)
        assert done and done[0] is qp
        assert not qp.active

    def test_goodput_near_line_rate(self):
        sim, sender, receiver = wire_hosts()
        qp = sender.create_qp(2)
        qp.start_flow(5000)
        sim.run(until_ps=10 * MS)
        assert sender.completions
        _, size, fct_ps = sender.completions[0]
        goodput = size * 1024 * 8 / (fct_ps / 1e12)
        assert goodput >= 0.9 * 100 * GBPS

    def test_go_back_n_on_reorder_gap(self):
        sim, sender, receiver = wire_hosts()
        qp = sender.create_qp(2)
        qp.start_flow(10_000)  # long enough to still be active at 20 us
        # Emulate a loss: deliver a NACK for psn 5 directly.
        sim.run(until_ps=20 * US)
        qp.on_ack(5, nack=True, cnp=False)
        assert qp.nxt == 5
        sim.run(until_ps=10 * MS)
        assert not qp.active  # still completes

    def test_cnp_cuts_rate(self):
        sim, sender, receiver = wire_hosts()
        qp = sender.create_qp(2)
        qp.start_flow(10)
        before = qp.rate_bps
        qp.on_ack(-1, nack=False, cnp=True)
        assert qp.rate_bps == pytest.approx(before / 2)  # alpha starts at 1
        assert qp.target_bps == pytest.approx(before)
        assert qp.alpha_q == ALPHA_SCALE  # (1-g) + g of 1.0 stays 1.0

    def test_alpha_fixed_point_decays(self):
        sim, sender, receiver = wire_hosts()
        qp = sender.create_qp(2)
        qp.start_flow(10)
        qp.on_ack(-1, nack=False, cnp=True)
        sim.run(until_ps=1 * MS)
        assert qp.alpha_q < ALPHA_SCALE  # alpha timer decayed it

    def test_rate_recovers_after_cut(self):
        sim, sender, receiver = wire_hosts()
        qp = sender.create_qp(2)
        qp.start_flow(200_000)
        sim.run(until_ps=100 * US)
        qp.on_ack(-1, nack=False, cnp=True)
        cut_rate = qp.rate_bps
        sim.run(until_ps=30 * MS)
        assert qp.rate_bps > cut_rate

    def test_double_start_rejected(self):
        sim, sender, receiver = wire_hosts()
        qp = sender.create_qp(2)
        qp.start_flow(1000)
        with pytest.raises(RuntimeError):
            qp.start_flow(5)


class TestNotificationPoint:
    def test_ce_generates_cnp(self):
        sim, sender, receiver = wire_hosts()
        qp = sender.create_qp(2)
        qp.start_flow(2000)
        # Mark every DATA packet CE en route by monkeypatching delivery:
        original = receiver.on_receive

        def marking(packet):
            if packet.ptype == "DATA":
                packet.ecn = 3
            original(packet)

        receiver.host.agent = type("A", (), {"on_receive": staticmethod(marking)})()
        sim.run(until_ps=2 * MS)
        assert qp.rate_bps < 100 * GBPS  # CNPs arrived and cut the rate

    def test_cnp_rate_limited_per_flow(self):
        sim, sender, receiver = wire_hosts()
        from repro.net.packet import Packet, ECT

        # Two CE-marked packets close together: one CNP.
        for psn in (0, 1):
            data = Packet("DATA", 1, 2, 1024, flow_id=100001, psn=psn, ecn=3)
            receiver._receive_data(data)
        cnp_count = receiver._last_cnp_ps
        assert len(cnp_count) == 1


class TestFctHarness:
    def test_closed_loop_maintains_concurrency(self):
        sim = Simulator()
        senders, receiver = one_leaf_hosts(sim, 2)
        agents = [ConnectXAgent(h) for h in senders]
        recv = ConnectXAgent(receiver)
        harness = ConnectXFctHarness(
            agents,
            recv,
            FixedSize(50 * 1024),
            qps_per_host=5,
            rng=np.random.default_rng(0),
            stop_after_flows=40,
        )
        harness.start()
        sim.run(until_ps=200 * MS)
        assert len(harness.fct) == 40
        stats = harness.fct.stats()
        assert stats.mean_us > 0

    def test_websearch_2cast1(self):
        sim = Simulator()
        senders, receiver = one_leaf_hosts(sim, 2)
        agents = [ConnectXAgent(h) for h in senders]
        recv = ConnectXAgent(receiver)
        harness = ConnectXFctHarness(
            agents,
            recv,
            websearch(),
            qps_per_host=2,
            rng=np.random.default_rng(1),
            stop_after_flows=12,
        )
        harness.start()
        sim.run(until_ps=400 * MS)
        assert len(harness.fct) >= 10
