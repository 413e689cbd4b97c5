"""Packets and queues, including ECN-marking semantics and hypothesis
invariants on the drop-tail queue."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packet import CE, ECT, NOT_ECT, Packet
from repro.net.queue import DropTailQueue, EcnQueue


def make_packet(size=100, ecn=NOT_ECT):
    return Packet("DATA", 1, 2, size, flow_id=1, psn=0, ecn=ecn)


class TestPacket:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            Packet("DATA", 1, 2, 0)

    def test_packets_are_distinct_values(self):
        a, b = make_packet(), make_packet()
        assert a is not b
        assert a.meta is not b.meta

    def test_mark_ce_only_when_ect(self):
        p = make_packet(ecn=NOT_ECT)
        p.mark_ce()
        assert not p.ce_marked
        q = make_packet(ecn=ECT)
        q.mark_ce()
        assert q.ce_marked
        assert q.ecn == CE


class TestDropTailQueue:
    def test_fifo_order(self):
        q = DropTailQueue(10_000)
        packets = [make_packet() for _ in range(5)]
        for p in packets:
            assert q.enqueue(p)
        out = [q.dequeue() for _ in range(5)]
        assert all(a is b for a, b in zip(out, packets, strict=True))

    def test_drops_beyond_capacity(self):
        q = DropTailQueue(250)
        assert q.enqueue(make_packet(100))
        assert q.enqueue(make_packet(100))
        assert not q.enqueue(make_packet(100))
        assert q.stats.dropped_packets == 1
        assert q.backlog_bytes == 200

    def test_dequeue_empty_returns_none(self):
        q = DropTailQueue(100)
        assert q.dequeue() is None
        assert q.empty

    def test_stats_track_bytes(self):
        q = DropTailQueue(1000)
        q.enqueue(make_packet(300))
        q.enqueue(make_packet(200))
        q.dequeue()
        assert q.stats.enqueued_bytes == 500
        assert q.stats.dequeued_bytes == 300
        assert q.stats.max_backlog_bytes == 500

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            DropTailQueue(0)

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=500), max_size=60),
        capacity=st.integers(min_value=500, max_value=5000),
    )
    @settings(max_examples=60, deadline=None)
    def test_backlog_invariants(self, sizes, capacity):
        """Backlog never exceeds capacity and equals the sum of queued sizes."""
        q = DropTailQueue(capacity)
        queued = []
        for size in sizes:
            p = make_packet(size)
            if q.enqueue(p):
                queued.append(size)
            assert q.backlog_bytes <= capacity
            assert q.backlog_bytes == sum(queued)
        drained = 0
        while not q.empty:
            drained += q.dequeue().size_bytes
        assert drained == sum(queued)
        assert q.backlog_bytes == 0


class TestEcnQueue:
    def test_marks_above_threshold(self):
        q = EcnQueue(10_000, ecn_threshold_bytes=300)
        q.enqueue(make_packet(200, ecn=ECT))  # backlog 200 < 300: no mark
        p2 = make_packet(200, ecn=ECT)
        q.enqueue(p2)  # backlog 400 >= 300: mark
        first = q.dequeue()
        assert not first.ce_marked
        assert p2.ce_marked
        assert q.stats.ecn_marked_packets == 1

    def test_non_ect_not_marked(self):
        q = EcnQueue(10_000, ecn_threshold_bytes=100)
        q.enqueue(make_packet(200, ecn=NOT_ECT))
        p = make_packet(200, ecn=NOT_ECT)
        q.enqueue(p)
        assert not p.ce_marked
        assert q.stats.ecn_marked_packets == 0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            EcnQueue(100, ecn_threshold_bytes=0)
        with pytest.raises(ValueError):
            EcnQueue(100, ecn_threshold_bytes=101)

    def test_still_drops_at_capacity(self):
        q = EcnQueue(250, ecn_threshold_bytes=100)
        q.enqueue(make_packet(200, ecn=ECT))
        assert not q.enqueue(make_packet(100, ecn=ECT))
        assert q.stats.dropped_packets == 1


class TestHeldPackets:
    def test_captured_control_packets_are_never_rewritten(self, monkeypatch):
        """A packet held past its consumer keeps its fields: nothing
        recycles a delivered SCHE, ACK or INFO into a later packet."""
        from repro import TestConfig
        from repro.core import Scenario, deploy_scenario
        from repro.fpga.nic import FpgaNic
        from repro.pswitch.switch import MarlinSwitch
        from repro.units import MS

        captured = []

        def tap(receive):
            def tapped(self, packet, port):
                captured.append((packet, (packet.ptype, packet.flow_id, packet.psn)))
                return receive(self, packet, port)

            return tapped

        # Class-level taps, before deploying: ports bind the receiver's
        # handler when they are wired.
        monkeypatch.setattr(MarlinSwitch, "receive", tap(MarlinSwitch.receive))
        monkeypatch.setattr(FpgaNic, "receive", tap(FpgaNic.receive))
        scenario = Scenario(
            TestConfig(cc_algorithm="dctcp", n_test_ports=2),
            duration_ps=MS // 10,
            size_packets=200,
        )
        cp, _, _ = deploy_scenario(scenario)
        cp.run(scenario.duration_ps)
        controls = [(p, fields) for p, fields in captured if p.ptype != "DATA"]
        assert len(controls) > 100
        changed = [
            (fields, (p.ptype, p.flow_id, p.psn))
            for p, fields in controls
            if (p.ptype, p.flow_id, p.psn) != fields
        ]
        assert changed == []
