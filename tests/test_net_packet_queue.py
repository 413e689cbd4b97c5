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

    def test_uids_unique(self):
        a, b = make_packet(), make_packet()
        assert a.uid != b.uid

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
        assert [p.uid for p in out] == [p.uid for p in packets]

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


class TestPacketPool:
    def _pool(self, **kwargs):
        from repro.net.packet import PacketPool

        return PacketPool(**kwargs)

    def test_acquire_release_reuses_object(self):
        pool = self._pool()
        first = pool.acquire("SCHE", 1, 2, 64, flow_id=7)
        pool.release(first)
        second = pool.acquire("ACK", 3, 4, 64, flow_id=9, psn=5)
        assert second is first  # same object, reinitialized
        assert (second.ptype, second.src, second.dst) == ("ACK", 3, 4)
        assert (second.flow_id, second.psn) == (9, 5)
        assert pool.stats()["reused"] == 1

    def test_reuse_gets_fresh_uid_and_cleared_meta(self):
        pool = self._pool()
        first = pool.acquire("SCHE", 1, 2, 64)
        first.meta["egress_port"] = 3
        old_uid, old_meta = first.uid, first.meta
        pool.release(first)
        second = pool.acquire("SCHE", 1, 2, 64)
        assert second.uid != old_uid
        assert second.meta is old_meta  # dict object reused...
        assert second.meta == {}  # ...but cleared

    def test_double_release_is_counted_once(self):
        pool = self._pool()
        packet = pool.acquire("SCHE", 1, 2, 64)
        pool.release(packet)
        pool.release(packet)  # silently ignored outside debug mode
        assert pool.stats()["released"] == 1
        assert pool.stats()["free"] == 1

    def test_debug_double_release_raises(self):
        from repro.errors import PacketPoolError

        pool = self._pool(debug=True)
        packet = pool.acquire("SCHE", 1, 2, 64)
        pool.release(packet)
        with pytest.raises(PacketPoolError, match="double release"):
            pool.release(packet)

    def test_debug_use_after_release_raises_on_meta_access(self):
        from repro.errors import PacketPoolError

        pool = self._pool(debug=True)
        packet = pool.acquire("SCHE", 1, 2, 64)
        packet.meta["egress_port"] = 1
        pool.release(packet)
        assert packet.ptype == "<freed>"
        with pytest.raises(PacketPoolError, match="use-after-release"):
            packet.meta["egress_port"]
        with pytest.raises(PacketPoolError, match="use-after-release"):
            packet.meta.get("egress_port")

    def test_max_free_bounds_the_free_list(self):
        pool = self._pool(max_free=2)
        packets = [pool.acquire("SCHE", 1, 2, 64) for _ in range(5)]
        for packet in packets:
            pool.release(packet)
        assert pool.stats()["free"] == 2

    def test_disabled_pool_never_recycles(self):
        pool = self._pool()
        pool.enabled = False
        packet = pool.acquire("SCHE", 1, 2, 64)
        pool.release(packet)
        assert pool.stats()["free"] == 0
        assert pool.acquire("SCHE", 1, 2, 64) is not packet

    def test_acquire_rejects_nonpositive_size_even_on_reuse(self):
        pool = self._pool()
        pool.release(pool.acquire("SCHE", 1, 2, 64))
        with pytest.raises(ValueError):
            pool.acquire("SCHE", 1, 2, 0)
