"""The per-port scheduler: rescheduling events, uniqueness, fairness,
priority FIFO, rate pacing (Section 5.2)."""

import pytest

from repro.cc.base import CCMode
from repro.fpga.flow import FlowState
from repro.fpga.scheduler import PortScheduler
from repro.sim import Simulator
from repro.units import wire_bits

TX = 1000  # ps per tick for these tests


def make_flow(flow_id, *, size=100, cwnd=10.0, mode=CCMode.WINDOW, port=0):
    return FlowState(
        flow_id=flow_id,
        port_index=port,
        src_addr=1,
        dst_addr=2,
        size_packets=size,
        frame_bytes=1024,
        cwnd_or_rate=cwnd,
    )


class Harness:
    def __init__(self, mode=CCMode.WINDOW, tx=TX, spacing=0):
        self.sim = Simulator()
        self.emitted = []
        self.scheduler = PortScheduler(
            self.sim, 0, tx, mode, self.emit, on_bytes_sent=None,
            min_flow_spacing_ps=spacing,
        )

    def emit(self, flow, psn, is_rtx):
        self.emitted.append((self.sim.now, flow.flow_id, psn, is_rtx))


class TestWindowScheduling:
    def test_emits_one_per_tick(self):
        h = Harness()
        flow = make_flow(1, cwnd=100.0)
        h.scheduler.enqueue_flow(flow)
        h.sim.run(until_ps=5 * TX - 1)
        times = [t for t, *_ in h.emitted]
        assert times == [0, TX, 2 * TX, 3 * TX, 4 * TX]

    def test_psns_sequential(self):
        h = Harness()
        flow = make_flow(1, cwnd=100.0)
        h.scheduler.enqueue_flow(flow)
        h.sim.run(until_ps=4 * TX - 1)
        assert [psn for _, _, psn, _ in h.emitted] == [0, 1, 2, 3]
        assert flow.nxt == 4

    def test_window_limit_deschedules(self):
        h = Harness()
        flow = make_flow(1, cwnd=3.0)
        h.scheduler.enqueue_flow(flow)
        h.sim.run(until_ps=10 * TX)
        assert len(h.emitted) == 3  # window of 3, no ACKs
        assert not flow.scheduled

    def test_reactivation_after_window_opens(self):
        h = Harness()
        flow = make_flow(1, cwnd=2.0)
        h.scheduler.enqueue_flow(flow)
        h.sim.run(until_ps=5 * TX)
        assert len(h.emitted) == 2
        # An ACK arrives: window opens; the CC framework re-enqueues.
        flow.una = 2
        h.scheduler.enqueue_flow(flow)
        h.sim.run(until_ps=10 * TX)
        assert len(h.emitted) == 4

    def test_uniqueness_invariant(self):
        """Enqueueing an already-scheduled flow must not duplicate it."""
        h = Harness()
        flow = make_flow(1, cwnd=100.0)
        h.scheduler.enqueue_flow(flow)
        h.scheduler.enqueue_flow(flow)
        h.scheduler.enqueue_flow(flow)
        assert len(h.scheduler.sched_fifo) == 1
        h.sim.run(until_ps=3 * TX - 1)
        # Still exactly one event cycling: one emission per tick.
        assert len(h.emitted) == 3

    def test_round_robin_fairness(self):
        """n active flows share the port's ticks equally (Figure 6)."""
        h = Harness()
        flows = [make_flow(i, cwnd=1000.0) for i in range(4)]
        for flow in flows:
            h.scheduler.enqueue_flow(flow)
        h.sim.run(until_ps=40 * TX - 1)
        counts = {}
        for _, fid, _, _ in h.emitted:
            counts[fid] = counts.get(fid, 0) + 1
        assert set(counts.values()) == {10}

    def test_finished_flow_dropped(self):
        h = Harness()
        flow = make_flow(1, cwnd=100.0)
        flow.finished = True
        h.scheduler.enqueue_flow(flow)
        h.sim.run(until_ps=5 * TX)
        assert h.emitted == []

    def test_flow_size_limit(self):
        h = Harness()
        flow = make_flow(1, size=3, cwnd=100.0)
        h.scheduler.enqueue_flow(flow)
        h.sim.run(until_ps=10 * TX)
        assert len(h.emitted) == 3
        assert not flow.scheduled


class TestPriorityFifo:
    def test_rtx_served_before_scheduling_fifo(self):
        h = Harness()
        flow = make_flow(1, cwnd=100.0)
        h.scheduler.enqueue_flow(flow)
        h.sim.run(until_ps=2 * TX)
        h.scheduler.enqueue_rtx(flow, 0)
        h.sim.run(until_ps=3 * TX)
        # The tick after the rtx enqueue emits psn 0 as a retransmission.
        rtx_events = [e for e in h.emitted if e[3]]
        assert rtx_events and rtx_events[0][2] == 0
        assert flow.rtx_sent == 1

    def test_rtx_does_not_advance_nxt(self):
        h = Harness()
        flow = make_flow(1, cwnd=0.5)  # window won't allow normal sends
        flow.cwnd_or_rate = 1.0
        flow.nxt = 5
        flow.una = 5
        h.scheduler.enqueue_rtx(flow, 2)
        h.sim.run(until_ps=2 * TX)
        assert flow.nxt == 5
        assert h.emitted[0][2] == 2

    def test_rtx_for_finished_flow_skipped(self):
        h = Harness()
        flow = make_flow(1)
        flow.finished = True
        h.scheduler.enqueue_rtx(flow, 0)
        h.sim.run(until_ps=2 * TX)
        assert h.emitted == []


class TestRateScheduling:
    def test_pacing_limits_rate(self):
        h = Harness(mode=CCMode.RATE)
        # 1024 B frames, rate chosen so pacing interval = 4 ticks.
        wire_bits = (1024 + 20) * 8
        rate = wire_bits * 1e12 / (4 * TX)
        flow = make_flow(1, mode=CCMode.RATE, cwnd=rate)
        h.scheduler.enqueue_flow(flow)
        h.sim.run(until_ps=20 * TX)
        times = [t for t, *_ in h.emitted]
        diffs = [b - a for a, b in zip(times, times[1:])]
        assert all(d == 4 * TX for d in diffs)

    def test_full_rate_sends_every_tick(self):
        h = Harness(mode=CCMode.RATE)
        wire_bits = (1024 + 20) * 8
        rate = wire_bits * 1e12 / TX  # exactly one frame per tick
        flow = make_flow(1, mode=CCMode.RATE, cwnd=rate)
        h.scheduler.enqueue_flow(flow)
        h.sim.run(until_ps=10 * TX - 1)
        assert len(h.emitted) == 10

    def test_rate_flow_completes_and_deschedules(self):
        h = Harness(mode=CCMode.RATE)
        rate = (1024 + 20) * 8 * 1e12 / TX
        flow = make_flow(1, size=5, mode=CCMode.RATE, cwnd=rate)
        h.scheduler.enqueue_flow(flow)
        h.sim.run(until_ps=20 * TX)
        assert len(h.emitted) == 5
        assert not flow.scheduled

    def test_two_rate_flows_share_ticks(self):
        h = Harness(mode=CCMode.RATE)
        rate = (1024 + 20) * 8 * 1e12 / TX
        flows = [make_flow(i, mode=CCMode.RATE, cwnd=rate) for i in range(2)]
        for flow in flows:
            h.scheduler.enqueue_flow(flow)
        h.sim.run(until_ps=20 * TX)
        counts = {}
        for _, fid, _, _ in h.emitted:
            counts[fid] = counts.get(fid, 0) + 1
        # Each wants full rate but the port alternates: equal split.
        assert abs(counts[0] - counts[1]) <= 1


def rate_for_gap(gap_ps):
    """The rate whose pacing gap for make_flow's 1024 B frames is
    ``gap_ps``."""
    return wire_bits(1024) * 1e12 / gap_ps


class TestSleepThroughShutGates:
    """A lone gated flow: the timer sleeps to the tick its gate opens on,
    and every emission lands exactly where a timer polling every period
    put it (the literals were recorded from such a timer)."""

    def paced(self, gap_ps=3500, **kwargs):
        h = Harness(mode=CCMode.RATE, **kwargs)
        flow = make_flow(1, mode=CCMode.RATE, cwnd=rate_for_gap(gap_ps))
        h.scheduler.enqueue_flow(flow)
        return h, flow

    def test_lone_paced_flow_matches_polling_timer(self):
        h, flow = self.paced()
        # The rate halves mid-sleep: only the next emission's gap moves.
        h.sim.at(9500, setattr, flow, "cwnd_or_rate", rate_for_gap(7000))
        h.sim.run(until_ps=26_000)  # ends on an emission
        assert [t for t, *_ in h.emitted] == [0, 4000, 8000, 12000, 19000, 26000]
        assert h.scheduler.skipped_pacing == 21
        assert h.scheduler.ticks <= len(h.emitted) + 1

    def test_rtx_mid_sleep_served_at_next_tick(self):
        h, flow = self.paced()
        h.sim.at(5500, h.scheduler.enqueue_rtx, flow, 0)
        h.sim.run(until_ps=13_000)
        assert h.emitted == [
            (0, 1, 0, False),
            (4000, 1, 1, False),
            (6000, 1, 0, True),
            (8000, 1, 2, False),
            (12000, 1, 3, False),
        ]

    def test_second_flow_mid_sleep_served_at_polling_time(self):
        h, flow = self.paced()
        other = make_flow(2, mode=CCMode.RATE, cwnd=rate_for_gap(TX))
        h.sim.at(5500, h.scheduler.enqueue_flow, other)
        h.sim.run(until_ps=13_000)
        assert [(t, fid) for t, fid, *_ in h.emitted] == [
            (0, 1), (4000, 1), (7000, 2), (8000, 1),
            (9000, 2), (11000, 2), (12000, 1), (13000, 2),
        ]

    def test_work_at_the_wake_instant_keeps_the_wake(self):
        """A flow enqueued by an older event at the very picosecond the
        timer wakes: the wake still runs then, after it."""
        h = Harness(mode=CCMode.RATE)
        other = make_flow(2, mode=CCMode.RATE, cwnd=rate_for_gap(TX))
        h.sim.at(4000, h.scheduler.enqueue_flow, other)
        flow = make_flow(1, mode=CCMode.RATE, cwnd=rate_for_gap(3500))
        h.scheduler.enqueue_flow(flow)
        h.sim.run(until_ps=7_000)
        assert [(t, fid) for t, fid, *_ in h.emitted] == [
            (0, 1), (4000, 1), (5000, 2), (7000, 2),
        ]

    def test_finish_mid_sleep_deschedules_at_next_tick(self):
        """``recheck`` after the flow finishes: it is descheduled at the
        tick a polling timer would have found it on, so a flow enqueued
        later starts on the polling timer's grid."""
        h, flow = self.paced()

        def finish():
            flow.finished = True
            h.scheduler.recheck(flow)

        h.sim.at(5500, finish)
        other = make_flow(2, mode=CCMode.RATE, cwnd=rate_for_gap(TX))
        h.sim.at(6200, h.scheduler.enqueue_flow, other)
        h.sim.run(until_ps=9_500)
        assert not flow.scheduled
        assert [(t, fid) for t, fid, *_ in h.emitted] == [
            (0, 1), (4000, 1), (7000, 2), (8000, 2), (9000, 2),
        ]

    def test_spacing_gate_window_shrink_mid_sleep(self):
        """Window mode under the per-flow PPS cap sleeps on the same gate;
        a window that shrinks mid-sleep deschedules at the next tick."""
        h = Harness(spacing=4 * TX)
        flow = make_flow(1, cwnd=100.0)
        h.scheduler.enqueue_flow(flow)

        def shrink():
            flow.cwnd_or_rate = 1.0
            h.scheduler.recheck(flow)

        def reopen():
            flow.una = flow.nxt
            h.scheduler.enqueue_flow(flow)

        h.sim.at(5500, shrink)
        h.sim.at(6500, reopen)
        h.sim.run(until_ps=16_000)
        assert [t for t, *_ in h.emitted] == [0, 4000, 8000]
        assert h.scheduler.skipped_pacing == 5

    def test_two_flows_keep_polling(self):
        h = Harness(mode=CCMode.RATE)
        for fid in (1, 2):
            h.scheduler.enqueue_flow(
                make_flow(fid, mode=CCMode.RATE, cwnd=rate_for_gap(3500))
            )
        h.sim.run(until_ps=10 * TX)
        assert h.scheduler.ticks == 11


class TestByteCounter:
    def test_callback_invoked_with_counter(self):
        sim = Simulator()
        seen = []

        def on_bytes(flow):
            seen.append(flow.counter_bytes)

        sched = PortScheduler(sim, 0, TX, CCMode.WINDOW, lambda *a: None,
                              on_bytes_sent=on_bytes)
        flow = make_flow(1, cwnd=100.0)
        sched.enqueue_flow(flow)
        sim.run(until_ps=3 * TX - 1)
        assert seen == [1024, 2048, 3072]


class TestValidation:
    def test_bad_tx_interval(self):
        with pytest.raises(ValueError):
            PortScheduler(Simulator(), 0, 0, CCMode.WINDOW, lambda *a: None)
