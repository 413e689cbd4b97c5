"""The discrete-event engine: ordering, determinism, cancellation."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.at(300, order.append, "c")
        sim.at(100, order.append, "a")
        sim.at(200, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.at(50, order.append, label)
        sim.run()
        assert order == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.at(123, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [123]
        assert sim.now == 123

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.at(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(50, lambda: None)

    def test_after_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.after(-1, lambda: None)

    def test_call_now_runs_after_pending_same_time(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.call_now(lambda: order.append("now"))

        sim.at(10, first)
        sim.at(10, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second", "now"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_handle(10, fired.append, 1)
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule_handle(10, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.run() == 0

    def test_handle_pending_lifecycle(self):
        sim = Simulator()
        event = sim.after_handle(10, lambda: None)
        assert event.pending
        sim.run()
        assert not event.pending
        assert not event.cancelled

    def test_handle_and_fast_events_interleave_deterministically(self):
        sim = Simulator()
        order = []
        sim.at(10, order.append, "fast1")
        sim.schedule_handle(10, order.append, "handle")
        sim.at(10, order.append, "fast2")
        sim.run()
        assert order == ["fast1", "handle", "fast2"]

    def test_rearm_extends_deadline_without_new_entry(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_handle(100, lambda: fired.append(sim.now))
        event.rearm(250)
        assert sim.pending_events == 1
        sim.run()
        assert fired == [250]

    def test_rearm_earlier_deadline(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_handle(100, lambda: fired.append(sim.now))
        event.rearm(40)
        sim.run()
        assert fired == [40]

    def test_rearm_revives_cancelled_handle(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_handle(100, lambda: fired.append(sim.now))
        event.cancel()
        event.rearm(120)
        sim.run()
        assert fired == [120]

    def test_rearm_in_past_rejected(self):
        sim = Simulator()
        sim.at(100, lambda: None)
        event = sim.schedule_handle(200, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            event.rearm(50)


class TestCompaction:
    def test_cancelled_entries_are_compacted(self):
        sim = Simulator()
        handles = [sim.schedule_handle(1000 + i, lambda: None) for i in range(500)]
        keeper_fired = []
        sim.at(2000, keeper_fired.append, 1)
        for handle in handles:
            handle.cancel()
        # Cancelling over half the heap must have triggered compaction:
        # the heap stays O(live + threshold), not O(total cancellations).
        assert sim.compactions >= 1
        assert sim.live_events == 1
        assert sim.pending_events < 500
        sim.run()
        assert keeper_fired == [1]
        assert sim.pending_events == 0

    def test_live_events_excludes_dead(self):
        sim = Simulator()
        keep = sim.schedule_handle(10, lambda: None)
        drop = sim.schedule_handle(20, lambda: None)
        drop.cancel()
        assert sim.live_events == 1
        assert sim.dead_entries == 1
        assert keep.pending


class TestRunControl:
    def test_run_until_leaves_later_events(self):
        sim = Simulator()
        fired = []
        sim.at(100, fired.append, "early")
        sim.at(1000, fired.append, "late")
        sim.run(until_ps=500)
        assert fired == ["early"]
        assert sim.now == 500
        sim.run()
        assert fired == ["early", "late"]

    def test_run_until_advances_clock_when_idle(self):
        sim = Simulator()
        sim.run(until_ps=777)
        assert sim.now == 777

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.at(i, fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_stop_from_within_event(self):
        sim = Simulator()
        fired = []

        def stopper():
            fired.append("stop")
            sim.stop()

        sim.at(1, stopper)
        sim.at(2, fired.append, "never")
        sim.run()
        assert fired == ["stop"]

    def test_step(self):
        sim = Simulator()
        fired = []
        sim.at(5, fired.append, 1)
        assert sim.step() is True
        assert sim.step() is False
        assert fired == [1]

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def nested():
            sim.run()

        sim.at(1, nested)
        with pytest.raises(SimulationError):
            sim.run()

    def test_reentrant_step_rejected(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.step()
            except SimulationError as exc:
                errors.append(exc)

        sim.at(1, nested)
        sim.run()
        assert len(errors) == 1

    def test_step_clears_stale_stop_request(self):
        sim = Simulator()
        fired = []
        sim.at(1, fired.append, 1)
        sim.stop()  # a stop with no run in progress must not wedge step()
        assert sim.step() is True
        assert fired == [1]

    def test_step_skips_cancelled_and_follows_rearmed_handles(self):
        # step() is one event of the run loop, so the loop's handle
        # rules apply: a cancelled entry is not an event, and an entry
        # re-armed to a later time fires there, not at its old slot.
        sim = Simulator()
        fired = []
        sim.schedule_handle(1, fired.append, "cancelled").cancel()
        moved = sim.schedule_handle(2, fired.append, "moved")
        moved.rearm(7)
        sim.at(5, fired.append, "plain")
        assert sim.step() is True
        assert (fired, sim.now) == (["plain"], 5)
        assert sim.step() is True
        assert (fired, sim.now) == (["plain", "moved"], 7)
        assert sim.step() is False
        assert sim.events_executed == 2 and sim.dead_entries == 0

    def test_at_is_schedule(self):
        assert Simulator.at is Simulator.schedule

    def test_event_counts(self):
        sim = Simulator()
        for i in range(5):
            sim.at(i, lambda: None)
        assert sim.pending_events == 5
        sim.run()
        assert sim.events_executed == 5
        assert sim.pending_events == 0

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 5:
                sim.after(10, chain, n + 1)

        sim.at(0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3, 4, 5]
        assert sim.now == 50
