"""The flight recorder: ring semantics, crash post-mortems, and the
zero-perturbation contract (recorder on == recorder off)."""

import dataclasses
import json
import os

import pytest

from repro.core.sweep import run_sweep_point
from repro.obs import flight
from repro.obs.flight import FlightRecorder, load_dump, task_dump_path
from repro.parallel import CampaignRunner


# -- picklable task functions (must be top level) ------------------------------


def record_then_maybe_die(x):
    """Records one flight event, spools, and hard-kills the process on
    ``x == 1`` — the closest a test can get to a segfaulted worker."""
    recorder = flight.current()
    if recorder is not None:
        recorder.record(0, "solver", "progress", x=x)
        recorder.spool()
    if x == 1:
        os._exit(9)
    return x


def raise_on_one(x):
    if x == 1:
        raise ValueError("deliberate")
    return x


@pytest.fixture(autouse=True)
def _clean_globals():
    """Recorder installation is process-global; never leak across tests."""
    yield
    flight.uninstall()
    flight.configure_autodump(None)


class TestFlightRecorder:
    def test_ring_is_bounded_and_counts_shed_history(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.record(i, "queue", "drop", index=i)
        assert len(recorder) == 4
        assert recorder.events_recorded == 10
        events = recorder.events()
        assert [e["fields"]["index"] for e in events] == [6, 7, 8, 9]
        assert [e["seq"] for e in events] == [7, 8, 9, 10]
        payload = recorder.to_payload()
        assert payload["events_dropped"] == 6

    def test_note_uses_attached_sim_clock(self):
        class FakeSim:
            now = 1234

        recorder = FlightRecorder()
        recorder.note("queue", "drop")  # no sim attached yet
        flight.attach(sim=FakeSim(), recorder=recorder)
        recorder.note("queue", "drop")
        times = [e["time_ps"] for e in recorder.events()]
        assert times == [-1, 1234]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_dump_round_trip(self, tmp_path):
        recorder = FlightRecorder(meta={"task": 7})
        recorder.record(5, "pfc", "pause", congested_ports=2)
        path = recorder.dump(tmp_path / "dump.json", status="exception",
                             error="boom")
        payload = load_dump(path)
        assert payload["kind"] == "flight_recorder_dump"
        assert payload["status"] == "exception"
        assert payload["error"] == "boom"
        assert payload["meta"] == {"task": 7}
        assert payload["events"][0]["name"] == "pause"
        assert payload["pid"] == os.getpid()

    def test_load_dump_rejects_other_json(self, tmp_path):
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"kind": "something_else"}))
        with pytest.raises(ValueError):
            load_dump(other)

    def test_spool_written_at_creation_and_discarded(self, tmp_path):
        spool = tmp_path / "spool.json"
        recorder = FlightRecorder(spool_path=spool, spool_interval_s=0.0)
        assert spool.exists()  # instant death must still leave evidence
        assert load_dump(spool)["status"] == "running"
        recorder.record(1, "timer", "cancel", target_ps=9)
        assert load_dump(spool)["events"][-1]["name"] == "cancel"
        recorder.discard_spool()
        assert not spool.exists()

    def test_spool_interval_throttles_rewrites(self, tmp_path):
        spool = tmp_path / "spool.json"
        recorder = FlightRecorder(spool_path=spool, spool_interval_s=3600.0)
        recorder.record(1, "timer", "cancel")
        # Throttled: the file still holds only the creation-time snapshot.
        assert load_dump(spool)["events"] == []

    def test_slow_spool_does_not_respool_on_next_record(self, tmp_path):
        """A spool that outlasts the interval is stamped when it ends, so
        the next record() is not a spool too (else every event spools)."""
        now = [0.0]

        class SlowDump(FlightRecorder):
            spools = 0

            def dump(self, path, **kwargs):
                now[0] += 2.0  # the write takes two intervals
                SlowDump.spools += 1
                return super().dump(path, **kwargs)

        recorder = SlowDump(
            spool_path=tmp_path / "spool.json",
            spool_interval_s=1.0,
            clock=lambda: now[0],
        )
        assert SlowDump.spools == 1  # the creation-time snapshot
        recorder.record(1, "timer", "cancel")
        assert SlowDump.spools == 1


class TestTaskLifecycle:
    def test_begin_end_success_removes_spool(self, tmp_path):
        flight.configure_autodump(tmp_path, spool_interval_s=0.0)
        recorder = flight.begin_task(3)
        assert recorder is flight.current()
        spool = task_dump_path(tmp_path, 3)
        assert spool.exists()
        flight.end_task(recorder, ok=True)
        assert not spool.exists()
        assert flight.current() is None

    def test_begin_end_failure_finalizes_dump(self, tmp_path):
        flight.configure_autodump(tmp_path, spool_interval_s=0.0)
        recorder = flight.begin_task(4)
        flight.end_task(recorder, ok=False, error="ValueError: deliberate")
        payload = load_dump(task_dump_path(tmp_path, 4))
        assert payload["status"] == "exception"
        assert payload["error"] == "ValueError: deliberate"
        assert payload["events"][-1]["name"] == "task_error"

    def test_begin_task_without_autodump_is_none(self):
        assert flight.begin_task(0) is None
        flight.end_task(None, ok=False, error="x")  # must not raise


class TestCampaignPostMortems:
    def test_killed_worker_leaves_preserved_dump(self, tmp_path):
        runner = CampaignRunner(workers=2, max_retries=1, results_dir=tmp_path)
        try:
            result = runner.run(record_then_maybe_die, [(0,), (1,), (2,)])
        finally:
            runner.close()
        assert not result.results[1].ok
        preserved = sorted(tmp_path.glob("flight-task00001-a*-crash.json"))
        assert preserved, "crash must preserve the worker's last spool"
        payload = load_dump(preserved[0])
        assert payload["status"] == "running"  # died mid-flight
        names = [e["name"] for e in payload["events"]]
        assert names == ["task_start", "progress"]
        # The journal records the terminal failure alongside the dumps.
        journal = json.loads((tmp_path / "campaign.json").read_text())
        failed = [t for t in journal["tasks"] if not t["ok"]]
        assert [t["index"] for t in failed] == [1]
        assert failed[0]["error_kind"] == "crash"
        # ... and on which worker: the last one that ran the task, which
        # is the process whose spool was preserved.
        assert failed[0]["pid"] != 0
        assert failed[0]["pid"] == load_dump(preserved[-1])["pid"]

    def test_exception_task_dump_finalized_worker_side(self, tmp_path):
        runner = CampaignRunner(workers=2, results_dir=tmp_path)
        try:
            result = runner.run(raise_on_one, [(0,), (1,), (2,)])
        finally:
            runner.close()
        assert not result.results[1].ok
        payload = load_dump(task_dump_path(tmp_path, 1))
        assert payload["status"] == "exception"
        assert "deliberate" in payload["error"]

    def test_successful_campaign_leaves_only_journal(self, tmp_path):
        runner = CampaignRunner(workers=1, results_dir=tmp_path)
        try:
            runner.run(record_then_maybe_die, [(0,), (2,)])
        finally:
            runner.close()
        assert (tmp_path / "campaign.json").exists()
        assert list(tmp_path.glob("flight-task*.json")) == []


class TestZeroPerturbation:
    def test_recorder_on_is_event_identical(self, tmp_path):
        """The PR 3 contract: arming the recorder (and enabling its
        hooks through attach_control_plane) changes no simulated event."""
        kwargs = dict(n_senders=2, duration_ps=500_000_000, seed=3)
        baseline = run_sweep_point("dctcp", {}, **kwargs)

        # Spooling on every event is the harshest setting; the small ring
        # keeps each rewrite cheap (a 4,096-entry ring made this one test
        # 199 s of the suite).
        recorder = FlightRecorder(
            capacity=64, spool_path=tmp_path / "spool.json", spool_interval_s=0.0
        )
        flight.install(recorder)
        try:
            recorded = run_sweep_point("dctcp", {}, **kwargs)
        finally:
            flight.uninstall()
        assert dataclasses.asdict(recorded) == dataclasses.asdict(baseline)
        # The run produced congestion, so the ring is not empty — the
        # comparison above was not vacuous.
        assert recorder.events_recorded > 0
        categories = {e["category"] for e in recorder.events()}
        assert categories & {"queue", "cc", "timer"}
