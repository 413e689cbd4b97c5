"""Chrome trace-event export: constructors, the validator gate, and the
campaign results-dir merge."""

import json

import pytest

from repro.obs import flight
from repro.obs.trace import (
    build_chrome_trace,
    campaign_trace_events,
    complete_event,
    counter_event,
    instant_event,
    metadata_event,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.parallel import CampaignRunner
from repro.sim import Simulator


# -- picklable task functions (must be top level) ------------------------------


def tiny_sim_task(until_ps):
    from repro.obs.heartbeat import run_with_heartbeats

    sim = Simulator()
    ticks = []
    sim.at(0, lambda: ticks.append(sim.now))
    # Heartbeat-aware so the campaign journal gets at least the final
    # progress beat per task (rendered as trace instants).
    run_with_heartbeats(sim, until_ps)
    recorder = flight.current()
    if recorder is not None:
        recorder.record(sim.now, "engine", "run_done", events=sim.events_executed)
    return sim.events_executed


@pytest.fixture(autouse=True)
def _clean_globals():
    yield
    flight.uninstall()
    flight.configure_autodump(None)


class TestConstructorsRoundTrip:
    def test_document_survives_json_round_trip(self, tmp_path):
        events = [
            metadata_event("process_name", pid=1, name="worker"),
            complete_event("task 0", ts_us=0.0, dur_us=12.5, pid=1, tid=0,
                           args={"ok": True}),
            instant_event("heartbeat", ts_us=3.0, pid=1, tid=0),
            counter_event("events", ts_us=3.0, pid=1,
                          values={"events_executed": 42.0}),
        ]
        path = write_chrome_trace(tmp_path / "trace.json", events,
                                  metadata={"origin": "test"})
        payload = json.loads(path.read_text())
        validate_chrome_trace(payload)  # what we wrote is what we promise
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"] == {"origin": "test"}
        assert [e["ph"] for e in payload["traceEvents"]] == ["M", "X", "i", "C"]

    def test_negative_duration_is_clamped(self):
        event = complete_event("t", ts_us=0, dur_us=-5.0, pid=0, tid=0)
        assert event["dur"] == 0.0


class TestValidator:
    def test_rejects_non_object_payload(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([])

    def test_rejects_missing_trace_events(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"displayTimeUnit": "ms"})

    def test_rejects_bad_phase(self):
        bad = {"traceEvents": [{"name": "x", "ph": "Z", "ts": 0,
                                "pid": 0, "tid": 0}]}
        with pytest.raises(ValueError, match="invalid phase"):
            validate_chrome_trace(bad)

    def test_rejects_x_without_duration(self):
        bad = {"traceEvents": [{"name": "x", "ph": "X", "ts": 0,
                                "pid": 0, "tid": 0}]}
        with pytest.raises(ValueError, match="dur"):
            validate_chrome_trace(bad)

    def test_rejects_non_integer_pid(self):
        bad = {"traceEvents": [{"name": "x", "ph": "i", "ts": 0,
                                "pid": "worker", "tid": 0}]}
        with pytest.raises(ValueError, match="pid"):
            validate_chrome_trace(bad)

    def test_rejects_boolean_timestamp(self):
        bad = {"traceEvents": [{"name": "x", "ph": "i", "ts": True,
                                "pid": 0, "tid": 0}]}
        with pytest.raises(ValueError, match="ts"):
            validate_chrome_trace(bad)


class TestCampaignMerge:
    def test_empty_dir_is_a_usage_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            campaign_trace_events(tmp_path)

    def test_merges_journal_heartbeats_and_dumps(self, tmp_path):
        runner = CampaignRunner(workers=1, results_dir=tmp_path)
        try:
            runner.run(
                tiny_sim_task,
                [(1_000_000,), (2_000_000,)],
                on_heartbeat=lambda beat: None,
            )
        finally:
            runner.close()
        events = campaign_trace_events(tmp_path)
        payload = build_chrome_trace(events)
        validate_chrome_trace(payload)
        # Round trip through serialization stays valid.
        validate_chrome_trace(json.loads(json.dumps(payload)))

        phases = {e["ph"] for e in events}
        assert {"M", "X", "i"} <= phases
        task_spans = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in task_spans} == {"task 0", "task 1"}
        assert all(e["cat"] == "task" for e in task_spans)
        # Heartbeats arrive as instants with a matching counter sample.
        beats = [e for e in events if e.get("cat") == "heartbeat"]
        assert beats and phases >= {"C"}
        # Metadata rows precede everything after the stable sort.
        assert events[0]["ph"] == "M"
        # All timestamps are campaign-relative, so none negative.
        assert all(e.get("ts", 0) >= 0 for e in events)

    def test_merges_failure_dump_from_journal_free_dir(self, tmp_path):
        """A dir holding only flight dumps (no journal) still renders."""
        flight.configure_autodump(tmp_path, spool_interval_s=0.0)
        recorder = flight.begin_task(0)
        recorder.record(10, "queue", "drop", queue="fabric:p0")
        flight.end_task(recorder, ok=False, error="boom")
        events = campaign_trace_events(tmp_path)
        validate_chrome_trace(build_chrome_trace(events))
        names = {e["name"] for e in events if e["ph"] == "i"}
        assert "queue.drop" in names
        assert "flight dump (exception)" in names

    def test_half_written_dump_is_skipped(self, tmp_path):
        (tmp_path / "flight-task00000.json").write_text('{"kind": "flight')
        flight.configure_autodump(tmp_path, spool_interval_s=0.0)
        recorder = flight.begin_task(1)
        flight.end_task(recorder, ok=False, error="x")
        events = campaign_trace_events(tmp_path)
        assert events  # the torn file did not poison the merge
