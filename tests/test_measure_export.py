"""Round-trip tests for every measure.export writer, and for the
register snapshot ``repro run --export-dir`` writes beside them.

Each artifact is written, re-read, and compared against the collector
that produced it; every writer is also exercised on an *empty*
collector, which must still yield a valid header-only (CSV) or
empty-object (JSON) file.
"""

import csv
import json

import pytest

from repro.measure import FctCollector, ThroughputSampler
from repro.measure.export import fct_to_csv, throughput_to_csv, trace_to_json
from repro.obs import counters_registry, write_metrics
from repro.sim import Simulator
from repro.sim.trace import TraceRecorder


def _read_csv(path):
    with path.open(newline="") as handle:
        return list(csv.reader(handle))


class TestFctCsv:
    def test_round_trip(self, tmp_path):
        collector = FctCollector()
        collector.add(1, 10, 10_240, 0, 5_000_000)
        collector.add(2, 20, 20_480, 1_000, 9_000_000)
        rows = _read_csv(fct_to_csv(collector, tmp_path / "fct.csv"))
        assert rows[0] == [
            "flow_id", "size_packets", "size_bytes", "start_ps", "finish_ps", "fct_us",
        ]
        assert len(rows) == 3
        record = collector.records[0]
        assert rows[1][:5] == [
            str(record.flow_id), str(record.size_packets), str(record.size_bytes),
            str(record.start_ps), str(record.finish_ps),
        ]
        assert float(rows[1][5]) == pytest.approx(record.fct_us, abs=1e-3)

    def test_empty_collector_header_only(self, tmp_path):
        rows = _read_csv(fct_to_csv(FctCollector(), tmp_path / "fct.csv"))
        assert len(rows) == 1 and rows[0][0] == "flow_id"


class TestThroughputCsv:
    def test_round_trip(self, tmp_path):
        sim = Simulator()
        sampler = ThroughputSampler(sim, period_ps=1_000_000)
        sampler.start()
        sampler.meter("flow1").count(12_500)
        sim.run(until_ps=2_000_000)
        rows = _read_csv(throughput_to_csv(sampler, tmp_path / "tput.csv"))
        assert rows[0] == ["time_us"] + sorted(sampler.meters)
        assert len(rows) == 1 + len(sampler.samples)
        sample = sampler.samples[0]
        assert float(rows[1][0]) == pytest.approx(sample.time_ps / 1e6)
        column = rows[0].index("flow1")
        assert float(rows[1][column]) == pytest.approx(
            sample.rates_bps["flow1"], abs=1.0
        )

    def test_empty_sampler_header_only(self, tmp_path):
        sim = Simulator()
        sampler = ThroughputSampler(sim, period_ps=1_000_000)
        rows = _read_csv(throughput_to_csv(sampler, tmp_path / "tput.csv"))
        assert rows == [["time_us"]]


class TestTraceJson:
    def test_round_trip(self, tmp_path):
        trace = TraceRecorder()
        trace.log(100, "cc", cwnd=10, rate=2.5)
        trace.log(200, "cc", cwnd=12, rate=3.5)
        trace.log(150, "queue", depth=7)
        payload = json.loads(trace_to_json(trace, tmp_path / "t.json").read_text())
        assert set(payload) == {"cc", "queue"}
        assert payload["cc"][0] == {"time_ps": 100, "cwnd": 10, "rate": 2.5}
        assert payload["queue"] == [{"time_ps": 150, "depth": 7}]

    def test_non_numeric_fields_survive(self, tmp_path):
        trace = TraceRecorder()
        trace.log(1, "events", kind="timeout", detail={"a": 1})
        payload = json.loads(trace_to_json(trace, tmp_path / "t.json").read_text())
        record = payload["events"][0]
        assert record["kind"] == "timeout"
        assert isinstance(record["detail"], (str, dict))

    def test_empty_trace(self, tmp_path):
        path = trace_to_json(TraceRecorder(), tmp_path / "t.json")
        assert json.loads(path.read_text()) == {}
        assert path.read_text().endswith("\n")


class TestCountersJson:
    """``counters.json``: the registers under their one exported name."""

    def test_round_trip(self, tmp_path):
        counters = {"switch.data_generated": 42, "fpga.flows_completed": 3}
        path = write_metrics(counters_registry(counters), tmp_path / "c.json")
        assert json.loads(path.read_text()) == {
            "repro_switch_data_generated_total": 42,
            "repro_fpga_flows_completed_total": 3,
        }

    def test_empty_counters(self, tmp_path):
        path = write_metrics(counters_registry({}), tmp_path / "c.json")
        assert json.loads(path.read_text()) == {}
        assert path.read_text().endswith("\n")
