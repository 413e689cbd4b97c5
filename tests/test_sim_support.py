"""The trace recorder."""

from repro.sim import TraceRecorder


class TestTraceRecorder:
    def test_log_and_read_series(self):
        trace = TraceRecorder()
        trace.log(10, "cwnd", value=1.0)
        trace.log(20, "cwnd", value=2.0)
        times, values = trace.series("cwnd", "value")
        assert times == [10, 20]
        assert values == [1.0, 2.0]

    def test_channels_sorted(self):
        trace = TraceRecorder()
        trace.log(0, "b")
        trace.log(0, "a")
        assert trace.channels() == ["a", "b"]

    def test_missing_channel_is_empty(self):
        trace = TraceRecorder()
        assert trace.channel("nope") == []
        assert trace.series("nope", "x") == ([], [])

    def test_record_getitem(self):
        trace = TraceRecorder()
        trace.log(5, "c", alpha=0.5)
        record = trace.channel("c")[0]
        assert record["alpha"] == 0.5
        assert record.time_ps == 5

    def test_series_skips_records_without_key(self):
        trace = TraceRecorder()
        trace.log(1, "c", x=1)
        trace.log(2, "c", y=2)
        times, values = trace.series("c", "x")
        assert times == [1]
        assert values == [1]
