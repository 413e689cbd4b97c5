"""FPGA leaf components: clock, FIFOs, BRAM, HLS cost model, logger."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc import Cubic, Dcqcn, Dctcp, EventType, Flags, IntrinsicInput, OpCounts, Reno
from repro.errors import CCModuleError, RMWConflictError, ResourceExceededError
from repro.fpga.cc_module import CCModuleRuntime
from repro.fpga.clock import cycles_to_ps, ps_to_cycles
from repro.fpga.flow import FlowState
from repro.fpga.hls import algorithm_cycles, estimate_cycles
from repro.fpga.logger import (
    MAX_VALUES_PER_RECORD,
    RECORD_BYTES,
    RECORDS_PER_UPLOAD,
    UPLOAD_PACKET_BYTES,
    QdmaLogger,
)
from repro.fpga.resources import (
    MAX_FLOWS,
    PAPER_TABLE4,
    estimate_resources,
    flow_state_bytes,
    max_flows,
)
from repro.net.queue import Fifo
from repro.units import FPGA_CYCLE_PS


class TestClock:
    def test_roundtrip(self):
        assert ps_to_cycles(cycles_to_ps(40)) == 40

    def test_cycle_is_322mhz(self):
        assert cycles_to_ps(1) == FPGA_CYCLE_PS

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cycles_to_ps(-1)
        with pytest.raises(ValueError):
            ps_to_cycles(-1)


class TestFifo:
    def test_fifo_order(self):
        fifo = Fifo(4)
        for i in range(3):
            assert fifo.push(i)
        assert [fifo.pop() for _ in range(3)] == [0, 1, 2]

    def test_drop_on_full(self):
        fifo = Fifo(2)
        fifo.push(1)
        fifo.push(2)
        assert not fifo.push(3)
        assert fifo.dropped == 1
        # The content is unchanged: the dropped entry is simply lost.
        assert [fifo.pop(), fifo.pop()] == [1, 2]

    def test_stats(self):
        fifo = Fifo(8)
        for i in range(5):
            fifo.push(i)
        fifo.pop()
        assert len(fifo) == 4
        assert fifo.peek() == 1
        assert fifo.max_depth == 5

    def test_pop_empty(self):
        assert Fifo(2).pop() is None

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            Fifo(0)

    @given(
        st.lists(st.one_of(st.just(None), st.integers()), max_size=100),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_model_equivalence(self, ops, capacity):
        """The FIFO behaves exactly like a bounded list, at any capacity."""
        fifo = Fifo(capacity)
        model = []
        for op in ops:
            if op is None:
                expected = model.pop(0) if model else None
                assert fifo.pop() == expected
            else:
                if len(model) < capacity:
                    assert fifo.push(op)
                    model.append(op)
                else:
                    assert not fifo.push(op)
            assert len(fifo) == len(model)


class TestFlowBram:
    """Section 5.3 RMW windows, charged by the CC module runtime against
    each flow's BRAM record (``FlowState.rmw_end_ps``)."""

    @staticmethod
    def runtime(**kwargs):
        return CCModuleRuntime(Reno(), **kwargs)

    @staticmethod
    def flow(flow_id=1):
        alg = Reno()
        return FlowState(
            flow_id=flow_id, port_index=0, src_addr=1, dst_addr=2,
            size_packets=10, frame_bytes=1024, cwnd_or_rate=1.0,
            cust=alg.initial_cust(), slow=alg.initial_slow(),
        )

    @staticmethod
    def rx_at(tstamp_ps):
        return IntrinsicInput(
            evt_type=EventType.RX, psn=1, cwnd_or_rate=1.0, una=1, nxt=1,
            flags=Flags(ack=True), prb_rtt=-1, tstamp=tstamp_ps,
        )

    def test_non_overlapping_rmw_ok(self):
        runtime, flow = self.runtime(), self.flow()
        runtime.invoke(flow, self.rx_at(0))
        runtime.invoke(flow, self.rx_at(runtime.rmw_duration_ps))
        assert runtime.conflicts == 0
        assert flow.rmw_end_ps == 2 * runtime.rmw_duration_ps

    def test_overlapping_rmw_conflicts(self):
        runtime, flow = self.runtime(), self.flow()
        runtime.invoke(flow, self.rx_at(0))
        runtime.invoke(flow, self.rx_at(runtime.rmw_duration_ps - 1))
        assert runtime.conflicts == 1

    def test_different_flows_never_conflict(self):
        runtime = self.runtime()
        runtime.invoke(self.flow(1), self.rx_at(0))
        runtime.invoke(self.flow(2), self.rx_at(1))
        assert runtime.conflicts == 0

    def test_strict_mode_raises(self):
        runtime, flow = self.runtime(strict_bram=True), self.flow()
        runtime.invoke(flow, self.rx_at(0))
        with pytest.raises(RMWConflictError):
            runtime.invoke(flow, self.rx_at(1))


class TestHlsModel:
    def test_reno_is_2_cycles(self):
        assert algorithm_cycles(Reno()) == 2

    def test_dctcp_is_24_cycles(self):
        assert algorithm_cycles(Dctcp()) == 24

    def test_dcqcn_is_6_cycles(self):
        assert algorithm_cycles(Dcqcn()) == 6

    def test_cubic_is_about_100_cycles(self):
        cycles = algorithm_cycles(Cubic())
        assert 90 <= cycles <= 110  # Section 8: "around 100 clock cycles"

    def test_empty_ops_is_one_cycle(self):
        assert estimate_cycles(OpCounts()) == 1

    def test_division_dominates(self):
        assert estimate_cycles(OpCounts(div16=1)) > estimate_cycles(
            OpCounts(add_sub=8, mul32=2)
        )


class TestResources:
    def test_paper_bram_ordering(self):
        """Table 4 ordering: DCQCN < Reno < DCTCP in BRAM."""
        reno = estimate_resources(Reno()).bram_pct
        dctcp = estimate_resources(Dctcp()).bram_pct
        dcqcn = estimate_resources(Dcqcn()).bram_pct
        assert dcqcn < reno < dctcp

    def test_bram_close_to_paper(self):
        for alg, paper in ((Reno(), 59), (Dctcp(), 63), (Dcqcn(), 46)):
            measured = estimate_resources(alg).bram_pct
            assert measured == pytest.approx(paper, abs=2.5)

    def test_65536_flows_fit_bram(self):
        for alg in (Reno(), Dctcp(), Dcqcn()):
            assert max_flows(alg) >= MAX_FLOWS

    def test_uram_scales_further(self):
        """Section 8: 276 Mb of URAM allows scaling beyond 65,536 flows."""
        assert max_flows(Dctcp(), use_uram=True) > 4 * max_flows(Dctcp())

    def test_state_bytes_by_mode(self):
        assert flow_state_bytes(Dcqcn()) == 64  # rate mode, no slow path
        assert flow_state_bytes(Reno()) == 80  # window extras
        assert flow_state_bytes(Dctcp()) == 88  # window + slow path

    def test_strict_over_budget_raises(self):
        with pytest.raises(ResourceExceededError):
            estimate_resources(Dctcp(), n_flows=10_000_000, strict=True)

    def test_report_rows_have_paper_counterparts(self):
        for name in ("reno", "dctcp", "dcqcn"):
            assert name in PAPER_TABLE4


class TestQdmaLogger:
    def test_log_and_series(self):
        logger = QdmaLogger()
        logger.log(10, "flow1", cwnd=2.0)
        logger.log(20, "flow1", cwnd=4.0)
        times, values = logger.series("flow1", "cwnd")
        assert times == [10, 20]
        assert values == [2.0, 4.0]

    def test_record_budget_enforced(self):
        logger = QdmaLogger()
        too_many = {f"v{i}": i for i in range(MAX_VALUES_PER_RECORD + 1)}
        with pytest.raises(CCModuleError):
            logger.log(0, "x", **too_many)

    def test_upload_aggregation(self):
        logger = QdmaLogger()
        for i in range(RECORDS_PER_UPLOAD):
            logger.log(i, "c", v=i)
        assert logger.uploads == 1
        assert logger.upload_bytes == UPLOAD_PACKET_BYTES  # one full batch
        logger.log(999, "c", v=0)
        assert logger.uploads == 1
        assert logger.pending_records == 1
        logger.flush()
        assert logger.uploads == 2
        # The flushed partial batch carries only its one record.
        assert logger.upload_bytes == UPLOAD_PACKET_BYTES + RECORD_BYTES
        assert logger.records_logged == RECORDS_PER_UPLOAD + 1

    def test_flush_empty_is_noop(self):
        logger = QdmaLogger()
        logger.flush()
        assert logger.uploads == 0
