"""FPGA leaf components: clock, FIFOs, BRAM, HLS cost model, logger."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc import Cubic, Dcqcn, Dctcp, OpCounts, Reno
from repro.errors import CCModuleError, RMWConflictError, ResourceExceededError
from repro.fpga.bram import FlowBram
from repro.fpga.clock import cycles_to_ps, ps_to_cycles
from repro.fpga.fifos import Fifo
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
        assert fifo.stats.dropped == 1

    def test_stats(self):
        fifo = Fifo(8)
        for i in range(5):
            fifo.push(i)
        fifo.pop()
        assert fifo.stats.pushed == 5
        assert fifo.stats.popped == 1
        assert fifo.stats.max_depth == 5

    def test_pop_empty(self):
        assert Fifo(2).pop() is None

    @given(st.lists(st.one_of(st.just(None), st.integers()), max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_model_equivalence(self, ops):
        fifo = Fifo(8)
        model = []
        for op in ops:
            if op is None:
                expected = model.pop(0) if model else None
                assert fifo.pop() == expected
            else:
                if len(model) < 8:
                    assert fifo.push(op)
                    model.append(op)
                else:
                    assert not fifo.push(op)


class TestFlowBram:
    def test_storage(self):
        bram = FlowBram()
        bram.write(1, "state")
        assert bram.read(1) == "state"
        assert 1 in bram
        bram.delete(1)
        assert bram.read(1) is None

    def test_non_overlapping_rmw_ok(self):
        bram = FlowBram()
        assert not bram.begin_rmw(1, 0, 100)
        assert not bram.begin_rmw(1, 100, 100)
        assert bram.conflicts == 0

    def test_overlapping_rmw_conflicts(self):
        bram = FlowBram()
        bram.begin_rmw(1, 0, 100)
        assert bram.begin_rmw(1, 50, 100)
        assert bram.conflicts == 1

    def test_different_flows_never_conflict(self):
        bram = FlowBram()
        bram.begin_rmw(1, 0, 100)
        assert not bram.begin_rmw(2, 10, 100)

    def test_strict_mode_raises(self):
        bram = FlowBram(strict=True)
        bram.begin_rmw(1, 0, 100)
        with pytest.raises(RMWConflictError):
            bram.begin_rmw(1, 50, 100)


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
