"""Register queues (Section 4.2 semantics) and pipeline resource budgets.

The switch's per-port register queues are ``repro.net.queue.Fifo``, the
same FIFO the FPGA uses; these tests hold it to the switch's semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ResourceExceededError
from repro.pswitch.pipeline import (
    MAX_SRAM_BLOCKS,
    MAX_STAGES,
    PipelineModel,
    PipelineUsage,
    SUPPORTED_DATAPLANE_OPS,
    UNSUPPORTED_DATAPLANE_OPS,
    marlin_dataplane_usage,
)
from repro.net.queue import Fifo


class TestRegisterQueue:
    def test_fifo_semantics(self):
        q = Fifo(4)
        for i in range(3):
            q.push(i)
        assert [q.pop() for _ in range(3)] == [0, 1, 2]
        assert q.pop() is None

    def test_overflow_drops_and_counts(self):
        q = Fifo(2)
        assert q.push("a") and q.push("b")
        assert not q.push("c")
        assert q.dropped == 1
        # The queue content is unchanged: "c" (the scheduled DATA) is lost.
        assert [q.pop(), q.pop()] == ["a", "b"]

    def test_wraparound_reuse(self):
        q = Fifo(2)
        for i in range(10):
            assert q.push(i)
            assert q.pop() == i
        assert q.dropped == 0 and q.max_depth == 1

    def test_max_length_recorded(self):
        q = Fifo(8)
        for i in range(5):
            q.push(i)
        q.pop()
        assert q.max_depth == 5

    @given(
        ops=st.lists(
            st.one_of(st.just("deq"), st.integers(min_value=0, max_value=999)),
            max_size=200,
        ),
        capacity=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_model_fifo(self, ops, capacity):
        """The register queue behaves exactly like a bounded deque."""
        q = Fifo(capacity)
        model = []
        for op in ops:
            if op == "deq":
                expected = model.pop(0) if model else None
                assert q.pop() == expected
            else:
                if len(model) < capacity:
                    assert q.push(op)
                    model.append(op)
                else:
                    assert not q.push(op)
            assert len(q) == len(model)
            assert q.empty == (not model)


class TestPipelineModel:
    def test_marlin_program_fits_tofino(self):
        """The paper's build: 12 ports, 65,536 flows, 4 stages, modest SRAM."""
        pipeline = marlin_dataplane_usage(12, 128, 65_536)
        assert pipeline.stages_used <= MAX_STAGES
        assert pipeline.sram_blocks_used <= MAX_SRAM_BLOCKS
        # The paper reports 58/960 SRAM blocks; our estimate is the same
        # order of magnitude.
        assert 20 <= pipeline.sram_blocks_used <= 120

    def test_stage_budget_enforced(self):
        pipeline = PipelineModel()
        with pytest.raises(ResourceExceededError):
            pipeline.add(PipelineUsage("huge", stages=13))

    def test_sram_budget_enforced(self):
        pipeline = PipelineModel()
        with pytest.raises(ResourceExceededError):
            pipeline.add(PipelineUsage("huge", sram_blocks=961))

    def test_tcam_budget_enforced(self):
        pipeline = PipelineModel()
        with pytest.raises(ResourceExceededError):
            pipeline.add(PipelineUsage("huge", tcam_blocks=289))

    def test_cc_ops_not_supported_in_dataplane(self):
        """Section 2.1: the switch cannot express CC algorithms."""
        assert "register_rmw" in UNSUPPORTED_DATAPLANE_OPS
        assert "mul" in UNSUPPORTED_DATAPLANE_OPS
        assert "div" in UNSUPPORTED_DATAPLANE_OPS
        assert not (SUPPORTED_DATAPLANE_OPS & UNSUPPORTED_DATAPLANE_OPS)
