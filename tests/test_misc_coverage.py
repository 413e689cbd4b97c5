"""Coverage of remaining corners: error hierarchy, packet constructors,
parser robustness, FIFO bounds, pipeline usage model, public API surface."""

import pytest

from repro import available_cc, create_cc
from repro.errors import (
    CCModuleError,
    ConfigError,
    PortAllocationError,
    RMWConflictError,
    RegisterQueueOverflow,
    ReproError,
    ResourceExceededError,
    SimulationError,
)
from repro.fpga.parser import InfoParser
from repro.net.packet import Packet
from repro.pswitch.packets import (
    PTYPE_RDATA,
    make_data,
    make_rdata,
    make_temp,
)
from repro.sim import Simulator
from repro.units import MS


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (
            SimulationError,
            ConfigError,
            ResourceExceededError,
            RegisterQueueOverflow,
            RMWConflictError,
            CCModuleError,
            PortAllocationError,
        ):
            assert issubclass(exc, ReproError)

    def test_specific_subtyping(self):
        assert issubclass(RegisterQueueOverflow, ResourceExceededError)
        assert issubclass(PortAllocationError, ConfigError)


class TestPacketConstructors:
    def test_make_temp(self):
        temp = make_temp(1024, created_ps=5)
        assert temp.ptype == "TEMP"
        assert temp.size_bytes == 1024
        assert temp.created_ps == 5

    def test_make_rdata_preserves_fields(self):
        data = make_data(
            7, 42, src_addr=1, dst_addr=2, frame_bytes=1024, tx_tstamp_ps=99
        )
        data.mark_ce()
        rdata = make_rdata(data, rx_port=3, created_ps=100)
        assert rdata.ptype == PTYPE_RDATA
        assert rdata.size_bytes == 64  # truncated
        assert rdata.flow_id == 7 and rdata.psn == 42
        assert rdata.ce_marked
        assert rdata.meta["rx_port"] == 3
        assert rdata.meta["tx_tstamp_ps"] == 99


class TestParserRobustness:
    def test_non_info_counted_malformed(self):
        parser = InfoParser()
        assert parser.parse(Packet("DATA", 1, 2, 64), 0) is None
        assert parser.malformed == 1
        assert parser.parsed == 0

    def test_missing_echo_means_no_rtt(self):
        parser = InfoParser()
        info = Packet("INFO", 0, 0, 64, flow_id=1, psn=2, meta={"rx_port": 0})
        event = parser.parse(info, 1000)
        assert event is not None
        assert event.prb_rtt_ps == -1

    def test_fpga_drops_malformed_silently(self):
        from repro.cc import Reno
        from repro.core.config import TestConfig
        from repro.fpga.nic import FpgaNic
        from repro.pswitch.module_a import ReceiverMode

        sim = Simulator()
        nic = FpgaNic(
            sim, Reno(), TestConfig(n_test_ports=1),
            n_test_ports=1, receiver_mode=ReceiverMode.TCP,
        )
        nic.receive(Packet("GARBAGE", 1, 2, 64), nic.port)
        assert nic.parser.malformed == 1


class TestPublicApi:
    def test_registry_names_stable(self):
        names = set(available_cc())
        assert {"reno", "dctcp", "dcqcn", "cubic", "timely", "hpcc", "swift"} <= names

    def test_top_level_docstring_example_runs(self):
        """The doctest in repro/__init__.py, executed for real."""
        from repro import ControlPlane, TestConfig

        cp = ControlPlane()
        tester = cp.deploy(TestConfig(cc_algorithm="dctcp", n_test_ports=2))
        cp.wire_loopback_fabric()
        cp.start_flows(size_packets=200, pattern="pairs")
        cp.run(duration_ps=10**9)
        assert tester.fct.stats().count >= 1

    def test_every_public_module_has_docstring(self):
        import importlib
        import pkgutil

        import repro

        missing = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(info.name)
            if not (module.__doc__ or "").strip():
                missing.append(info.name)
        assert missing == []

    def test_all_algorithms_have_table3_docs(self):
        for name in available_cc():
            algorithm = create_cc(name)
            assert (type(algorithm).__doc__ or "").strip(), name
            assert algorithm.on_event.__doc__ or type(algorithm).on_event is not None


class TestSchedFifoBounds:
    def test_capacity_below_flow_count_drops_events(self):
        """An undersized scheduling FIFO loses events (so the default is
        sized at the 65,536-flow maximum)."""
        from repro.cc.base import CCMode
        from repro.fpga.flow import FlowState
        from repro.fpga.scheduler import PortScheduler

        sim = Simulator()
        scheduler = PortScheduler(
            sim, 0, 1000, CCMode.WINDOW, lambda *a: None, fifo_capacity=4
        )
        flows = [
            FlowState(
                flow_id=i, port_index=0, src_addr=1, dst_addr=2,
                size_packets=10, frame_bytes=1024, cwnd_or_rate=10.0,
            )
            for i in range(8)
        ]
        for flow in flows:
            scheduler.enqueue_flow(flow)
        assert scheduler.sched_fifo.dropped == 4


class TestPipelineUsageModel:
    def test_paper_build_close_to_reported_sram(self):
        from repro.pswitch.pipeline import marlin_dataplane_usage

        pipeline = marlin_dataplane_usage(12, 128, 65_536)
        # Paper: 58/960 SRAM blocks, 4 stages.
        assert 20 <= pipeline.sram_blocks_used <= 120
        assert pipeline.stages_used == 4


class TestExamples:
    def test_examples_compile(self):
        """Every example is at least syntactically sound and importable
        up to its main() guard (full runs are exercised manually)."""
        import py_compile
        from pathlib import Path

        examples = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))
        assert len(examples) >= 5
        for path in examples:
            py_compile.compile(str(path), doraise=True)

    def test_examples_have_docstrings_and_main(self):
        from pathlib import Path

        for path in (Path(__file__).parent.parent / "examples").glob("*.py"):
            source = path.read_text()
            assert source.lstrip().startswith('"""'), path.name
            assert '__name__ == "__main__"' in source, path.name


class TestMultiFlowIdScheme:
    def test_flow_ids_never_reused(self):
        from repro import ControlPlane, TestConfig

        cp = ControlPlane()
        tester = cp.deploy(TestConfig(cc_algorithm="dcqcn", n_test_ports=2))
        cp.wire_loopback_fabric()
        ids = set()
        for _ in range(5):
            flow = tester.start_flow(
                port_index=0, dst_port_index=1, size_packets=50
            )
            assert flow.flow_id not in ids
            ids.add(flow.flow_id)
            cp.run(duration_ps=1 * MS)
