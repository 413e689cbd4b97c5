"""Extensions: receiver-on-FPGA, multi-pipeline, export, CLI."""

import csv
import json

import pytest

from repro import ControlPlane, TestConfig
from repro.cli import main as cli_main
from repro.core.multi_pipeline import (
    MultiPipelineTester,
    PIPELINES_PER_SWITCH,
    scaling_table,
)
from repro.errors import ConfigError
from repro.measure.export import fct_to_csv, throughput_to_csv, trace_to_json
from repro.obs import counters_registry, write_metrics
from repro.sim import Simulator, TraceRecorder
from repro.units import GBPS, MS, TBPS, US


def deploy(**cfg):
    cp = ControlPlane()
    tester = cp.deploy(TestConfig(**cfg))
    cp.wire_loopback_fabric()
    return cp, tester


class TestReceiverOnFpga:
    def test_flow_completes_via_dashed_path(self):
        cp, tester = deploy(
            cc_algorithm="dctcp",
            n_test_ports=2,
            receiver_logic_on_fpga=True,
            cc_params={"initial_ssthresh": 256.0},
        )
        cp.start_flows(size_packets=2000, pattern="pairs")
        cp.run(duration_ps=5 * MS)
        assert len(tester.fct) == 1
        # The switch's local receiver never ran; the FPGA's did.
        assert tester.switch.receiver.data_received == 0
        assert tester.nic.fpga_receiver is not None
        assert tester.nic.fpga_receiver.data_received == 2000

    def test_extra_port_reserved(self):
        cp, tester = deploy(n_test_ports=2, receiver_logic_on_fpga=True)
        assert tester.switch.receiver_port is not None
        assert tester.nic.receiver_port is not None
        assert tester.switch.allocation.receiver_logic_ports == 1

    def test_costs_one_test_port_at_full_allocation(self):
        # 16 - 4 reserved = 12 test ports at MTU 1518 (vs 13 without).
        cp = ControlPlane()
        tester = cp.deploy(
            TestConfig(template_bytes=1518, receiver_logic_on_fpga=True)
        )
        assert tester.n_test_ports == 12

    def test_adds_latency_but_same_behaviour(self):
        def fct_with(receiver_on_fpga):
            cp, tester = deploy(
                cc_algorithm="dctcp",
                n_test_ports=2,
                receiver_logic_on_fpga=receiver_on_fpga,
                cc_params={"initial_ssthresh": 512.0},
            )
            cp.start_flows(size_packets=3000, pattern="pairs")
            cp.run(duration_ps=5 * MS)
            return tester.fct.records[0].fct_ps

        on_switch = fct_with(False)
        on_fpga = fct_with(True)
        assert on_fpga > on_switch  # two extra cable hops per RTT
        assert on_fpga < on_switch * 1.1  # but only slightly

    def test_roce_mode_on_fpga_receiver(self):
        cp, tester = deploy(
            cc_algorithm="dcqcn", n_test_ports=2, receiver_logic_on_fpga=True
        )
        cp.start_flows(size_packets=1000, pattern="pairs")
        cp.run(duration_ps=3 * MS)
        assert len(tester.fct) == 1
        from repro.pswitch.module_a import ReceiverMode

        assert tester.nic.fpga_receiver.mode is ReceiverMode.ROCE

    def test_completion_releases_fpga_receiver_state(self):
        cp, tester = deploy(
            cc_algorithm="dctcp", n_test_ports=2, receiver_logic_on_fpga=True
        )
        flow = tester.start_flow(port_index=0, dst_port_index=1, size_packets=200)
        cp.run(duration_ps=3 * MS)
        assert flow.finished
        assert flow.flow_id not in tester.nic.fpga_receiver.flows


class TestMultiPipeline:
    def test_scaling_table(self):
        rows = scaling_table(1024, 4)
        assert rows[0].throughput_bps == pytest.approx(1.2 * TBPS)
        assert rows[1].throughput_bps == pytest.approx(2.4 * TBPS)
        assert rows[1].fpga_cards == 1  # one U280 drives two pipelines
        assert rows[2].fpga_cards == 2

    def test_paper_hardware_is_two_pipelines(self):
        assert PIPELINES_PER_SWITCH == 2

    def test_pipelines_independent(self):
        sim = Simulator()
        tester = MultiPipelineTester(
            sim, TestConfig(cc_algorithm="dcqcn", n_test_ports=2), n_pipelines=2
        )
        tester.wire_fabrics()
        tester.start_flow(pipeline=0, port_index=0, dst_port_index=1,
                          size_packets=1000)
        tester.start_flow(pipeline=1, port_index=0, dst_port_index=1,
                          size_packets=1000)
        sim.run(until_ps=3 * MS)
        assert len(tester.fct) == 2
        for pipeline in tester.pipelines:
            assert pipeline.switch.data_generator.data_generated == 1000

    def test_aggregate_counters(self):
        sim = Simulator()
        tester = MultiPipelineTester(
            sim, TestConfig(cc_algorithm="dcqcn", n_test_ports=2), n_pipelines=3
        )
        tester.wire_fabrics()
        for p in range(3):
            tester.start_flow(pipeline=p, port_index=0, dst_port_index=1,
                              size_packets=500)
        sim.run(until_ps=3 * MS)
        counters = tester.read_counters()
        assert counters["switch.data_generated"] == 1500
        assert counters["fpga.flows_completed"] == 3

    def test_aggregate_capacity(self):
        sim = Simulator()
        tester = MultiPipelineTester(sim, TestConfig(), n_pipelines=2)
        assert tester.aggregate_capacity_bps == pytest.approx(2.4 * TBPS)
        assert tester.total_test_ports == 24

    def test_bad_pipeline_index(self):
        sim = Simulator()
        tester = MultiPipelineTester(
            sim, TestConfig(n_test_ports=2), n_pipelines=1
        )
        with pytest.raises(ConfigError):
            tester.pipeline(5)
        with pytest.raises(ConfigError):
            MultiPipelineTester(sim, TestConfig(), n_pipelines=0)


class TestExport:
    def run_small(self):
        # DCTCP: its window changes every ACK, so trace_cc produces data.
        cp, tester = deploy(cc_algorithm="dctcp", n_test_ports=2, trace_cc=True)
        sampler = tester.enable_rate_sampling(period_ps=200 * US)
        cp.start_flows(size_packets=500, pattern="pairs")
        cp.run(duration_ps=2 * MS)
        return cp, tester, sampler

    def test_fct_csv(self, tmp_path):
        cp, tester, sampler = self.run_small()
        path = fct_to_csv(tester.fct, tmp_path / "fct.csv")
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == len(tester.fct)
        assert float(rows[0]["fct_us"]) > 0
        assert int(rows[0]["size_packets"]) == 500

    def test_throughput_csv(self, tmp_path):
        cp, tester, sampler = self.run_small()
        path = throughput_to_csv(sampler, tmp_path / "tp.csv")
        rows = list(csv.DictReader(path.open()))
        assert rows
        assert any(float(v) > 0 for row in rows for k, v in row.items()
                   if k != "time_us")

    def test_trace_json(self, tmp_path):
        cp, tester, sampler = self.run_small()
        path = trace_to_json(tester.nic.logger.trace, tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert any(channel.startswith("flow") for channel in payload)

    def test_counters_json(self, tmp_path):
        cp, tester, sampler = self.run_small()
        registry = counters_registry(cp.read_measurements())
        payload = json.loads(write_metrics(registry, tmp_path / "c.json").read_text())
        assert payload["repro_switch_data_generated_total"] == 500

    def test_empty_trace_exports(self, tmp_path):
        path = trace_to_json(TraceRecorder(), tmp_path / "empty.json")
        assert json.loads(path.read_text()) == {}


class TestCli:
    def test_algorithms(self, capsys):
        assert cli_main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "dctcp" in out and "hpcc" in out

    def test_amplification(self, capsys):
        assert cli_main(["amplification", "--mtu", "1024"]) == 0
        out = capsys.readouterr().out
        assert "1.20 Tbps" in out
        assert "148.8 Mpps" in out

    def test_capabilities(self, capsys):
        assert cli_main(["capabilities"]) == 0
        out = capsys.readouterr().out
        assert "Marlin" in out and "Table 2" in out

    def test_resources(self, capsys):
        assert cli_main(["resources", "--algorithm", "cubic"]) == 0
        out = capsys.readouterr().out
        assert "reduce per-flow PPS" in out or "RMW conflicts" in out

    def test_run_with_export(self, capsys, tmp_path):
        code = cli_main(
            [
                "run",
                "--algorithm",
                "dcqcn",
                "--duration-ms",
                "2",
                "--size-packets",
                "500",
                "--export-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "flows completed : 1" in out
        assert (tmp_path / "fct.csv").exists()
        counters = json.loads((tmp_path / "counters.json").read_text())
        # The registers under the names every metrics export uses.
        assert counters["repro_fpga_flows_completed_total"] == 1
        assert "repro_fpga_rmw_conflicts_total" in counters
        assert not (tmp_path / "trace.json").exists()  # --trace is off

    def test_run_trace_export_matches_qdma_log(self, tmp_path, monkeypatch):
        import repro.core.scenario as scenario

        planes = []

        class RecordingControlPlane(scenario.ControlPlane):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                planes.append(self)

        monkeypatch.setattr(scenario, "ControlPlane", RecordingControlPlane)
        code = cli_main(
            ["run", "--algorithm", "dctcp", "--duration-ms", "1",
             "--size-packets", "200", "--trace", "--export-dir", str(tmp_path)]
        )
        assert code == 0
        exported = json.loads((tmp_path / "trace.json").read_text())
        trace = planes[0].tester.nic.logger.trace
        assert trace.channels()  # the comparison below is not vacuous
        assert sorted(exported) == trace.channels()
        for channel in trace.channels():
            assert [row["time_ps"] for row in exported[channel]] == [
                record.time_ps for record in trace.channel(channel)
            ]

    def test_run_closed_loop_workload(self, capsys):
        code = cli_main(
            [
                "run",
                "--algorithm",
                "dcqcn",
                "--workload",
                "websearch",
                "--size-scale",
                "50",
                "--flows-per-port",
                "4",
                "--duration-ms",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # Closed loop: many flows complete within the window.
        completed = int(out.split("flows completed :")[1].split()[0])
        assert completed > 10

    def test_run_config_seed_draws_the_closed_loop(self, tmp_path):
        """The closed loop's flow sizes come from the config's seed."""

        def fct_rows(seed):
            config = tmp_path / f"seed{seed}.json"
            config.write_text(json.dumps(
                {"cc_algorithm": "dcqcn", "n_test_ports": 2, "seed": seed}
            ))
            out = tmp_path / f"out{seed}"
            code = cli_main(
                ["run", "--config", str(config), "--workload", "websearch",
                 "--size-scale", "50", "--flows-per-port", "4",
                 "--duration-ms", "1", "--export-dir", str(out)]
            )
            assert code == 0
            return (out / "fct.csv").read_text().splitlines()

        first, other = fct_rows(0), fct_rows(987654321)
        assert len(first) > 1 and len(other) > 1  # flows completed in both
        assert first != other
        assert fct_rows(0) == first

    def test_run_fan_in(self, capsys):
        code = cli_main(
            [
                "run",
                "--algorithm",
                "dctcp",
                "--ports",
                "3",
                "--pattern",
                "fan_in",
                "--duration-ms",
                "2",
                "--size-packets",
                "300",
            ]
        )
        assert code == 0
