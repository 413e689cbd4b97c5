"""The CC-less switch-tester baseline, per-flow stats, RTT sampling,
and config serialization."""

import json

import pytest

from repro import ControlPlane, TestConfig
from repro.baselines.pswitch_tester import PswitchTester
from repro.cli import main as cli_main
from repro.errors import ConfigError
from repro.net.fabric import build_fabric
from repro.sim import Simulator
from repro.units import GBPS, MS, US


def build_ccless(rate_bps):
    sim = Simulator()
    fabric = build_fabric(sim)
    tester = PswitchTester(sim, 2)
    src, dst = (fabric.attach(0, port) for port in tester.ports)
    stream = tester.add_stream(0, src_addr=src, dst_addr=dst, rate_bps=rate_bps)
    return sim, tester, fabric.leaves[0], stream


class TestPswitchTester:
    def test_fixed_rate_stream_holds_rate(self):
        sim, tester, fabric, stream = build_ccless(10 * GBPS)
        stream.start()
        sim.run(until_ps=1 * MS)
        rate = stream.sent_packets * (1024 + 20) * 8 / 1e-3
        assert rate == pytest.approx(10e9, rel=0.01)

    def test_ignores_ecn_feedback(self):
        """The defining R1 failure: ECN echoes are counted, not obeyed."""
        sim, tester, fabric, stream = build_ccless(100 * GBPS)
        # Force-mark everything via a tiny ECN threshold on the far port.
        fabric.ports[1].queue.ecn_threshold_bytes = 1
        stream.start()
        sim.run(until_ps=500 * US)
        before = stream.sent_packets
        assert tester.ecn_echoes_ignored > 0
        sim.run(until_ps=1 * MS)
        # Still emitting at full rate despite congestion signals.
        assert stream.sent_packets - before == pytest.approx(
            before, rel=0.05
        )

    def test_stop_stream(self):
        sim, tester, fabric, stream = build_ccless(10 * GBPS)
        stream.start()
        sim.run(until_ps=100 * US)
        stream.stop()
        count = stream.sent_packets
        sim.run(until_ps=1 * MS)
        assert stream.sent_packets == count

    def test_bad_rate_rejected(self):
        sim, tester, fabric, stream = build_ccless(10 * GBPS)
        with pytest.raises(ValueError):
            tester.add_stream(0, src_addr=1, dst_addr=2, rate_bps=0)

    def test_acks_counted(self):
        sim, tester, fabric, stream = build_ccless(10 * GBPS)
        stream.start()
        sim.run(until_ps=1 * MS)
        assert tester.acks_received > 0
        assert tester.data_received > 0


class TestFlowStats:
    def deploy(self, **cfg):
        cp = ControlPlane()
        tester = cp.deploy(TestConfig(**cfg))
        cp.wire_loopback_fabric()
        return cp, tester

    def test_clean_flow_has_no_loss(self):
        cp, tester = self.deploy(cc_algorithm="dctcp", n_test_ports=2)
        flow = tester.start_flow(port_index=0, dst_port_index=1, size_packets=800)
        cp.run(duration_ps=3 * MS)
        stats = tester.flow_stats(flow.flow_id)
        assert stats["finished"] == 1
        assert stats["acked"] == 800
        assert stats["lost_estimate"] == 0
        assert stats["retransmitted"] == 0
        assert stats["generated"] == 800

    def test_lossy_flow_reports_loss(self):
        cp, tester = self.deploy(
            cc_algorithm="dctcp",
            n_test_ports=2,
            cc_params={"initial_ssthresh": 256.0},
        )
        dropped = []

        def drop(packet, port):
            if packet.ptype == "DATA" and packet.psn == 50 and not dropped:
                dropped.append(packet.psn)
                return False
            return True

        cp.fabric.packet_filter = drop
        flow = tester.start_flow(port_index=0, dst_port_index=1, size_packets=800)
        cp.run(duration_ps=5 * MS)
        stats = tester.flow_stats(flow.flow_id)
        assert stats["finished"] == 1
        assert stats["retransmitted"] >= 1
        assert stats["lost_estimate"] == 1  # exactly the dropped packet

    def test_unknown_flow_rejected(self):
        cp, tester = self.deploy(n_test_ports=2)
        with pytest.raises(ConfigError):
            tester.flow_stats(999)


class TestRttSampling:
    def test_rtt_stats(self):
        cp = ControlPlane()
        tester = cp.deploy(
            TestConfig(cc_algorithm="dctcp", n_test_ports=2, sample_rtt=True)
        )
        cp.wire_loopback_fabric()
        cp.start_flows(size_packets=500, pattern="pairs")
        cp.run(duration_ps=3 * MS)
        stats = tester.rtt_stats_us()
        assert stats["count"] > 100
        # Fabric RTT: ~4 us of cable + pipeline/serialization.
        assert 3.0 <= stats["p50_us"] <= 20.0
        assert stats["max_us"] >= stats["p50_us"]

    def test_requires_enablement(self):
        cp = ControlPlane()
        tester = cp.deploy(TestConfig(n_test_ports=2))
        cp.wire_loopback_fabric()
        with pytest.raises(ConfigError):
            tester.rtt_stats_us()


class TestConfigSerialization:
    def test_roundtrip(self):
        config = TestConfig(cc_algorithm="dcqcn", n_test_ports=4, int_enabled=True)
        clone = TestConfig.from_dict(config.to_dict())
        assert clone == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            TestConfig.from_dict({"cc_algorithm": "reno", "bogus": 1})
        # Removed fields are unknown keys now, not silently ignored.
        for removed in ("rx_interval_override_ps", "internal_link_delay_ps"):
            with pytest.raises(ConfigError, match=removed):
                TestConfig.from_dict({removed: 0})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            TestConfig.from_dict({"flows_per_port": 0})

    def test_json_roundtrip(self):
        config = TestConfig(cc_algorithm="swift", flows_per_port=2)
        payload = json.loads(json.dumps(config.to_dict()))
        assert TestConfig.from_dict(payload) == config

    def test_cli_config_file(self, tmp_path, capsys):
        config_path = tmp_path / "test.json"
        config_path.write_text(
            json.dumps(
                TestConfig(cc_algorithm="dcqcn", n_test_ports=2).to_dict()
            )
        )
        code = cli_main(
            [
                "run",
                "--config",
                str(config_path),
                "--duration-ms",
                "2",
                "--size-packets",
                "300",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("ran dcqcn ")  # the file's algorithm, not the flag's
        assert "flows completed : 1" in out
