"""One packet-level run as one value: :class:`Scenario` and the pattern
table that fixed-size and closed-loop traffic both read."""

import pytest

from repro.cli import main as cli_main
from repro.core import ControlPlane, Scenario, TestConfig, deploy_scenario
from repro.core.control_plane import pattern_pairs
from repro.errors import ConfigError
from repro.units import MIN_FRAME_BYTES, MS


def carries_data(queue) -> bool:
    """A fabric queue that dequeued anything but 64 B ACK/CNP frames
    carried DATA."""
    return queue.stats.dequeued_bytes > MIN_FRAME_BYTES * queue.stats.dequeued_packets


class TestPatternTable:
    def test_rows(self):
        assert pattern_pairs("pairs", 4) == [(0, 2), (1, 3)]
        assert pattern_pairs("fan_in", 4) == [(0, 3), (1, 3), (2, 3)]
        assert pattern_pairs("ring", 4) == [(0, 1), (1, 2), (2, 3), (3, 0)]

    def test_rejections(self):
        with pytest.raises(ConfigError, match="even port count"):
            pattern_pairs("pairs", 3)
        with pytest.raises(ConfigError, match="unknown pattern"):
            pattern_pairs("star", 4)
        with pytest.raises(ConfigError, match="unknown pattern"):
            Scenario(TestConfig(), duration_ps=MS, pattern="star")
        with pytest.raises(ConfigError, match="unknown workload"):
            Scenario(TestConfig(), duration_ps=MS, workload="video")
        # Dividing WebSearch's 10 kB point by 10^4 collapses it onto 1 B.
        scenario = Scenario(
            TestConfig(), duration_ps=MS, workload="websearch", size_scale=10_000
        )
        with pytest.raises(ConfigError, match="size_scale 10000"):
            scenario.size_distribution()


class TestClosedLoopPattern:
    @pytest.fixture
    def fabrics(self, monkeypatch):
        """The fabric of every control plane ``repro run`` wires."""
        wired = []
        wire = ControlPlane.wire_loopback_fabric

        def recording(self, **kwargs):
            wired.append(wire(self, **kwargs))
            return wired[-1]

        monkeypatch.setattr(ControlPlane, "wire_loopback_fabric", recording)
        return wired

    @pytest.mark.parametrize("ports", [3, 4])
    def test_fan_in_sends_only_into_the_last_port(self, fabrics, capsys, ports):
        code = cli_main([
            "run", "--ports", str(ports), "--flows-per-port", "2",
            "--pattern", "fan_in", "--workload", "websearch",
            "--size-scale", "100", "--duration-ms", "0.5",
        ])
        assert code == 0, capsys.readouterr().err
        (fabric,) = fabrics
        assert [carries_data(port.queue) for port in fabric.ports] == (
            [False] * (ports - 1) + [True]
        )


class TestRing:
    def test_every_port_sends_and_receives(self):
        n_ports = 12
        cp, sampler, generator = deploy_scenario(
            Scenario(
                TestConfig(n_test_ports=n_ports, flows_per_port=4),
                duration_ps=MS // 5,
                pattern="ring",
                workload="websearch",
                size_scale=100,
            )
        )
        cp.run(MS // 5)
        assert generator is not None and len(generator.slots) == n_ports * 4
        assert all(
            sampler.meter(f"port{index}").total_bytes > 0 for index in range(n_ports)
        )
        assert all(carries_data(port.queue) for port in cp.fabric.ports)

    def test_run_counts_only_live_flows_as_active(self, capsys):
        # 48 closed-loop slots; over 1,400 flows finish within 0.5 ms,
        # and the last sample still carries a meter for each of them.
        code = cli_main([
            "run", "--ports", "12", "--flows-per-port", "4", "--pattern", "ring",
            "--workload", "websearch", "--size-scale", "100", "--duration-ms", "0.5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        (line,) = [line for line in out.splitlines() if "active flows" in line]
        active = int(line.split(" over ")[1].split()[0])
        assert 0 < active <= 48, line
