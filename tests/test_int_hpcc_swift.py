"""INT telemetry, HPCC, Swift, and the Section 8 per-flow PPS cap."""

import pytest

from repro import ControlPlane, TestConfig
from repro.cc import EventType, Flags, Hpcc, IntrinsicInput, Swift
from repro.cc.base import CCMode
from repro.errors import ConfigError
from repro.fpga.hls import algorithm_cycles
from repro.measure.fairness import jain_index
from repro.net import int_telemetry
from repro.net.int_telemetry import IntRecord, MAX_INT_HOPS
from repro.net.packet import Packet
from repro.units import GBPS, MICROSECOND, MS, US


def deploy(**cfg):
    cp = ControlPlane()
    tester = cp.deploy(TestConfig(**cfg))
    cp.wire_loopback_fabric()
    return cp, tester


class TestIntTelemetry:
    def test_enable_and_stamp(self):
        packet = Packet("DATA", 1, 2, 1024)
        int_telemetry.enable_int(packet)

        class FakePort:
            class queue:
                backlog_bytes = 5000

            tx_bytes = 123_456
            rate_bps = 100 * GBPS

        int_telemetry.stamp(packet, FakePort, 999)
        path = int_telemetry.int_path(packet)
        assert len(path) == 1
        assert path[0].queue_bytes == 5000
        assert path[0].tx_bytes == 123_456
        assert path[0].tstamp_ps == 999

    def test_stamp_noop_without_enable(self):
        packet = Packet("DATA", 1, 2, 1024)

        class FakePort:
            class queue:
                backlog_bytes = 0

            tx_bytes = 0
            rate_bps = 1

        int_telemetry.stamp(packet, FakePort, 0)
        assert int_telemetry.int_path(packet) == ()

    def test_hop_budget(self):
        packet = Packet("DATA", 1, 2, 1024)
        int_telemetry.enable_int(packet)

        class FakePort:
            class queue:
                backlog_bytes = 0

            tx_bytes = 0
            rate_bps = 1

        for _ in range(MAX_INT_HOPS + 3):
            int_telemetry.stamp(packet, FakePort, 0)
        assert len(int_telemetry.int_path(packet)) == MAX_INT_HOPS

    def test_echo(self):
        data = Packet("DATA", 1, 2, 1024)
        int_telemetry.enable_int(data)
        data.meta[int_telemetry.INT_PATH] = (IntRecord(1, 2, 3, 4),)
        ack = Packet("ACK", 2, 1, 64)
        int_telemetry.echo(data, ack)
        assert int_telemetry.int_path(ack) == (IntRecord(1, 2, 3, 4),)

    def test_end_to_end_int_reaches_cc_module(self):
        """DATA stamped at the fabric -> ACK echo -> INFO -> CC module."""
        seen_paths = []

        class Spy(Hpcc):
            name = "test-int-spy"

            def on_event(self, intr, cust, slow):
                if intr.int_path:
                    seen_paths.append(intr.int_path)
                return super().on_event(intr, cust, slow)

        cp = ControlPlane()
        from repro.core.tester import MarlinTester

        config = TestConfig(n_test_ports=2, int_enabled=True)
        tester = MarlinTester(cp.sim, config, algorithm=Spy())
        cp.tester = tester
        cp.wire_loopback_fabric()
        tester.start_flow(port_index=0, dst_port_index=1, size_packets=100)
        cp.run(duration_ps=2 * MS)
        assert seen_paths
        assert all(isinstance(r, IntRecord) for r in seen_paths[0])


def rx(psn, *, cwnd, nxt, int_path=(), rtt=-1, nack=False):
    return IntrinsicInput(
        evt_type=EventType.RX,
        psn=psn,
        cwnd_or_rate=cwnd,
        una=psn,
        nxt=nxt,
        flags=Flags(ack=True, nack=nack),
        prb_rtt=rtt,
        tstamp=0,
        int_path=int_path,
    )


class TestHpccUnit:
    def make(self):
        return Hpcc(base_rtt_ps=6 * MICROSECOND, initial_window=64.0)

    def records(self, t0, t1, qlen, tx_rate_frac, rate=100 * GBPS):
        """Two consecutive single-hop snapshots implying a tx rate."""
        dt = t1 - t0
        tx_bytes_delta = int(tx_rate_frac * rate * dt / 8e12)
        return (
            (IntRecord(t0, qlen, 1000, rate),),
            (IntRecord(t1, qlen, 1000 + tx_bytes_delta, rate),),
        )

    def test_high_utilization_shrinks_window(self):
        hpcc = self.make()
        cust = hpcc.initial_cust()
        first, second = self.records(0, 6_000_000, qlen=500_000, tx_rate_frac=1.0)
        hpcc.on_event(rx(1, cwnd=64.0, nxt=10, int_path=first), cust, None)
        out = hpcc.on_event(rx(2, cwnd=64.0, nxt=10, int_path=second), cust, None)
        assert cust.u > hpcc.eta
        assert out.cwnd_or_rate < 64.0

    def test_low_utilization_grows_window(self):
        hpcc = self.make()
        cust = hpcc.initial_cust()
        first, second = self.records(0, 6_000_000, qlen=0, tx_rate_frac=0.1)
        hpcc.on_event(rx(1, cwnd=64.0, nxt=10, int_path=first), cust, None)
        out = hpcc.on_event(rx(2, cwnd=64.0, nxt=10, int_path=second), cust, None)
        assert cust.u < hpcc.eta
        assert out.cwnd_or_rate > 64.0

    def test_wc_updates_once_per_rtt(self):
        hpcc = self.make()
        cust = hpcc.initial_cust()
        first, second = self.records(0, 6_000_000, qlen=0, tx_rate_frac=0.1)
        hpcc.on_event(rx(1, cwnd=64.0, nxt=10, int_path=first), cust, None)
        wc_after_first = cust.wc
        # Second ACK within the same round (psn < last_update_seq = 10).
        hpcc.on_event(rx(2, cwnd=64.0, nxt=10, int_path=second), cust, None)
        assert cust.wc == wc_after_first  # reference window unchanged

    def test_timeout_collapses(self):
        hpcc = self.make()
        cust = hpcc.initial_cust()
        out = hpcc.on_event(
            IntrinsicInput(
                evt_type=EventType.TIMEOUT,
                psn=-1,
                cwnd_or_rate=64.0,
                una=0,
                nxt=0,
                flags=Flags(),
                prb_rtt=-1,
                tstamp=0,
            ),
            cust,
            None,
        )
        assert out.cwnd_or_rate == 1.0
        assert out.rewind_to_una

    def test_needs_pps_reduction(self):
        """Section 8: HPCC's divisions exceed the 27-cycle budget."""
        from repro.fpga.timers import FrequencyControl

        cycles = algorithm_cycles(Hpcc())
        control = FrequencyControl(1024, 12)
        assert cycles > control.max_rmw_cycles
        assert control.pps_reduction_factor(cycles) >= 2

    def test_eta_validation(self):
        with pytest.raises(ConfigError):
            Hpcc(eta=0.0)


class TestSwiftUnit:
    def make(self):
        return Swift(base_target_ps=12 * MICROSECOND, initial_cwnd=16.0)

    def test_below_target_increases(self):
        swift = self.make()
        cust = swift.initial_cust()
        out = swift.on_event(rx(1, cwnd=16.0, nxt=10, rtt=5 * MICROSECOND), cust, None)
        assert out.cwnd_or_rate > 16.0

    def test_above_target_decreases_once_per_rtt(self):
        swift = self.make()
        cust = swift.initial_cust()
        out1 = swift.on_event(
            rx(1, cwnd=16.0, nxt=10, rtt=100 * MICROSECOND), cust, None
        )
        assert out1.cwnd_or_rate < 16.0
        # Another over-target ACK in the same round: no further cut.
        out2 = swift.on_event(
            rx(2, cwnd=out1.cwnd_or_rate, nxt=10, rtt=100 * MICROSECOND), cust, None
        )
        assert out2.cwnd_or_rate == out1.cwnd_or_rate

    def test_decrease_bounded_by_max_mdf(self):
        swift = self.make()
        cust = swift.initial_cust()
        out = swift.on_event(
            rx(1, cwnd=16.0, nxt=10, rtt=10_000 * MICROSECOND), cust, None
        )
        assert out.cwnd_or_rate >= 16.0 * (1 - swift.max_mdf)

    def test_flow_scaling_raises_target_for_small_windows(self):
        swift = self.make()
        assert swift.target_delay_ps(1.0) > swift.target_delay_ps(100.0)

    def test_nack_rewinds(self):
        swift = self.make()
        cust = swift.initial_cust()
        out = swift.on_event(rx(5, cwnd=16.0, nxt=10, nack=True), cust, None)
        assert out.rewind_to_una

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            Swift(max_mdf=1.5)


class TestIntegration:
    def test_hpcc_fan_in_fair_and_conflict_free(self):
        """HPCC (59 cycles) under the PPS cap: fair sharing, zero RMW
        conflicts (stalls absorb residual bursts)."""
        cp, tester = deploy(
            cc_algorithm="hpcc",
            n_test_ports=4,
            int_enabled=True,
            flows_per_port=3,
        )
        assert tester.nic.per_flow_pps_reduction >= 2
        sampler = tester.enable_rate_sampling(period_ps=500 * US)
        cp.start_flows(size_packets=10**9, pattern="fan_in")
        cp.run(duration_ps=6 * MS)
        rates = [
            r for n, r in sampler.samples[-1].rates_bps.items() if n.startswith("flow")
        ]
        assert jain_index(rates) > 0.95
        assert sum(rates) >= 0.85 * 100 * GBPS
        assert tester.read_counters()["fpga.rmw_conflicts"] == 0

    def test_hpcc_keeps_queue_short(self):
        """HPCC's selling point: near-zero standing queues.  With a
        modest initial window, even the startup transient stays far below
        the ECN threshold DCTCP rides, and the steady-state backlog
        drains to nearly nothing."""
        cp, tester = deploy(
            cc_algorithm="hpcc",
            n_test_ports=4,
            int_enabled=True,
            flows_per_port=3,
            cc_params={"initial_window": 8.0},
        )
        cp.start_flows(size_packets=10**9, pattern="fan_in")
        cp.run(duration_ps=6 * MS)
        assert cp.fabric is not None
        queue = cp.fabric.ports[3].queue
        assert queue.stats.max_backlog_bytes < 84_000  # below DCTCP's K
        assert queue.backlog_bytes < 20_000  # steady state ~empty

    def test_swift_single_flow_completes_at_speed(self):
        cp, tester = deploy(cc_algorithm="swift", n_test_ports=2)
        cp.start_flows(size_packets=5000, pattern="pairs")
        cp.run(duration_ps=5 * MS)
        assert len(tester.fct) == 1
        record = tester.fct.records[0]
        goodput = record.size_bytes * 8 / (record.fct_ps / 1e12)
        assert goodput >= 0.5 * 100 * GBPS  # delay-based: below line rate ok

    def test_swift_fan_in_fair(self):
        cp, tester = deploy(cc_algorithm="swift", n_test_ports=4)
        sampler = tester.enable_rate_sampling(period_ps=500 * US)
        cp.start_flows(size_packets=10**9, pattern="fan_in")
        cp.run(duration_ps=8 * MS)
        rates = [
            r for n, r in sampler.samples[-1].rates_bps.items() if n.startswith("flow")
        ]
        assert jain_index(rates) > 0.9
        assert sum(rates) >= 0.8 * 100 * GBPS

    def test_pps_cap_inactive_for_fast_algorithms(self):
        cp, tester = deploy(cc_algorithm="dctcp", n_test_ports=2)
        assert tester.nic.per_flow_pps_reduction == 1
        assert tester.nic.schedulers[0].min_flow_spacing_ps == 0

    def test_int_disabled_by_default(self):
        cp, tester = deploy(cc_algorithm="dctcp", n_test_ports=2)
        cp.start_flows(size_packets=100, pattern="pairs")
        cp.run(duration_ps=1 * MS)
        assert not tester.switch.data_generator.int_enabled
