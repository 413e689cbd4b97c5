"""End-to-end integration tests of the deployed tester.

These reproduce, at reduced scale, the qualitative results of every
packet-level experiment in the paper's evaluation: single-flow line
rate, single-port fairness (Figure 6), per-port isolation (Figure 7),
fan-in convergence (Figure 8), loss recovery, closed-loop generation,
and the Section 5.3 ablations (RX-timer removal -> RMW conflicts;
TX pacing -> no register-queue overflow).
"""

import numpy as np
import pytest

from repro import ControlPlane, TestConfig
from repro.core.scenario import Scenario, deploy_scenario
from repro.measure.fairness import jain_index
from repro.units import GBPS, MS, US
from repro.workload import ClosedLoopGenerator, FixedSize, FlowSlot


def deploy(config):
    cp = ControlPlane()
    tester = cp.deploy(config)
    cp.wire_loopback_fabric()
    return cp, tester


class TestSingleFlow:
    @pytest.mark.parametrize("alg", ["reno", "dctcp", "dcqcn", "cubic", "timely"])
    def test_flow_completes(self, alg):
        params = {"initial_ssthresh": 256.0} if alg in ("reno", "dctcp", "cubic") else {}
        cp, tester = deploy(
            TestConfig(cc_algorithm=alg, n_test_ports=2, cc_params=params)
        )
        cp.start_flows(size_packets=300, pattern="pairs")
        cp.run(duration_ps=5 * MS)
        assert len(tester.fct) == 1
        assert tester.read_counters()["switch.sche_dropped"] == 0

    def test_single_flow_reaches_line_rate(self):
        """Section 7: 'throughput can reach the line rate for a single
        flow' — within 10% here, covering ramp-up."""
        cp, tester = deploy(TestConfig(cc_algorithm="dcqcn", n_test_ports=2))
        cp.start_flows(size_packets=10_000, pattern="pairs")
        cp.run(duration_ps=3 * MS)
        record = tester.fct.records[0]
        goodput = record.size_bytes * 8 / (record.fct_ps / 1e12)
        assert goodput >= 0.9 * 100 * GBPS

    def test_deterministic_across_runs(self):
        def run_once():
            cp, tester = deploy(TestConfig(cc_algorithm="dctcp", n_test_ports=2))
            cp.start_flows(size_packets=500, pattern="pairs")
            cp.run(duration_ps=2 * MS)
            return tester.fct.records[0].fct_ps

        assert run_once() == run_once()


class TestFigure6SinglePortFairness:
    def test_flows_share_port_evenly(self):
        cp, tester = deploy(
            TestConfig(
                cc_algorithm="dctcp",
                n_test_ports=2,
                flows_per_port=4,
                cc_params={"initial_ssthresh": 512.0},
            )
        )
        sampler = tester.enable_rate_sampling(period_ps=200 * US)
        cp.start_flows(size_packets=10**9, pattern="pairs")
        cp.run(duration_ps=3 * MS)
        rates = {
            name: rate
            for name, rate in sampler.samples[-1].rates_bps.items()
            if name.startswith("flow")
        }
        assert len(rates) == 4
        assert jain_index(list(rates.values())) > 0.98
        assert sum(rates.values()) >= 0.9 * 100 * GBPS


class TestFigure7MultiPortIsolation:
    def test_each_port_pair_runs_at_line_rate(self):
        cp, tester = deploy(TestConfig(cc_algorithm="dcqcn", n_test_ports=4))
        sampler = tester.enable_rate_sampling(period_ps=200 * US)
        cp.start_flows(size_packets=10**9, pattern="pairs")
        cp.run(duration_ps=2 * MS)
        rates = {
            name: rate
            for name, rate in sampler.samples[-1].rates_bps.items()
            if name.startswith("flow")
        }
        assert len(rates) == 2  # ports 0->2, 1->3
        for rate in rates.values():
            assert rate >= 0.9 * 100 * GBPS


class TestFigure8Congestion:
    @pytest.mark.parametrize("alg", ["dctcp", "dcqcn"])
    def test_fan_in_converges_to_fair_share(self, alg):
        params = {"initial_ssthresh": 1024.0} if alg == "dctcp" else {}
        cp, tester = deploy(
            TestConfig(cc_algorithm=alg, n_test_ports=4, cc_params=params)
        )
        sampler = tester.enable_rate_sampling(period_ps=500 * US)
        cp.start_flows(size_packets=10**9, pattern="fan_in")  # 3 -> 1
        cp.run(duration_ps=8 * MS)
        rates = [
            rate
            for name, rate in sampler.samples[-1].rates_bps.items()
            if name.startswith("flow")
        ]
        assert len(rates) == 3
        assert jain_index(rates) > 0.9
        total = sum(rates)
        assert 0.8 * 100 * GBPS <= total <= 1.02 * 100 * GBPS

    def test_flow_departure_releases_bandwidth(self):
        """Second half of Figure 8: when flows end, survivors take over."""
        cp, tester = deploy(
            TestConfig(
                cc_algorithm="dcqcn",
                n_test_ports=4,
            )
        )
        sampler = tester.enable_rate_sampling(period_ps=500 * US)
        # Two finite flows and one long flow into the same port.
        tester.start_flow(port_index=0, dst_port_index=3, size_packets=10**9)
        tester.start_flow(port_index=1, dst_port_index=3, size_packets=20_000)
        tester.start_flow(port_index=2, dst_port_index=3, size_packets=20_000)
        cp.run(duration_ps=12 * MS)
        assert len(tester.fct) == 2  # the finite flows completed
        survivor_rates = sampler.series("flow1")[1]
        # After the others finish, the survivor approaches line rate.
        assert survivor_rates[-1] >= 0.85 * 100 * GBPS


class TestLossRecovery:
    def test_fast_retransmit_recovers_dropped_packet(self):
        cp, tester = deploy(
            TestConfig(
                cc_algorithm="dctcp",
                n_test_ports=2,
                cc_params={"initial_ssthresh": 256.0},
            )
        )
        dropped = []

        def drop_psn_100(packet, port):
            if packet.ptype == "DATA" and packet.psn == 100 and not dropped:
                dropped.append(packet.psn)
                return False
            return True

        assert cp.fabric is not None
        cp.fabric.packet_filter = drop_psn_100
        cp.start_flows(size_packets=2000, pattern="pairs")
        cp.run(duration_ps=10 * MS)
        assert dropped == [100]
        assert len(tester.fct) == 1  # completed despite the loss
        assert tester.read_counters()["fpga.rtx_emitted"] >= 1

    def test_rto_recovers_tail_loss(self):
        cp, tester = deploy(
            TestConfig(
                cc_algorithm="reno",
                n_test_ports=2,
                cc_params={"rto_ps": 100 * US, "initial_ssthresh": 64.0},
            )
        )
        dropped = []

        def drop_last(packet, port):
            # Drop the final packet's first copy: no dupacks possible.
            if packet.ptype == "DATA" and packet.psn == 199 and not dropped:
                dropped.append(packet.psn)
                return False
            return True

        cp.fabric.packet_filter = drop_last
        cp.start_flows(size_packets=200, pattern="pairs")
        cp.run(duration_ps=10 * MS)
        assert dropped
        assert len(tester.fct) == 1
        assert tester.read_counters()["fpga.timeouts_fired"] >= 1


class TestClosedLoopGeneration:
    def test_new_flow_starts_on_completion(self):
        cp, tester = deploy(TestConfig(cc_algorithm="dcqcn", n_test_ports=2))
        generator = ClosedLoopGenerator(
            tester,
            FixedSize(100 * 1024),
            [FlowSlot(0, 1)],
            rng=np.random.default_rng(0),
            stop_after_flows=5,
        )
        generator.start()
        cp.run(duration_ps=20 * MS)
        assert generator.flows_started == 5
        assert generator.flows_completed == 5
        assert len(tester.fct) == 5
        # Closed loop: each flow starts when the previous finishes.
        records = sorted(tester.fct.records, key=lambda r: r.start_ps)
        for prev, nxt in zip(records, records[1:]):
            assert nxt.start_ps == prev.finish_ps


class TestSection53Ablations:
    def test_rx_timer_prevents_rmw_conflicts(self):
        """With frequency control: zero conflicts, even for DCTCP's
        24-cycle RMW."""
        cp, tester = deploy(TestConfig(cc_algorithm="dctcp", n_test_ports=2))
        cp.start_flows(size_packets=3000, pattern="pairs")
        cp.run(duration_ps=5 * MS)
        assert tester.read_counters()["fpga.rmw_conflicts"] == 0

    @staticmethod
    def _ack_burst(cp, tester, n=16):
        """Deliver a back-to-back burst of same-flow INFOs (the paper's
        'DPDK sends ACKs in bursts' scenario) at the 64 B line rate."""
        from repro.pswitch.packets import make_ack, make_data, make_info
        from repro.units import serialization_time_ps

        flow = tester.start_flow(port_index=0, dst_port_index=1, size_packets=10**6)
        cp.run(duration_ps=100 * US)
        spacing = serialization_time_ps(64, tester.config.port_rate_bps)
        for i in range(n):
            data = make_data(
                flow.flow_id, i, src_addr=1, dst_addr=2, frame_bytes=1024,
                tx_tstamp_ps=0,
            )
            info = make_info(make_ack(data, i + 1), 0)
            cp.sim.at(cp.sim.now + i * spacing, tester.nic.receive, info, tester.nic.port)
        cp.run(duration_ps=100 * US)

    def test_disabling_rx_timer_causes_conflicts(self):
        """Ablation (Challenge 3): INFO bursts at 64 B line rate hit the
        CC module faster than its 24-cycle RMW latency."""
        cp, tester = deploy(
            TestConfig(cc_algorithm="dctcp", n_test_ports=2, disable_rx_timer=True)
        )
        self._ack_burst(cp, tester)
        assert tester.read_counters()["fpga.rmw_conflicts"] > 0

    def test_rx_timer_absorbs_same_burst(self):
        """The identical burst is harmless once the RX timer paces it."""
        cp, tester = deploy(TestConfig(cc_algorithm="dctcp", n_test_ports=2))
        self._ack_burst(cp, tester)
        assert tester.read_counters()["fpga.rmw_conflicts"] == 0

    def test_tx_pacing_prevents_queue_overflow(self):
        """Challenge 1: the switch's register queues never overflow when
        the TX timers pace SCHE at the per-port DATA rate."""
        cp, tester = deploy(
            TestConfig(cc_algorithm="dcqcn", n_test_ports=2, flows_per_port=8)
        )
        cp.start_flows(size_packets=5000, pattern="pairs")
        cp.run(duration_ps=5 * MS)
        counters = cp.read_measurements()
        assert counters["switch.sche_dropped"] == 0

    def test_strict_dcqcn_fan_in_timers_wait_out_rmw(self):
        """Figure 8's DCQCN fan-in runs strict: DCQCN timer expiries that
        land inside an INFO's RMW window wait for it instead of
        conflicting (strict mode would raise ``RMWConflictError``)."""
        config = TestConfig(
            cc_algorithm="dcqcn", n_test_ports=4, queue_capacity=64,
            cnp_interval_ps=20 * US, strict=True,
        )
        # As ``repro run --config ... --pattern fan_in --duration-ms 1.5``.
        cp, _, _ = deploy_scenario(Scenario(config, 1500 * US, pattern="fan_in"))
        cp.run(1500 * US)
        counters = cp.read_measurements()
        assert counters["fpga.rmw_conflicts"] == 0
        assert counters["fpga.timeouts_fired"] > 0
        assert counters["switch.sche_dropped"] == 0

    def test_short_rto_timers_wait_out_rmw(self):
        """DCTCP with a 2 us RTO: hundreds of expiries, none inside an
        RMW window."""
        cp = ControlPlane()
        cp.deploy(
            TestConfig(
                cc_algorithm="dctcp", n_test_ports=2, flows_per_port=16,
                cc_params={"rto_ps": 2 * US},
            )
        )
        cp.wire_loopback_fabric()
        cp.start_flows(size_packets=200, pattern="pairs")
        cp.run(duration_ps=100 * US)
        counters = cp.read_measurements()
        assert counters["fpga.timeouts_fired"] > 0
        assert counters["fpga.rmw_conflicts"] == 0

    def test_rx_fifo_absorbs_bursts(self):
        cp, tester = deploy(TestConfig(cc_algorithm="dctcp", n_test_ports=2))
        cp.start_flows(size_packets=2000, pattern="pairs")
        cp.run(duration_ps=5 * MS)
        assert cp.read_measurements()["fpga.rx_fifo_drops"] == 0


class TestMeasurementPlane:
    def test_counters_consistent(self):
        cp, tester = deploy(TestConfig(cc_algorithm="dctcp", n_test_ports=2))
        cp.start_flows(size_packets=400, pattern="pairs")
        cp.run(duration_ps=3 * MS)
        counters = cp.read_measurements()
        assert counters["switch.sche_accepted"] == counters["switch.data_generated"]
        assert counters["switch.acks_generated"] >= 400
        assert counters["fpga.infos_processed"] <= counters["switch.infos_generated"]

    def test_trace_cc_records_cwnd(self):
        cp, tester = deploy(
            TestConfig(cc_algorithm="dctcp", n_test_ports=2, trace_cc=True)
        )
        flow = tester.start_flow(port_index=0, dst_port_index=1, size_packets=500)
        cp.run(duration_ps=3 * MS)
        times, values = tester.nic.logger.series(f"flow{flow.flow_id}", "cwnd_or_rate")
        assert len(values) > 10
        assert values[0] >= 1.0
