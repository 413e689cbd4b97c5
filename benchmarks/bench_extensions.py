"""Extension benches beyond the paper's tables and figures.

1. **Multi-pipeline scaling** (Sections 4.3/6): throughput vs pipeline
   count, plus a live two-pipeline run — the paper's 2-pipeline switch
   with both Alveo ports driven reaches 2.4 Tbps at MTU 1024.
2. **Receiver-logic placement** (Figure 2's dashed path): switch-side vs
   FPGA-side receiver logic — identical CC behaviour, one extra port,
   slightly longer feedback loop.
3. **INT/HPCC end-to-end**: the R2 story — an INT-based algorithm
   running unmodified on the tester, with the Section 8 per-flow PPS
   cap keeping its 59-cycle fast path conflict-free.
"""

from conftest import print_header, print_table, run_once

from repro import ControlPlane, TestConfig
from repro.core.multi_pipeline import MultiPipelineTester, scaling_table
from repro.measure.fairness import jain_index
from repro.sim import Simulator
from repro.units import GBPS, MS, TBPS, US, format_rate


def test_multi_pipeline_scaling(benchmark):
    def run():
        rows = scaling_table(1024, 4)
        # Live 2-pipeline run at reduced port count for simulation speed.
        sim = Simulator()
        tester = MultiPipelineTester(
            sim, TestConfig(cc_algorithm="dcqcn", n_test_ports=2), n_pipelines=2
        )
        tester.wire_fabrics()
        for p in range(2):
            tester.start_flow(
                pipeline=p, port_index=0, dst_port_index=1, size_packets=10**9
            )
        duration = 500 * US
        sim.run(until_ps=duration)
        counters = tester.read_counters()
        rate = counters["switch.data_generated"] * 1024 * 8 / (duration / 1e12)
        return rows, rate

    rows, live_rate = run_once(benchmark, run)
    print_header(
        "Extension: multi-pipeline scaling (Sections 4.3/6)",
        "one 100 G FPGA port per pipeline; one Alveo card drives two",
    )
    print_table(
        [
            {
                "pipelines": row.pipelines,
                "FPGA cards": row.fpga_cards,
                "test ports": row.test_ports,
                "throughput": format_rate(row.throughput_bps),
            }
            for row in rows
        ],
        ["pipelines", "FPGA cards", "test ports", "throughput"],
    )
    print(f"\nlive 2-pipeline run (2 ports each): {format_rate(live_rate)} "
          "(2 x ~100 G port pairs)")
    assert rows[1].throughput_bps == 2.4 * TBPS
    assert live_rate >= 0.9 * 2 * 100 * GBPS


def test_receiver_logic_placement(benchmark):
    def run():
        results = {}
        for placement, on_fpga in (("switch (Module A)", False),
                                   ("FPGA (dashed path)", True)):
            cp = ControlPlane()
            tester = cp.deploy(
                TestConfig(
                    cc_algorithm="dctcp",
                    n_test_ports=2,
                    receiver_logic_on_fpga=on_fpga,
                    cc_params={"initial_ssthresh": 512.0},
                )
            )
            cp.wire_loopback_fabric()
            cp.start_flows(size_packets=5000, pattern="pairs")
            cp.run(duration_ps=5 * MS)
            record = tester.fct.records[0]
            results[placement] = {
                "placement": placement,
                "ports used": tester.switch.allocation.total_ports,
                "FCT (us)": round(record.fct_ps / 1e6, 1),
                "goodput": format_rate(
                    record.size_bytes * 8 / (record.fct_ps / 1e12)
                ),
            }
        return results

    results = run_once(benchmark, run)
    print_header(
        "Extension: receiver-logic placement (Figure 2 dashed path)",
        "5,000-packet DCTCP flow; FPGA placement costs one port + hops",
    )
    print_table(list(results.values()), ["placement", "ports used", "FCT (us)", "goodput"])
    on_switch = results["switch (Module A)"]
    on_fpga = results["FPGA (dashed path)"]
    assert on_fpga["ports used"] == on_switch["ports used"] + 1
    assert on_fpga["FCT (us)"] > on_switch["FCT (us)"]  # extra hops
    assert on_fpga["FCT (us)"] < on_switch["FCT (us)"] * 1.1


def test_int_hpcc_end_to_end(benchmark):
    def run():
        cp = ControlPlane()
        tester = cp.deploy(
            TestConfig(
                cc_algorithm="hpcc",
                n_test_ports=4,
                int_enabled=True,
                flows_per_port=3,
                cc_params={"initial_window": 8.0},
            )
        )
        cp.wire_loopback_fabric()
        sampler = tester.enable_rate_sampling(period_ps=500 * US)
        cp.start_flows(size_packets=10**9, pattern="fan_in")
        cp.run(duration_ps=6 * MS)
        rates = [
            r for n, r in sampler.samples[-1].rates_bps.items()
            if n.startswith("flow")
        ]
        assert cp.fabric is not None
        queue = cp.fabric.ports[3].queue
        return tester, rates, queue

    tester, rates, queue = run_once(benchmark, run)
    conflicts = tester.read_counters()["fpga.rmw_conflicts"]
    print_header(
        "Extension: INT-based CC (HPCC) on the tester",
        "9 flows -> one port; 59-cycle fast path under the 3x PPS cap",
    )
    print_table(
        [
            {"metric": "per-flow PPS reduction", "value": tester.nic.per_flow_pps_reduction},
            {"metric": "bottleneck throughput", "value": format_rate(sum(rates))},
            {"metric": "Jain fairness", "value": round(jain_index(rates), 3)},
            {"metric": "RMW conflicts", "value": conflicts},
            {"metric": "RMW stalls absorbed", "value": tester.nic.rmw_stalls},
            {"metric": "peak bottleneck queue (kB)", "value": queue.stats.max_backlog_bytes // 1000},
        ],
        ["metric", "value"],
    )
    assert conflicts == 0
    assert jain_index(rates) > 0.95
    assert sum(rates) >= 0.85 * 100 * GBPS
    assert queue.stats.max_backlog_bytes < 84_000  # HPCC keeps queues short
