"""Motivation: why CC testing needs CC-aware traffic (paper Section 1).

Programmable-switch testers of the Norma/HyperTester/IMap class generate
configurable traffic at Tbps rates but cannot run congestion control —
they keep blasting through congestion.  This bench drives the same
fan-in bottleneck twice:

* three fixed-rate 100 Gbps streams from a CC-less switch tester, and
* three DCTCP flows from the Marlin tester,

and compares loss, delivered goodput, and queue occupancy.  The CC-less
tester drowns the bottleneck (it measures loss but cannot react); the
CC tester converges to the bottleneck rate with zero loss — the
behaviour an operator actually needs to evaluate CC configurations.
"""

from conftest import print_header, print_table, run_once

from repro import ControlPlane, TestConfig
from repro.baselines.pswitch_tester import PswitchTester
from repro.net.fabric import DEFAULT_QUEUE_CAPACITY_BYTES, build_fabric
from repro.sim import Simulator
from repro.units import GBPS, MS, format_rate

N_SENDERS = 3
DURATION = 4 * MS


def run_ccless():
    sim = Simulator()
    fabric = build_fabric(sim)
    tester = PswitchTester(sim, N_SENDERS + 1)
    addresses = [fabric.attach(0, port) for port in tester.ports]
    for src in range(N_SENDERS):
        tester.add_stream(
            src,
            src_addr=addresses[src],
            dst_addr=addresses[N_SENDERS],
            rate_bps=100 * GBPS,  # "configure the rate": full line rate
        )
    tester.start_all()
    sim.run(until_ps=DURATION)
    bottleneck = fabric.leaves[0].ports[N_SENDERS]
    sent = tester.total_sent
    delivered = tester.data_received
    return {
        "tester": "pswitch (CC-less, Norma-class)",
        "offered": format_rate(sent * 1024 * 8 / (DURATION / 1e12)),
        "delivered": format_rate(delivered * 1024 * 8 / (DURATION / 1e12)),
        "lost pkts": bottleneck.queue.stats.dropped_packets,
        "loss %": round(100 * bottleneck.queue.stats.dropped_packets / max(sent, 1), 1),
        "peak queue (kB)": bottleneck.queue.stats.max_backlog_bytes // 1000,
    }


def run_marlin():
    cp = ControlPlane()
    tester = cp.deploy(
        TestConfig(
            cc_algorithm="dctcp",
            n_test_ports=N_SENDERS + 1,
            cc_params={"initial_ssthresh": 1024.0},
        )
    )
    cp.wire_loopback_fabric()
    cp.start_flows(size_packets=10**9, pattern="fan_in")
    cp.run(duration_ps=DURATION)
    counters = cp.read_measurements()
    assert cp.fabric is not None
    bottleneck = cp.fabric.ports[N_SENDERS]
    sent = counters["switch.data_generated"]
    delivered = counters["switch.acks_generated"]
    return {
        "tester": "Marlin (DCTCP)",
        "offered": format_rate(sent * 1024 * 8 / (DURATION / 1e12)),
        "delivered": format_rate(delivered * 1024 * 8 / (DURATION / 1e12)),
        "lost pkts": bottleneck.queue.stats.dropped_packets,
        "loss %": round(100 * bottleneck.queue.stats.dropped_packets / max(sent, 1), 1),
        "peak queue (kB)": bottleneck.queue.stats.max_backlog_bytes // 1000,
    }


def test_motivation_ccless_vs_cc(benchmark):
    ccless, marlin = run_once(benchmark, lambda: (run_ccless(), run_marlin()))
    print_header(
        "Motivation (Section 1 / Table 1 R1): CC-less vs CC-aware testing",
        f"{N_SENDERS} x 100 G senders into one 100 G port, {DURATION / MS:.0f} ms",
    )
    print_table(
        [ccless, marlin],
        ["tester", "offered", "delivered", "lost pkts", "loss %", "peak queue (kB)"],
    )

    # The CC-less tester overdrives the bottleneck 3:1 and suffers heavy
    # sustained loss; the CC tester converges to ~100 G with zero loss.
    assert ccless["lost pkts"] > 10_000
    assert marlin["lost pkts"] == 0
    assert ccless["peak queue (kB)"] >= DEFAULT_QUEUE_CAPACITY_BYTES // 1000 - 10
