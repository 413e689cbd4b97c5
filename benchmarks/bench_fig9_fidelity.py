"""Figure 9: flow fidelity — Marlin's DCQCN vs ConnectX-style hosts.

n-cast-1 scenario: n sender NICs, each with 5 queue pairs running
closed-loop WebSearch flows toward a single receiver, all on the
one-leaf fabric, so the receiver's port is the shared bottleneck.  The
test runs once with ConnectX-style host agents (the independent DCQCN
implementation) and once with the Marlin tester's ports in place of
the hosts on the same network, then compares the FCT CDFs.

Scale note: WebSearch sizes are divided by 10 on BOTH sides (identical
workloads), bounding tail-flow runtimes so the bench finishes in
minutes; the CDF comparison is unaffected because both systems see the
same sizes.
"""

import numpy as np
from conftest import cdf_summary, print_header, print_table, run_once

from repro import ControlPlane, TestConfig
from repro.measure.fct import cdf_points
from repro.net.fabric import build_fabric
from repro.net.host import Host
from repro.reference.connectx import ConnectXAgent, ConnectXFctHarness
from repro.sim import Simulator
from repro.units import MS
from repro.workload import ClosedLoopGenerator, EmpiricalCdf, FlowSlot
from repro.workload.distributions import WEBSEARCH_CDF_POINTS

SIZE_SCALE = 10
QPS_PER_HOST = 5
FLOWS_TO_COLLECT = 120


def scaled_websearch():
    return EmpiricalCdf(
        tuple((size // SIZE_SCALE, prob) for size, prob in WEBSEARCH_CDF_POINTS)
    )


def run_connectx(n_senders):
    sim = Simulator()
    # The hosts sit where the tester's ports sit in run_marlin: one leaf,
    # senders first, the receiver last.
    fabric = build_fabric(sim)
    *senders, receiver = hosts = [Host(sim) for _ in range(n_senders + 1)]
    for host in hosts:
        host.address = fabric.attach(0, host.port)
    agents = [ConnectXAgent(host) for host in senders]
    recv_agent = ConnectXAgent(receiver)
    harness = ConnectXFctHarness(
        agents,
        recv_agent,
        scaled_websearch(),
        qps_per_host=QPS_PER_HOST,
        rng=np.random.default_rng(90 + n_senders),
        stop_after_flows=FLOWS_TO_COLLECT,
    )
    harness.start()
    sim.run(until_ps=400 * MS)
    return harness.fct.fcts_us()


def run_marlin(n_senders):
    cp = ControlPlane()
    tester = cp.deploy(
        TestConfig(cc_algorithm="dcqcn", n_test_ports=n_senders + 1)
    )
    cp.wire_loopback_fabric()
    # Each "host" is one tester port with QPS_PER_HOST closed-loop slots.
    slots = [
        FlowSlot(src, n_senders)
        for src in range(n_senders)
        for _ in range(QPS_PER_HOST)
    ]
    generator = ClosedLoopGenerator(
        tester,
        scaled_websearch(),
        slots,
        rng=np.random.default_rng(90 + n_senders),
        stop_after_flows=FLOWS_TO_COLLECT,
    )
    generator.start()
    cp.run(duration_ps=400 * MS)
    return tester.fct.fcts_us()


def compare(n_senders, benchmark):
    def experiment():
        return run_connectx(n_senders), run_marlin(n_senders)

    connectx_fct, marlin_fct = run_once(benchmark, experiment)

    print_header(
        f"Figure 9 ({n_senders}-cast-1): FCT CDF, Marlin vs ConnectX",
        f"WebSearch / {SIZE_SCALE}, {QPS_PER_HOST} QPs per sender, closed loop",
    )
    print_table(
        [
            cdf_summary("ConnectX", connectx_fct),
            cdf_summary("Marlin", marlin_fct),
        ],
        ["series", "flows", "p10_us", "p50_us", "p90_us", "p99_us", "max_us"],
    )

    # Two-sample comparison in log space: medians within 2x, and the
    # Kolmogorov-Smirnov distance between log-FCT CDFs below 0.35
    # ("consistent performance ... complete equivalence not possible").
    log_a = np.log10(connectx_fct)
    log_b = np.log10(marlin_fct)
    grid = np.linspace(
        min(log_a.min(), log_b.min()), max(log_a.max(), log_b.max()), 256
    )
    cdf_a = np.searchsorted(np.sort(log_a), grid, side="right") / len(log_a)
    cdf_b = np.searchsorted(np.sort(log_b), grid, side="right") / len(log_b)
    ks = float(np.max(np.abs(cdf_a - cdf_b)))
    median_ratio = float(np.median(marlin_fct) / np.median(connectx_fct))
    print(f"\nKS distance (log FCT): {ks:.3f}   median ratio: {median_ratio:.2f}x")

    assert len(connectx_fct) >= FLOWS_TO_COLLECT * 0.8
    assert len(marlin_fct) >= FLOWS_TO_COLLECT * 0.8
    assert 0.5 <= median_ratio <= 2.0
    assert ks < 0.35


def test_fig9_2cast1(benchmark):
    compare(2, benchmark)


def test_fig9_3cast1(benchmark):
    compare(3, benchmark)
