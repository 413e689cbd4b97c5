"""Section 5.3 ablation: packet-frequency control on and off.

Three demonstrations:

1. **Ingress (Challenge 3)** — a burst of same-flow INFO packets at the
   64 B line rate is replayed into the FPGA twice: with RX timers
   (no RMW conflicts) and bypassing them (conflicts corrupt CC state);
2. **Egress (Challenge 1)** — SCHE packets are pushed at the 64 B line
   rate into one switch port's register queue, overflowing it ("false
   packet losses"), then replayed paced at the per-port DATA rate
   (zero losses);
3. the **static analysis** table: RMW cycle budgets per MTU and the
   per-algorithm safety verdicts, including Cubic's required PPS
   reduction (Section 8).
"""

from conftest import print_header, print_table, run_once

import repro.cc as cc
from repro import ControlPlane, TestConfig
from repro.fpga.hls import algorithm_cycles
from repro.fpga.timers import FrequencyControl
from repro.pswitch.module_c import DataGenerator
from repro.pswitch.packets import make_ack, make_data, make_info, make_sche
from repro.net.device import Device
from repro.sim import Simulator
from repro.units import MS, US, serialization_time_ps, RATE_100G


def _ack_burst(cp, tester, n=32):
    from repro.units import serialization_time_ps

    flow = tester.start_flow(port_index=0, dst_port_index=1, size_packets=10**6)
    cp.run(duration_ps=100 * US)
    spacing = serialization_time_ps(64, tester.config.port_rate_bps)
    for i in range(n):
        data = make_data(
            flow.flow_id, i, src_addr=1, dst_addr=2, frame_bytes=1024, tx_tstamp_ps=0
        )
        info = make_info(make_ack(data, i + 1), 0)
        cp.sim.at(cp.sim.now + i * spacing, tester.nic.receive, info, tester.nic.port)
    cp.run(duration_ps=200 * US)
    return tester.read_counters()["fpga.rmw_conflicts"]


def ingress_ablation(disable_rx_timer):
    cp = ControlPlane()
    tester = cp.deploy(
        TestConfig(
            cc_algorithm="dctcp", n_test_ports=2, disable_rx_timer=disable_rx_timer
        )
    )
    cp.wire_loopback_fabric()
    return _ack_burst(cp, tester)


class _Null(Device):
    def receive(self, packet, port):
        pass


def egress_ablation(paced):
    """Feed 200 SCHE into one port's register queue at the 64 B line rate
    (unpaced) or at the DATA rate (paced); count false packet losses."""
    sim = Simulator()
    source = _Null(sim, "gen-host")
    port = source.add_port(rate_bps=RATE_100G)
    sink = _Null(sim, "sink")
    from repro.net.link import Link

    Link(port, sink.add_port(), delay_ps=0)
    generator = DataGenerator(sim, [port], template_bytes=1024, queue_capacity=128)
    interval = serialization_time_ps(1024 if paced else 64, RATE_100G)
    for i in range(200):
        sche = make_sche(1, i, 0, src_addr=1, dst_addr=2, frame_bytes=1024)
        sim.at(i * interval, generator.on_sche, sche)
    sim.run()
    return generator.sche_dropped


def test_frequency_control_ingress(benchmark):
    with_timer, without_timer = run_once(
        benchmark, lambda: (ingress_ablation(False), ingress_ablation(True))
    )
    print_header(
        "Section 5.3 ablation (ingress): RX timers vs RMW conflicts",
        "32 same-flow INFO packets at 148.8 Mpps into the DCTCP module "
        "(24-cycle RMW)",
    )
    print_table(
        [
            {"configuration": "RX timer at 11.97 Mpps (paper)", "RMW conflicts": with_timer},
            {"configuration": "RX timer bypassed (ablation)", "RMW conflicts": without_timer},
        ],
        ["configuration", "RMW conflicts"],
    )
    assert with_timer == 0
    assert without_timer > 0


def test_frequency_control_egress(benchmark):
    paced, unpaced = run_once(
        benchmark, lambda: (egress_ablation(True), egress_ablation(False))
    )
    print_header(
        "Section 5.3 ablation (egress): TX pacing vs register-queue overflow",
        "200 SCHE into a 128-entry register queue",
    )
    print_table(
        [
            {
                "configuration": "SCHE paced at 11.97 Mpps (paper)",
                "false packet losses": paced,
            },
            {
                "configuration": "SCHE at 148.8 Mpps (ablation)",
                "false packet losses": unpaced,
            },
        ],
        ["configuration", "false packet losses"],
    )
    assert paced == 0
    assert unpaced > 0


def test_frequency_control_analysis(benchmark):
    def analyze():
        rows = []
        for mtu in (1024, 1518):
            control = FrequencyControl(mtu, 12)
            for name in ("reno", "dctcp", "dcqcn", "cubic", "timely"):
                cycles = algorithm_cycles(cc.create(name))
                problems = control.validate(cycles)
                rows.append(
                    {
                        "MTU": mtu,
                        "algorithm": name,
                        "cycles": cycles,
                        "budget": control.max_rmw_cycles,
                        "safe": "yes" if not problems else "no",
                        "pps reduction": control.pps_reduction_factor(cycles),
                    }
                )
        return rows

    rows = run_once(benchmark, analyze)
    print_header(
        "Section 5.3 / Section 8: RMW cycle budgets per algorithm and MTU"
    )
    print_table(rows, ["MTU", "algorithm", "cycles", "budget", "safe", "pps reduction"])

    by_key = {(row["MTU"], row["algorithm"]): row for row in rows}
    assert by_key[(1518, "dctcp")]["budget"] == 40  # paper's 40-cycle bound
    assert by_key[(1024, "dctcp")]["budget"] == 27  # paper's 27-cycle note
    assert by_key[(1024, "dctcp")]["safe"] == "yes"
    assert by_key[(1518, "cubic")]["safe"] == "no"  # Section 8
    assert by_key[(1518, "cubic")]["pps reduction"] >= 2
