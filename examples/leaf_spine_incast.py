"""Testing CC over a leaf-spine fabric (the paper's 'large-scale
networks', in miniature).

Wires a Marlin tester's ports across a 2-leaf / 2-spine fabric with
per-flow ECMP, then runs a cross-leaf incast: three senders on leaf 0
converge on one receiver port on leaf 1.  Shows per-flow convergence at
the congested edge port, and that the spine mesh load-balances flows.

Run:  python examples/leaf_spine_incast.py
"""

from repro import TestConfig
from repro.core.tester import MarlinTester
from repro.measure.fairness import jain_index
from repro.net.fabric import wire_tester
from repro.sim import Simulator
from repro.units import MS, US, format_rate


def main() -> None:
    sim = Simulator()
    tester = MarlinTester(
        sim, TestConfig(cc_algorithm="dcqcn", n_test_ports=8)
    )
    fabric = wire_tester(sim, tester, n_leaves=2, n_spines=2)
    print(f"fabric: {fabric.n_leaves} leaves x {fabric.n_spines} spines; "
          f"{tester.n_test_ports} tester ports round-robin across leaves")

    sampler = tester.enable_rate_sampling(period_ps=500 * US)
    # Even ports sit on leaf 0, odd on leaf 1: a cross-leaf 3-to-1 incast.
    for src in (0, 2, 4):
        tester.start_flow(port_index=src, dst_port_index=1, size_packets=10**9)
    sim.run(until_ps=8 * MS)

    rates = {
        name: rate
        for name, rate in sampler.samples[-1].rates_bps.items()
        if name.startswith("flow")
    }
    print("\ncross-leaf incast (3 senders on leaf 0 -> 1 port on leaf 1):")
    for name, rate in sorted(rates.items()):
        print(f"  {name}: {format_rate(rate)}")
    print(f"  total {format_rate(sum(rates.values()))}, "
          f"Jain {jain_index(list(rates.values())):.3f}")

    load = fabric.spine_load()
    print(f"\nspine load balance (forwarded packets): {load}")
    print("ECMP keeps each flow on one spine; multiple flows spread across both.")


if __name__ == "__main__":
    main()
