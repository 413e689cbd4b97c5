"""Figure 10: comprehensive test — WebSearch FCT at 65,536 concurrent flows.

The tester's maximum concurrency (65,536 flows across 12 ports, closed
loop, ~1.2 Tbps aggregate) is beyond packet-level Python simulation
(~10^9 packets per second of simulated time), so this bench runs the
closed-form flow-level model (``FluidSimulator``) — cross-validated
against the packet simulator at small scale and against the columnar
solver in the test suite — for DCTCP, DCQCN, and the ideal equal-share
reference.  Fluid campaigns (``repro fluid``, the serve spec) run the
columnar solver; at 65,532 concurrent flows it needs 3-5 x 10^4 steps
per cell to collect 100,000 FCTs, over two minutes for the three cells
on a 2-vCPU box, so the paper-scale figure stays on the closed form.

Expected shape (paper's observations):
* both real algorithms are worse than ideal overall (utilization < 1,
  tail inflation);
* DCQCN markedly beats DCTCP on short flows (line-rate start vs slow
  start) — the inset of Figure 10.
"""

import numpy as np
from conftest import cdf_summary, print_header, print_table, run_once

from repro.fluid import FluidSimulator, dcqcn_profile, dctcp_profile, ideal_profile
from repro.units import format_rate
from repro.workload import websearch

N_PORTS = 12
FLOWS_PER_PORT = 65_536 // N_PORTS  # 5,461 -> 65,532 concurrent flows
FLOWS_TOTAL = 100_000
SHORT_CUTOFF_BYTES = 100_000


def run_all():
    fluid = FluidSimulator(n_ports=N_PORTS, flows_per_port=FLOWS_PER_PORT, seed=10)
    return {
        profile.name: fluid.run(profile, websearch(), flows_total=FLOWS_TOTAL)
        for profile in (ideal_profile(), dctcp_profile(), dcqcn_profile())
    }


def test_fig10_comprehensive(benchmark):
    results = run_once(benchmark, run_all)

    print_header(
        "Figure 10: WebSearch FCT at 65,536 concurrent flows",
        "closed-form fluid model, "
        f"{N_PORTS} ports x {FLOWS_PER_PORT} flows, "
        f"{FLOWS_TOTAL} flows sampled",
    )
    print_table(
        [cdf_summary(name, result.fcts_us) for name, result in results.items()],
        ["series", "flows", "p10_us", "p50_us", "p90_us", "p99_us", "max_us"],
    )

    ideal = results["ideal"].fcts_us
    dctcp = results["dctcp"].fcts_us
    dcqcn = results["dcqcn"].fcts_us

    # Short-flow inset (FCT mass in the 10^1..10^3 us decade).
    rows = []
    for name, fcts in (("ideal", ideal), ("dctcp", dctcp), ("dcqcn", dcqcn)):
        rows.append(
            {
                "series": name,
                "P[FCT <= 100us]": round(float(np.mean(fcts <= 100)), 3),
                "P[FCT <= 1000us]": round(float(np.mean(fcts <= 1000)), 3),
            }
        )
    print("\nShort-flow inset (cumulative probability at 100 us / 1 ms):")
    print_table(rows, ["series", "P[FCT <= 100us]", "P[FCT <= 1000us]"])

    per_slot = results["dcqcn"].throughput_bps()
    aggregate = per_slot * N_PORTS * FLOWS_PER_PORT
    print(f"\naggregate goodput (DCQCN run): {format_rate(aggregate)} "
          "(paper: close to 1.2 Tbps)")

    # Paper's observations, as assertions:
    # 1. Both algorithms worse than ideal in mean and at the extreme tail.
    assert np.max(dcqcn) > np.max(ideal)
    assert np.percentile(dcqcn, 99) > np.percentile(ideal, 99)
    assert np.mean(dcqcn) > np.mean(ideal)
    assert np.mean(dctcp) > np.mean(ideal)
    assert np.max(dctcp) > np.max(ideal)
    # 2. DCQCN significantly better than DCTCP for short flows (inset).
    short_dcqcn = float(np.mean(dcqcn <= 1000))
    short_dctcp = float(np.mean(dctcp <= 1000))
    short_ideal = float(np.mean(ideal <= 1000))
    assert short_dcqcn > 2 * short_dctcp
    assert short_dcqcn > 2 * short_ideal
    # 3. The tester stays near its 1.2 Tbps aggregate.
    assert 0.85 * 1.2e12 <= aggregate <= 1.5e12
