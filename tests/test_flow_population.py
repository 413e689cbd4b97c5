"""Many flows on one NIC: what each flow record costs in memory, and
how its RTO timer behaves when the scheduler, not the window, paces it."""

import gc
import tracemalloc

import pytest

from repro.cc.base import EventType
from repro.core import Scenario, TestConfig, deploy_scenario
from repro.units import US


def fixed_scenario(algorithm, flows_per_port, size_packets, duration_ps, **config):
    return Scenario(
        TestConfig(
            cc_algorithm=algorithm, n_test_ports=2, flows_per_port=flows_per_port,
            **config,
        ),
        duration_ps=duration_ps,
        pattern="pairs",
        workload="fixed",
        size_packets=size_packets,
    )


def traced_bytes_after_run(scenario) -> int:
    """Bytes allocated by deploying and running ``scenario`` that are
    still held while its control plane is alive."""
    gc.collect()
    tracemalloc.start()
    try:
        cp, _, _ = deploy_scenario(scenario)
        cp.run(duration_ps=scenario.duration_ps)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held


class TestPerFlowMemory:
    def test_dctcp_bytes_per_flow(self):
        """The paper's headline population is 65,536 flows on one NIC
        (12 x 5,461), so each byte of per-flow state costs ~64 kB there.
        One slotted flow record -- RMW window, slow-path occupancy and
        timer handles as fields -- holds DCTCP at ~550 B/flow on this
        shape; the four side tables it replaced held ~870 B/flow.  The
        bound sits between the two so that a new per-flow side table
        shows up here."""
        small, large = 500, 2_000
        held = [
            traced_bytes_after_run(fixed_scenario("dctcp", n, 1_000, 20 * US))
            for n in (small, large)
        ]
        per_flow = (held[1] - held[0]) / (2 * (large - small))
        assert per_flow <= 700, per_flow


@pytest.fixture(scope="module")
def rto_churn():
    """2 ports x 64 DCTCP flows with a 2 us RTO, run for 100 us: the
    scheduler serves each flow about once per 64 TX periods, longer than
    the RTO.  Returns the control plane and, per TIMEOUT the CC saw,
    whether it came with nothing outstanding (``una == nxt``)."""
    scenario = fixed_scenario("dctcp", 64, 200, 100 * US, cc_params={"rto_ps": 2 * US})
    cp, _, _ = deploy_scenario(scenario)
    algorithm = cp.tester.nic.algorithm
    on_event = algorithm.on_event
    timeouts = []

    def counting_on_event(intr, cust, slow):
        if intr.evt_type == EventType.TIMEOUT:
            timeouts.append(intr.una == intr.nxt)
        return on_event(intr, cust, slow)

    algorithm.on_event = counting_on_event
    cp.run(duration_ps=scenario.duration_ps)
    return cp, timeouts


class TestSpuriousRto:
    def test_timeouts_fire_on_a_clean_fabric(self, rto_churn):
        """No loss and no congestion signal: every timeout here is the
        timer's doing, not the network's."""
        cp, timeouts = rto_churn
        stats = [port.queue.stats for port in cp.fabric.ports]
        assert sum(s.dropped_packets for s in stats) == 0
        assert sum(s.ecn_marked_packets for s in stats) == 0
        assert len(timeouts) == cp.tester.read_counters()["fpga.timeouts_fired"] > 0

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "RFC 6298 section 5.2: when all outstanding data has been "
            "acknowledged, the retransmission timer must be turned off. "
            "Reno/DCTCP arm the RTO at flow start and re-arm it on every "
            "ACK, so it fires on flows with nothing in flight (630 of "
            "1,245 timeouts here)."
        ),
    )
    def test_no_timeout_with_nothing_outstanding(self, rto_churn):
        """A TIMEOUT with ``una == nxt`` has no packet to time out.  (At
        16 flows a port the same timer churn also causes 16 RMW
        conflicts.)"""
        _, timeouts = rto_churn
        assert sum(timeouts) == 0, f"{sum(timeouts)} of {len(timeouts)} spurious"
