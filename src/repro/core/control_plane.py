"""The control-plane program (paper Section 3.2).

Operators configure a test (CC algorithm, parameters, ports, flows per
port), the control plane generates device configurations and deploys them
— here, by constructing the :class:`~repro.core.tester.MarlinTester` —
then starts traffic and retrieves measurements (port/flow rates, packet
loss, CC parameter traces).

It also provides the standard experiment wiring: the tester's test ports
through an intermediate switch, sending in the :data:`PATTERNS` shapes.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.config import TestConfig
from repro.core.tester import MarlinTester
from repro.errors import ConfigError
from repro.net.fabric import wire_tester
from repro.net.switch import NetworkSwitch
from repro.sim.engine import Simulator


#: Traffic patterns over ``n`` test ports: name -> (src, dst) port pairs.
#:
#: * ``pairs``  -- port i sends to port i + n/2 (Figures 6/7 shape; n even);
#: * ``fan_in`` -- every port except the last sends to the last port
#:   (Figure 8's congestion shape);
#: * ``ring``   -- port i sends to port i + 1 mod n, so every port sends
#:   and every port receives (the paper's all-ports headline).
PATTERNS: dict[str, Callable[[int], list[tuple[int, int]]]] = {
    "pairs": lambda n: [(i, i + n // 2) for i in range(n // 2)],
    "fan_in": lambda n: [(i, n - 1) for i in range(n - 1)],
    "ring": lambda n: [(i, (i + 1) % n) for i in range(n)],
}


def pattern_pairs(pattern: str, n_ports: int) -> list[tuple[int, int]]:
    """The ``(src, dst)`` test-port pairs of a named pattern."""
    if pattern not in PATTERNS:
        raise ConfigError(f"unknown pattern {pattern!r}; choose from {sorted(PATTERNS)}")
    if pattern == "pairs" and n_ports % 2 != 0:
        raise ConfigError(f"pairs pattern needs an even port count, got {n_ports}")
    return PATTERNS[pattern](n_ports)


class ControlPlane:
    """Deploys configurations and orchestrates test runs.

    ``sim_backend`` is only a check on the simulator the control plane
    constructs (see :mod:`repro.sim.backend`): naming the engine that
    is not loaded raises.  It cannot be combined with an explicit
    ``sim``.
    """

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        *,
        sim_backend: Optional[str] = None,
    ) -> None:
        if sim is not None and sim_backend is not None:
            raise ConfigError(
                "pass either an existing sim or sim_backend, not both"
            )
        self.sim = sim if sim is not None else Simulator(backend=sim_backend)
        self.tester: Optional[MarlinTester] = None
        self.fabric: Optional[NetworkSwitch] = None

    # -- deployment ---------------------------------------------------------------

    def deploy(self, config: TestConfig) -> MarlinTester:
        """Generate and push switch + FPGA configurations (Figure 1)."""
        if self.tester is not None:
            raise ConfigError("a tester is already deployed on this control plane")
        self.tester = MarlinTester(self.sim, config)
        return self.tester

    def require_tester(self) -> MarlinTester:
        if self.tester is None:
            raise ConfigError("deploy() a TestConfig first")
        return self.tester

    # -- standard testbed wiring -----------------------------------------------------

    def wire_loopback_fabric(self, **options: int) -> NetworkSwitch:
        """Connect every test port to an intermediate switch and give each
        port an address routed straight back to it: the one-leaf,
        no-spine :mod:`repro.net.fabric` (``options``:
        ``ecn_threshold_bytes``, ``queue_capacity_bytes``).

        This is the paper's testbed shape ("sender and receiver are
        connected with a programmable switch via twelve 100 Gbps links
        each"): any test port can then send to any other test port's
        address, and the experiment picks a :data:`PATTERNS` row purely
        by its choice of destination addresses.
        """
        fabric = wire_tester(
            self.sim, self.require_tester(), n_leaves=1, n_spines=0, **options
        )
        self.fabric = fabric.leaves[0]
        return self.fabric

    # -- test execution ------------------------------------------------------------------

    def start_flows(
        self,
        *,
        flows_per_port: Optional[int] = None,
        size_packets: int,
        pattern: str = "pairs",
    ) -> list[int]:
        """Start the configured number of flows on each sending port of
        ``pattern`` (see :data:`PATTERNS`).  Returns the started flow ids."""
        tester = self.require_tester()
        if flows_per_port is None:
            flows_per_port = tester.config.flows_per_port
        flow_ids: list[int] = []
        for src, dst in pattern_pairs(pattern, tester.n_test_ports):
            for _ in range(flows_per_port):
                flow = tester.start_flow(
                    port_index=src, dst_port_index=dst, size_packets=size_packets
                )
                flow_ids.append(flow.flow_id)
        return flow_ids

    def run(self, duration_ps: int) -> None:
        """Advance the simulation by ``duration_ps``."""
        self.sim.run(until_ps=self.sim.now + duration_ps)

    def read_measurements(self) -> dict[str, int]:
        """Read the merged hardware counters (Section 3.2)."""
        return self.require_tester().read_counters()
